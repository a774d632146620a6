"""Reference kernels and solvers for the observable fixed point (tests only).

The package ships one kernel construction, the derived one in
``bose_genfun.observable``.  This module keeps what the tests hold it
against; it has no ``test_`` prefix, so pytest imports it but collects
nothing from it.

* The "paper" kernels: the closed-form linearized A and D printed in the
  source derivation, in which conj(F_{l,k}) has been rewritten in terms of
  F_{k,l} through the cross-symmetry c_q s_p F_{p,q} = c_p s_q conj(F_{q,p}).
  That identity holds exactly when O commutes with momentum negation and
  complex conjugation in the lattice basis (e.g. O = identity, or real
  symmetric parity-even O on equal-|nu| mode sets), and the two
  constructions then agree to solver precision.  For generic complex
  Hermitian O it fails at first order in kappa, and the paper solution
  deviates from the Fock oracle at O(kappa^2).  The printed split-form
  source also carries a ninth summand (``with_term9``) that breaks the
  raw/stabilized equality.  The tests pin both discrepancies.
* The raw (unsubtracted) forms of both constructions, for raw == stabilized.
* The Neumann-quadrature route to Lambda_O (``log_mgf_general``): the
  fixed point solved by the Neumann series at each quadrature node of
  int_0^lambda Lambda_O', inside ``certified_domain``, the symmetric
  interval on which d_norm_bound(+-kappa) < 1, found by bisection.  The
  package reports the Gaussian-determinant closed form
  ``observable.log_mgf_det``, and the tests hold the two against each
  other.
* A brute-force four-index tensor, a power-iteration estimate of the norm
  of D, and a realified dense solver for F = A + D[F], which also gives a
  third route to Lambda_O.
* QUADPACK (scipy.integrate.quad) as the reference integrator: the
  Neumann-quadrature routes above use it, and ``log_mgf_grid_quadpack``
  walks a grid gap by gap as the package's numpy Gauss-Kronrod pass does,
  one QUADPACK call per gap.
* The public wrappers the package does not call itself: ``kernel_A``,
  ``apply_D``, ``observable_identity``, the scalar ``log_mgf`` and
  ``kernel_from_nu``, the desk-scale kernel with explicit pairing angles.
* The derived D written as (left, right, access) triples, D[F] = sum
  left @ access(F) @ right, with -a2 and -a1 as factors of their own
  (``_derived_terms``), and its min(spectral, Frobenius) bound; the tests
  hold ``observable._apply`` and ``observable._bound`` against them.
"""

import math

import numpy as np
import scipy.integrate
import scipy.linalg

from bose_genfun.genfun import (QuadratureSpec, QuadratureStats,
                                integrand_diagonal, log_mgf_grid)
from bose_genfun.observable import (
    _apply,
    _exp_pair,
    _Factors,
    _source,
    ObservableKernel,
    d_norm_bound,
    observable_mean,
    solve_F,
)
from bose_genfun.spectrum import (SpectrumKernel, _lambda0_from_tanh,
                                  depletion_mean)

_BISECTION_STEPS = 80


def _quad(f, lo: float, hi: float, quad: QuadratureSpec | None,
          stats: QuadratureStats | None = None) -> float:
    """int_lo^hi f by QUADPACK; ArithmeticError if it reports non-convergence.
    Its evaluation count and error estimate are added to stats, if given."""
    quad = quad or QuadratureSpec()
    val, abserr, info, *tail = scipy.integrate.quad(
        f, lo, hi, epsabs=quad.tol, epsrel=quad.tol, limit=quad.max_panels,
        full_output=1)
    if tail:  # QUADPACK appended a warning; its first line names the cause
        raise ArithmeticError(f"quadrature on [{lo:.9g}, {hi:.9g}] did not "
                              f"converge: {tail[0].splitlines()[0]}")
    if stats is not None:
        stats.evals += int(info["neval"])
        stats.abserr_max = max(stats.abserr_max, float(abserr))
    return float(val)


def log_mgf_grid_quadpack(k: SpectrumKernel, lams,
                          quad: QuadratureSpec | None = None,
                          stats: QuadratureStats | None = None) -> np.ndarray:
    """genfun.log_mgf_grid with one QUADPACK call per gap: the same walk
    outward from 0, so each gap is integrated once."""
    lams = np.asarray(lams, dtype=float)
    order = np.argsort(lams)
    pts = lams[order]
    vals = np.empty(pts.size)

    def cumulate(indices):
        prev_x, prev_v = 0.0, 0.0
        for i in indices:
            prev_v += _quad(lambda x: float(integrand_diagonal(k, x)), prev_x,
                            pts[i], quad, stats)
            prev_x = pts[i]
            vals[i] = prev_v

    cumulate([i for i in range(pts.size) if pts[i] >= 0.0])
    cumulate([i for i in reversed(range(pts.size)) if pts[i] < 0.0])
    out = np.empty(lams.size)
    out[order] = vals + pts * depletion_mean(k)
    return out


def log_mgf(k: SpectrumKernel, lam: float, quad: QuadratureSpec | None = None) -> float:
    """Lambda(lambda) at one point by the package's quadrature."""
    return float(log_mgf_grid(k, np.array([lam]), quad)[0])


def kernel_from_nu(lattice, nu) -> SpectrumKernel:
    """Desk-scale constructor with explicit nu values (one per mode).

    nu must be even under p -> -p.  a16pi is recorded as NaN since the
    amplitudes were not derived from a coupling.
    """
    nu = np.asarray(nu, dtype=float)
    if nu.shape != (lattice.size,):
        raise ValueError("nu must have one entry per lattice mode")
    if not np.allclose(nu, nu[lattice.neg_index], rtol=0, atol=0):
        raise ValueError("nu must be even: nu[p] == nu[-p]")
    s, c, t = np.sinh(nu), np.cosh(nu), np.tanh(nu)
    return SpectrumKernel(lattice=lattice, a16pi=math.nan, nu=nu,
                          s=s, c=c, t=t, lambda0=_lambda0_from_tanh(t))


def observable_identity(lattice) -> ObservableKernel:
    return ObservableKernel(lattice=lattice, o=np.eye(lattice.size, dtype=complex))


def kernel_A(k: SpectrumKernel, obs: ObservableKernel, kappa: float) -> np.ndarray:
    """The inhomogeneous (source) kernel A_{p,q}(kappa), stabilized form."""
    return _source(_Factors(k, obs, kappa))


def apply_D(k: SpectrumKernel, obs: ObservableKernel, kappa: float,
            F: np.ndarray) -> np.ndarray:
    """Apply the antilinear map D(kappa) to F, matrix-free in the four-index
    kernel: three dense products per separable term."""
    F = np.asarray(F, dtype=complex)
    if F.shape != (k.size, k.size):
        raise ValueError("F must be modes x modes")
    return _apply(_Factors(k, obs, kappa), F)


def _diag(v):
    return np.diag(v.astype(complex))


def _access(F, mode, neg):
    """'tilde' conj(F).T[:, neg] (conj(F_{-l,k}) at (k,l)); 'negconj'
    conj(F)[neg, :]; 'plain' F; 'negrow' F[neg, :]."""
    if mode == "tilde":
        return F.conj().T[:, neg]
    if mode == "negconj":
        return F.conj()[neg, :]
    if mode == "plain":
        return F
    if mode == "negrow":
        return F[neg, :]
    raise ValueError(mode)


class RefFactors:
    """Every exponential factor of one (observable, kappa), raw and subtracted."""

    def __init__(self, k, obs, kappa):
        self.s, self.c, self.t = k.s, k.c, k.t
        self.neg = k.lattice.neg_index
        self.ep, self.em = _exp_pair(obs, kappa)
        eye = np.eye(obs.size)
        self.pbar = self.ep.conj()
        self.dm = self.em - eye
        self.dbp = self.pbar - eye


# ----------------------------------------------------------------- sources


def kernel_A_paper(k, obs, kappa, with_term9=False):
    """Linearized source kernel, stabilized form; with_term9 appends the
    ninth printed summand."""
    f = RefFactors(k, obs, kappa)
    s, c, neg = f.s, f.c, f.neg
    m1 = f.dbp[neg][:, neg].T
    m1m = f.dm[neg][:, neg].T
    a = _diag(c * c * s) @ f.dbp @ _diag(c)
    a += np.outer(c, c) * ((f.dbp[:, neg]).T @ _diag(c * s) @ f.dbp[neg, :])
    a += _diag(c) @ m1 @ _diag(c * c * s)
    a += np.outer(s, s) * (m1m @ _diag(s * c) @ f.dm)
    a += _diag(s) @ m1m @ _diag(s * s * c)
    a -= np.outer(s, c) * ((f.em[:, neg]).T @ _diag(s * s) @ f.dbp[:, neg])
    a -= _diag(s) @ m1m @ _diag(c * s * s)
    a -= np.outer(c, s) * (f.dbp.T @ _diag(s * s) @ f.em)
    if with_term9:
        a -= _diag(c * s * s) @ f.dm @ _diag(s)
    return a


def kernel_A_raw(k, obs, kappa, variant):
    """Unsubtracted source kernel of the "derived" or the "paper" construction."""
    f = RefFactors(k, obs, kappa)
    s, c, neg = f.s, f.c, f.neg
    a = -_diag(c * s)
    a += np.outer(c, c) * ((f.pbar[:, neg]).T @ _diag(c * s) @ f.pbar[neg, :])
    if variant == "derived":
        a += np.outer(s, s) * (f.em.T @ _diag(s * c) @ f.em[neg][:, neg])
        a -= np.outer(s, c) * (f.em.T @ _diag(s * s) @ f.pbar)
        a -= np.outer(c, s) * ((f.pbar[:, neg]).T @ _diag(s * s) @ f.em[:, neg])
        return a
    if variant == "paper":
        a += np.outer(s, s) * ((f.em[neg][:, neg]).T @ _diag(s * c) @ f.em)
        a -= np.outer(s, c) * ((f.em[:, neg]).T @ _diag(s * s) @ f.pbar[:, neg])
        a -= np.outer(c, s) * (f.pbar.T @ _diag(s * s) @ f.em)
        return a
    raise ValueError(f"unknown variant {variant!r}")


# ------------------------------------------------------- fixed-point maps D


def _paper_terms(f, raw):
    """The linearized D as (left, right, access) triples; see observable._Factors."""
    s, c, t, neg = f.s, f.c, f.t, f.neg
    if raw:
        l1 = _diag(c) @ (f.pbar[neg][:, neg]).T @ _diag(c)
        l2 = _diag(c) @ (f.em[:, neg]).T @ _diag(c)
        l4 = _diag(c) @ f.em.T @ _diag(c)
        r1 = _diag(s * t) @ f.pbar @ _diag(c)
        r2 = _diag(s * t) @ f.em[neg, :] @ _diag(c)
        r3 = _diag(s * t) @ f.pbar[:, neg] @ _diag(c)
        return [(l1, r1, "plain"), (l2, r2, "plain"),
                (-l2, r3, "plain"), (-l4, r1, "plain")]
    a_t1 = _diag(c) @ (f.dbp[neg][:, neg].T - f.dm.T) @ _diag(c)
    b_t4c = (_diag(s * t) @ (f.dm[neg, :] - f.dbp[:, neg])) @ _diag(c)
    b_t5 = _diag(s * t) @ f.dbp @ _diag(c)
    a_t6 = _diag(c) @ (f.dm[:, neg]).T @ _diag(c)
    return [(a_t1, _diag(s * s), "plain"), (_diag(c * c), b_t4c, "negrow"),
            (a_t1, b_t5, "plain"), (a_t6, b_t4c, "plain")]


def _derived_terms(f):
    """observable._Factors as the four (left, right, access) triples of D."""
    return [(f.a1, f.b1, "tilde"), (f.a2, f.b2, "tilde"),
            (-f.a2, f.b1, "tilde"), (-f.a1, f.b2, "negconj")]


def _derived_bound(f):
    """The bound on ||D|| as min(spectral, Frobenius) over the triples."""
    spec = 0.0
    frob = 0.0
    for left, right, _ in _derived_terms(f):
        spec += np.linalg.norm(left, 2) * np.linalg.norm(right, 2)
        frob += np.linalg.norm(left) * np.linalg.norm(right)
    return float(min(spec, frob))


def _derived_raw_terms(f):
    s, c, neg = f.s, f.c, f.neg
    a1 = _diag(c) @ (f.pbar[neg][:, neg].T) @ _diag(s)
    b1 = _diag(s) @ f.pbar[neg, :] @ _diag(c)
    a2 = _diag(s) @ f.em.T @ _diag(c)
    b2 = _diag(c) @ f.em[:, neg] @ _diag(s)
    return [(a1, b1, "tilde"), (a2, b2, "tilde"),
            (-a2, b1, "tilde"), (-a1, b2, "negconj")]


def _apply_terms(terms, F, neg):
    out = np.zeros_like(F)
    for left, right, mode in terms:
        out += left @ _access(F, mode, neg) @ right
    return out


def apply_D_paper(k, obs, kappa, F, raw=False):
    """Apply the linearized (complex-linear) D, stabilized or raw."""
    f = RefFactors(k, obs, kappa)
    return _apply_terms(_paper_terms(f, raw), np.asarray(F, dtype=complex), f.neg)


def apply_D_raw(k, obs, kappa, F):
    """Apply the unsubtracted derived D; it equals the production map only on
    the exchange-symmetric subspace F = F[neg][:, neg].T."""
    f = RefFactors(k, obs, kappa)
    return _apply_terms(_derived_raw_terms(f), np.asarray(F, dtype=complex), f.neg)


# ------------------------------------------------------------------ oracles


def d_tensor_bruteforce(apply, n):
    """Materialized 4-index action T[p,q,k,l] of a map F -> D[F] on n x n F.

    Built from real unit matrices, so for an antilinear D the tensor
    multiplies conj(F); tests contract it accordingly.
    """
    tensor = np.zeros((n, n, n, n), dtype=complex)
    basis = np.zeros((n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            basis[a, b] = 1.0
            tensor[:, :, a, b] = apply(basis)
            basis[a, b] = 0.0
    return tensor


def realified(apply, n):
    """The real 2n^2 x 2n^2 matrix of a real-linear map on complex n x n F."""
    m = np.zeros((2 * n * n, 2 * n * n))
    basis = np.zeros((n, n), dtype=complex)
    col = 0
    for part in (1.0, 1.0j):
        for i in range(n):
            for j in range(n):
                basis[i, j] = part
                img = apply(basis)
                m[:n * n, col] = img.real.ravel()
                m[n * n:, col] = img.imag.ravel()
                basis[i, j] = 0.0
                col += 1
    return m


def dense_solve(a, apply):
    """Solve F = a + D[F] directly on the realified (I - D) system."""
    n = a.shape[0]
    m = realified(apply, n)
    rhs = np.concatenate([a.real.ravel(), a.imag.ravel()])
    x = scipy.linalg.solve(np.eye(2 * n * n) - m, rhs)
    return (x[:n * n] + 1j * x[n * n:]).reshape(n, n)


def certified_domain(k: SpectrumKernel, obs: ObservableKernel) -> float:
    """Largest kappa with d_norm_bound(+-kappa) < 1, capped by lambda0 (by 4
    when lambda0 is infinite).

    Bisection; it ends early once the midpoint is no longer strictly inside
    the bracket, since every later step would then leave the bracket as is.
    """
    hi_cap = k.lambda0 if math.isfinite(k.lambda0) else 4.0

    def contracts(x: float) -> bool:
        return d_norm_bound(k, obs, x) < 1.0 and d_norm_bound(k, obs, -x) < 1.0

    if contracts(hi_cap * (1.0 - 1e-12)):
        return hi_cap
    lo, hi = 0.0, hi_cap
    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if contracts(mid):
            lo = mid
        else:
            hi = mid
    return lo


def log_mgf_general(k: SpectrumKernel, obs: ObservableKernel, lams,
                    quad: QuadratureSpec | None = None) -> np.ndarray:
    """Lambda_O(lambda) = int_0^lambda Re sum s_p c_q O_pq Fhat_pq(kappa) dkappa
    + lambda mu_O on a lambda grid, solving the fixed point at each node.

    The certified domain is computed once for the grid; every lambda is
    integrated from 0 on its own, so a value does not depend on the grid.
    """
    return _log_mgf_general_in(k, obs, lams, quad, certified_domain(k, obs))


def _log_mgf_general_in(k: SpectrumKernel, obs: ObservableKernel, lams,
                        quad: QuadratureSpec | None, dom: float) -> np.ndarray:
    """log_mgf_general for a caller that already holds certified_domain(k, obs)."""
    lams = [float(lam) for lam in np.atleast_1d(lams)]
    for lam in lams:
        if not abs(lam) < dom:
            raise ValueError(f"lambda {lam} outside certified contraction domain "
                             f"(+-{dom:.6g})")
    mu_o = observable_mean(k, obs)
    weight = np.outer(k.s, k.c) * obs.o

    def integrand(kappa: float) -> float:
        if kappa == 0.0:
            return 0.0
        return float(np.sum(weight * solve_F(k, obs, kappa).F).real)

    return np.array([_quad(integrand, 0.0, lam, quad) + lam * mu_o if lam != 0.0
                     else 0.0 for lam in lams])


def log_mgf_dense(k, obs, lam, quad=None):
    """Lambda_O(lambda) by the same quadrature as log_mgf_general, with each
    fixed point taken from dense_solve instead of the Neumann series."""
    if lam == 0.0:
        return 0.0
    weight = np.outer(k.s, k.c) * obs.o

    def integrand(kappa):
        if kappa == 0.0:
            return 0.0
        F = dense_solve(kernel_A(k, obs, kappa),
                        lambda X: apply_D(k, obs, kappa, X))
        return float(np.sum(weight * F).real)

    return _quad(integrand, 0.0, lam, quad) + lam * observable_mean(k, obs)


def _access_adjoint(Y, left, right, mode, neg):
    """Adjoint of F -> left @ access(F) @ right in the real inner product
    <X, Y> = Re tr(X^dag Y), for the derived access modes."""
    if mode == "tilde":
        # T(F) = L (F^dag N) R  =>  T^T(Y) = N R Y^dag L
        return (right @ Y.conj().T @ left)[neg, :]
    if mode == "negconj":
        return (left.conj().T @ Y @ right.conj().T).conj()[neg, :]
    raise ValueError(mode)


def d_norm_estimate(k, obs, kappa, iters=80, seed=0):
    """Power-iteration estimate of the true (real-linear) spectral norm of D."""
    if kappa == 0.0:
        return 0.0
    f = _Factors(k, obs, kappa)
    terms = _derived_terms(f)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((k.size, k.size)) + 1j * rng.standard_normal((k.size, k.size))
    x /= np.linalg.norm(x)
    est = 0.0
    for _ in range(iters):
        y = _apply_terms(terms, x, f.neg)
        z = np.zeros_like(x)
        for left, right, mode in terms:
            z += _access_adjoint(y, left, right, mode, f.neg)
        nz = np.linalg.norm(z)
        if nz == 0.0:
            return 0.0
        est = math.sqrt(nz)
        x = z / nz
    return float(est)
