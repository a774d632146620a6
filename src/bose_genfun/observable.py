"""General one-particle observables: the A/D kernels, the fixed-point
equation for the pair amplitude F, and Lambda_O(lambda).

The pair amplitude F_{p,q}(kappa) = <vac, a_{-p} a_q M(kappa) vac> with
M = e^{-K} e^{kappa dGamma(O)} e^{K} satisfies a linear fixed-point
equation F = A*G + D[F].  Two kernel constructions are provided:

* variant="derived" (default): obtained by conjugating the two
  annihilators through both exponentials and normal-ordering, with no use
  of any cross-symmetry between F_{p,q} and conj(F_{q,p}).  The map D is
  antilinear (it acts on conj(F_{-l,k})).  This variant reproduces the
  exact Fock-space oracle for arbitrary Hermitian O.

* variant="paper": the closed-form linearized kernels in which
  conj(F_{l,k}) has been rewritten in terms of F_{k,l} through the
  cross-symmetry c_q s_p F_{p,q} = c_p s_q conj(F_{q,p}).  That identity
  holds exactly when O commutes with momentum negation and complex
  conjugation in the lattice basis (e.g. O = identity, or real symmetric
  parity-even O on equal-|nu| mode sets), and the two variants then agree
  to solver precision; for generic complex Hermitian O it fails at first
  order in kappa and the variant deviates from the oracle at O(kappa^2).

Both variants are built from subtracted factors Delta = e^{kappa O} - 1,
so O=0 and kappa=0 give exactly zero.  The raw (unsubtracted) forms are
kept only for tests that verify raw == stabilized.

Everything here targets desk-scale mode counts (the acceptance instances
are two pairs); solvers refuse absurd dense dimensions rather than crawl.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .genfun import QuadratureSpec, _quad
from .lattice import Lattice
from .spectrum import SpectrumKernel

_DENSE_MODE_CAP = 32
_EXP_ROUNDTRIP_TOL = 1e-12

VARIANTS = ("derived", "paper")


@dataclass(frozen=True, eq=False)
class ObservableKernel:
    """Hermitian one-particle matrix O_{p,q} on lattice mode indices.

    The lattice excludes the zero mode by construction, so O never couples
    to the condensate.
    """

    lattice: Lattice
    o: np.ndarray
    hermitian: bool = True

    @cached_property
    def _eigsys(self):
        w, u = scipy.linalg.eigh(self.o)
        return w, u

    @property
    def size(self) -> int:
        return self.o.shape[0]


def observable_from_matrix(lattice: Lattice, o) -> ObservableKernel:
    o = np.asarray(o, dtype=complex)
    n = lattice.size
    if o.shape != (n, n):
        raise ValueError(f"observable must be {n}x{n} for this lattice")
    if not np.all(np.isfinite(o.view(float))):
        raise ValueError("observable has non-finite entries")
    if not np.allclose(o, o.conj().T, rtol=0, atol=1e-12):
        raise ValueError("observable must be Hermitian")
    return ObservableKernel(lattice=lattice, o=o)


def observable_identity(lattice: Lattice) -> ObservableKernel:
    return ObservableKernel(lattice=lattice, o=np.eye(lattice.size, dtype=complex))


def observable_random(lattice: Lattice, seed: int,
                      ensemble: str = "real-parity") -> ObservableKernel:
    """Seeded random Hermitian observable, spectral norm 1.

    ensemble="real-parity" (default) draws real symmetric matrices
    commuting with momentum negation — the class on which the fixed-point
    cross-symmetry holds exactly.  ensemble="hermitian" draws a generic
    complex Hermitian matrix (useful for probing the generic case).
    """
    n = lattice.size
    rng = np.random.default_rng(seed)
    if ensemble == "real-parity":
        m = rng.standard_normal((n, n))
        m = m + m.T
        neg = lattice.neg_index
        m = 0.5 * (m + m[neg][:, neg])
        m = m.astype(complex)
    elif ensemble == "hermitian":
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m = 0.5 * (m + m.conj().T)
    else:
        raise ValueError(f"unknown ensemble {ensemble!r}")
    m /= np.linalg.norm(m, 2)
    return ObservableKernel(lattice=lattice, o=m)


def observable_from_csv(lattice: Lattice, path) -> ObservableKernel:
    """Load O from rows (p_index, q_index, re, im).

    Each row has four fields, indices lie in [0, lattice.size) and each
    (p, q) appears once; a row breaking a rule raises ValueError naming its
    line.
    """
    o = np.zeros((lattice.size, lattice.size), dtype=complex)
    seen = set()
    with open(path, newline="") as fh:
        for line, row in enumerate(csv.reader(fh), start=1):
            if not row or row[0].lstrip().startswith("#") or row[0] == "p_index":
                continue
            if len(row) != 4:
                raise ValueError(f"{path} line {line}: expected 4 fields, got {len(row)}")
            p, q, re, im = int(row[0]), int(row[1]), float(row[2]), float(row[3])
            if not (0 <= p < lattice.size and 0 <= q < lattice.size):
                raise ValueError(f"{path} line {line}: index ({p}, {q}) outside "
                                 f"[0, {lattice.size})")
            if (p, q) in seen:
                raise ValueError(f"{path} line {line}: duplicate entry ({p}, {q})")
            seen.add((p, q))
            o[p, q] = re + 1j * im
    return observable_from_matrix(lattice, o)


def observable_mean(k: SpectrumKernel, obs: ObservableKernel) -> float:
    """mu_O = sum_p O_{p,p} sinh^2(nu_p) (real for Hermitian O)."""
    diag = np.real(np.diag(obs.o))
    return math.fsum((diag * k.s * k.s).tolist())


def exp_of_O(obs: ObservableKernel, kappa: float) -> np.ndarray:
    """exp(kappa O) through the unitary eigendecomposition of Hermitian O."""
    w, u = obs._eigsys
    e = (u * np.exp(kappa * w)) @ u.conj().T
    if kappa != 0.0:
        e_inv = (u * np.exp(-kappa * w)) @ u.conj().T
        defect = np.linalg.norm(e @ e_inv - np.eye(obs.size), 2)
        if defect > _EXP_ROUNDTRIP_TOL:
            raise ArithmeticError(f"matrix exponential roundtrip defect {defect:.3e}")
    return e


class _Factors:
    """Per-(observable, kappa) matrices shared between A and D."""

    def __init__(self, k: SpectrumKernel, obs: ObservableKernel, kappa: float):
        if not np.array_equal(obs.lattice.vectors, k.lattice.vectors):
            raise ValueError("observable and kernel live on different lattices")
        self.s, self.c, self.t = k.s, k.c, k.t
        self.neg = k.lattice.neg_index
        w, u = obs._eigsys
        eye = np.eye(obs.size)
        self.ep = (u * np.exp(kappa * w)) @ u.conj().T
        self.em = (u * np.exp(-kappa * w)) @ u.conj().T
        self.pbar = self.ep.conj()
        self.dp = self.ep - eye
        self.dm = self.em - eye
        self.dbp = self.pbar - eye


def _diag(v):
    return np.diag(v.astype(complex))


def kernel_A(k: SpectrumKernel, obs: ObservableKernel, kappa: float,
             variant: str = "derived", with_term9: bool = False,
             _f: _Factors | None = None) -> np.ndarray:
    """The inhomogeneous (source) kernel A_{p,q}(kappa), stabilized form.

    with_term9 (paper variant only) appends the ninth summand of the
    split-form source printed in the source derivation; it breaks the
    raw/stabilized equality and is excluded from production (tests keep it
    to document the discrepancy).
    """
    f = _f or _Factors(k, obs, kappa)
    s, c, neg = f.s, f.c, f.neg
    if variant == "derived":
        m1 = f.dbp[neg][:, neg].T
        a = _diag(s) @ f.dbp @ _diag(c)
        a += _diag(c) @ m1 @ _diag(s)
        a += np.outer(c, c) * ((f.dbp[:, neg]).T @ _diag(c * s) @ f.dbp[neg, :])
        a += np.outer(s, s) * (f.dm.T @ _diag(s * c) @ f.dm[neg][:, neg])
        a -= np.outer(s, c) * (f.dm.T @ _diag(s * s) @ f.dbp)
        a -= np.outer(c, s) * ((f.dbp[:, neg]).T @ _diag(s * s) @ f.dm[:, neg])
        return a
    if variant == "paper":
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
    raise ValueError(f"unknown variant {variant!r}")


def kernel_A_raw(k: SpectrumKernel, obs: ObservableKernel, kappa: float,
                 variant: str = "derived") -> np.ndarray:
    """Unsubtracted source kernel; test article for raw == stabilized."""
    f = _Factors(k, obs, kappa)
    s, c, neg = f.s, f.c, f.neg
    if variant == "derived":
        a = -_diag(c * s)
        a += np.outer(c, c) * ((f.pbar[:, neg]).T @ _diag(c * s) @ f.pbar[neg, :])
        a += np.outer(s, s) * (f.em.T @ _diag(s * c) @ f.em[neg][:, neg])
        a -= np.outer(s, c) * (f.em.T @ _diag(s * s) @ f.pbar)
        a -= np.outer(c, s) * ((f.pbar[:, neg]).T @ _diag(s * s) @ f.em[:, neg])
        return a
    if variant == "paper":
        a = -_diag(c * s)
        a += np.outer(c, c) * ((f.pbar[:, neg]).T @ _diag(c * s) @ f.pbar[neg, :])
        a += np.outer(s, s) * ((f.em[neg][:, neg]).T @ _diag(s * c) @ f.em)
        a -= np.outer(s, c) * ((f.em[:, neg]).T @ _diag(s * s) @ f.pbar[:, neg])
        a -= np.outer(c, s) * (f.pbar.T @ _diag(s * s) @ f.em)
        return a
    raise ValueError(f"unknown variant {variant!r}")


def _separable_terms(f: _Factors, variant: str, raw: bool = False,
                     fourth_index: str = "verbatim"):
    """D as a list of (left, right, access) triples: D[F] = sum L @ acc(F) @ R.

    access modes: 'plain' F; 'negrow' F[neg,:]; 'tilde' conj(F).T[:,neg]
    (i.e. conj(F_{-l,k}) at (k,l)); 'negconj' conj(F)[neg,:].  All access
    maps are isometries, so norm bounds need only the L/R factors.
    """
    s, c, t, neg = f.s, f.c, f.t, f.neg
    if variant == "derived":
        if raw:
            a1 = _diag(c) @ (f.pbar[neg][:, neg].T) @ _diag(s)
            b1 = _diag(s) @ f.pbar[neg, :] @ _diag(c)
            a2 = _diag(s) @ f.em.T @ _diag(c)
            b2 = _diag(c) @ f.em[:, neg] @ _diag(s)
        else:
            a1 = _diag(c) @ (f.dbp[neg][:, neg].T) @ _diag(s)
            b1 = _diag(s) @ f.dbp[neg, :] @ _diag(c)
            a2 = _diag(s) @ f.dm.T @ _diag(c)
            b2 = _diag(c) @ f.dm[:, neg] @ _diag(s)
        return [(a1, b1, "tilde"), (a2, b2, "tilde"),
                (-a2, b1, "tilde"), (-a1, b2, "negconj")]
    if variant == "paper":
        if fourth_index == "verbatim":
            sub_stab, sub_raw = f.dm.T, f.em.T
        elif fourth_index == "negated":
            sub_stab, sub_raw = (f.dm[:, neg]).T, (f.em[:, neg]).T
        else:
            raise ValueError(f"unknown fourth_index {fourth_index!r}")
        if raw:
            l1 = _diag(c) @ (f.pbar[neg][:, neg]).T @ _diag(c)
            l2 = _diag(c) @ (f.em[:, neg]).T @ _diag(c)
            l4 = _diag(c) @ sub_raw @ _diag(c)
            r1 = _diag(s * t) @ f.pbar @ _diag(c)
            r2 = _diag(s * t) @ f.em[neg, :] @ _diag(c)
            r3 = _diag(s * t) @ f.pbar[:, neg] @ _diag(c)
            return [(l1, r1, "plain"), (l2, r2, "plain"),
                    (-l2, r3, "plain"), (-l4, r1, "plain")]
        a_t1 = _diag(c) @ (f.dbp[neg][:, neg].T - sub_stab) @ _diag(c)
        b_t4c = (_diag(s * t) @ (f.dm[neg, :] - f.dbp[:, neg])) @ _diag(c)
        b_t5 = _diag(s * t) @ f.dbp @ _diag(c)
        a_t6 = _diag(c) @ (f.dm[:, neg]).T @ _diag(c)
        return [(a_t1, _diag(s * s), "plain"), (_diag(c * c), b_t4c, "negrow"),
                (a_t1, b_t5, "plain"), (a_t6, b_t4c, "plain")]
    raise ValueError(f"unknown variant {variant!r}")


def _access(F: np.ndarray, mode: str, neg: np.ndarray) -> np.ndarray:
    if mode == "plain":
        return F
    if mode == "negrow":
        return F[neg, :]
    if mode == "tilde":
        return F.conj().T[:, neg]
    if mode == "negconj":
        return F.conj()[neg, :]
    raise ValueError(mode)


def _access_adjoint(Y: np.ndarray, left: np.ndarray, right: np.ndarray,
                    mode: str, neg: np.ndarray) -> np.ndarray:
    """Adjoint of F -> left @ access(F) @ right in the real inner product
    <X, Y> = Re tr(X^dag Y)."""
    core = left.conj().T @ Y @ right.conj().T
    if mode == "plain":
        return core
    if mode == "negrow":
        return core[neg, :]
    if mode == "tilde":
        # T(F) = L (F^dag N) R  =>  T^T(Y) = N R Y^dag L
        return (right @ Y.conj().T @ left)[neg, :]
    if mode == "negconj":
        return core.conj()[neg, :]
    raise ValueError(mode)


def apply_D(k: SpectrumKernel, obs: ObservableKernel, kappa: float, F: np.ndarray,
            variant: str = "derived", raw: bool = False,
            fourth_index: str = "verbatim", _f: _Factors | None = None) -> np.ndarray:
    """Apply the linear (or antilinear) map D(kappa) to F, matrix-free in the
    four-index kernel: three dense products per separable term."""
    F = np.asarray(F, dtype=complex)
    if F.shape != (k.size, k.size):
        raise ValueError("F must be modes x modes")
    f = _f or _Factors(k, obs, kappa)
    out = np.zeros_like(F)
    for left, right, mode in _separable_terms(f, variant, raw, fourth_index):
        out += left @ _access(F, mode, f.neg) @ right
    return out


def d_tensor_bruteforce(k: SpectrumKernel, obs: ObservableKernel, kappa: float,
                        variant: str = "derived") -> np.ndarray:
    """Materialized 4-index action: T[p,q,k,l] acting on F (test oracle only).

    For the derived variant the action is antilinear, so the returned
    tensor multiplies conj(F); tests contract it accordingly.
    """
    n = k.size
    f = _Factors(k, obs, kappa)
    tensor = np.zeros((n, n, n, n), dtype=complex)
    basis = np.zeros((n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            basis[a, b] = 1.0
            tensor[:, :, a, b] = apply_D(k, obs, kappa, basis, variant=variant, _f=f)
            basis[a, b] = 0.0
    return tensor


def d_norm_bound(k: SpectrumKernel, obs: ObservableKernel, kappa: float,
                 variant: str = "derived") -> float:
    """Certified upper bound on the l2 -> l2 operator norm of D(kappa).

    Triangle inequality over the separable terms with each term bounded by
    the product of factor norms; the smaller of the spectral-norm and
    Frobenius-norm products is returned.  A power-iteration estimate of
    the true norm is available separately (d_norm_estimate) and is used in
    tests to confirm the bound is not vacuous.
    """
    if kappa == 0.0:
        return 0.0
    f = _Factors(k, obs, kappa)
    spec = 0.0
    frob = 0.0
    for left, right, _ in _separable_terms(f, variant):
        spec += np.linalg.norm(left, 2) * np.linalg.norm(right, 2)
        frob += np.linalg.norm(left) * np.linalg.norm(right)
    return float(min(spec, frob))


def d_norm_estimate(k: SpectrumKernel, obs: ObservableKernel, kappa: float,
                    variant: str = "derived", iters: int = 80, seed: int = 0) -> float:
    """Power-iteration estimate of the true (real-linear) spectral norm of D."""
    if kappa == 0.0:
        return 0.0
    f = _Factors(k, obs, kappa)
    terms = _separable_terms(f, variant)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((k.size, k.size)) + 1j * rng.standard_normal((k.size, k.size))
    x /= np.linalg.norm(x)
    est = 0.0
    for _ in range(iters):
        y = np.zeros_like(x)
        for left, right, mode in terms:
            y += left @ _access(x, mode, f.neg) @ right
        z = np.zeros_like(x)
        for left, right, mode in terms:
            z += _access_adjoint(y, left, right, mode, f.neg)
        nz = np.linalg.norm(z)
        if nz == 0.0:
            return 0.0
        est = math.sqrt(nz)
        x = z / nz
    return float(est)


@dataclass(frozen=True, eq=False)
class FixedPointSolution:
    kappa: float
    F: np.ndarray
    residual: float
    iterations: int
    method: str
    symmetry_residual: float
    exchange_residual: float


def _residuals(k: SpectrumKernel, F: np.ndarray) -> tuple[float, float]:
    neg = k.lattice.neg_index
    s, c = k.s, k.c
    mask = np.outer(s != 0.0, s != 0.0)
    lhs = np.outer(s, c) * F
    rhs = np.outer(c, s) * F.conj().T
    sym = float(np.max(np.abs(np.where(mask, lhs - rhs, 0.0)))) if mask.any() else 0.0
    exch = float(np.max(np.abs(F - F[neg][:, neg].T)))
    return sym, exch


def solve_F(k: SpectrumKernel, obs: ObservableKernel, kappa: float, g: float = 1.0,
            method: str = "neumann", variant: str = "derived",
            tol: float = 1e-13, max_terms: int = 400) -> FixedPointSolution:
    """Solve F = A*g + D[F] at fixed kappa.

    method="neumann" sums D^j [A g] while the certified contraction factor
    q = d_norm_bound < 1; method="dense" materializes the realified
    (I - D) system and solves directly (desk-scale mode counts only).
    The cross-symmetry residual is recorded, not enforced: it vanishes
    only on the symmetry class described in the module docstring.
    """
    if math.isfinite(k.lambda0) and abs(kappa) >= k.lambda0:
        raise ValueError(f"kappa {kappa} outside (-{k.lambda0}, {k.lambda0})")
    f = _Factors(k, obs, kappa)
    a = kernel_A(k, obs, kappa, variant=variant, _f=f) * g
    n = k.size

    if method == "neumann":
        q = d_norm_bound(k, obs, kappa, variant=variant)
        if q >= 1.0:
            raise ValueError(f"fixed-point map is not a certified contraction "
                             f"(bound {q:.3f} >= 1) at kappa={kappa}")
        F = a.copy()
        term = a.copy()
        its = 0
        cutoff = tol * (1.0 - q)
        while np.linalg.norm(term) > cutoff and its < max_terms:
            term = apply_D(k, obs, kappa, term, variant=variant, _f=f)
            F += term
            its += 1
        if its >= max_terms:
            raise ValueError("Neumann series failed to converge")
    elif method == "dense":
        if n > _DENSE_MODE_CAP:
            raise ValueError(f"dense solve refused beyond {_DENSE_MODE_CAP} modes")
        dim = 2 * n * n
        m = np.zeros((dim, dim))
        basis = np.zeros((n, n), dtype=complex)
        col = 0
        for part in (1.0, 1.0j):
            for i in range(n):
                for j in range(n):
                    basis[i, j] = part
                    img = apply_D(k, obs, kappa, basis, variant=variant, _f=f)
                    m[:n * n, col] = img.real.ravel()
                    m[n * n:, col] = img.imag.ravel()
                    basis[i, j] = 0.0
                    col += 1
        rhs = np.concatenate([a.real.ravel(), a.imag.ravel()])
        x = scipy.linalg.solve(np.eye(dim) - m, rhs)
        F = (x[:n * n] + 1j * x[n * n:]).reshape(n, n)
        its = 1
    else:
        raise ValueError(f"unknown method {method!r}")

    residual = float(np.linalg.norm(F - (a + apply_D(k, obs, kappa, F, variant=variant, _f=f))))
    sym, exch = _residuals(k, F)
    return FixedPointSolution(kappa=kappa, F=F, residual=residual, iterations=its,
                              method=method, symmetry_residual=sym,
                              exchange_residual=exch)


def certified_domain(k: SpectrumKernel, obs: ObservableKernel,
                     variant: str = "derived", cap: float | None = None) -> float:
    """Largest kappa with d_norm_bound(+-kappa) < 1, capped by lambda0."""
    hi_cap = k.lambda0 if math.isfinite(k.lambda0) else (cap or 4.0)
    if cap is not None:
        hi_cap = min(hi_cap, cap)

    def contracts(x: float) -> bool:
        return (d_norm_bound(k, obs, x, variant=variant) < 1.0
                and d_norm_bound(k, obs, -x, variant=variant) < 1.0)

    if contracts(hi_cap * (1.0 - 1e-12)):
        return hi_cap
    lo, hi = 0.0, hi_cap
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if contracts(mid):
            lo = mid
        else:
            hi = mid
    return lo


def log_mgf_general(k: SpectrumKernel, obs: ObservableKernel, lam: float,
                    quad: QuadratureSpec | None = None, method: str = "neumann",
                    variant: str = "derived") -> float:
    """Lambda_O(lambda) = int_0^lambda Re sum s_p c_q O_pq Fhat_pq(kappa) dkappa
    + lambda mu_O, solving the fixed point (with G = 1) at each node."""
    dom = certified_domain(k, obs, variant=variant)
    if not abs(lam) < dom:
        raise ValueError(f"lambda {lam} outside certified contraction domain "
                         f"(+-{dom:.6g})")
    mu_o = observable_mean(k, obs)
    if lam == 0.0:
        return 0.0
    weight = np.outer(k.s, k.c) * obs.o

    def integrand(kappa: float) -> float:
        if kappa == 0.0:
            return 0.0
        sol = solve_F(k, obs, kappa, method=method, variant=variant)
        return float(np.sum(weight * sol.F).real)

    return _quad(integrand, 0.0, lam, quad) + lam * mu_o


def log_mgf_diagonal_sequence(k: SpectrumKernel, tau_seq, lam: float,
                              quad: QuadratureSpec | None = None) -> float:
    """MGF exponent for diagonal weights dGamma(diag(tau)).

    Evaluates the weighted-integrand quadrature (arguments 2*kappa*tau_p,
    per-mode prefactor tau_p) and cross-checks it against the per-mode
    closed form -1/2 sum log(c^2 - e^{2 lambda tau_p} s^2).  Both are
    per-mode expressions: they represent the true MGF when the weights are
    even under p -> -p (tau_p = tau_{-p}); uneven weights are accepted but
    describe a different (per-mode-factorized) quantity.
    """
    tau = np.asarray(tau_seq, dtype=float)
    if tau.shape != (k.size,):
        raise ValueError("tau_seq must have one entry per mode")
    s2 = k.s * k.s
    c2 = k.c * k.c
    with np.errstate(divide="ignore"):
        cap = np.where(s2 > 0, 1.0 / (2.0 * s2 * c2), np.inf)
    if np.any(np.cosh(2.0 * lam * tau) - 1.0 >= cap):
        raise ValueError("diagonal-weight domain condition violated")

    def integrand(kappa: float) -> float:
        ch = np.cosh(2.0 * kappa * tau) - 1.0
        num = tau * c2 * s2 * (2.0 * c2 * ch - np.expm1(-2.0 * kappa * tau))
        den = 1.0 - 2.0 * c2 * s2 * ch
        return float(np.sum(num / den))

    mu_tau = math.fsum((tau * s2).tolist())
    result = _quad(integrand, 0.0, lam, quad) + lam * mu_tau
    closed = -0.5 * math.fsum(np.log(c2 - np.exp(2.0 * lam * tau) * s2).tolist())
    if abs(result - closed) > 1e-8 * max(1.0, abs(closed)):
        raise ArithmeticError("diagonal quadrature disagrees with closed form")
    return result
