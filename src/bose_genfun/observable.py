"""General one-particle observables: the A/D kernels, the fixed-point
equation for the pair amplitude F, and Lambda_O(lambda).

The pair amplitude F_{p,q}(kappa) = <vac, a_{-p} a_q M(kappa) vac> with
M = e^{-K} e^{kappa dGamma(O)} e^{K} satisfies a linear fixed-point
equation F = A + D[F].  The kernels are obtained by conjugating the two
annihilators through both exponentials and normal-ordering, with no use
of any cross-symmetry between F_{p,q} and conj(F_{q,p}); the map D is
therefore antilinear (it acts on conj(F_{-l,k})).  They reproduce the
exact Fock-space oracle for arbitrary Hermitian O, and they are built
from subtracted factors Delta = e^{kappa O} - 1, so O = 0 and kappa = 0
give exactly zero.  F is the Neumann series of D applied to A, summed
while a certified bound on the norm of D stays below one.  Diagonal O take
the same route; for O = 1, Lambda_O is the scalar Lambda of genfun.py,
which is what the CLI's identity observable reports.

The linearized kernels printed in the source derivation rewrite
conj(F_{l,k}) through that cross-symmetry, which holds only when O
commutes with momentum negation and complex conjugation.  They live in
tests/kernel_reference.py, next to the unsubtracted forms and the
brute-force and dense references, and the tests pin where they deviate.
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

_EXP_ROUNDTRIP_TOL = 1e-12
_NEUMANN_TOL = 1e-13
_NEUMANN_MAX_TERMS = 400
_BISECTION_STEPS = 80


@dataclass(frozen=True, eq=False)
class ObservableKernel:
    """Hermitian one-particle matrix O_{p,q} on lattice mode indices.

    The lattice excludes the zero mode by construction, so O never couples
    to the condensate.
    """

    lattice: Lattice
    o: np.ndarray

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


def _exp_pair(obs: ObservableKernel, kappa: float) -> tuple[np.ndarray, np.ndarray]:
    """(e^{kappa O}, e^{-kappa O}) through the unitary eigendecomposition of
    Hermitian O; ArithmeticError if their product is not the identity.

    Rounding in the product grows with ||e^{kappa O}|| ||e^{-kappa O}|| =
    e^{|kappa| (w_max - w_min)}, so the defect is measured relative to it
    (written so that a huge factor cannot overflow).
    """
    w, u = obs._eigsys
    ep = (u * np.exp(kappa * w)) @ u.conj().T
    em = (u * np.exp(-kappa * w)) @ u.conj().T
    if kappa != 0.0:
        defect = np.linalg.norm(ep @ em - np.eye(obs.size), 2)
        if defect * math.exp(-abs(kappa) * (w[-1] - w[0])) > _EXP_ROUNDTRIP_TOL:
            raise ArithmeticError(f"matrix exponential roundtrip defect {defect:.3e}")
    return ep, em


def exp_of_O(obs: ObservableKernel, kappa: float) -> np.ndarray:
    """exp(kappa O) through the unitary eigendecomposition of Hermitian O."""
    return _exp_pair(obs, kappa)[0]


def _diag(v):
    return np.diag(v.astype(complex))


class _Factors:
    """Per-(observable, kappa) state, built once and shared by A, D and the
    bound on D: the subtracted factors dbp = conj(e^{kappa O}) - 1 and
    dm = e^{-kappa O} - 1, and D as (left, right, access) triples with
    D[F] = sum left @ access(F) @ right.

    access modes: 'tilde' conj(F).T[:, neg] (i.e. conj(F_{-l,k}) at (k,l));
    'negconj' conj(F)[neg, :].  Both are isometries, so norm bounds need
    only the left/right factors.
    """

    def __init__(self, k: SpectrumKernel, obs: ObservableKernel, kappa: float):
        if not np.array_equal(obs.lattice.vectors, k.lattice.vectors):
            raise ValueError("observable and kernel live on different lattices")
        self.s, self.c = k.s, k.c
        self.neg = neg = k.lattice.neg_index
        ep, em = _exp_pair(obs, kappa)
        eye = np.eye(obs.size)
        self.dbp = ep.conj() - eye
        self.dm = em - eye
        s, c = _diag(k.s), _diag(k.c)
        a1 = c @ (self.dbp[neg][:, neg].T) @ s
        b1 = s @ self.dbp[neg, :] @ c
        a2 = s @ self.dm.T @ c
        b2 = c @ self.dm[:, neg] @ s
        self.terms = [(a1, b1, "tilde"), (a2, b2, "tilde"),
                      (-a2, b1, "tilde"), (-a1, b2, "negconj")]


def _source(f: _Factors) -> np.ndarray:
    s, c, neg, dbp, dm = f.s, f.c, f.neg, f.dbp, f.dm
    a = _diag(s) @ dbp @ _diag(c)
    a += _diag(c) @ dbp[neg][:, neg].T @ _diag(s)
    a += np.outer(c, c) * ((dbp[:, neg]).T @ _diag(c * s) @ dbp[neg, :])
    a += np.outer(s, s) * (dm.T @ _diag(s * c) @ dm[neg][:, neg])
    a -= np.outer(s, c) * (dm.T @ _diag(s * s) @ dbp)
    a -= np.outer(c, s) * ((dbp[:, neg]).T @ _diag(s * s) @ dm[:, neg])
    return a


def kernel_A(k: SpectrumKernel, obs: ObservableKernel, kappa: float) -> np.ndarray:
    """The inhomogeneous (source) kernel A_{p,q}(kappa), stabilized form."""
    return _source(_Factors(k, obs, kappa))


def _access(F: np.ndarray, mode: str, neg: np.ndarray) -> np.ndarray:
    if mode == "tilde":
        return F.conj().T[:, neg]
    if mode == "negconj":
        return F.conj()[neg, :]
    raise ValueError(mode)


def _apply(f: _Factors, F: np.ndarray) -> np.ndarray:
    out = np.zeros_like(F)
    for left, right, mode in f.terms:
        out += left @ _access(F, mode, f.neg) @ right
    return out


def apply_D(k: SpectrumKernel, obs: ObservableKernel, kappa: float,
            F: np.ndarray) -> np.ndarray:
    """Apply the antilinear map D(kappa) to F, matrix-free in the four-index
    kernel: three dense products per separable term."""
    F = np.asarray(F, dtype=complex)
    if F.shape != (k.size, k.size):
        raise ValueError("F must be modes x modes")
    return _apply(_Factors(k, obs, kappa), F)


def _bound(f: _Factors) -> float:
    spec = 0.0
    frob = 0.0
    for left, right, _ in f.terms:
        spec += np.linalg.norm(left, 2) * np.linalg.norm(right, 2)
        frob += np.linalg.norm(left) * np.linalg.norm(right)
    return float(min(spec, frob))


def d_norm_bound(k: SpectrumKernel, obs: ObservableKernel, kappa: float) -> float:
    """Certified upper bound on the l2 -> l2 operator norm of D(kappa).

    Triangle inequality over the separable terms with each term bounded by
    the product of factor norms; the smaller of the spectral-norm and
    Frobenius-norm products is returned.
    """
    if kappa == 0.0:
        return 0.0
    return _bound(_Factors(k, obs, kappa))


@dataclass(frozen=True, eq=False)
class FixedPointSolution:
    kappa: float
    F: np.ndarray
    residual: float
    iterations: int
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


def solve_F(k: SpectrumKernel, obs: ObservableKernel, kappa: float) -> FixedPointSolution:
    """Solve F = A + D[F] at fixed kappa by the Neumann series sum_j D^j[A].

    The series needs the certified contraction bound q = d_norm_bound < 1
    and stops once a term's norm falls below _NEUMANN_TOL * (1 - q).  The
    cross-symmetry residual is recorded, not enforced: it vanishes only
    when O commutes with momentum negation and complex conjugation.
    """
    if math.isfinite(k.lambda0) and abs(kappa) >= k.lambda0:
        raise ValueError(f"kappa {kappa} outside (-{k.lambda0}, {k.lambda0})")
    f = _Factors(k, obs, kappa)
    a = _source(f)
    q = _bound(f)
    if q >= 1.0:
        raise ValueError(f"fixed-point map is not a certified contraction "
                         f"(bound {q:.3f} >= 1) at kappa={kappa}")
    F = a.copy()
    term = a.copy()
    its = 0
    cutoff = _NEUMANN_TOL * (1.0 - q)
    while np.linalg.norm(term) > cutoff and its < _NEUMANN_MAX_TERMS:
        term = _apply(f, term)
        F += term
        its += 1
    if its >= _NEUMANN_MAX_TERMS:
        raise ValueError("Neumann series failed to converge")

    residual = float(np.linalg.norm(F - (a + _apply(f, F))))
    sym, exch = _residuals(k, F)
    return FixedPointSolution(kappa=kappa, F=F, residual=residual, iterations=its,
                              symmetry_residual=sym, exchange_residual=exch)


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

