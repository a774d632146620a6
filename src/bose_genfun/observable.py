"""General one-particle observables: Lambda_O(lambda) in closed form, and
the fixed-point equation for the pair amplitude F that cross-checks it.

The Bogoliubov state is the Gaussian exp(1/2 a*.T a*) vac, T_{p,-p} =
tanh nu_p, and e^{lambda dGamma(O)} maps T to e^{lambda O} T e^{lambda O}^T.
A Gaussian overlap is a determinant (Balian & Brezin 1969), so log_mgf_det
gives Lambda_O and Lambda_O' as log-determinants; for O = 1 that is the
scalar Lambda of genfun.py.

F_{p,q}(kappa) = <vac, a_{-p} a_q M(kappa) vac> with M = e^{-K}
e^{kappa dGamma(O)} e^{K} satisfies F = A + D[F].  The kernels come from
conjugating the two annihilators through both exponentials and
normal-ordering, with no use of any cross-symmetry between F_{p,q} and
conj(F_{q,p}), so D is antilinear (it acts on conj(F_{-l,k})).  They match
the Fock-space oracle for any Hermitian O and are built from subtracted
factors e^{kappa O} - 1, so O = 0 and kappa = 0 give exactly zero.  F is
the Neumann series of D applied to A, summed while a certified bound on
the norm of D stays below one.  Re sum s_p c_q O_pq F_pq + mu_O is
Lambda_O', which the CLI holds against the determinant; the paper's
quadrature of it is log_mgf_general in tests/kernel_reference.py.

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

from .lattice import Lattice
from .spectrum import SpectrumKernel

_EXP_ROUNDTRIP_TOL = 1e-12
_NEUMANN_TOL = 1e-13
_NEUMANN_MAX_TERMS = 400
_BISECTION_STEPS = 80
_EDGE_MARGIN = 1e-14  # above the rounding of a singular value near 1


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
        return np.linalg.eigh(self.o)

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

    Each row has four numeric fields, the indices are integers in
    [0, lattice.size) and each (p, q) appears once; a row breaking a rule
    raises ValueError naming its line.
    """
    o = np.zeros((lattice.size, lattice.size), dtype=complex)
    seen = set()
    with open(path, newline="") as fh:
        for line, row in enumerate(csv.reader(fh), start=1):
            if not row or row[0].lstrip().startswith("#") or row[0] == "p_index":
                continue
            if len(row) != 4:
                raise ValueError(f"{path} line {line}: expected 4 fields, got {len(row)}")
            try:
                p, q, re, im = int(row[0]), int(row[1]), float(row[2]), float(row[3])
            except ValueError as exc:
                raise ValueError(f"{path} line {line}: non-numeric field ({exc})") from None
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


def _check_lattices(k: SpectrumKernel, obs: ObservableKernel) -> None:
    if not np.array_equal(obs.lattice.vectors, k.lattice.vectors):
        raise ValueError("observable and kernel live on different lattices")


class _Factors:
    """Per-(observable, kappa) state, built once and shared by A, D and the
    bound on D: the subtracted factors dbp = conj(e^{kappa O}) - 1 and
    dm = e^{-kappa O} - 1, and the four distinct factors of

        D[F] = a1 Ft b1 + a2 Ft b2 - a2 Ft b1 - a1 Fn b2,

    with Ft = conj(F).T[:, neg] (conj(F_{-l,k}) at (k,l)) and
    Fn = conj(F)[neg, :].  Both accesses are isometries, so the norm bound
    needs only the norms of a1, a2, b1 and b2.
    """

    def __init__(self, k: SpectrumKernel, obs: ObservableKernel, kappa: float):
        _check_lattices(k, obs)
        self.s, self.c = s, c = k.s, k.c
        self.neg = neg = k.lattice.neg_index
        ep, em = _exp_pair(obs, kappa)
        eye = np.eye(obs.size)
        self.dbp, self.dm = ep.conj() - eye, em - eye
        self.a1 = c[:, None] * self.dbp[neg][:, neg].T * s
        self.b1 = s[:, None] * self.dbp[neg, :] * c
        self.a2 = s[:, None] * self.dm.T * c
        self.b2 = c[:, None] * self.dm[:, neg] * s


def _source(f: _Factors) -> np.ndarray:
    s, c, neg, dbp, dm = f.s, f.c, f.neg, f.dbp, f.dm
    a = s[:, None] * dbp * c + f.a1
    a += np.outer(c, c) * ((dbp[:, neg].T * (c * s)) @ dbp[neg, :])
    a += np.outer(s, s) * ((dm.T * (s * c)) @ dm[neg][:, neg])
    a -= np.outer(s, c) * ((dm.T * (s * s)) @ dbp)
    a -= np.outer(c, s) * ((dbp[:, neg].T * (s * s)) @ dm[:, neg])
    return a


def _apply(f: _Factors, F: np.ndarray) -> np.ndarray:
    ft = F.conj().T[:, f.neg]
    out = f.a1 @ ft @ f.b1
    out += f.a2 @ ft @ f.b2
    out -= f.a2 @ ft @ f.b1
    out -= f.a1 @ F.conj()[f.neg, :] @ f.b2
    return out


def _bound(f: _Factors) -> float:
    a1, a2, b1, b2 = (np.linalg.norm(x, 2) for x in (f.a1, f.a2, f.b1, f.b2))
    return float(a1 * b1 + a2 * b2 + a2 * b1 + a1 * b2)


def d_norm_bound(k: SpectrumKernel, obs: ObservableKernel, kappa: float) -> float:
    """Certified upper bound on the l2 -> l2 operator norm of D(kappa).

    Triangle inequality over the four separable terms, each bounded by the
    product of its factors' spectral norms.  There is no Frobenius-norm
    variant: ||X||_2 <= ||X||_F for every X, so its sum is never smaller.
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


def log_mgf_det(k: SpectrumKernel, obs: ObservableKernel,
                lams) -> tuple[np.ndarray, np.ndarray]:
    """(Lambda_O, Lambda_O') on a lambda grid from the Gaussian overlap:
    Lambda_O = -1/2 log det(1 - conj(T) T') + 1/2 log det(1 - conj(T) T) and
    Lambda_O' = 1/2 tr[(1 - conj(T) T')^{-1} conj(T) (O T' + T' O^T)], with
    T' = e^{lambda O} T e^{lambda O}^T.  Both are read from the singular
    values sigma of S = e^{lambda O/2} T e^{lambda O/2}^T, since
    det(1 - conj(T) T') = prod (1 - sigma^2).  ValueError outside the exact
    domain ||S||_2 < 1 (less a rounding margin).  For O = 1, ||S||_2 =
    e^lambda max|t_p|: the domain is lambda < lambda0 and the value is
    genfun's scalar closed form.
    """
    _check_lattices(k, obs)
    neg = k.lattice.neg_index
    base = 0.5 * math.fsum(np.log1p(-k.t * k.t).tolist())
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    vals, slopes = np.zeros(lams.size), np.zeros(lams.size)
    for i, lam in enumerate(lams):
        half = _exp_pair(obs, 0.5 * float(lam))[0]
        s_mat = (half * k.t)[:, neg] @ half.T  # T_{p,-p} = tanh nu_p
        u, sig, vh = np.linalg.svd(s_mat)
        if not sig[0] < 1.0 - _EDGE_MARGIN:
            raise ValueError(f"lambda {lam} outside the exact domain: "
                             f"||e^(lambda O/2) T e^(lambda O/2)^T|| = {sig[0]:.6g} >= 1")
        if lam != 0.0:
            vals[i] = -0.5 * math.fsum(np.log1p(-sig * sig).tolist()) + base
        # Lambda_O' = Re tr[(1 - S^dag S)^{-1} S^dag S'], S' = (O S + S O^T)/2
        ds = 0.5 * (obs.o @ s_mat + s_mat @ obs.o.T)
        diag = np.einsum("ij,jk,ki->i", u.conj().T, ds, vh.conj().T).real
        slopes[i] = math.fsum((sig / ((1.0 - sig) * (1.0 + sig)) * diag).tolist())
    return vals, slopes
