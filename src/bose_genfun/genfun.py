"""The limiting log-MGF of the depletion number and its cumulants.

Two equivalent evaluations of Lambda(lambda) are kept side by side:

* the integral form, integrating the per-mode expression
  c^2 s^2 [2 c^2 (cosh 2k - 1) - e^{-2k} + 1] / [1 - 2 c^2 s^2 (cosh 2k - 1)]
  plus lambda * mu, by adaptive quadrature.  The expression depends on the
  mode only through nu, so integrand_diagonal evaluates it once per shell of
  SpectrumKernel.shells and weights it by the shell's mode count, for a
  whole array of nodes in one product;

* the closed product form Lambda = -1/2 sum_p log(c_p^2 - e^{2 lambda} s_p^2),
  which follows per mode from the factorization
  t - c^2 s^2 (t - 1)^2 = (c^2 t - s^2)(c^2 - t s^2), t = e^{2 kappa}.

The closed form is the oracle of record; the integral form is tested
against it.  Both the closed form and the cumulants come from the one
closed-form engine spectrum.log_mgf_derivatives: per mode,
g(lambda) = e^{2l} s^2 / (c^2 - e^{2l} s^2) satisfies g' = 2g + 2g^2, so
every derivative of Lambda is an exact integer polynomial in g.

The quadrature is QUADPACK's 21-point Gauss-Kronrod rule and error estimate
(qk21), summed as weight-vector products, with qag's worst-panel bisection and
no extrapolation: log_mgf_grid refines every gap of a grid in lock-step to tol
and tallies evaluations and error estimates in a QuadratureStats.  A gap above
tol at _MAX_PANELS panels sits on a rounding floor: ArithmeticError; loosen tol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectrum import (SpectrumKernel, _check_domain, depletion_mean,
                       log_mgf_derivatives)


@dataclass(frozen=True, eq=False)
class CumulantSet:
    """Cumulants/moments of the limiting law; index j holds order j (entry 0 unused)."""

    order: int
    kappa: np.ndarray
    moments: np.ndarray
    central: np.ndarray


_ORDER_CAP = 12


@dataclass
class QuadratureStats:
    """Quadrature diagnostics accumulated over the integrals of one grid:
    integrand evaluations and the largest per-gap absolute error estimate."""

    evals: int = 0
    abserr_max: float = 0.0


# QUADPACK's qk21 constants (Piessens et al., QUADPACK, 1983): the 21-point
# Kronrod abscissae on [0, 1], descending, with the 10-point Gauss nodes at
# odd indices, and their Kronrod and Gauss weights.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
# the 21 nodes on [-1, 1] (left, then right and centre) and their weights
_X21 = np.concatenate((-_XGK[:10], _XGK))
_WK21 = np.concatenate((_WGK[:10], _WGK))
_WG21 = np.zeros(21)
_WG21[1:20:2] = np.tile(_WG, 2)
_EPS, _TINY = float(np.finfo(float).eps), float(np.finfo(float).tiny)
_NODE_BLOCK = 1 << 15  # nodes x shells entries in one block of integrand_diagonal
_MAX_PANELS = 200  # panels a gap may use before it is declared not converging


def _qk21(f, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """QUADPACK's qk21 on every panel [a_i, b_i] at once: the Kronrod value and
    its error estimate resasc min(1, (200 |K - G| / resasc)^1.5), floored at 50
    eps resabs; f maps nodes to values and is called once.  K, G, resabs and
    resasc are weighted row sums, which unlike BLAS gemv give a panel the same
    bits whatever other panels share the call."""
    centr, hlgth = 0.5 * (a + b), 0.5 * (b - a)
    fv = f(centr[:, None] + hlgth[:, None] * _X21)
    resk, resg = (fv * _WK21).sum(axis=1), (fv * _WG21).sum(axis=1)
    resabs = (np.abs(fv) * _WK21).sum(axis=1) * np.abs(hlgth)
    resasc = (np.abs(fv - 0.5 * resk[:, None]) * _WK21).sum(axis=1) * np.abs(hlgth)
    abserr = np.abs((resk - resg) * hlgth)
    scale = (resasc != 0.0) & (abserr != 0.0)
    ratio = 200.0 * abserr[scale] / resasc[scale]
    abserr[scale] = resasc[scale] * np.minimum(1.0, ratio ** 1.5)
    floor = resabs > _TINY / (50.0 * _EPS)
    abserr[floor] = np.maximum(50.0 * _EPS * resabs[floor], abserr[floor])
    return resk * hlgth, abserr


def integrand_diagonal(k: SpectrumKernel, kappa):
    """Sum over modes of the printed integrand at each kappa (any shape),
    one term per shell: a (nodes x shells) @ mult product, taken in blocks
    of nodes so the temporaries stay small.  cosh and expm1 come from math,
    not numpy: for k < 0, c^2 (cosh 2k - 1) and e^{-2k} - 1 cancel, and
    numpy's vectorised versions can differ from math's in the last bit."""
    kappa = np.asarray(kappa, dtype=float)
    outside = ~(np.abs(kappa) < k.lambda0)
    if outside.any():
        _check_domain(k, float(kappa[outside].flat[0]))
    sh = k.shells
    c2s2 = sh.c2 * sh.s2
    mult = sh.mult.astype(float)
    flat = kappa.reshape(-1)
    out = np.empty(flat.size)
    step = max(1, _NODE_BLOCK // c2s2.size)
    for i in range(0, flat.size, step):
        block = flat[i:i + step].tolist()
        ch2 = np.array([2.0 * (math.cosh(2.0 * x) - 1.0) for x in block])
        num = np.multiply.outer(ch2, sh.c2)
        num -= np.array([math.expm1(-2.0 * x) for x in block])[:, None]
        num *= c2s2
        den = np.multiply.outer(ch2, c2s2)
        np.subtract(1.0, den, out=den)
        num /= den
        out[i:i + step] = num @ mult
    return out.reshape(kappa.shape)


def log_mgf_closed(k: SpectrumKernel, lam: float) -> float:
    """Closed product form -1/2 sum log(c^2 - e^{2 lambda} s^2), summed as
    log1p(-expm1(2 lambda) s^2) by spectrum.log_mgf_derivatives."""
    return log_mgf_derivatives(k, lam, 0)[0]


def _integrate_gaps(f, lo: np.ndarray, hi: np.ndarray, tol: float,
                    stats: QuadratureStats | None) -> np.ndarray:
    """int_lo^hi f for every gap, adaptively and in lock-step; f maps an
    array of nodes to integrand values.  QUADPACK's qag rule without qags'
    extrapolation: each round, every gap whose summed error exceeds
    max(tol, tol |I_gap|) bisects its worst panel, and the halves of all
    those panels share one integrand call; a gap's area and error update as
    in QUADPACK.  A zero-length gap costs nothing; a gap that would need
    more than _MAX_PANELS panels raises ArithmeticError."""
    gaps = np.flatnonzero(lo != hi)  # the gap of each panel
    pa, pb = lo[gaps], hi[gaps]
    pres, perr = _qk21(f, pa, pb)
    area, errsum = np.zeros(lo.size), np.zeros(lo.size)
    area[gaps], errsum[gaps] = pres, perr
    evals = 21 * gaps.size
    active = gaps
    while True:
        active = active[errsum[active] > np.maximum(tol, tol * np.abs(area[active]))]
        if not active.size:
            break
        full = active[np.bincount(gaps, minlength=lo.size)[active] >= _MAX_PANELS]
        if full.size:
            g = full[0]
            raise ArithmeticError(
                f"quadrature on [{lo[g]:.9g}, {hi[g]:.9g}] did not converge: "
                f"{_MAX_PANELS} panels leave an error estimate of {errsum[g]:.3g} "
                f"above tol={tol:.3g}; loosen the tolerance (quadrature.tol)")
        # the worst panel of every gap, in gap order like active
        order = np.lexsort((-perr, gaps))
        first = order[np.r_[True, gaps[order][1:] != gaps[order][:-1]]]
        worst = first[np.isin(gaps[first], active)]
        a, b = pa[worst], pb[worst]
        mid = 0.5 * (a + b)
        res, err = _qk21(f, np.concatenate((a, mid)), np.concatenate((mid, b)))
        evals += 21 * res.size
        n = active.size
        errsum[active] = errsum[active] + (err[:n] + err[n:]) - perr[worst]
        area[active] = area[active] + (res[:n] + res[n:]) - pres[worst]
        # the left half takes the bisected panel's place, the right is appended
        pb[worst], pres[worst], perr[worst] = mid, res[:n], err[:n]
        gaps = np.concatenate((gaps, active))
        pa, pb = np.concatenate((pa, mid)), np.concatenate((pb, b))
        pres, perr = np.concatenate((pres, res[n:])), np.concatenate((perr, err[n:]))
    if stats is not None:
        stats.evals += evals
        stats.abserr_max = max(stats.abserr_max, float(np.max(errsum)))
    # QUADPACK, too, returns the plain sum of a gap's panel values
    return np.bincount(gaps, weights=pres, minlength=lo.size)


def log_mgf_grid(k: SpectrumKernel, lams: np.ndarray, tol: float = 1e-10,
                 stats: QuadratureStats | None = None) -> np.ndarray:
    """Quadrature Lambda on a grid in any order, integrating each gap only
    once; the evaluation count and the largest per-gap error estimate go to
    stats, if given."""
    lams = np.asarray(lams, dtype=float)
    if lams.size == 0:
        return np.zeros(0)
    if not np.all(np.abs(lams) < k.lambda0):
        raise ValueError(f"grid extends outside the MGF domain (-{k.lambda0}, {k.lambda0})")
    order = np.argsort(lams)
    pts = lams[order]
    # walking outward from 0, each gap ends at a grid point and starts at
    # its neighbour towards 0 (or at 0), so each gap is integrated once
    pos = pts >= 0.0
    lo = np.empty(pts.size)
    lo[pos] = np.concatenate(([0.0], pts[pos][:-1]))
    lo[~pos] = np.concatenate((pts[~pos][1:], [0.0]))
    gap = _integrate_gaps(lambda x: integrand_diagonal(k, x), lo, pts, tol, stats)
    vals = np.empty(pts.size)
    vals[pos] = np.cumsum(gap[pos])
    vals[~pos] = np.cumsum(gap[~pos][::-1])[::-1]
    out = np.empty(lams.size)
    out[order] = vals + pts * depletion_mean(k)
    return out


def cumulants(k: SpectrumKernel, order: int) -> CumulantSet:
    """kappa[j] = Lambda^{(j)}(0) for j = 1..order, plus raw/central moments."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if order > _ORDER_CAP:
        raise ValueError(f"order > {_ORDER_CAP} refused: coefficient growth")
    kap = np.array(log_mgf_derivatives(k, 0.0, order))  # kap[0] = Lambda(0) = 0
    moments = _moments_from_cumulants(kap, order)
    central_kap = kap.copy()
    central_kap[1] = 0.0
    central = _moments_from_cumulants(central_kap, order)
    return CumulantSet(order=order, kappa=kap, moments=moments, central=central)


def _moments_from_cumulants(kap: np.ndarray, order: int) -> np.ndarray:
    m = np.zeros(order + 1)
    m[0] = 1.0
    for n in range(1, order + 1):
        m[n] = math.fsum(math.comb(n - 1, i) * kap[i + 1] * m[n - 1 - i]
                         for i in range(n))
    return m


def fourth_central_printed_combination(k: SpectrumKernel, sig2: float) -> float:
    """The alternative printed fourth-moment combination 12 sigma^4 + 8 sigma^2
    + 48 sum c^4 s^4, reported for comparison and never asserted; sig2 is
    the caller's sigma^2 (cumulants(k, .).kappa[2])."""
    quart = math.fsum(((k.c * k.s) ** 4).tolist())
    return 12.0 * sig2 ** 2 + 8.0 * sig2 + 48.0 * quart
