"""The limiting log-MGF of the depletion number and its cumulants.

Two equivalent evaluations of Lambda(lambda) are kept side by side:

* the integral form, integrating the per-mode expression
  c^2 s^2 [2 c^2 (cosh 2k - 1) - e^{-2k} + 1] / [1 - 2 c^2 s^2 (cosh 2k - 1)]
  plus lambda * mu, by adaptive quadrature.  The expression depends on the
  mode only through nu, so integrand_diagonal evaluates it once per shell of
  SpectrumKernel.shells and weights it by the shell's mode count;

* the closed product form Lambda = -1/2 sum_p log(c_p^2 - e^{2 lambda} s_p^2),
  which follows per mode from the factorization
  t - c^2 s^2 (t - 1)^2 = (c^2 t - s^2)(c^2 - t s^2), t = e^{2 kappa}.

The closed form is the oracle of record; the integral form is tested
against it.  Both the closed form and the cumulants come from the one
closed-form engine spectrum.log_mgf_derivatives: per mode,
g(lambda) = e^{2l} s^2 / (c^2 - e^{2l} s^2) satisfies g' = 2g + 2g^2, so
every derivative of Lambda is an exact integer polynomial in g.  Every
quadrature goes through _quad, which raises on QUADPACK non-convergence
and can tally QUADPACK's evaluation counts and error estimates in a
QuadratureStats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectrum import (SpectrumKernel, _check_domain, depletion_mean,
                       log_mgf_derivatives)


@dataclass(frozen=True)
class QuadratureSpec:
    tol: float = 1e-10
    max_panels: int = 200


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
    """QUADPACK diagnostics accumulated over the integrals of one grid:
    integrand evaluations and the largest absolute error estimate."""

    evals: int = 0
    abserr_max: float = 0.0


def _quad(f, lo: float, hi: float, quad: QuadratureSpec | None,
          stats: QuadratureStats | None = None) -> float:
    """int_lo^hi f by QUADPACK; ArithmeticError if it reports non-convergence.
    Its evaluation count and error estimate are added to stats, if given.
    scipy is imported here, so the closed form and the cumulants never
    load it."""
    import scipy.integrate

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


def integrand_diagonal(k: SpectrumKernel, kappa: float) -> float:
    """Sum over modes of the printed integrand at kappa, one term per shell."""
    _check_domain(k, kappa)
    sh = k.shells
    ch2 = 2.0 * (math.cosh(2.0 * kappa) - 1.0)
    c2s2 = sh.c2 * sh.s2
    num = c2s2 * (sh.c2 * ch2 - math.expm1(-2.0 * kappa))
    return float(sh.mult @ (num / (1.0 - c2s2 * ch2)))


def log_mgf(k: SpectrumKernel, lam: float, quad: QuadratureSpec | None = None) -> float:
    """Lambda(lambda) by adaptive quadrature of the diagonal integrand."""
    return float(log_mgf_grid(k, np.array([lam]), quad)[0])


def log_mgf_closed(k: SpectrumKernel, lam: float) -> float:
    """Closed product form -1/2 sum log(c^2 - e^{2 lambda} s^2)."""
    return log_mgf_derivatives(k, lam, 0)[0]


def log_mgf_grid(k: SpectrumKernel, lams: np.ndarray,
                 quad: QuadratureSpec | None = None,
                 stats: QuadratureStats | None = None) -> np.ndarray:
    """Quadrature Lambda on a sorted grid, integrating each gap only once;
    the QUADPACK diagnostics of every gap go to stats, if given."""
    lams = np.asarray(lams, dtype=float)
    if lams.size == 0:
        return np.zeros(0)
    if not np.all(np.abs(lams) < k.lambda0):
        raise ValueError(f"grid extends outside the MGF domain (-{k.lambda0}, {k.lambda0})")
    order = np.argsort(lams)
    pts = lams[order]
    mu = depletion_mean(k)
    vals = np.empty(pts.size)

    def cumulate(indices):
        # walk outward from 0 so each inter-point gap is integrated once
        prev_x, prev_v = 0.0, 0.0
        for i in indices:
            prev_v += _quad(lambda x: integrand_diagonal(k, x), prev_x, pts[i],
                            quad, stats)
            prev_x = pts[i]
            vals[i] = prev_v

    cumulate([i for i in range(pts.size) if pts[i] >= 0.0])
    cumulate([i for i in reversed(range(pts.size)) if pts[i] < 0.0])
    out = np.empty(lams.size)
    out[order] = vals + pts * mu
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
