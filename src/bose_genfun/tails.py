"""Tail bounds and a non-concentration witness for the depletion number.

The upper tail P[N_+ >= n] is bounded by exp(-sup_{0<lambda<lambda0}
[lambda n - Lambda(lambda)]); the supremum sits where Lambda'(lambda) = n,
which Newton's method solves on log Lambda' from a closed-form start.  The
Gaussian (second-cumulant) estimate from the quadratic expansion of Lambda
is reported for comparison; it is not a bound, since every cumulant is
positive, so it never exceeds Chernoff and can fall below the true tail.  A
Paley-Zygmund-style witness certifies that the distribution genuinely
spreads over a window of width ~ sigma around the mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectrum import SpectrumKernel, log_mgf_derivatives

_ENGINE_CALL_CAP = 200


@dataclass(frozen=True)
class TailBound:
    n: float
    lambda_star: float
    exponent: float
    bound: float
    note: str = ""
    engine_calls: int = 0  # log_mgf_derivatives calls spent on lambda_star


@dataclass(frozen=True)
class NonConcentrationWitness:
    n: float
    m: float
    epsilon: float
    second_moment: float
    fourth_moment: float


def _solve_slope(k: SpectrumKernel, n: float, mu: float) -> tuple[float, float, int, str]:
    """lambda in (0, lambda0) with Lambda'(lambda) = n > mu (the mean), Lambda
    there, the number of engine calls spent and a note.

    Every per-mode slope g is log-convex, so log Lambda' is convex and Newton
    on it decreases monotonically onto the root from any start right of it.
    Two closed-form points are never left of the root: 1/2 log(n/mu), as
    Lambda' >= mu e^{2 lambda} for lambda >= 0 (every c^2 - e^{2 lambda} s^2
    is at most 1), and lambda0 - 1/2 log1p(m1/n), where the m1 modes of
    largest |t| alone give Lambda' = n.  Newton starts at the smaller and
    returns once Lambda' - n <= 4 * 2^-52 * n or its step no longer moves
    lambda.  The start is at most the last float below lambda0; a second
    point that rounds to lambda0 is noted, as any lambda in (0, lambda0)
    still gives a valid bound.  Engine calls are capped.
    """
    abs_t = np.abs(k.t)
    lam = k.lambda0 - 0.5 * math.log1p(np.count_nonzero(abs_t == abs_t.max()) / n)
    note = "optimum past float resolution below lambda0" if lam == k.lambda0 else ""
    lam = min(lam, math.nextafter(k.lambda0, 0.0),
              0.5 * math.log(n / mu) if mu > 0.0 else math.inf)
    for calls in range(1, _ENGINE_CALL_CAP + 1):
        value, slope, curv = log_mgf_derivatives(k, lam, 2)
        step = math.log(slope / n) * slope / curv if slope > n else 0.0
        if slope - n <= 4 * 2.0**-52 * n or lam - step == lam:
            return lam, value, calls, note
        lam -= step
    raise ArithmeticError(f"no lambda in (0, {k.lambda0}) with Lambda' = {n} "
                          f"after {calls} closed-form evaluations")


def chernoff_bound(k: SpectrumKernel, n: float, mu: float) -> TailBound:
    """Optimized exponential-moment bound on P[N_+ >= n]; mu is the mean.

    Returns bound 1 (exponent 0) for n at or below the mean.  If every
    nu_p vanishes the depletion is deterministically zero, so any n > 0
    gets bound 0 (flagged in the note).
    """
    if not np.any(k.nu != 0.0):
        if n > 0.0:
            return TailBound(n=n, lambda_star=math.inf, exponent=math.inf,
                             bound=0.0, note="all nu vanish: depletion is exactly 0")
        return TailBound(n=n, lambda_star=0.0, exponent=0.0, bound=1.0,
                         note="all nu vanish: depletion is exactly 0")
    if n <= mu:
        return TailBound(n=n, lambda_star=0.0, exponent=0.0, bound=1.0,
                         note="n does not exceed the mean; trivial bound")
    lam_star, value, calls, note = _solve_slope(k, n, mu)
    exponent = max(lam_star * n - value, 0.0)
    return TailBound(n=n, lambda_star=lam_star, exponent=exponent,
                     bound=math.exp(-exponent), note=note, engine_calls=calls)


def quadratic_bound(k: SpectrumKernel, n: float, mu: float,
                    var: float) -> TailBound:
    """Gaussian (second-cumulant) tail estimate from the quadratic model
    lambda*mu + lambda^2 var/2 of Lambda, optimized over (0, lambda0]; mu
    and var are the mean and variance.  Not a bound: Lambda lies above the
    model, so the estimate can fall below the true tail."""
    if n <= mu:
        return TailBound(n=n, lambda_star=0.0, exponent=0.0, bound=1.0,
                         note="n does not exceed the mean; trivial bound")
    if var == 0.0:
        return TailBound(n=n, lambda_star=math.inf, exponent=math.inf,
                         bound=0.0, note="zero variance: depletion is exactly 0")
    lam_star = (n - mu) / var
    if lam_star <= k.lambda0:
        exponent = (n - mu) ** 2 / (2.0 * var)
        return TailBound(n=n, lambda_star=lam_star, exponent=exponent,
                         bound=math.exp(-exponent))
    lam0 = k.lambda0
    exponent = (n - mu) * lam0 - 0.5 * lam0 * lam0 * var
    return TailBound(n=n, lambda_star=lam0, exponent=exponent,
                     bound=math.exp(-exponent), note="optimum clipped to lambda0")


def nonconcentration_witness(var: float,
                             fourth_central: float) -> NonConcentrationWitness:
    """Paley-Zygmund witness: with probability at least epsilon =
    sigma^4 / (8 E4), the depletion deviates from its mean by at least
    n = sigma/2 while staying within n + m, where (n+m)^2 = 4 E4/sigma^2.

    var = sigma^2 and fourth_central = E[(N - mu)^4] come from the caller
    (genfun.cumulants gives both), so it controls which moment route feeds
    the witness.
    """
    if var <= 0.0:
        raise ValueError("witness undefined for zero-variance depletion")
    if fourth_central < var * var:
        raise ValueError("fourth central moment below sigma^4 is impossible")
    n = 0.5 * math.sqrt(var)
    m = math.sqrt(4.0 * fourth_central / var) - n
    eps = var * var / (8.0 * fourth_central)
    return NonConcentrationWitness(n=n, m=m, epsilon=eps,
                                   second_moment=var,
                                   fourth_moment=fourth_central)
