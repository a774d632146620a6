"""Tail bounds and a non-concentration witness for the depletion number.

The upper tail P[N_+ >= n] is bounded by exp(-sup_{0<lambda<lambda0}
[lambda n - Lambda(lambda)]); the supremum sits where Lambda'(lambda) = n,
which Newton's method solves on the closed-form Lambda' and Lambda''.  The
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


def _solve_slope(k: SpectrumKernel, n: float) -> tuple[float, float, int, str]:
    """lambda in (0, lambda0) with Lambda'(lambda) = n > mu, Lambda there,
    the number of engine calls spent and a note.

    Lambda' rises from mu at 0 to +inf at lambda0 and is convex on
    (0, lambda0) (g > 0 there and every derivative polynomial of g has
    positive coefficients), so Newton started from any point where
    Lambda' > n decreases monotonically onto the root.  Such a point is found by
    bisecting towards lambda0; Newton then returns as soon as |Lambda' - n|
    <= 4 * 2^-52 * n, or else once its step stops shrinking (the rounding
    floor).  If the root lies past the last float below lambda0, the last
    lambda tried is returned: any lambda in (0, lambda0) gives a valid bound.
    Engine calls are capped so that no input can keep it running.
    """
    lam, step = 0.5 * k.lambda0, math.inf
    for calls in range(1, _ENGINE_CALL_CAP + 1):
        value, slope, curv = log_mgf_derivatives(k, lam, 2)
        if step == math.inf and slope <= n:  # left of the root
            lam, tried = 0.5 * (lam + k.lambda0), lam
            if lam == k.lambda0:  # n is past every float below lambda0
                return tried, value, calls, "optimum past float resolution below lambda0"
            continue
        new_step = (slope - n) / curv
        if abs(slope - n) <= 4 * 2.0**-52 * n or not abs(new_step) < abs(step):
            return lam, value, calls, ""
        lam, step = lam - new_step, new_step
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
    lam_star, value, calls, note = _solve_slope(k, n)
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
