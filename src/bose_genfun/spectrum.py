"""Pairing amplitudes nu_p, lambda0, and the closed-form engine for the log-MGF.

nu_p = (1/4) log(p^2 / (p^2 + a16pi)) with a16pi = 16*pi*(scattering quantity).
For a16pi >= 0 every nu_p is <= 0 and |nu_p| decreases with |p|^2, so the
hyperbolic arrays s = sinh(nu), c = cosh(nu), t = tanh(nu) are well behaved
and s is square-summable on any cube truncation.

Every per-mode quantity depends on p only through nu_p, so a kernel also
carries a shell view (SpectrumKernel.shells): the distinct nu values with
their integer multiplicities.  On the cube these are the |n|^2 shells (178
of them for the 9260 modes of cutoff 10).  The quadrature integrand sums
over shells; the closed-form engine below still sums over modes.

lambda0 is the half-width of the moment-generating-function domain: the
smallest lambda > 0 at which a per-mode denominator c_p^2 - e^{2 lambda} s_p^2
reaches zero, i.e. min_p -log|t_p| (infinite when all nu vanish).

log_mgf_derivatives is the one closed-form evaluation of the depletion
log-MGF and its derivatives; the mean, cumulants and Chernoff use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .lattice import Lattice, p_squared_array


class Shells(NamedTuple):
    """Distinct nu values (ascending), their mode counts, sinh^2 and cosh^2."""

    nu: np.ndarray
    mult: np.ndarray
    s2: np.ndarray
    c2: np.ndarray


@dataclass(frozen=True, eq=False)
class SpectrumKernel:
    lattice: Lattice
    a16pi: float
    nu: np.ndarray
    s: np.ndarray
    c: np.ndarray
    t: np.ndarray
    lambda0: float

    @property
    def size(self) -> int:
        return self.nu.shape[0]

    @cached_property
    def shells(self) -> Shells:
        """The kernel's modes grouped by nu, built on first use."""
        nu, mult = np.unique(self.nu, return_counts=True)
        s, c = np.sinh(nu), np.cosh(nu)
        return Shells(nu=nu, mult=mult, s2=s * s, c2=c * c)


def _lambda0_from_tanh(t: np.ndarray) -> float:
    """Domain half-width min_p -log|tanh(nu_p)|; +inf when every nu is 0.

    This is the first zero of any per-mode denominator
    1 - 2 c^2 s^2 (cosh(2 lambda) - 1), by the factorization
    t - c^2 s^2 (t-1)^2 = (c^2 t - s^2)(c^2 - t s^2) with t = e^{2 lambda}.
    """
    tmax = float(np.max(np.abs(t))) if t.size else 0.0
    if tmax == 0.0:
        return math.inf
    return -math.log(tmax)


def build_kernel(lattice: Lattice, a16pi: float) -> SpectrumKernel:
    """Populate nu and the hyperbolic arrays for every lattice mode."""
    p2 = p_squared_array(lattice)
    if not 0 <= a16pi < math.inf:
        raise ValueError(f"a16pi must be finite and nonnegative (got {a16pi!r})")
    nu = -0.25 * np.log1p(a16pi / p2)
    s, c, t = np.sinh(nu), np.cosh(nu), np.tanh(nu)
    return SpectrumKernel(lattice=lattice, a16pi=float(a16pi), nu=nu,
                          s=s, c=c, t=t, lambda0=_lambda0_from_tanh(t))


def _check_domain(k: SpectrumKernel, lam: float) -> None:
    if not abs(lam) < k.lambda0:
        raise ValueError(f"lambda {lam} outside domain (-{k.lambda0}, {k.lambda0})")


def _derivative_polynomials(order: int) -> list[list[int]]:
    """Integer coefficients of d^n g / d lambda^n as polynomials in g.

    g' = 2g + 2g^2; polys[n][j] is the coefficient of g^{j+1} in g^{(n)}.
    """
    polys = [[1]]  # g itself
    for _ in range(order - 1):
        cur = polys[-1]
        # differentiate sum_j a_j g^{j+1}:  sum_j a_j (j+1) g^j * (2g + 2g^2)
        nxt = [0] * (len(cur) + 1)
        for j, a in enumerate(cur):
            nxt[j] += 2 * a * (j + 1)
            nxt[j + 1] += 2 * a * (j + 1)
        polys.append(nxt)
    return polys


def log_mgf_derivatives(k: SpectrumKernel, lam: float, order: int) -> list[float]:
    """[Lambda(lam), Lambda'(lam), ..., Lambda^(order)(lam)], fsum-accumulated.

    Lambda = -1/2 sum_p log(c_p^2 - e^{2 lam} s_p^2), exactly 0 at lam = 0,
    is summed as log1p(-expm1(2 lam) s_p^2) (c^2 = 1 + s^2), which keeps the
    relative precision of a tiny s_p^2.  The slope of mode p's term, g =
    e^{2 lam} s^2 / (c^2 - e^{2 lam} s^2), obeys g' = 2g + 2g^2, so each
    Lambda^(j) sums an integer polynomial in g.
    """
    _check_domain(k, lam)
    s2 = k.s * k.s  # past lam = 354.9 e^{2 lam} overflows, e^lam s does not
    xs2 = math.exp(2.0 * lam) * s2 if lam < 354.0 else (math.exp(lam) * k.s) ** 2
    dxs2 = math.expm1(2.0 * lam) * s2 if lam < 354.0 else xs2  # expm1 = exp there
    args = k.c * k.c - xs2
    if np.any(args <= 0.0):
        raise ValueError("log argument nonpositive: lambda outside domain")
    out = [0.0 if lam == 0.0 else -0.5 * math.fsum(np.log1p(-dxs2).tolist())]
    if order >= 1:
        g = xs2 / args  # polynomial coefficients start at g^1
        out += [math.fsum((np.polyval(coeffs[::-1], g) * g).tolist())
                for coeffs in _derivative_polynomials(order)]
    return out


def depletion_mean(k: SpectrumKernel) -> float:
    """mu = Lambda'(0) = sum_p sinh^2(nu_p)."""
    return log_mgf_derivatives(k, 0.0, 1)[1]
