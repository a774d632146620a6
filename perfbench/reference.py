"""Reference values the benchmark checks reports against.

Every scalar statistic of the cube-cutoff lattice depends on a mode only
through |n|^2, so the references here are sums over distinct shells
S = |n|^2 weighted by their multiplicities.  The multiplicities come from
the three-fold convolution of the 1-D square counts, so no part of the
package (lattice, spectrum, genfun, tails) is used to build them.
"""

from __future__ import annotations

import math

import numpy as np

FOUR_PI2 = 4.0 * math.pi ** 2


class Shells:
    """Distinct |n|^2 of the cube ||n||_inf <= M without the origin."""

    def __init__(self, cutoff_m: int):
        sq = np.zeros(cutoff_m * cutoff_m + 1, dtype=np.int64)
        for x in range(-cutoff_m, cutoff_m + 1):
            sq[x * x] += 1
        mult = np.convolve(np.convolve(sq, sq), sq)
        mult[0] = 0  # the zero mode is excluded from the lattice
        self.cutoff_m = cutoff_m
        self.s_values = np.nonzero(mult)[0]
        self.mult = mult[self.s_values].astype(float)

    @property
    def modes(self) -> int:
        return int(self.mult.sum())


class ShellStats:
    """Closed-form depletion statistics on shells for one coupling a16pi."""

    def __init__(self, shells: Shells, a16pi: float):
        p2 = FOUR_PI2 * shells.s_values.astype(float)
        nu = -0.25 * np.log1p(a16pi / p2)
        self.m = shells.mult
        self.s2 = np.sinh(nu) ** 2
        self.c2 = np.cosh(nu) ** 2
        tmax = float(np.max(np.abs(np.tanh(nu))))
        self.lambda0 = -math.log(tmax) if tmax > 0.0 else math.inf

    def cumulant(self, j: int) -> float:
        """Shell sum of kappa_j, j in (1, 2, 4), from g' = 2g + 2g^2 at g = s^2."""
        g = self.s2
        poly = {1: g,
                2: 2 * g + 2 * g ** 2,
                4: 8 * g + 56 * g ** 2 + 96 * g ** 3 + 48 * g ** 4}[j]
        return math.fsum((self.m * poly).tolist())

    @property
    def mean(self) -> float:
        return self.cumulant(1)

    @property
    def variance(self) -> float:
        return self.cumulant(2)

    @property
    def central4(self) -> float:
        return self.cumulant(4) + 3.0 * self.cumulant(2) ** 2

    def log_mgf(self, lams) -> np.ndarray:
        """Lambda(lambda) = -1/2 sum_shells m log(c^2 - e^{2 lambda} s^2)."""
        t = np.exp(2.0 * np.atleast_1d(np.asarray(lams, dtype=float)))
        args = self.c2[None, :] - t[:, None] * self.s2[None, :]
        return -0.5 * (np.log(args) @ self.m)

    def chernoff_exponent(self, n: float, points: int = 2001,
                          levels: int = 4) -> float:
        """sup over 0 < lambda < lambda0 of lambda n - Lambda(lambda).

        A dense grid over the whole interval, then dense grids over the
        two cells around the best point, `levels` times.  The objective is
        concave, so the supremum stays inside each refined bracket.
        """
        lo, hi = 1e-12, self.lambda0 * (1.0 - 1e-12)
        best = -math.inf
        for _ in range(levels):
            grid = np.linspace(lo, hi, points)
            vals = grid * n - self.log_mgf(grid)
            i = int(np.argmax(vals))
            best = max(best, float(vals[i]))
            lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, points - 1)]
        return best


def square_well_a_std(v: float, radius: float) -> float:
    """Scattering length of the well V = v on [0, radius] for u'' = V u / 2."""
    k = math.sqrt(0.5 * v)
    return radius - math.tanh(k * radius) / k
