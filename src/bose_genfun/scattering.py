"""Zero-energy radial scattering: solve (-Delta + V/2) f = 0, f -> 1.

With f = u/r the radial problem is u'' = (1/2) V(r) u, u(0) = 0.  Outside
the (compact) support u is exactly linear, u ~ slope * (r - a_std), which
identifies the standard scattering length a_std.  The volume integral
a_paper = integral V f dx = 4*pi * int V(r) f(r) r^2 dr equals 8*pi*a_std
identically (divergence theorem on the scattering equation), which the
solver exposes as a cross-check rather than assuming.

Integration is fixed-step RK4, split so the support edge is a grid node;
the reported residual is a step-halving (Richardson) error estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson

_RESIDUAL_TOL = 1e-10
_MAX_REFINEMENTS = 6


@dataclass(frozen=True)
class PotentialSpec:
    """Radial potential: zero | square_well | gaussian_truncated | direct.

    square_well(v, radius): V = v on [0, radius].
    gaussian_truncated(v, width, radius): V = v exp(-r^2/(2 width^2)) on [0, radius].
    direct(a): no potential; the scattering quantity is given directly.
    All lengths in torus units; v >= 0 (repulsive, compactly supported) and
    a >= 0.
    """

    kind: str
    v: float = 0.0
    radius: float = 0.0
    width: float = 0.0
    a: float = 0.0

    def __post_init__(self):
        if self.kind not in ("zero", "square_well", "gaussian_truncated", "direct"):
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind in ("square_well", "gaussian_truncated"):
            if self.v < 0:
                raise ValueError("potential height must be nonnegative")
            if self.radius <= 0:
                raise ValueError("support radius must be positive")
        if self.kind == "gaussian_truncated" and self.width <= 0:
            raise ValueError("gaussian width must be positive")
        if self.kind == "direct" and self.a < 0:
            raise ValueError("direct scattering quantity a must be nonnegative")

    @property
    def support_radius(self) -> float:
        return self.radius if self.kind in ("square_well", "gaussian_truncated") else 0.0

    def evaluate(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if self.kind == "square_well":
            return np.where(r <= self.radius, self.v, 0.0)
        if self.kind == "gaussian_truncated":
            return np.where(r <= self.radius,
                            self.v * np.exp(-0.5 * (r / self.width) ** 2), 0.0)
        if self.kind == "direct":
            raise ValueError("direct potentials carry no profile")
        return np.zeros_like(r)


@dataclass(frozen=True, eq=False)
class ScatteringSolution:
    r: np.ndarray
    u: np.ndarray
    a_std: float
    a_paper: float
    residual: float


def _rk4_segment(vfun, r0, u0, du0, r1, steps):
    """March u'' = V(r) u / 2 from r0 to r1 with `steps` RK4 steps.

    vfun must be the smooth restriction of the potential to [r0, r1]; the
    caller splits at the support edge so no step straddles the jump.
    """
    h = (r1 - r0) / steps
    rs = np.empty(steps + 1)
    us = np.empty(steps + 1)
    rs[0], us[0] = r0, u0
    u, du = u0, du0
    for i in range(steps):
        r = r0 + i * h

        def acc(rr, uu):
            return 0.5 * vfun(rr) * uu

        k1u, k1d = du, acc(r, u)
        k2u, k2d = du + 0.5 * h * k1d, acc(r + 0.5 * h, u + 0.5 * h * k1u)
        k3u, k3d = du + 0.5 * h * k2d, acc(r + 0.5 * h, u + 0.5 * h * k2u)
        k4u, k4d = du + h * k3d, acc(r + h, u + h * k3u)
        u += (h / 6.0) * (k1u + 2 * k2u + 2 * k3u + k4u)
        du += (h / 6.0) * (k1d + 2 * k2d + 2 * k3d + k4d)
        rs[i + 1] = r0 + (i + 1) * h
        us[i + 1] = u
    return rs, us, du


def _integrate(pot, r_max, n_grid):
    """Full profile on [0, r_max] with the support edge as a grid node."""
    edge = pot.support_radius
    if edge > 0.0:
        n_in = max(32, int(round(n_grid * edge / r_max)))
        n_out = max(32, n_grid - n_in)

        def v_inside(rr: float) -> float:
            return float(pot.evaluate(np.minimum(rr, edge)))

        r_in, u_in, du_edge = _rk4_segment(v_inside, 0.0, 0.0, 1.0, edge, n_in)
        r_out, u_out, _ = _rk4_segment(lambda rr: 0.0, edge, u_in[-1],
                                       du_edge, r_max, n_out)
        return np.concatenate([r_in, r_out[1:]]), np.concatenate([u_in, u_out[1:]])
    rs = np.linspace(0.0, r_max, n_grid + 1)
    return rs, rs.copy()  # V = 0 everywhere: u(r) = r exactly


def solve_scattering(pot: PotentialSpec, r_max: float, n_grid: int) -> ScatteringSolution:
    if pot.kind == "direct":
        raise ValueError("direct potentials bypass the solver")
    if n_grid < 64:
        raise ValueError("n_grid must be at least 64")
    if pot.support_radius > 0 and r_max < 2.0 * pot.support_radius:
        raise ValueError("r_max smaller than twice the support radius")
    if r_max <= 0:
        raise ValueError("r_max must be positive")

    n = n_grid
    r, u = _integrate(pot, r_max, n)
    residual = math.inf
    for _ in range(_MAX_REFINEMENTS):
        r2, u2 = _integrate(pot, r_max, 2 * n)
        # common nodes of the two grids are every other fine node per segment;
        # interpolation is adequate for the estimate
        u_on_r = np.interp(r, r2, u2)
        residual = float(np.max(np.abs(u_on_r - u)) / max(np.max(np.abs(u2)), 1e-300))
        if residual <= _RESIDUAL_TOL:
            break
        n *= 2
        r, u = r2, u2
    else:
        raise ValueError(f"scattering grid did not converge (residual {residual:.3e})")

    edge = pot.support_radius
    outside = r >= edge if edge > 0 else r > 0
    slope, intercept = np.polyfit(r[outside], u[outside], 1)
    a_std = float(-intercept / slope)

    if edge > 0.0:
        inside = r <= edge
        vals = pot.evaluate(r[inside]) * u[inside] * r[inside] / slope
        a_paper = float(4.0 * math.pi * simpson(vals, x=r[inside]))
    else:
        a_paper = 0.0
    return ScatteringSolution(r=r, u=u, a_std=a_std, a_paper=a_paper, residual=residual)


def scattering_length(pot: PotentialSpec, convention: str = "paper",
                      r_max: float | None = None, n_grid: int = 4096) -> float:
    """The scattering quantity fed into the pairing amplitudes.

    convention="paper" returns the volume integral int V f dx; "standard"
    returns the asymptote-defined a_std (the two differ by the exact factor
    8*pi).  direct(a) passes through regardless of convention.
    """
    if convention not in ("paper", "standard"):
        raise ValueError("convention must be 'paper' or 'standard'")
    if pot.kind == "direct":
        return pot.a
    if pot.kind == "zero" or pot.v == 0.0:
        return 0.0
    if r_max is None:
        r_max = 4.0 * pot.support_radius
    sol = solve_scattering(pot, r_max, n_grid)
    return sol.a_paper if convention == "paper" else sol.a_std
