"""Reference scalar RK4 for the zero-energy scattering solve (tests only).

The package's solver marches only the support [0, R] (1024 steps, doubled
as needed), builds the 2x2 RK4 step matrix of every step at once, takes
the exterior part of its residual from the edge lines at R and 4R, and
sums a_paper with a uniform Simpson rule.  This module keeps the scalar
RK4 it replaced, called on the window [0, 4R] with n_grid = 4096 (1024
steps inside R): one potential evaluation per stage, one step at a time
through the exterior too, interpolation onto the coarse grid for the
residual, the least-squares fit of the exterior line for a_std and
scipy's Simpson rule.  It has no ``test_`` prefix, so pytest imports it
but collects nothing from it.
"""

import math

import numpy as np
from scipy.integrate import simpson

from bose_genfun.scattering import (_MAX_REFINEMENTS, _RESIDUAL_TOL,
                                    ScatteringSolution)


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
        r_in[-1] = edge  # n_in * h can round past the edge
        r_out, u_out, _ = _rk4_segment(lambda rr: 0.0, edge, u_in[-1],
                                       du_edge, r_max, n_out)
        return np.concatenate([r_in, r_out[1:]]), np.concatenate([u_in, u_out[1:]])
    rs = np.linspace(0.0, r_max, n_grid + 1)
    return rs, rs.copy()  # V = 0 everywhere: u(r) = r exactly


def solve_reference(pot, r_max: float, n_grid: int) -> ScatteringSolution:
    """The package's refinement policy and residual on the scalar RK4, with
    a_std from a line fitted to the exterior nodes."""
    n = n_grid
    r, u = _integrate(pot, r_max, n)
    for _ in range(_MAX_REFINEMENTS):
        r2, u2 = _integrate(pot, r_max, 2 * n)
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
    a_paper = 0.0
    if edge > 0.0:
        inside = r <= edge
        vals = pot.evaluate(r[inside]) * u[inside] * r[inside] / slope
        a_paper = float(4.0 * math.pi * simpson(vals, x=r[inside]))
    return ScatteringSolution(r=r, u=u, a_std=float(-intercept / slope),
                              a_paper=a_paper, residual=residual)
