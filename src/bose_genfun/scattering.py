"""Zero-energy radial scattering: solve (-Delta + V/2) f = 0, f -> 1.

With f = u/r the radial problem is u'' = (1/2) V(r) u, u(0) = 0.  Outside
the (compact) support u is exactly linear, u ~ slope * (r - a_std), which
identifies the standard scattering length a_std.  The volume integral
a_paper = integral V f dx = 4*pi * int V(r) f(r) r^2 dr equals 8*pi*a_std
identically (divergence theorem on the scattering equation), which the
solver exposes as a cross-check rather than assuming wherever a_std is
well conditioned.

Inside the support R the solver runs fixed-step RK4 with R as a grid
node.  The equation is linear, so each step maps (u, u') by a 2x2 matrix
that depends only on V at the step's start, midpoint and end; all step
matrices are built at once from three array evaluations of V and then
applied in one pass.  Outside R, where RK4 would be exact, u is written
as the line through the edge state, and a_std = R - u(R)/u'(R) is read
from that state.  For a weak well that subtraction cancels to about
R (kappa R)^2 / 3 and loses log2(R / a_std) bits, while the volume
integral sums nonnegative terms; past a 2^5 cancellation a_std is taken
as a_paper / (8 pi) instead.  a_paper is a composite Simpson sum over the
interior nodes.  The reported residual is a step-halving (Richardson)
error estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_RESIDUAL_TOL = 1e-10
_MAX_REFINEMENTS = 6
# Above this R / a_std the edge-state subtraction is less accurate than
# a_paper / (8 pi): over square wells their errors cross near R / a_std = 32
# (both about 1e-13 relative there), over truncated Gaussians at 20-100
_CANCELLATION_CAP = 32.0


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


def _rk4_step(w1, w2, w3, h, u, du):
    """One classical RK4 step of u'' = w(r) u, with w = V/2 sampled at the
    step's start, midpoint and end.  Works elementwise on arrays."""
    k1u, k1d = du, w1 * u
    k2u, k2d = du + 0.5 * h * k1d, w2 * (u + 0.5 * h * k1u)
    k3u, k3d = du + 0.5 * h * k2d, w2 * (u + 0.5 * h * k2u)
    k4u, k4d = du + h * k3d, w3 * (u + h * k3u)
    return (u + (h / 6.0) * (k1u + 2 * k2u + 2 * k3u + k4u),
            du + (h / 6.0) * (k1d + 2 * k2d + 2 * k3d + k4d))


def _div(a, b):
    """a / b, and 0 where b is 0 (scipy's guard for repeated nodes)."""
    return np.divide(a, b, out=np.zeros_like(b), where=b != 0)


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson sum of samples y at increasing nodes x (at least 3),
    in the operations and order of scipy.integrate.simpson: each pair of
    intervals is weighted by its own two spacings, and an even point count
    is closed by the last-interval correction of Cartwright (2017)."""
    h = np.diff(x)
    n = y.size - 1 + y.size % 2  # the odd count that pairs of intervals cover
    h0, h1 = h[0:n - 2:2], h[1:n - 1:2]
    hsum, ratio = h0 + h1, _div(h0, h1)
    total = np.sum(hsum / 6.0 * (y[0:n - 2:2] * (2.0 - _div(1.0, ratio))
                                 + y[1:n - 1:2] * (hsum * _div(hsum, h0 * h1))
                                 + y[2:n:2] * (2.0 - ratio)))
    if n < y.size:
        a, b = h[-2], h[-1]
        total += (_div(2 * b ** 2 + 3 * a * b, 6 * (b + a)) * y[-1]
                  + _div(b ** 2 + 3.0 * a * b, 6 * a) * y[-2]
                  - _div(b ** 3, 6 * a * (a + b)) * y[-3])
    return float(total)


def _integrate(pot, r_max, n_grid):
    """Profile on [0, r_max] with the support edge as a grid node, and the
    state (u, u') at the edge."""
    edge = pot.support_radius
    if edge == 0.0:  # V = 0 everywhere: u(r) = r exactly
        rs = np.linspace(0.0, r_max, n_grid + 1)
        return rs, rs.copy(), (0.0, 1.0)
    n_in = max(32, int(round(n_grid * edge / r_max)))
    n_out = max(32, n_grid - n_in)
    h = edge / n_in
    r_in = np.arange(n_in + 1) * h
    r_in[-1] = edge  # n_in * h can round past the edge
    # V/2 at the three stage points of every step; the clamp keeps the last
    # step on the smooth restriction of V to [0, edge]
    w1, w2, w3 = (0.5 * pot.evaluate(np.minimum(x, edge))
                  for x in (r_in[:-1], r_in[:-1] + 0.5 * h, r_in[:-1] + h))
    # the equation is linear, so a step maps (u, u') by a 2x2 matrix whose
    # columns are the step applied to (1, 0) and to (0, 1)
    one, zero = np.ones(n_in), np.zeros(n_in)
    m00, m10, m01, m11 = (x.tolist() for col in ((one, zero), (zero, one))
                          for x in _rk4_step(w1, w2, w3, h, *col))
    u, du = 0.0, 1.0
    u_in = [u]
    for a, b, c, d in zip(m00, m01, m10, m11):
        u, du = a * u + b * du, c * u + d * du
        u_in.append(u)
    # V = 0 outside, where u is exactly linear (RK4 would reproduce it)
    r_out = edge + np.arange(1, n_out + 1) * ((r_max - edge) / n_out)
    u_out = u + du * (r_out - edge)
    return np.concatenate([r_in, r_out]), np.concatenate([u_in, u_out]), (u, du)


# an overflowing march (huge v or radius) leaves a non-finite residual, which
# the refinement loop reports as non-convergence; numpy need not warn too
@np.errstate(over="ignore", invalid="ignore")
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
    r, u, (u_edge, du_edge) = _integrate(pot, r_max, n)
    residual = math.inf
    for _ in range(_MAX_REFINEMENTS):
        r2, u2, edge_state = _integrate(pot, r_max, 2 * n)
        # common nodes of the two grids are every other fine node per segment;
        # interpolation is adequate for the estimate
        u_on_r = np.interp(r, r2, u2)
        residual = float(np.max(np.abs(u_on_r - u)) / max(np.max(np.abs(u2)), 1e-300))
        if residual <= _RESIDUAL_TOL:
            break
        n *= 2
        r, u, (u_edge, du_edge) = r2, u2, edge_state
    else:
        raise ValueError(f"scattering grid did not converge (residual {residual:.3e})")

    # outside the support u = u'(R) (r - R) + u(R) = u'(R) (r - a_std)
    edge = pot.support_radius
    a_std = edge - u_edge / du_edge
    if edge > 0.0:
        inside = r[r <= edge]
        vals = pot.evaluate(inside) * u[:inside.size] * inside / du_edge
        a_paper = 4.0 * math.pi * _simpson(vals, inside)
        if a_std * _CANCELLATION_CAP < edge:
            a_std = a_paper / (8.0 * math.pi)
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
