"""Zero-energy radial scattering: solve (-Delta + V/2) f = 0, f -> 1.

With f = u/r the radial problem is u'' = (1/2) V(r) u, u(0) = 0.  Outside
the (compact) support u is exactly linear, u ~ slope * (r - a_std), which
identifies the standard scattering length a_std.  The volume integral
a_paper = integral V f dx = 4*pi * int V(r) f(r) r^2 dr equals 8*pi*a_std
identically (divergence theorem on the scattering equation), which the
solver exposes as a cross-check rather than assuming wherever a_std is
well conditioned.

The solver marches only the support [0, R]: fixed-step RK4 with 1024
steps, R the last node.  The equation is linear, so each step maps
(u, u') by a 2x2 matrix that depends only on V at the step's start,
midpoint and end; all step matrices are built at once from three array
evaluations of V and then applied in one pass.  The step count doubles
(at most six times) until a step-halving (Richardson) residual over
[0, 4R] is at most 1e-10; outside R, where u is the line through the edge
state, that residual needs only the values at R and 4R.  a_std =
R - u(R)/u'(R) is read from the edge state.  For a weak well that
subtraction cancels to about R (kappa R)^2 / 3 and loses log2(R / a_std)
bits, while the volume integral sums nonnegative terms; past a 2^5
cancellation a_std is taken as a_paper / (8 pi) instead.  a_paper is a
uniform composite Simpson sum over the march's nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_RESIDUAL_TOL = 1e-10
_STEPS = 1024  # RK4 steps on [0, R] before any doubling
_MAX_REFINEMENTS = 6
_WINDOW = 4.0  # the residual is taken over [0, _WINDOW * R]
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
    """The accepted march on [0, R], both lengths and the residual."""

    r: np.ndarray
    u: np.ndarray
    a_std: float
    a_paper: float
    residual: float

    def length(self, convention: str) -> float:
        """The scattering quantity of a convention: a_paper or a_std."""
        return self.a_paper if convention == "paper" else self.a_std


def _rk4_step(w1, w2, w3, h, u, du):
    """One classical RK4 step of u'' = w(r) u, with w = V/2 sampled at the
    step's start, midpoint and end.  Works elementwise on arrays."""
    k1u, k1d = du, w1 * u
    k2u, k2d = du + 0.5 * h * k1d, w2 * (u + 0.5 * h * k1u)
    k3u, k3d = du + 0.5 * h * k2d, w2 * (u + 0.5 * h * k2u)
    k4u, k4d = du + h * k3d, w3 * (u + h * k3u)
    return (u + (h / 6.0) * (k1u + 2 * k2u + 2 * k3u + k4u),
            du + (h / 6.0) * (k1d + 2 * k2d + 2 * k3d + k4d))


def _simpson(y: np.ndarray, h: float) -> float:
    """Composite Simpson sum of samples y at an odd number of nodes h apart."""
    w = np.full(y.size, 2.0)
    w[1::2], w[0], w[-1] = 4.0, 1.0, 1.0
    return h / 3.0 * float(w @ y)


def _integrate(pot, n):
    """n RK4 steps across the support: the nodes, u there, u' at the edge."""
    edge = pot.support_radius
    h = edge / n
    r = np.arange(n + 1) * h
    r[-1] = edge  # n * h can round past the edge
    # V/2 at the three stage points of every step; the clamp keeps the last
    # step on the smooth restriction of V to [0, edge]
    w1, w2, w3 = (0.5 * pot.evaluate(np.minimum(x, edge))
                  for x in (r[:-1], r[:-1] + 0.5 * h, r[:-1] + h))
    # the equation is linear, so a step maps (u, u') by a 2x2 matrix whose
    # columns are the step applied to (1, 0) and to (0, 1)
    one, zero = np.ones(n), np.zeros(n)
    m00, m10, m01, m11 = (x.tolist() for col in ((one, zero), (zero, one))
                          for x in _rk4_step(w1, w2, w3, h, *col))
    u, du = 0.0, 1.0
    us = [u]
    for a, b, c, d in zip(m00, m01, m10, m11):
        u, du = a * u + b * du, c * u + d * du
        us.append(u)
    return r, np.array(us), du


# an overflowing march (huge v or radius) leaves a non-finite residual, which
# the refinement loop reports as non-convergence; numpy need not warn too
@np.errstate(over="ignore", invalid="ignore")
def solve_scattering(pot: PotentialSpec) -> ScatteringSolution:
    edge = pot.support_radius
    if edge == 0.0:
        raise ValueError(f"{pot.kind} potentials have no profile to solve")
    if not edge / (_STEPS << _MAX_REFINEMENTS) >= np.finfo(float).tiny:
        raise ValueError(f"support radius {edge!r} is too small to march")

    n = _STEPS
    r, u, du = _integrate(pot, n)
    span = (_WINDOW - 1.0) * edge  # the part of the window past the support
    for _ in range(_MAX_REFINEMENTS):
        r2, u2, du2 = _integrate(pot, 2 * n)
        # the fine nodes hold every coarse node; outside R both profiles
        # are lines, so their gap there peaks at R or at the window's end
        far, far2 = u[-1] + du * span, u2[-1] + du2 * span
        # u rises from 0, so far2 is the largest |u2| in the window
        residual = float(np.max(np.abs(u2[::2] - u), initial=abs(far2 - far))) / far2
        if residual <= _RESIDUAL_TOL:
            break
        n *= 2
        r, u, du = r2, u2, du2
    else:
        raise ValueError(f"scattering grid did not converge (residual {residual:.3e})")

    # outside the support u = u'(R) (r - R) + u(R) = u'(R) (r - a_std)
    a_std = edge - float(u[-1]) / du
    a_paper = 4.0 * math.pi * _simpson(pot.evaluate(r) * u * r / du, edge / n)
    if a_std * _CANCELLATION_CAP < edge:
        a_std = a_paper / (8.0 * math.pi)
    return ScatteringSolution(r=r, u=u, a_std=a_std, a_paper=a_paper, residual=residual)


def scattering_length(pot: PotentialSpec, convention: str = "paper") -> float:
    """The scattering quantity fed into the pairing amplitudes.

    convention="paper" returns the volume integral int V f dx; "standard"
    returns the asymptote-defined a_std (the two differ by the exact factor
    8*pi).  direct(a) passes through regardless of convention.
    """
    if convention not in ("paper", "standard"):
        raise ValueError("convention must be 'paper' or 'standard'")
    if pot.kind == "direct":
        return pot.a
    if pot.kind == "zero":
        return 0.0
    return solve_scattering(pot).length(convention)
