"""Radial zero-energy scattering solver against closed forms.

For the square well of height v and radius R the reduced equation
u'' = (v/2) u has the textbook solution, giving

    a_std = R - tanh(kappa R) / kappa,   kappa = sqrt(v/2).

The volume-integral convention differs from a_std by exactly 8*pi for any
compactly supported repulsive profile, and tends to int V dx = 4*pi*v*R^3/3
in the weak-coupling (Born) limit.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import simpson

from bose_genfun.scattering import (
    PotentialSpec,
    _simpson,
    scattering_length,
    solve_scattering,
)
from scattering_reference import solve_reference

SQUARE = PotentialSpec(kind="square_well", v=1.0, radius=0.1)
GAUSS = PotentialSpec(kind="gaussian_truncated", v=1.0, width=0.05, radius=0.1)


def square_well_closed_form(v: float, radius: float) -> float:
    """R - tanh(kappa R) / kappa in 60-digit decimal arithmetic, so the
    cancellation of a weak well (down to R (kappa R)^2 / 3) costs no float
    digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        v, radius = Decimal(v), Decimal(radius)
        kappa = (v / 2).sqrt()
        e = (2 * kappa * radius).exp()
        return float(radius - (e - 1) / (e + 1) / kappa)


def test_square_well_against_closed_form():
    sol = solve_scattering(SQUARE)
    exact = square_well_closed_form(1.0, 0.1)
    assert abs(sol.a_std - exact) / exact < 1e-8
    # frozen (mpmath): R - tanh(R/sqrt(2))*sqrt(2)
    assert sol.a_std == pytest.approx(0.00016633400657242907, rel=1e-8)
    assert sol.residual <= 1e-10


# The benchmark workloads draw v in [0.5, 2], radius in [0.08, 0.12] and
# width/radius in [1/3, 3/4]; these ranges reach past them on both sides,
# down to weak wells whose a_std is 1e-8 of R, while keeping the scalar
# reference's accepted grid at 16384 steps or fewer.  The reference marches
# the exterior too, over the solver's residual window [0, 4R]; the solver
# keeps only the support, the reference's first nodes.
@settings(max_examples=12, deadline=None)
@given(gaussian=st.booleans(), log10_v=st.floats(-6.0, math.log10(8.0)),
       radius=st.floats(0.03, 0.2), width_frac=st.floats(0.2, 1.0))
def test_step_matrices_match_scalar_reference(gaussian, log10_v, radius,
                                              width_frac):
    v = 10.0 ** log10_v
    pot = (PotentialSpec(kind="gaussian_truncated", v=v, radius=radius,
                         width=width_frac * radius) if gaussian else
           PotentialSpec(kind="square_well", v=v, radius=radius))
    sol = solve_scattering(pot)
    ref = solve_reference(pot, r_max=4.0 * radius, n_grid=4096)
    inside = ref.r <= radius
    assert np.array_equal(sol.r, ref.r[inside])
    assert np.max(np.abs(sol.u - ref.u[inside])) <= 1e-12 * np.max(np.abs(ref.u))
    assert sol.a_paper == pytest.approx(ref.a_paper, rel=1e-11)
    assert sol.residual <= 1e-10
    if not gaussian:
        # R - u(R)/u'(R) cancels down to about R (kappa R)^2 / 3; past a 2^5
        # cancellation a_std comes from the volume integral, so it keeps
        # its relative accuracy however weak the well
        exact = square_well_closed_form(v, radius)
        assert abs(sol.a_std - exact) <= 1e-12 * exact


@pytest.mark.parametrize("v", [1e-6, 1e-4, 1e-2])
def test_weak_well_a_std_is_relatively_accurate(v):
    # at v = 1e-4, R = 0.1 the edge-state subtraction alone is 6.2e-9 off
    for convention in ("standard", "paper"):
        got = scattering_length(PotentialSpec(kind="square_well", v=v, radius=0.1),
                                convention=convention)
        want = square_well_closed_form(v, 0.1)
        if convention == "paper":
            want *= 8.0 * math.pi
        assert abs(got - want) <= 1e-13 * want


@settings(max_examples=60, deadline=None)
@given(pairs=st.integers(1, 300), span=st.floats(0.01, 10.0),
       freq=st.floats(2.0 * math.pi, 40.0), phase=st.floats(0.0, 2.0 * math.pi),
       shift=st.floats(-0.9, 0.9))
@example(pairs=21, span=1.0, freq=31.125, phase=0.0, shift=0.0)  # cancels 475x
def test_simpson_matches_scipy(pairs, span, freq, phase, shift):
    # uniform nodes built as the solver builds them, always an odd count;
    # the integrand runs over a full period or more, so it changes sign
    h = span / (2 * pairs)
    x = np.arange(2 * pairs + 1) * h
    y = np.sin(freq * x / span + phase) + shift
    # both sums round on the scale of the integral of |y|, however much the
    # integral itself cancels
    scale = float(simpson(np.abs(y), x=x))
    assert abs(_simpson(y, h) - float(simpson(y, x=x))) <= 1e-13 * scale


def test_volume_integral_is_8pi_times_asymptote():
    # R / a_std is about 600 for SQUARE, so its a_std is a_paper / (8 pi);
    # the strong well reads a_std from the edge state
    strong = PotentialSpec(kind="square_well", v=400.0, radius=0.1)
    assert 0.1 < 32.0 * square_well_closed_form(400.0, 0.1)
    for pot in (SQUARE, GAUSS, strong):
        sol = solve_scattering(pot)
        assert sol.a_paper == pytest.approx(8.0 * math.pi * sol.a_std, rel=1e-6)


def test_born_limit_weak_coupling():
    weak = PotentialSpec(kind="square_well", v=1e-4, radius=0.1)
    born = 4.0 * math.pi * 1e-4 * 0.1**3 / 3.0  # int V dx, frozen 4.188790e-7
    got = scattering_length(weak, convention="paper")
    assert abs(got - born) / born < 0.01
    assert got < born  # repulsion suppresses u below the free solution


def test_monotone_in_height():
    vals = [solve_scattering(PotentialSpec(kind="square_well", v=v, radius=0.1)).a_std
            for v in (0.5, 1.0, 2.0, 4.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_solution_grid_properties():
    sol = solve_scattering(SQUARE)
    assert sol.u[0] == 0.0
    # the march covers the support alone, 1024 steps doubled as needed
    assert sol.r[0] == 0.0 and sol.r[-1] == 0.1
    assert (sol.r.size - 1) % 1024 == 0
    assert np.all(np.diff(sol.r) > 0)
    # u is concave nowhere (u'' = V u / 2 >= 0): slopes never decrease
    slopes = np.diff(sol.u) / np.diff(sol.r)
    assert np.all(np.diff(slopes) > -1e-12)


def test_zero_and_direct_potentials():
    # neither has a profile to solve; zero scatters nothing, direct(a)
    # passes a through
    zero = PotentialSpec(kind="zero")
    direct = PotentialSpec(kind="direct", a=0.37)
    for convention in ("paper", "standard"):
        assert scattering_length(zero, convention=convention) == 0.0
        assert scattering_length(direct, convention=convention) == 0.37
    for pot in (zero, direct):
        with pytest.raises(ValueError):
            solve_scattering(pot)


def test_radius_below_a_normal_finest_step_is_refused():
    # the finest step R / 65536 must be a normal float: at 5e-324 it
    # rounds to 0, and a_std came out 4.94e-324 next to a_paper = 0
    for radius in (5e-324, 1e-310, 2.0 ** -1007):
        with pytest.raises(ValueError, match="too small"):
            solve_scattering(PotentialSpec(kind="square_well", v=1.0, radius=radius))
    smallest = PotentialSpec(kind="square_well", v=1.0, radius=2.0 ** -1006)
    assert solve_scattering(smallest).residual <= 1e-10


def test_solver_argument_validation():
    with pytest.raises(ValueError):
        scattering_length(SQUARE, convention="volume")


def test_potential_spec_validation():
    with pytest.raises(ValueError):
        PotentialSpec(kind="coulomb")
    with pytest.raises(ValueError):
        PotentialSpec(kind="square_well", v=-1.0, radius=0.1)
    with pytest.raises(ValueError):
        PotentialSpec(kind="square_well", v=1.0, radius=0.0)
    with pytest.raises(ValueError):
        PotentialSpec(kind="gaussian_truncated", v=1.0, width=0.0, radius=0.1)
    with pytest.raises(ValueError):
        PotentialSpec(kind="direct", a=0.1).evaluate(np.array([0.0]))
