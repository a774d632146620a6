"""Radial zero-energy scattering solver against closed forms.

For the square well of height v and radius R the reduced equation
u'' = (v/2) u has the textbook solution, giving

    a_std = R - tanh(kappa R) / kappa,   kappa = sqrt(v/2).

The volume-integral convention differs from a_std by exactly 8*pi for any
compactly supported repulsive profile, and tends to int V dx = 4*pi*v*R^3/3
in the weak-coupling (Born) limit.
"""

import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
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
    sol = solve_scattering(SQUARE, r_max=0.4, n_grid=4096)
    exact = square_well_closed_form(1.0, 0.1)
    assert abs(sol.a_std - exact) / exact < 1e-8
    # frozen (mpmath): R - tanh(R/sqrt(2))*sqrt(2)
    assert sol.a_std == pytest.approx(0.00016633400657242907, rel=1e-8)
    assert sol.residual <= 1e-10


# The benchmark workloads draw v in [0.5, 2], radius in [0.08, 0.12] and
# width/radius in [1/3, 3/4]; these ranges reach past them on both sides,
# down to weak wells whose a_std is 1e-8 of R, while keeping the scalar
# reference's accepted grid at 16384 steps or fewer.
@settings(max_examples=12, deadline=None)
@given(gaussian=st.booleans(), log10_v=st.floats(-6.0, math.log10(8.0)),
       radius=st.floats(0.03, 0.2), width_frac=st.floats(0.2, 1.0),
       window=st.floats(2.0, 6.0))
def test_step_matrices_match_scalar_reference(gaussian, log10_v, radius,
                                              width_frac, window):
    v = 10.0 ** log10_v
    pot = (PotentialSpec(kind="gaussian_truncated", v=v, radius=radius,
                         width=width_frac * radius) if gaussian else
           PotentialSpec(kind="square_well", v=v, radius=radius))
    sol = solve_scattering(pot, r_max=window * radius, n_grid=4096)
    ref = solve_reference(pot, r_max=window * radius, n_grid=4096)
    assert np.array_equal(sol.r, ref.r)
    assert np.max(np.abs(sol.u - ref.u)) <= 1e-12 * np.max(np.abs(ref.u))
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
@given(points=st.integers(3, 600), span=st.floats(0.01, 10.0),
       freq=st.floats(2.0 * math.pi, 40.0), phase=st.floats(0.0, 2.0 * math.pi),
       shift=st.floats(-0.9, 0.9))
def test_simpson_matches_scipy(points, span, freq, phase, shift):
    # uniform nodes built as the solver builds them, odd and even counts;
    # the integrand runs over a full period or more, so it changes sign
    x = np.arange(points) * (span / (points - 1))
    y = np.sin(freq * x / span + phase) + shift
    want = float(simpson(y, x=x))
    # a relative comparison needs an integral that does not cancel away
    assume(abs(want) >= 1e-3 * float(simpson(np.abs(y), x=x)))
    assert _simpson(y, x) == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("x", [[0.0, 0.0, 0.0, 0.0, 5e-324],
                               [0.0, 0.0, 0.0, 5e-324],
                               [0.0, 0.5, 0.5, 1.0, 1.0, 2.0]])
def test_simpson_follows_scipy_on_repeated_nodes(x):
    # a support radius of 5e-324 makes the solver's step underflow to 0;
    # scipy then weights the pairs with a zero spacing by 0, and warns of
    # nothing
    x = np.array(x)
    y = np.cos(x) + 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _simpson(y, x)
    assert got == float(simpson(y, x=x))


def test_volume_integral_is_8pi_times_asymptote():
    # R / a_std is about 600 for SQUARE, so its a_std is a_paper / (8 pi);
    # the strong well reads a_std from the edge state
    strong = PotentialSpec(kind="square_well", v=400.0, radius=0.1)
    assert 0.1 < 32.0 * square_well_closed_form(400.0, 0.1)
    for pot in (SQUARE, GAUSS, strong):
        sol = solve_scattering(pot, r_max=0.4, n_grid=4096)
        assert sol.a_paper == pytest.approx(8.0 * math.pi * sol.a_std, rel=1e-6)


def test_born_limit_weak_coupling():
    weak = PotentialSpec(kind="square_well", v=1e-4, radius=0.1)
    born = 4.0 * math.pi * 1e-4 * 0.1**3 / 3.0  # int V dx, frozen 4.188790e-7
    got = scattering_length(weak, convention="paper")
    assert abs(got - born) / born < 0.01
    assert got < born  # repulsion suppresses u below the free solution


def test_monotone_in_height():
    vals = [solve_scattering(PotentialSpec(kind="square_well", v=v, radius=0.1),
                             r_max=0.4, n_grid=1024).a_std
            for v in (0.5, 1.0, 2.0, 4.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_solution_grid_properties():
    sol = solve_scattering(SQUARE, r_max=0.4, n_grid=512)
    assert sol.u[0] == 0.0
    assert sol.r[0] == 0.0 and sol.r[-1] == pytest.approx(0.4)
    assert np.all(np.diff(sol.r) > 0)
    # u is concave nowhere (u'' = V u / 2 >= 0): slopes never decrease
    slopes = np.diff(sol.u) / np.diff(sol.r)
    assert np.all(np.diff(slopes) > -1e-12)


def test_zero_and_direct_potentials():
    zero = PotentialSpec(kind="zero")
    assert scattering_length(zero) == 0.0
    sol = solve_scattering(zero, r_max=1.0, n_grid=256)
    assert sol.a_std == 0.0  # the edge state of u = r is (0, 1)
    assert sol.a_paper == 0.0

    direct = PotentialSpec(kind="direct", a=0.37)
    assert scattering_length(direct, convention="paper") == 0.37
    assert scattering_length(direct, convention="standard") == 0.37
    with pytest.raises(ValueError):
        solve_scattering(direct, r_max=1.0, n_grid=256)


def test_default_window_matches_explicit():
    a = scattering_length(SQUARE, convention="paper")
    b = solve_scattering(SQUARE, r_max=0.4, n_grid=4096).a_paper
    assert a == b


def test_solver_argument_validation():
    with pytest.raises(ValueError):
        solve_scattering(SQUARE, r_max=0.4, n_grid=32)
    with pytest.raises(ValueError):
        solve_scattering(SQUARE, r_max=0.15, n_grid=256)
    with pytest.raises(ValueError):
        solve_scattering(PotentialSpec(kind="zero"), r_max=0.0, n_grid=256)
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
