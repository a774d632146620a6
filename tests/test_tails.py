"""Tail bounds and the non-concentration witness.

The exact distribution of the depletion number (independent per-pair
geometric law in quanta pairs) is available from the Fock oracle module, so
the Chernoff bound and the witness can be certified against ground truth
rather than against themselves.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bose_genfun.genfun import cumulants, log_mgf_closed
from bose_genfun.lattice import lattice_from_vectors
from bose_genfun.spectrum import (
    depletion_mean,
    log_mgf_derivatives,
)
from bose_genfun.tails import (
    chernoff_bound,
    nonconcentration_witness,
    quadratic_bound,
)
from fock_reference import depletion_distribution
from kernel_reference import kernel_from_nu

NU = -0.55
LAT = lattice_from_vectors([(1, 0, 0), (0, 1, 0)])


def variance(k):
    """sigma^2 = Lambda''(0), from the closed-form engine."""
    return log_mgf_derivatives(k, 0.0, 2)[2]


def two_pair_kernel():
    return kernel_from_nu(LAT, [NU] * 4)


def test_trivial_below_mean():
    k = two_pair_kernel()
    mu = depletion_mean(k)
    var = variance(k)
    for n in (0.0, 0.5 * mu, mu):
        for b in (chernoff_bound(k, n, mu), quadratic_bound(k, n, mu, var)):
            assert b.bound == 1.0 and b.exponent == 0.0
            assert "trivial" in b.note


def test_vanishing_angles():
    k0 = kernel_from_nu(LAT, [0.0] * 4)
    mu, var = depletion_mean(k0), variance(k0)
    b = chernoff_bound(k0, 1.0, mu)
    assert b.bound == 0.0 and math.isinf(b.exponent)
    assert "vanish" in b.note
    assert chernoff_bound(k0, 0.0, mu).bound == 1.0
    q = quadratic_bound(k0, 1.0, mu, var)
    assert q.bound == 0.0 and "zero variance" in q.note
    with pytest.raises(ValueError):
        nonconcentration_witness(var, 1.0)


def test_chernoff_exponent_against_grid():
    k = two_pair_kernel()
    mu = depletion_mean(k)
    n = mu + 2.0 * math.sqrt(variance(k))
    b = chernoff_bound(k, n, mu)
    grid = np.linspace(1e-12, k.lambda0 - 1e-12, 40001)
    vals = grid * n - np.array([log_mgf_closed(k, float(x)) for x in grid])
    assert b.exponent == pytest.approx(float(vals.max()), abs=1e-8)
    assert 0.0 < b.lambda_star < k.lambda0
    assert b.bound == pytest.approx(math.exp(-b.exponent), rel=1e-15)


@settings(max_examples=200, deadline=None)
@given(nu_a=st.floats(-1.5, -0.05), nu_b=st.floats(-1.5, -0.05),
       u=st.floats(-0.9, 0.9), j=st.floats(0.01, 30.0))
def test_engine_derivatives_and_chernoff_slope(nu_a, nu_b, u, j):
    # LAT orders its modes (-1,0,0), (0,-1,0), (0,1,0), (1,0,0)
    k = kernel_from_nu(LAT, [nu_a, nu_b, nu_b, nu_a])
    lam = u * k.lambda0
    # five-point central differences: O(h^4) truncation keeps h large
    # enough that rounding in Lambda stays far below the tolerance
    h = 1e-2 * (k.lambda0 - abs(lam))
    f = [log_mgf_derivatives(k, lam + i * h, 0)[0] for i in (-2, -1, 0, 1, 2)]
    _, d1, d2 = log_mgf_derivatives(k, lam, 2)
    assert d1 == pytest.approx((f[0] - 8 * f[1] + 8 * f[3] - f[4]) / (12 * h), rel=1e-6)
    assert d2 == pytest.approx(
        (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h), rel=1e-6)

    mu = depletion_mean(k)
    n = mu + j * math.sqrt(variance(k))
    b = chernoff_bound(k, n, mu)
    assert 0.0 < b.lambda_star < k.lambda0
    assert abs(log_mgf_derivatives(k, b.lambda_star, 1)[1] - n) <= 1e-10 * n


def test_chernoff_unreachable_threshold_raises():
    # Lambda' has a float64 ceiling below lambda0; a threshold above it is
    # reported, not searched for forever
    k = two_pair_kernel()
    with pytest.raises(ArithmeticError):
        chernoff_bound(k, 1e300, depletion_mean(k))


def test_quadratic_bound_formulas():
    k = two_pair_kernel()
    mu, var = depletion_mean(k), variance(k)
    # interior optimum: lambda* = (n - mu)/var below lambda0
    n_in = mu + 0.25 * var * k.lambda0
    b = quadratic_bound(k, n_in, mu, var)
    assert b.note == ""
    assert b.lambda_star == pytest.approx((n_in - mu) / var, rel=1e-15)
    assert b.exponent == pytest.approx((n_in - mu) ** 2 / (2 * var), rel=1e-15)
    # clipped branch
    n_out = mu + 3.0 * var * k.lambda0
    c = quadratic_bound(k, n_out, mu, var)
    assert c.note == "optimum clipped to lambda0"
    assert c.lambda_star == k.lambda0
    assert c.exponent == pytest.approx(
        (n_out - mu) * k.lambda0 - 0.5 * k.lambda0**2 * var, rel=1e-15)


def test_quadratic_never_beats_chernoff_here():
    # every cumulant of the depletion law is positive, so the quadratic
    # model UNDERestimates Lambda and its "bound" is the optimistic one;
    # the direction is documented, not the reverse
    k = two_pair_kernel()
    mu, var = depletion_mean(k), variance(k)
    for j in (0.5, 1.0, 2.0, 4.0):
        n = mu + j * math.sqrt(var)
        assert (quadratic_bound(k, n, mu, var).bound
                <= chernoff_bound(k, n, mu).bound + 1e-15)


def test_chernoff_bound_is_valid_against_exact_law():
    k = two_pair_kernel()
    mu = depletion_mean(k)
    vals, probs = depletion_distribution([NU, NU], j_cap=400)
    for n in np.linspace(mu + 0.3, mu + 9.0, 15):
        tail = float(probs[vals >= n].sum())
        assert chernoff_bound(k, float(n), mu).bound >= tail


def test_witness_formulas_and_bounds():
    k = two_pair_kernel()
    e4 = cumulants(k, 4).central[4]
    var = variance(k)
    w = nonconcentration_witness(var, e4)
    assert w.n == pytest.approx(0.5 * math.sqrt(var), rel=1e-15)
    assert (w.n + w.m) ** 2 == pytest.approx(4.0 * e4 / var, rel=1e-14)
    assert w.epsilon == pytest.approx(var**2 / (8.0 * e4), rel=1e-15)
    assert 0.0 < w.epsilon <= 0.125  # epsilon <= 1/8 always (E4 >= sigma^4)
    assert w.second_moment == var and w.fourth_moment == e4


def test_witness_synthetic_arithmetic():
    # sigma^2 = 4, E4 = 48: n = 1, (n+m)^2 = 48, epsilon = 1/24.
    # One pair with s^2 c^2 = 1 (i.e. s^2 = (sqrt 5 - 1)/2) has variance
    # 2 * 2 * s^2 c^2 = 4; the fourth moment is injected by hand.
    lat = lattice_from_vectors([(1, 0, 0)])
    s2 = (math.sqrt(5.0) - 1.0) / 2.0
    k = kernel_from_nu(lat, [-math.asinh(math.sqrt(s2))] * 2)
    var = variance(k)
    assert var == pytest.approx(4.0, rel=1e-12)
    w = nonconcentration_witness(var, 48.0)
    assert w.n == pytest.approx(1.0, rel=1e-12)
    assert (w.n + w.m) ** 2 == pytest.approx(48.0, rel=1e-12)
    assert w.epsilon == pytest.approx(1.0 / 24.0, rel=1e-12)


def test_witness_certified_against_exact_law():
    # P[|N - mu| > n] >= epsilon for the true distribution
    k = two_pair_kernel()
    mu = depletion_mean(k)
    w = nonconcentration_witness(variance(k), cumulants(k, 4).central[4])
    vals, probs = depletion_distribution([NU, NU], j_cap=400)
    p = float(probs[np.abs(vals - mu) > w.n].sum())
    assert p >= w.epsilon


def test_witness_rejects_impossible_moments():
    k = two_pair_kernel()
    var = variance(k)
    with pytest.raises(ValueError):
        nonconcentration_witness(var, 0.5 * var * var)
