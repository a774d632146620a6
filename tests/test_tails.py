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

from bose_genfun import tails
from bose_genfun.genfun import cumulants, log_mgf_closed
from bose_genfun.lattice import build_lattice, lattice_from_vectors
from bose_genfun.spectrum import (
    build_kernel,
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


@pytest.mark.parametrize("kernel", ["two-pair", "cube-6"])
def test_newton_stops_at_the_root(kernel, monkeypatch):
    # once |Lambda' - n| is down to a few ulps of n Newton returns: no two
    # consecutive engine calls both sit at that rounding floor
    k = two_pair_kernel() if kernel == "two-pair" else build_kernel(build_lattice(6), 0.5)
    mu, sigma = depletion_mean(k), math.sqrt(variance(k))
    for j in (0.5, 1.0, 2.0, 3.0, 10.0):
        n, gaps = mu + j * sigma, []

        def engine(k, lam, order):
            out = log_mgf_derivatives(k, lam, order)
            gaps.append(abs(out[1] - n) <= 4 * 2.0**-52 * n)
            return out

        monkeypatch.setattr(tails, "log_mgf_derivatives", engine)
        b = chernoff_bound(k, n, mu)
        assert b.engine_calls == len(gaps)
        assert not any(x and y for x, y in zip(gaps, gaps[1:])), gaps
        assert abs(log_mgf_derivatives(k, b.lambda_star, 1)[1] - n) <= 1e-10 * n


def test_chernoff_unreachable_threshold_raises(monkeypatch):
    # Lambda' has a float64 ceiling below lambda0; a threshold above it is
    # reported, not searched for: its closed-form start rounds to lambda0, and
    # the last float below lambda0 still gives a valid bound
    k = two_pair_kernel()
    mu = depletion_mean(k)
    reachable = chernoff_bound(k, 1e15, mu)
    for n in (1e20, 1e300):
        b = chernoff_bound(k, n, mu)
        assert b.note == "optimum past float resolution below lambda0"
        assert b.lambda_star == math.nextafter(k.lambda0, 0.0)
        assert b.exponent == pytest.approx(
            b.lambda_star * n - log_mgf_closed(k, b.lambda_star), rel=1e-15)
        assert b.exponent >= reachable.exponent and b.engine_calls == 1
    # a cap below the Newton solve's length raises, naming the calls it made
    k = build_kernel(build_lattice(6), 0.5)
    mu = depletion_mean(k)
    n = mu + 10.0 * math.sqrt(variance(k))
    assert chernoff_bound(k, n, mu).engine_calls > 2
    monkeypatch.setattr(tails, "_ENGINE_CALL_CAP", 2)
    with pytest.raises(ArithmeticError, match="after 2 closed-form"):
        chernoff_bound(k, n, mu)


@settings(max_examples=100, deadline=None)
@given(m=st.integers(1, 6), a=st.floats(1e-6, 5.0), j=st.floats(0.01, 1e4))
def test_chernoff_starts_right_of_the_root_on_the_cube(m, a, j):
    # both closed-form starts have Lambda' >= n, Newton starts at the smaller
    # one, and the exponent is the supremum of lambda n - Lambda on (0, lambda0)
    k = build_kernel(build_lattice(m), 16.0 * math.pi * a)
    mu = depletion_mean(k)
    n = mu + j * math.sqrt(variance(k))
    abs_t = np.abs(k.t)
    starts = [0.5 * math.log(n / mu),
              k.lambda0 - 0.5 * math.log1p(np.count_nonzero(abs_t == abs_t.max()) / n)]
    for lam in starts:
        if lam < k.lambda0:
            assert log_mgf_derivatives(k, lam, 1)[1] >= n
    tried = []

    def engine(k, lam, order):
        tried.append(lam)
        return log_mgf_derivatives(k, lam, order)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tails, "log_mgf_derivatives", engine)
        b = chernoff_bound(k, n, mu)
    assert tried[0] == min(starts) and b.engine_calls == len(tried) <= 8
    sh = k.shells
    grid = np.linspace(0.0, k.lambda0, 2003)[1:-1]
    lam_grid = -0.5 * (sh.mult * np.log1p(-np.expm1(2.0 * grid[:, None]) * sh.s2)).sum(axis=1)
    best = float(np.max(grid * n - lam_grid))
    assert b.exponent >= best - 1e-12 * max(1.0, abs(b.exponent))


@pytest.mark.parametrize("a", [1e-60, 1e-160, 1e-300])
def test_chernoff_at_tiny_couplings(a):
    # lambda0 = -log|t_1| passes 354.9, where e^{2 lambda} overflows, once
    # a < ~1e-154; at 1e-300 the mean underflows to 0 as well.  P[N >= 1]
    # scales as a, with the ratio the engine gives at a = 1e-60
    k = build_kernel(build_lattice(3), 16.0 * math.pi * a)
    b = chernoff_bound(k, 1.0, depletion_mean(k))
    assert k.lambda0 > 354.9 or a == 1e-60
    assert b.note == "" and 0.0 < b.lambda_star < k.lambda0
    assert b.bound / a == pytest.approx(1.9521075887686, abs=1e-10)


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
    for nu in (NU, -0.05):
        k = kernel_from_nu(LAT, [nu] * 4)
        mu, var = depletion_mean(k), variance(k)
        for j in (0.5, 1.0, 2.0, 4.0):
            n = mu + j * math.sqrt(var)
            assert (quadratic_bound(k, n, mu, var).bound
                    <= chernoff_bound(k, n, mu).bound + 1e-15)
    # and it is no bound at all: at nu = -0.05 it falls below the exact tail
    vals, probs = depletion_distribution([-0.05, -0.05], j_cap=400)
    tail = float(probs[vals >= 2.0].sum())
    assert tail == pytest.approx(4.985e-3, rel=1e-3)
    assert quadratic_bound(k, 2.0, mu, var).bound < tail
    assert chernoff_bound(k, 2.0, mu).bound > tail


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
