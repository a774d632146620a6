"""Log-MGF of the depletion number: quadrature route vs closed product form.

The two routes are algebraically independent inside the package (adaptive
quadrature of the diagonal integrand vs -1/2 sum log(c^2 - e^{2l} s^2),
summed as log1p), so their agreement is a real check, not a tautology.
The package's numpy Gauss-Kronrod pass is also held against QUADPACK
itself (kernel_reference.log_mgf_grid_quadpack).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bose_genfun import genfun
from bose_genfun.fockoracle import build_space, mgf_oracle
from bose_genfun.genfun import (
    QuadratureStats,
    cumulants,
    fourth_central_printed_combination,
    integrand_diagonal,
    log_mgf_closed,
    log_mgf_grid,
)
from bose_genfun.lattice import build_lattice, lattice_from_vectors
from bose_genfun.spectrum import (
    _check_domain,
    build_kernel,
    depletion_mean,
    log_mgf_derivatives,
)
from kernel_reference import kernel_from_nu, log_mgf, log_mgf_grid_quadpack

A16PI = 16.0 * math.pi * 0.01


def one_pair_kernel(nu: float):
    return kernel_from_nu(lattice_from_vectors([(1, 0, 0)]), [nu, nu])


@settings(max_examples=300, deadline=None)
@given(nu=st.floats(-1.5, -1e-4), u=st.floats(-0.95, 0.95))
def test_integrand_identity_per_mode(nu, u):
    # printed fraction == e^{2k} s^2 / (c^2 - e^{2k} s^2) - s^2, relative 1e-12
    k = one_pair_kernel(nu)
    kap = u * k.lambda0
    per_mode = integrand_diagonal(k, kap) / 2.0
    s2 = math.sinh(nu) ** 2
    c2 = math.cosh(nu) ** 2
    rhs = math.exp(2 * kap) * s2 / (c2 - math.exp(2 * kap) * s2) - s2
    assert abs(per_mode - rhs) <= 1e-12 * max(1.0, abs(rhs))


def cube_shell_counts(m: int) -> np.ndarray:
    """Modes per |n|^2 = 0..3m^2 on the cube ||n||_inf <= m without the
    origin, from the three-fold convolution of the 1-D square counts."""
    sq = np.zeros(m * m + 1, dtype=np.int64)
    for x in range(-m, m + 1):
        sq[x * x] += 1
    counts = np.convolve(np.convolve(sq, sq), sq)
    counts[0] = 0
    return counts


_VECTORS = st.lists(st.tuples(*[st.integers(-2, 2)] * 3).filter(any),
                    min_size=1, max_size=4)
_A16PI = st.floats(16.0 * math.pi * 0.005, 16.0 * math.pi * 0.3)


@st.composite
def kernels(draw):
    kind = draw(st.sampled_from(["cube", "desk", "nu"]))
    if kind == "cube":
        return kind, build_kernel(build_lattice(draw(st.integers(1, 6))),
                                  draw(_A16PI))
    lat = lattice_from_vectors(draw(_VECTORS))
    if kind == "desk":
        return kind, build_kernel(lat, draw(_A16PI))
    # one nu per pair {p, -p}, drawn from a small set so that values repeat
    values = st.sampled_from([-0.8, -0.3, -0.05]) | st.floats(-1.5, -1e-4)
    nu = np.empty(lat.size)
    for i, j in lat.pairs:
        nu[i] = nu[j] = draw(values)
    return kind, kernel_from_nu(lat, nu)


@settings(max_examples=200, deadline=None)
@given(kernel=kernels(), u=st.floats(-0.95, 0.95))
def test_shell_integrand_matches_per_mode_sum(kernel, u):
    kind, k = kernel
    kap = u * k.lambda0
    s2, c2 = k.s * k.s, k.c * k.c
    ch = math.cosh(2.0 * kap) - 1.0
    per_mode = float(np.sum(c2 * s2 * (2.0 * c2 * ch - math.expm1(-2.0 * kap))
                            / (1.0 - 2.0 * c2 * s2 * ch)))
    # every term has the sign of kappa, so the sum has no cancellation
    assert abs(integrand_diagonal(k, kap) - per_mode) <= 1e-13 * abs(per_mode)
    sh = k.shells
    assert int(np.sum(sh.mult)) == k.size
    if kind == "cube":
        counts = cube_shell_counts(k.lattice.cutoff_m)
        assert sh.nu.size == np.count_nonzero(counts)
        # nu increases with |n|^2, so ascending nu lists the shells in order
        assert np.array_equal(sh.mult, counts[counts > 0])


def test_integrand_vanishes_at_zero():
    k = build_kernel(build_lattice(2), A16PI)
    assert integrand_diagonal(k, 0.0) == 0.0


def test_quadrature_matches_closed_form():
    k = build_kernel(build_lattice(2), A16PI)
    for lam in (-2.0, -0.5, 0.3, 0.9 * k.lambda0):
        q = log_mgf(k, lam)
        c = log_mgf_closed(k, lam)
        assert abs(q - c) <= 1e-12 + 1e-10 * abs(c)


@pytest.mark.parametrize("cutoff_m", [10, 40])
def test_closed_form_to_the_last_digit(cutoff_m):
    # the engine sums -1/2 log1p(-expm1(2 lam) s^2); log(c^2 - e^{2 lam} s^2)
    # cancels against c^2 ~ 1 and was up to 5e-8 relative off here.  The
    # quadrature shares none of the engine's code and is good to about 3e-16
    k = build_kernel(build_lattice(cutoff_m), A16PI)
    lams = np.array([-0.5, 0.1, 0.5])
    for lam, quad in zip(lams, log_mgf_grid(k, lams)):
        closed = log_mgf_closed(k, float(lam))
        assert abs(closed - quad) <= 1e-14 * abs(quad)


def test_grid_matches_pointwise_and_skips_nothing():
    k = build_kernel(build_lattice(1), A16PI)
    lams = np.array([0.7, -0.3, 0.0, 2.1, -1.4])  # deliberately unsorted
    grid = log_mgf_grid(k, lams, 1e-10)
    for x, got in zip(lams, grid):
        assert got == pytest.approx(log_mgf(k, float(x)), abs=1e-11)
    assert log_mgf_grid(k, np.array([])).size == 0


def test_grid_stats_count_every_integrand_call(monkeypatch):
    k = build_kernel(build_lattice(2), A16PI)
    nodes = []
    real = genfun.integrand_diagonal
    monkeypatch.setattr(genfun, "integrand_diagonal",
                        lambda k, x: nodes.append(np.size(x)) or real(k, x))
    stats = QuadratureStats()
    log_mgf_grid(k, np.array([-0.4, 0.0, 0.3, 0.6]), 1e-10, stats)
    assert stats.evals == sum(nodes) > 0
    assert 0.0 < stats.abserr_max <= 1e-10


@pytest.mark.parametrize("j", range(32))
def test_gauss_kronrod_rules_integrate_monomials(j):
    # the 21-point Kronrod rule is exact for degree <= 31, the 10-point
    # Gauss rule on its odd-indexed nodes for degree <= 19
    x = np.concatenate((-genfun._XGK[:10], genfun._XGK))
    w = np.concatenate((genfun._WGK[:10], genfun._WGK))
    exact = 2.0 / (j + 1) if j % 2 == 0 else 0.0
    assert abs(math.fsum(w * x ** j) - exact) <= 1e-15
    xg = genfun._XGK[1:10:2]
    if j <= 19:
        gauss = math.fsum(genfun._WG * xg ** j) * (1 + (-1) ** j)
        assert abs(gauss - exact) <= 1e-15


def test_qk21_panels_match_one_at_a_time():
    # many panels in one call give each panel's own value and estimate
    a = np.array([0.0, -1.0, 2.0, 0.5])
    b = np.array([1.0, -3.0, 2.5, 0.5])
    res, err = genfun._qk21(np.exp, a, b)
    for i in range(a.size):
        r1, e1 = genfun._qk21(np.exp, a[i:i + 1], b[i:i + 1])
        assert (res[i], err[i]) == (r1[0], e1[0])
    assert res == pytest.approx(np.exp(b) - np.exp(a), rel=1e-15, abs=0.0)
    assert (res[3], err[3]) == (0.0, 0.0)


_GRID_POINTS = st.lists(st.just(0.0) | st.floats(-0.99, 0.99), min_size=1,
                        max_size=6)


@settings(max_examples=60, deadline=None)
@given(kernel=kernels(), us=_GRID_POINTS, repeats=st.integers(0, 3))
def test_grid_matches_quadpack(kernel, us, repeats):
    # unsorted grids with repeated points, 0 and points near +-lambda0
    _, k = kernel
    lams = np.array(us + us[:repeats]) * k.lambda0
    ours = log_mgf_grid(k, lams)
    ref = log_mgf_grid_quadpack(k, lams)
    assert np.all(np.abs(ours - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("below", [1e-3, 1e-6, 1e-8, 2e-9])
def test_grid_matches_quadpack_next_to_lambda0(below):
    # the integrand's pole at lambda0 forces deep refinement; the default
    # panel cap suffices, and worst-panel bisection makes QUADPACK's panels
    k = build_kernel(build_lattice(10), 16.0 * math.pi * 0.02)
    lam = np.array([k.lambda0 - below])
    ours, ref = QuadratureStats(), QuadratureStats()
    got = log_mgf_grid(k, lam, stats=ours)[0]
    want = log_mgf_grid_quadpack(k, lam, stats=ref)[0]
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))
    assert ours.evals == ref.evals > 21


def test_quadrature_non_convergence_raises(monkeypatch):
    # one QUADPACK panel cannot reach 1e-10 at 0.9 lambda0; every route must
    # say so rather than return the unconverged value
    k = build_kernel(build_lattice(10), A16PI)
    lam = 0.9 * k.lambda0
    monkeypatch.setattr(genfun, "_MAX_PANELS", 1)
    with pytest.raises(ArithmeticError, match="did not converge"):
        log_mgf_grid(k, np.array([0.0, lam]))
    with pytest.raises(ArithmeticError, match="did not converge"):
        log_mgf(k, lam)


@pytest.mark.parametrize("a", [1e-4, 0.02, 0.3, 1.0])
def test_panel_cap_never_decides_a_converging_gap(a):
    # up to the CLI's clip margin (1 - 1e-9) lambda0 a gap converges in far
    # fewer than _MAX_PANELS panels; on the negative side it takes one
    k = build_kernel(build_lattice(10), 16.0 * math.pi * a)
    for frac in (0.999, 1.0 - 1e-9, -(1.0 - 1e-9)):
        stats = QuadratureStats()
        log_mgf_grid(k, np.array([frac * k.lambda0]), stats=stats)
        assert 0 < stats.evals <= 100 * 21
        assert frac > 0.0 or stats.evals == 21


@pytest.mark.parametrize("cap", [genfun._MAX_PANELS, 2000])
def test_more_panels_do_not_rescue_a_rounding_floor(cap, monkeypatch):
    # at a = 5 the error estimate next to lambda0 sits on a rounding floor
    # that refinement raises: ten times the cap still fails, only slower
    monkeypatch.setattr(genfun, "_MAX_PANELS", cap)
    k = build_kernel(build_lattice(10), 16.0 * math.pi * 5.0)
    with pytest.raises(ArithmeticError, match="loosen the tolerance"):
        log_mgf_grid(k, np.array([(1.0 - 1e-9) * k.lambda0]))


def test_arranged_value_log_three_halves():
    # s^2 = 1/4, e^{2l} = 7/3 puts each mode's log argument at 2/3:
    # Lambda = -(1/2)*2*log(2/3) = log(3/2)
    k = one_pair_kernel(math.asinh(0.5))
    lam = 0.5 * math.log(7.0 / 3.0)
    assert log_mgf_closed(k, lam) == pytest.approx(math.log(1.5), abs=1e-14)


def test_domain_rejection():
    k = build_kernel(build_lattice(1), A16PI)
    for bad in (k.lambda0, -k.lambda0, k.lambda0 + 1.0):
        with pytest.raises(ValueError):
            log_mgf_closed(k, bad)
        with pytest.raises(ValueError):
            log_mgf(k, bad)
    with pytest.raises(ValueError):
        log_mgf_grid(k, np.array([0.0, k.lambda0]))


def test_convexity_on_grid():
    k = build_kernel(build_lattice(1), A16PI)
    xs = np.linspace(-0.8 * k.lambda0, 0.8 * k.lambda0, 41)
    vals = np.array([log_mgf_closed(k, float(x)) for x in xs])
    assert np.all(np.diff(vals, 2) >= -1e-12)


def test_cumulants_low_orders():
    k = build_kernel(build_lattice(3), A16PI)
    cs = cumulants(k, 4)
    assert cs.kappa[1] == pytest.approx(depletion_mean(k), rel=1e-10)
    assert cs.kappa[2] == pytest.approx(2.0 * float(np.sum(k.s**2 * k.c**2)), rel=1e-10)
    assert cs.central[2] == pytest.approx(cs.kappa[2], rel=1e-14)
    assert cs.central[3] == pytest.approx(cs.kappa[3], rel=1e-14)
    assert cs.central[4] == pytest.approx(cs.kappa[4] + 3 * cs.kappa[2] ** 2, rel=1e-13)


def test_moments_match_cumulant_polynomials():
    k = kernel_from_nu(lattice_from_vectors([(1, 0, 0), (0, 1, 0)]), [-0.55] * 4)
    cs = cumulants(k, 4)
    k1, k2, k3, k4 = cs.kappa[1:5]
    assert cs.moments[1] == pytest.approx(k1, rel=1e-13)
    assert cs.moments[2] == pytest.approx(k2 + k1**2, rel=1e-13)
    assert cs.moments[3] == pytest.approx(k3 + 3 * k2 * k1 + k1**3, rel=1e-13)
    assert cs.moments[4] == pytest.approx(
        k4 + 4 * k3 * k1 + 3 * k2**2 + 6 * k2 * k1**2 + k1**4, rel=1e-13)


def test_fourth_central_closed_combination():
    # central[4] == 3 sigma^4 + 4 sigma^2 + 48 sum c^4 s^4 (exact identity)
    for k in (build_kernel(build_lattice(2), A16PI),
              kernel_from_nu(lattice_from_vectors([(1, 0, 0), (0, 1, 0)]), [-0.55] * 4)):
        sig2 = log_mgf_derivatives(k, 0.0, 2)[2]
        quart = float(np.sum((k.c * k.s) ** 4))
        expect = 3.0 * sig2**2 + 4.0 * sig2 + 48.0 * quart
        assert cumulants(k, 4).central[4] == pytest.approx(expect, rel=1e-12)


def test_printed_fourth_combination_disagrees():
    # the alternative printed combination is reported, never asserted equal;
    # on any kernel with nonzero angles it differs from the true central[4]
    k = kernel_from_nu(lattice_from_vectors([(1, 0, 0), (0, 1, 0)]), [-0.55] * 4)
    sig2 = log_mgf_derivatives(k, 0.0, 2)[2]
    quart = float(np.sum((k.c * k.s) ** 4))
    cs = cumulants(k, 4)
    printed = fourth_central_printed_combination(k, cs.kappa[2])
    assert printed == pytest.approx(12 * sig2**2 + 8 * sig2 + 48 * quart, rel=1e-13)
    assert abs(printed - cs.central[4]) > 1.0


def mgf_derivative_check(k, lam: float, j: int) -> float:
    """d^j/dlambda^j of e^{Lambda} by central finite differences."""
    if not 1 <= j <= 4:
        raise ValueError("derivative order must be in 1..4")
    _check_domain(k, lam)
    h = 2.5e-3
    if math.isfinite(k.lambda0):
        h = min(h, 0.1 * (k.lambda0 - abs(lam)))
        if abs(lam) + 2 * h >= k.lambda0:
            raise ValueError("finite-difference stencil exits the MGF domain")

    def f(x: float) -> float:
        return math.exp(log_mgf_closed(k, x))

    if j == 1:
        return (f(lam + h) - f(lam - h)) / (2 * h)
    if j == 2:
        return (f(lam + h) - 2 * f(lam) + f(lam - h)) / (h * h)
    if j == 3:
        return (f(lam + 2 * h) - 2 * f(lam + h) + 2 * f(lam - h) - f(lam - 2 * h)) / (2 * h ** 3)
    return (f(lam + 2 * h) - 4 * f(lam + h) + 6 * f(lam) - 4 * f(lam - h) + f(lam - 2 * h)) / h ** 4


def test_finite_difference_cross_check():
    k = build_kernel(build_lattice(1), A16PI)
    cs = cumulants(k, 4)
    # mgf_derivative_check differentiates e^Lambda, so it estimates raw moments
    for j in (1, 2):
        assert mgf_derivative_check(k, 0.0, j) == pytest.approx(
            cs.moments[j], rel=1e-6, abs=1e-9)
    lam = 0.3 * k.lambda0
    mgf = math.exp(log_mgf_closed(k, lam))
    deriv = mgf_derivative_check(k, lam, 1) / mgf
    # away from 0 the O(h^2) stencil error dominates; this is a coarse check
    assert deriv == pytest.approx(
        integrand_diagonal(k, lam) + depletion_mean(k), rel=1e-4)


def test_cumulant_order_limits():
    k = build_kernel(build_lattice(1), A16PI)
    with pytest.raises(ValueError):
        cumulants(k, 0)
    with pytest.raises(ValueError):
        cumulants(k, 13)
    with pytest.raises(ValueError):
        mgf_derivative_check(k, 0.0, 5)


def test_closed_form_against_fock_oracle_two_pairs():
    # independent pairs factorize: the 2-pair MGF is the product of 1-pair
    # oracle values, each converged at n_max = 40
    nu = -0.55
    lat = lattice_from_vectors([(1, 0, 0), (0, 1, 0)])
    k = kernel_from_nu(lat, [nu] * 4)
    lam = 0.5 * k.lambda0
    one = mgf_oracle(build_space(1, 40), [nu], np.eye(2), lam).value
    assert math.log(one * one) == pytest.approx(
        log_mgf_closed(k, lam), abs=1e-10)
    # and the genuine 2-pair space agrees within its truncation budget
    two = mgf_oracle(build_space(2, 10), [nu, nu], np.eye(4), lam,
                     required_accuracy=1e-2)
    assert math.log(two.value) == pytest.approx(
        log_mgf_closed(k, lam), abs=1e-3)
