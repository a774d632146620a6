"""Pairing-angle spectrum on the lattice and its summary statistics.

Frozen reference values were computed independently with mpmath at 50
digits and pasted here; the production code must reproduce them in float64.
"""

import math

import numpy as np
import pytest

from bose_genfun.lattice import build_lattice, lattice_from_vectors, p_squared_array
from bose_genfun.spectrum import (
    build_kernel,
    depletion_mean,
    log_mgf_derivatives,
)
from kernel_reference import kernel_from_nu

A16PI = 16.0 * math.pi * 0.01  # coupling for the reference column


def test_nu_single_mode_frozen():
    # smallest shell |n|=1, p^2 = 4 pi^2, a16pi = 16 pi * 0.01  (mpmath)
    lat = lattice_from_vectors([(1, 0, 0)])
    assert build_kernel(lat, A16PI).nu[0] == pytest.approx(
        -0.003163005007291267, rel=1e-14, abs=0.0)
    assert build_kernel(lat, 0.0).nu[0] == 0.0


def test_nu_monotone_and_negative():
    k = build_kernel(build_lattice(4), A16PI)
    p2 = p_squared_array(k.lattice)
    shells, first = np.unique(p2, return_index=True)
    assert np.all(k.nu < 0)
    assert np.all(np.diff(k.nu[first]) > 0)  # |nu| decreases with p^2
    assert np.array_equal(k.nu, k.nu[first][np.searchsorted(shells, p2)])


def test_nu_invalid_arguments():
    lat = lattice_from_vectors([(1, 0, 0)])
    for bad in (-0.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            build_kernel(lat, bad)
    with pytest.raises(ValueError):  # p^2 = 0 has no pairing amplitude
        lattice_from_vectors([(0, 0, 0)])


def test_kernel_cutoff10_frozen_summaries():
    k = build_kernel(build_lattice(10), A16PI)
    assert k.size == 9260
    assert depletion_mean(k) == pytest.approx(0.00015636620019603793, rel=1e-13)
    assert log_mgf_derivatives(k, 0.0, 2)[2] == pytest.approx(0.0003127337934869015, rel=1e-13)
    assert k.lambda0 == pytest.approx(5.756236086436068, rel=1e-13)


def test_hyperbolic_identity_and_evenness():
    k = build_kernel(build_lattice(2), A16PI)
    assert np.max(np.abs(k.c**2 - k.s**2 - 1.0)) < 1e-14
    assert np.allclose(k.t, k.s / k.c, rtol=1e-15, atol=0)
    neg = k.lattice.neg_index
    for arr in (k.nu, k.s, k.c, k.t):
        assert np.array_equal(arr, arr[neg])


def test_shell_degeneracy_cutoff1():
    # |n|^2 in {1, 2, 3}: exactly three distinct pairing angles
    k = build_kernel(build_lattice(1), A16PI)
    assert len(np.unique(k.nu)) == 3
    shells = np.round(p_squared_array(k.lattice) / (4.0 * math.pi**2)).astype(int)
    for shell in (1, 2, 3):
        assert len(np.unique(k.nu[shells == shell])) == 1


def test_lambda0_is_min_over_modes():
    k = build_kernel(build_lattice(2), A16PI)
    assert k.lambda0 == pytest.approx(float(np.min(-np.log(np.abs(k.t)))), rel=1e-15)


def test_kernel_from_nu_and_vanishing_angles():
    lat = lattice_from_vectors([(1, 0, 0)])
    k = kernel_from_nu(lat, [-0.3, -0.3])
    assert k.s[0] == pytest.approx(math.sinh(-0.3), rel=1e-15)
    assert k.lambda0 == pytest.approx(-math.log(math.tanh(0.3)), rel=1e-14)

    k0 = kernel_from_nu(lat, [0.0, 0.0])
    assert k0.lambda0 == math.inf
    assert depletion_mean(k0) == 0.0
    assert log_mgf_derivatives(k0, 0.0, 2)[2] == 0.0

    with pytest.raises(ValueError):
        kernel_from_nu(lat, [-0.3, -0.2])  # not even under negation


def test_mean_and_variance_formulas():
    k = build_kernel(build_lattice(2), A16PI)
    assert depletion_mean(k) == pytest.approx(float(np.sum(k.s**2)), rel=1e-14)
    assert log_mgf_derivatives(k, 0.0, 2)[2] == pytest.approx(
        2.0 * float(np.sum(k.s**2 * k.c**2)), rel=1e-14)
