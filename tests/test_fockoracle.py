"""Truncated Fock-space oracle: exact small-system quantum mechanics.

Everything here is brute force on purpose; these objects exist to certify
the analytic routes, so they must themselves be checked only against
textbook ladder-operator algebra and closed forms.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply
from hypothesis import given, settings, strategies as st

from bose_genfun import fockoracle
from bose_genfun.fockoracle import (
    DIM_CAP,
    _conjugation_defect,
    _dgamma,
    _expm_stack,
    _k,
    _ladder,
    _sectors,
    _stack,
    bch_check,
    bogoliubov_action_defect,
    build_space,
    mgf_oracle,
    squeezed_vacuum,
)
from fock_reference import (
    _expm_pair_by_sector,
    bch_check_dense,
    bogoliubov_action_defect_dense,
    build_bogoliubov_generator,
    conjugation_defect_by_sector,
    depletion_distribution,
    number_operator,
    op_annihilate,
    op_create,
    pair_amplitudes,
    second_quantized,
)


def one_pair_mgf_closed(nu: float, lam: float) -> float:
    s2, c2 = math.sinh(nu) ** 2, math.cosh(nu) ** 2
    return 1.0 / (c2 - math.exp(2 * lam) * s2)


def test_dimensions_and_caps():
    assert build_space(1, 3).dim == 16
    assert build_space(1, 20).dim == 441
    assert build_space(2, 10).dim == 14641
    with pytest.raises(ValueError):
        build_space(2, 14)  # 50625 > DIM_CAP
    with pytest.raises(ValueError):
        build_space(3, 4)
    with pytest.raises(ValueError):
        build_space(1, 1)
    assert (20 + 1) ** 4 > DIM_CAP  # cap really is what limits 2-pair depth


def test_ladder_algebra():
    space = build_space(1, 6)
    vac = np.zeros(space.dim, dtype=complex)
    vac[0] = 1.0
    for m in range(space.modes):
        a = op_annihilate(space, m)
        assert np.max(np.abs(a @ vac)) == 0.0
        # a* a counts quanta in the mode
        n_op = (op_create(space, m) @ a).toarray()
        assert np.allclose(np.diag(n_op), space.occupations[:, m])
        assert np.max(np.abs(n_op - np.diag(np.diag(n_op)))) == 0.0
        # [a, a*] = 1 away from the top rung
        comm = (a @ a.conj().T - a.conj().T @ a).toarray()
        keep = space.occupations[:, m] < space.n_max
        assert np.allclose(comm[np.ix_(keep, keep)], np.eye(keep.sum()), atol=1e-14)


def test_second_quantized_identity_is_number_operator():
    space = build_space(2, 4)
    dg = second_quantized(space, np.eye(4))
    # sqrt(n)*sqrt(n) only reproduces n to roundoff
    assert sp.linalg.norm(dg - number_operator(space)) < 1e-12
    with pytest.raises(ValueError):
        second_quantized(space, np.eye(3))


def test_generator_antihermitian():
    space = build_space(2, 5)
    k = build_bogoliubov_generator(space, [-0.3, 0.2])
    assert sp.linalg.norm(k + k.conj().T) < 1e-14


def test_squeezed_vacuum_structure():
    nu = -0.45
    space = build_space(1, 30)
    v, est = squeezed_vacuum(space, [nu])
    assert est < 1e-12
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    # two-mode squeezed state: amplitude sech(nu) tanh(nu)^n on |n,n>
    occ = space.occupations
    diag = occ[:, 0] == occ[:, 1]
    amps = v[diag]
    ns = occ[diag, 0]
    expect = (1.0 / math.cosh(nu)) * np.tanh(nu) ** ns
    assert np.max(np.abs(amps - expect)) < 1e-12
    assert np.max(np.abs(v[~diag])) < 1e-13
    # mean quanta 2 sinh^2 nu
    n_mean = float(np.vdot(v, number_operator(space) @ v).real)
    assert n_mean == pytest.approx(2.0 * math.sinh(nu) ** 2, rel=1e-12)


@pytest.mark.parametrize("nu", [(-0.45, -0.3), (0.0, -0.5)])
def test_squeezed_vacuum_is_the_product_of_pair_states(nu):
    # e^K vac built pair by pair equals e^K applied to vac on the 2-pair space
    space = build_space(2, 6)
    vac = np.zeros(space.dim, dtype=complex)
    vac[0] = 1.0
    want = expm_multiply(build_bogoliubov_generator(space, nu), vac)
    got, _ = squeezed_vacuum(space, nu)
    assert np.max(np.abs(got - want)) < 1e-13


def test_squeezed_vacuum_exponentiates_one_block_per_pair(monkeypatch):
    shapes = []

    def spy(a):
        shapes.append(a.shape)
        return _expm_stack(a)

    monkeypatch.setattr(fockoracle, "_expm_stack", spy)
    squeezed_vacuum(build_space(2, 10), [-0.3, -0.2])
    assert shapes == [(2, 11, 11)]


def test_mgf_oracle_against_closed_form():
    nu, lam = -0.55, 0.3
    got = mgf_oracle(build_space(1, 40), [nu], np.ones(2), lam)
    assert got.value == pytest.approx(one_pair_mgf_closed(nu, lam), rel=1e-13)
    assert got.truncation_estimate < 1e-10


@settings(max_examples=40, deadline=None)
@given(nu=st.floats(-0.6, 0.0), frac=st.floats(-0.9, 0.7, exclude_max=True,
                                               exclude_min=True))
def test_mgf_oracle_one_pair_relative_accuracy(nu, frac):
    # the Taylor exponentials keep the small tail amplitudes to relative
    # accuracy, so e^{lam N} does not amplify their rounding
    lam0 = math.inf if nu == 0.0 else -math.log(math.tanh(-nu))
    lam = frac * min(lam0, 2.0)
    got = mgf_oracle(build_space(1, 40), [nu], np.ones(2), lam,
                     required_accuracy=math.inf)
    if got.truncation_estimate <= 1e-12:
        assert got.value == pytest.approx(one_pair_mgf_closed(nu, lam), rel=1e-12)


@settings(max_examples=12, deadline=None)
@given(data=st.data(), pairs=st.sampled_from([1, 2]))
def test_sector_blocks_equal_sparse_builders(data, pairs):
    # the padded blocks read off the occupation table are the sparse
    # builders' entries, bit for bit, and nothing of either lies outside the
    # sectors or in the padding
    space = build_space(pairs, data.draw(st.integers(2, 9) if pairs == 1
                                         else st.integers(2, 4)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    shape = (space.modes, space.modes)
    o = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    o[rng.random(o.shape) < 0.3] = 0.0
    nu = rng.uniform(-0.5, 0.5, space.pairs)
    occ = space.occupations
    for charge, images, ref in (
            (occ.sum(axis=1), lambda idx: _dgamma(space, o, idx),
             second_quantized(space, o)),
            (occ[:, 0::2] - occ[:, 1::2], lambda idx: _k(space, nu, idx),
             build_bogoliubov_generator(space, nu))):
        sectors = list(_sectors(charge).values())
        blocks = _stack(space, images(np.concatenate(sectors)), sectors, sectors)
        full = np.zeros((space.dim, space.dim), dtype=complex)
        for idx, block in zip(sectors, blocks):
            full[np.ix_(idx, idx)] = block[:idx.size, :idx.size]
            assert not block[idx.size:].any() and not block[:, idx.size:].any()
        assert np.array_equal(full, ref.toarray())
    every = np.arange(space.dim)
    for m in range(space.modes):
        for step, ref in ((-1, op_annihilate(space, m)), (1, op_create(space, m))):
            got = _stack(space, [_ladder(space, [(m, step)], every)], [every], [every])
            assert np.array_equal(got[0], ref.toarray())


def test_mgf_oracle_degenerate_inputs():
    space = build_space(1, 12)
    assert mgf_oracle(space, [-0.4], np.ones(2), 0.0).value == pytest.approx(1.0, abs=1e-13)
    assert mgf_oracle(space, [0.0], np.ones(2), 0.7).value == pytest.approx(1.0, abs=1e-13)


def test_mgf_oracle_raises_on_truncation():
    # lambda close to the one-pair domain edge needs far more than 6 shells
    nu = -0.55
    lam0 = -math.log(math.tanh(0.55))
    with pytest.raises(ValueError, match="increase n_max"):
        mgf_oracle(build_space(1, 6), [nu], np.ones(2), 0.98 * lam0)
    with pytest.raises(ValueError, match="one finite real number per mode"):
        mgf_oracle(build_space(1, 6), [nu], [1.0, 1.0, 1.0], 0.1)


@pytest.mark.parametrize("weights", [
    [1.0, math.nan], [math.inf, 1.0], [1.0 + 0.0j, 1.0], [1.0], np.ones(4), np.eye(2),
    ["1", "1"],
], ids=["nan", "inf", "complex", "short", "long", "matrix", "strings"])
def test_mgf_oracle_refuses_bad_weights_at_once(weights, monkeypatch):
    # O is one finite real weight per mode; anything else is refused before
    # the squeezed vacuum is built
    def unreachable(*args):
        raise AssertionError("squeezed_vacuum ran")

    monkeypatch.setattr(fockoracle, "squeezed_vacuum", unreachable)
    with pytest.raises(ValueError, match="weights must hold one finite real number per mode"):
        mgf_oracle(build_space(1, 6), [-0.2], weights, 0.1)


def test_pair_amplitudes_at_lambda_zero_and_exchange():
    space = build_space(1, 14)
    f, g = pair_amplitudes(space, [-0.35], np.eye(2), 0.0)
    assert g == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(f)) < 1e-12

    rng = np.random.default_rng(3)
    h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    h = 0.5 * (h + h.conj().T)
    f, g = pair_amplitudes(space, [-0.35], h, 0.2)
    assert abs(g) > 0.5
    # exchange symmetry F_{p,q} = F_{-q,-p}; partner of fock mode m is m^1
    for p in range(2):
        for q in range(2):
            assert f[p, q] == pytest.approx(f[q ^ 1, p ^ 1], abs=1e-12)


def test_bch_identity():
    space = build_space(1, 20)
    assert bch_check(space, np.zeros((2, 2)), mode=0) < 1e-12
    # diagonal generators act shell by shell: exact at any size
    assert bch_check(space, np.diag([0.3, -0.2]), mode=1) < 1e-12

    rng = np.random.default_rng(11)
    h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    h = h + h.conj().T
    h *= 0.25 / np.linalg.norm(h, 2)
    defect = bch_check(space, h, mode=0)
    assert 0.0 < defect < 1e-8
    # conditioning of the double conjugation grows with the retained shells
    small = bch_check(build_space(1, 10), h, mode=0)
    assert small < defect


def test_bogoliubov_action_defect_decay():
    space = build_space(1, 20)
    d = bogoliubov_action_defect(space, [0.05], mode=0, max_total_occ=10)
    assert d < 1e-8
    # same occupation window, more headroom above it: defect shrinks
    d12 = bogoliubov_action_defect(build_space(1, 12), [0.05], mode=0, max_total_occ=6)
    d16 = bogoliubov_action_defect(build_space(1, 16), [0.05], mode=0, max_total_occ=6)
    assert d16 < d12
    # stronger squeezing at fixed truncation: defect grows
    d_big = bogoliubov_action_defect(space, [0.2], mode=0, max_total_occ=10)
    assert d_big > d


# Two pairs stop at n_max = 4: the dense references hold several dim x dim
# complex matrices, and one two-pair call takes about 0.5 s at n_max = 4 and
# several seconds at n_max = 5 (dim 1296).
@settings(max_examples=8, deadline=None)
@given(data=st.data(), pairs=st.sampled_from([1, 2]))
def test_sector_blocked_diagnostics_match_dense(data, pairs):
    n_max = data.draw(st.integers(4, 20) if pairs == 1 else st.just(4))
    nu = data.draw(st.lists(st.floats(-0.3, 0.0), min_size=pairs, max_size=pairs))
    mode = data.draw(st.integers(0, 2 * pairs - 1))
    seed = data.draw(st.integers(0, 2**32 - 1))
    space = build_space(pairs, n_max)
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((space.modes,) * 2) + 1j * rng.standard_normal((space.modes,) * 2)
    h = 0.5 * (h + h.conj().T)  # couples every mode
    h *= 0.25 / np.linalg.norm(h, 2)
    dense = bogoliubov_action_defect_dense(space, nu, mode)
    assert abs(bogoliubov_action_defect(space, nu, mode) - dense) <= 1e-12 + 1e-10 * dense
    # the exact defect is zero: both values are rounding, and the dense
    # eigendecomposition leaks between number sectors where blocks cannot
    dense = bch_check_dense(space, h, mode)
    assert bch_check(space, h, mode) <= dense + 1e-12 + 1e-10 * dense


def test_sector_blocking_is_checked():
    space = build_space(1, 6)
    total = space.occupations.sum(axis=1)
    sectors = list(_sectors(total).values())
    # K changes the total number by two: it couples number sectors
    for idx in sectors:
        with pytest.raises(ArithmeticError, match="couples"):
            _stack(space, _k(space, [-0.2], idx), [idx], [idx])
    with pytest.raises(ArithmeticError, match="couples"):
        _expm_pair_by_sector(build_bogoliubov_generator(space, [-0.2]), total)
    # dGamma(O) conserves it: the blocks reproduce the full exponential
    o = np.array([[0.1, 0.2j], [-0.2j, -0.3]])
    dg = second_quantized(space, o)
    want = scipy.linalg.expm(dg.toarray())
    blocks = _stack(space, _dgamma(space, o, np.concatenate(sectors)), sectors, sectors)
    for idx, block in zip(sectors, blocks):
        block = block[:idx.size, :idx.size]
        got, back = _expm_stack(np.stack([block, -block]))
        assert np.max(np.abs(got - want[np.ix_(idx, idx)])) < 1e-13
        assert np.max(np.abs(back @ got - np.eye(idx.size))) < 1e-13
    e_plus, e_minus = _expm_pair_by_sector(dg, total)
    assert np.max(np.abs(e_plus.toarray() - want)) < 1e-13
    assert np.max(np.abs((e_plus @ e_minus).toarray() - np.eye(space.dim))) < 1e-13


def test_depletion_distribution_geometric_law():
    nu = -0.55
    q = math.tanh(nu) ** 2
    vals, probs = depletion_distribution([nu], j_cap=200)
    assert np.all(vals % 2 == 0)  # quanta come in pairs
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    js = vals // 2
    assert np.allclose(probs, (1 - q) * q**js, rtol=1e-12, atol=0)

    # two pairs: mean adds, and the law reproduces the 1-pair MGF product
    vals2, probs2 = depletion_distribution([nu, nu], j_cap=200)
    assert float(probs2 @ vals2) == pytest.approx(4 * math.sinh(nu) ** 2, rel=1e-12)
    lam = 0.3
    mgf_law = float(probs2 @ np.exp(lam * vals2))
    assert mgf_law == pytest.approx(one_pair_mgf_closed(nu, lam) ** 2, rel=1e-10)


def test_stacked_defect_checks_the_sector_structure():
    # the batched path reads K's images on number sectors: K moves the total
    # number by two, so the stack of X blocks must refuse it
    space = build_space(1, 6)
    total = space.occupations.sum(axis=1)

    def create(src):
        return [_ladder(space, [(0, 1)], src)]

    with pytest.raises(ArithmeticError, match="couples"):
        _conjugation_defect(space, total, 1, lambda src: _k(space, [-0.2], src),
                            create, create, total <= space.n_max - 2)


def test_stacked_exponential_matches_scipy():
    # widths 1-20 padded to 20, 1-norms 0-20, Hermitian and anti-Hermitian
    rng = np.random.default_rng(5)
    widths = np.concatenate([[1, 1, 20, 20], rng.integers(1, 21, 28)])
    norms = np.concatenate([[0.0, 20.0, 0.0, 20.0], rng.uniform(0.0, 20.0, 28)])
    stack = np.zeros((widths.size, 20, 20), dtype=complex)
    for i, (w, norm) in enumerate(zip(widths, norms)):
        h = rng.standard_normal((w, w)) + 1j * rng.standard_normal((w, w))
        h = h + h.conj().T if i % 2 else h - h.conj().T
        stack[i, :w, :w] = h * norm / np.abs(h).sum(axis=0).max()
    assert np.abs(stack).sum(axis=-2).max() == pytest.approx(20.0)
    e_plus, e_minus = _expm_stack(stack), _expm_stack(-stack)
    for i, w in enumerate(widths):
        want = scipy.linalg.expm(stack[i, :w, :w])
        # Hermitian blocks reach e^20: hold those relative to their size
        assert np.max(np.abs(e_plus[i, :w, :w] - want)) <= 1e-13 * max(1.0, np.abs(want).max())
        # zero padding is exact: e^{diag(A, 0)} = diag(e^A, I)
        assert np.array_equal(e_plus[i, w:, w:], np.eye(20 - w))
        assert not e_plus[i, :w, w:].any() and not e_plus[i, w:, :w].any()
        if i % 2 == 0:  # unitary: e^A e^-A = I to rounding
            assert np.max(np.abs(e_plus[i] @ e_minus[i] - np.eye(20))) < 1e-13


def test_stacked_exponential_scales_to_a_power_of_two(monkeypatch):
    # 1-norms on both sides of powers of two, widths 1-9 padded to 9: the
    # Taylor run sees each block divided by the least 2^j >= max(1, norm),
    # exactly, and the squares land within 1e-13 * norm of scipy
    rng = np.random.default_rng(29)
    norms = [0.3, 1.0, 2.0, 2.0 * (1 + 2**-52), 37.0, 1e3]
    blocks = []
    for norm in norms:
        for kind in ("diagonal", "anti-Hermitian", "Hermitian"):
            w = int(rng.integers(1, 10))
            if kind == "diagonal":  # this 1-norm is exact
                blocks.append(np.diag(1j * norm * np.linspace(1.0, -1.0, w)))
                assert np.abs(blocks[-1]).sum(axis=0).max() == norm
                continue
            if kind == "Hermitian" and norm > 37.0:  # e^1000 overflows
                continue
            h = rng.standard_normal((w, w)) + 1j * rng.standard_normal((w, w))
            h = h + h.conj().T if kind == "Hermitian" else h - h.conj().T
            blocks.append(h * norm / np.abs(h).sum(axis=0).max())
    stack = np.zeros((len(blocks), 9, 9), dtype=complex)
    for i, b in enumerate(blocks):
        stack[i, :len(b), :len(b)] = b
    seen, taylor = [], fockoracle._taylor

    def spy(start, step):
        seen.append(step(start.copy(), 1, np.empty_like(start)))  # A_i / 2^j_i
        return taylor(start, step)

    monkeypatch.setattr(fockoracle, "_taylor", spy)
    got = _expm_stack(stack)
    assert len(seen) == 1
    for i, b in enumerate(blocks):
        w, norm = len(b), np.abs(b).sum(axis=0).max()
        scale = 1.0
        while scale < norm:
            scale *= 2.0
        assert np.array_equal(seen[0][i], stack[i] / scale)
        want = scipy.linalg.expm(b)
        assert np.max(np.abs(got[i, :w, :w] - want)) <= (
            1e-13 * max(1.0, norm) * max(1.0, np.abs(want).max()))


@settings(max_examples=20, deadline=None)
@given(data=st.data(), pairs=st.sampled_from([1, 2]))
def test_stacked_defects_match_per_sector_reference(data, pairs):
    space = build_space(pairs, data.draw(st.integers(2, 20) if pairs == 1
                                         else st.integers(2, 4)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    h = rng.standard_normal((space.modes,) * 2) + 1j * rng.standard_normal((space.modes,) * 2)
    h = 0.5 * (h + h.conj().T)
    h *= 0.25 / np.linalg.norm(h, 2)
    nu = data.draw(st.lists(st.floats(-0.3, 0.0), min_size=pairs, max_size=pairs))
    occ_cap = data.draw(st.integers(0, space.modes * space.n_max))

    def both(check, *args):
        got = check(*args)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fockoracle, "_conjugation_defect", conjugation_defect_by_sector)
            return got, check(*args)

    for mode in range(space.modes):
        for got, ref in (both(bch_check, space, h, mode),
                         both(bogoliubov_action_defect, space, nu, mode, occ_cap)):
            assert abs(got - ref) <= 1e-11 + 1e-10 * ref


@pytest.mark.parametrize("n_max", [20, 30])
def test_defect_checks_run_one_taylor_per_width_group(n_max, monkeypatch):
    # a deterministic guard instead of a timing: the stacked checks run at
    # most one Taylor loop per padded width (powers of two up to the widest
    # block), however many sectors there are, plus one for bch's e^O column
    space = build_space(1, n_max)
    groups = math.ceil(math.log2(n_max + 1)) + 1
    runs = []

    def counted(*args):
        runs.append(args)
        return _expm_stack(*args)

    monkeypatch.setattr(fockoracle, "_expm_stack", counted)
    h = np.array([[0.1, 0.2j], [-0.2j, -0.15]])
    for check, column_runs in ((lambda: bch_check(space, h, 0), 1),
                               (lambda: bogoliubov_action_defect(space, [-0.03], 0), 0)):
        runs.clear()
        assert check() < 1e-8
        assert column_runs < len(runs) <= groups + column_runs
        assert groups < n_max // 2


def test_defect_checks_fail_loudly():
    space = build_space(1, 6)
    with pytest.raises(ValueError, match="no basis state is kept"):
        bogoliubov_action_defect(space, [-0.2], 0, max_total_occ=-1)
    bad = np.array([[np.nan, 0.0], [0.0, 0.1]])
    with pytest.raises(ValueError, match="o_small must be finite"):
        bch_check(space, bad, 0)
    with pytest.raises(ValueError, match="one finite real number per mode"):
        mgf_oracle(space, [-0.2], bad.diagonal(), 0.1)
    for nu in ([math.nan], [math.inf]):
        with pytest.raises(ValueError, match="nu_by_pair must hold one finite nu"):
            bogoliubov_action_defect(space, nu, 0)
        with pytest.raises(ValueError, match="nu_by_pair must hold one finite nu"):
            mgf_oracle(space, nu, np.ones(2), 0.1)


# Each overflow case runs in a fresh interpreter under a timeout, so a Taylor
# run that never ends fails its test instead of stalling the suite.
_OVERFLOW_PROBE = """
import math, sys, warnings
import numpy as np
from bose_genfun.fockoracle import bch_check, build_space, mgf_oracle, squeezed_vacuum
warnings.simplefilter("error")
space, flip = build_space(1, 6), np.array([[0.0, 1.0], [1.0, 0.0]])
diag = lambda lam: mgf_oracle(space, [-0.2], np.ones(2), lam)
case = {"power": lambda: bch_check(space, 100 * flip, 0),
        "column": lambda: bch_check(space, 1e6 * flip, 0),
        "rotation": lambda: bch_check(space, 1e10 * np.array([[0.0, 1.0], [-1.0, 0.0]]),
                                      0) < 1e-3,
        "vacuum": lambda: squeezed_vacuum(space, [-1e10])[1] < math.inf,
        "nan": lambda: diag(math.nan), "inf": lambda: diag(math.inf),
        "value": lambda: diag(100.0)}[sys.argv[1]]
try:
    print("returned", case())
except Exception as exc:
    print(type(exc).__name__, exc)
"""


@pytest.mark.parametrize("case, want", [
    ("power", "ArithmeticError the conjugation defect overflowed"),
    ("column", "ArithmeticError the matrix exponential e^O overflowed"),
    ("rotation", "returned True"),
    ("vacuum", "returned True"),
    ("nan", "ValueError lam must be finite"),
    ("inf", "ValueError lam must be finite"),
    ("value", "ArithmeticError oracle value overflowed at lam=100"),
], ids=["power", "column", "rotation", "vacuum", "nan", "inf", "value"])
def test_oracle_overflow_fails_loudly(case, want):
    # "rotation" and "vacuum" once asked for about 1e10 and 1e11 Taylor runs,
    # one per unit of 1-norm, and never returned; "column" overflowed in its
    # Taylor steps and now in its squares; "power" returned nan after LAPACK
    # errors on stderr, and the others nan or inf
    src = os.path.dirname(os.path.dirname(os.path.abspath(fockoracle.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", _OVERFLOW_PROBE, case],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.stdout.startswith(want) and proc.stderr == ""


def test_taylor_cap_is_where_the_factorial_underflows():
    cap = fockoracle._TAYLOR_CAP
    assert 1 / math.factorial(cap) == 0.0 < 1 / math.factorial(cap - 1)
