"""Momentum lattice: counts, ordering, negation involution, pair split."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bose_genfun.lattice import Lattice, build_lattice, lattice_from_vectors, p_squared_array

TWO_PI = 2.0 * np.pi


def test_counts():
    # (2M+1)^3 - 1 nonzero integer vectors in the cube
    assert build_lattice(1).size == 26
    assert build_lattice(2).size == 124
    assert build_lattice(10).size == 9260


def test_zero_mode_excluded_and_momenta_scaled():
    lat = build_lattice(2)
    assert not np.any(np.all(lat.vectors == 0, axis=1))
    assert np.allclose(p_squared_array(lat), np.sum((TWO_PI * lat.vectors) ** 2, axis=1))


def test_lexicographic_order():
    lat = build_lattice(2)
    rows = [tuple(v) for v in lat.vectors]
    assert rows == sorted(rows)


def test_negation_involution_exhaustive():
    desk = [lattice_from_vectors(v) for v in ([(1, 0, 0)], [(1, 0, 0), (0, 1, 0)])]
    for lat in [build_lattice(m) for m in (1, 2, 3, 4)] + desk:
        neg, idx = lat.neg_index, np.arange(lat.size)
        assert np.array_equal(neg[neg], idx)
        assert np.array_equal(lat.vectors[neg], -lat.vectors)
        assert np.all(neg != idx)  # no self-paired mode
        # the mirror index, and the first half paired with it
        assert np.array_equal(neg, idx[::-1])
        half = idx[:lat.size // 2]
        assert np.array_equal(lat.pairs, np.stack([half, neg[half]], axis=1))


def test_pairs_partition():
    lat = build_lattice(2)
    seen = set()
    for i, j in lat.pairs:
        assert lat.neg_index[i] == j and i < j
        seen.update((i, j))
    assert len(lat.pairs) == lat.size // 2
    assert seen == set(range(lat.size))


def test_desk_lattice_layout():
    # the two-pair instance used throughout the observable tests
    lat = lattice_from_vectors([(1, 0, 0), (0, 1, 0)])
    rows = [tuple(v) for v in lat.vectors]
    assert rows == [(-1, 0, 0), (0, -1, 0), (0, 1, 0), (1, 0, 0)]
    assert list(lat.neg_index) == [3, 2, 1, 0]
    assert [tuple(p) for p in lat.pairs] == [(0, 3), (1, 2)]


def test_p_squared_values():
    lat = build_lattice(1)
    rows = [tuple(v) for v in lat.vectors]
    arr = p_squared_array(lat)
    assert arr.shape == (26,)
    assert arr[rows.index((1, 0, 0))] == pytest.approx(4.0 * np.pi**2, rel=1e-15)
    assert arr[rows.index((1, 1, 1))] == pytest.approx(12.0 * np.pi**2, rel=1e-15)


def test_even_functions_pair_consistently():
    # any function of p^2 takes equal values on p and -p
    lat = build_lattice(2)
    f = np.sqrt(p_squared_array(lat))
    assert np.array_equal(f, f[lat.neg_index])


def test_negatives_added_once():
    # listing both signs of a vector must not duplicate modes
    lat = lattice_from_vectors([(1, 0, 0), (-1, 0, 0)])
    assert lat.size == 2


def test_invalid_inputs():
    with pytest.raises(ValueError):
        build_lattice(0)
    with pytest.raises(ValueError):
        lattice_from_vectors([(0, 0, 0), (1, 0, 0)])
    with pytest.raises(ValueError):
        lattice_from_vectors(np.empty((0, 3), dtype=int))
    with pytest.raises(ValueError):
        lattice_from_vectors([(1, 0)])


@pytest.mark.parametrize("vectors, reason", [
    ([(-1, 0, 0), (0, 0, 0), (1, 0, 0)], "zero mode"),
    ([(-1, 0, 0), (-1, 0, 0), (1, 0, 0), (1, 0, 0)], "not distinct"),
    ([(-1, 0, 0), (0, 1, 0)], "not closed under negation"),
    ([(0, 1, 0), (1, 0, 0), (-1, 0, 0), (0, -1, 0)], "lexicographically sorted"),
], ids=["zero-vector", "repeated", "not-negation-closed", "not-lexicographic"])
def test_lattice_type_enforces_its_invariant(vectors, reason):
    with pytest.raises(ValueError, match=reason):
        Lattice(cutoff_m=1, vectors=np.array(vectors, dtype=np.int64))


_NONZERO = st.tuples(*[st.integers(-3, 3)] * 3).filter(lambda v: v != (0, 0, 0))


@settings(max_examples=200, deadline=None)
@given(st.lists(_NONZERO, min_size=1, max_size=12))
def test_negation_structure_of_arbitrary_mode_sets(vectors):
    lat = lattice_from_vectors(vectors)
    neg, idx = lat.neg_index, np.arange(lat.size)
    expected = {v for u in vectors for v in (u, tuple(-c for c in u))}
    assert {tuple(int(c) for c in v) for v in lat.vectors} == expected
    assert lat.size == len(expected)
    assert np.array_equal(neg[neg], idx) and np.all(neg != idx)
    assert np.array_equal(lat.vectors[neg], -lat.vectors)
    # pairs list each {i, -i} orbit once, smaller index first
    assert len(lat.pairs) == lat.size // 2
    assert np.array_equal(np.sort(lat.pairs.ravel()), idx)
    assert all(i < j and neg[i] == j for i, j in lat.pairs)
