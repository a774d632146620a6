"""Truncated momentum lattice on the torus and its p <-> -p pairing.

The excitation momenta live on (2*pi*Z)^3 with the zero mode removed.  We
truncate with a sup-norm cube ||n||_inf <= M, which keeps the set exactly
closed under negation and makes the mode count (2M+1)^3 - 1 exact.
Ordering is lexicographic in the integer vector n so every downstream
array, pair enumeration and CSV row is bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True, eq=False)
class Lattice:
    """Momentum lattice: integer vectors n, momenta p = 2*pi*n, negation maps.

    ``vectors`` holds the integer n's (shape (size, 3), lexicographically
    sorted); ``momenta`` the corresponding dimensionless torus momenta.
    ``neg_index[i]`` is the index of -n_i and ``pairs`` lists each {i, -i}
    orbit exactly once (first member is the lexicographically smaller index).
    """

    cutoff_m: int
    vectors: np.ndarray
    momenta: np.ndarray
    neg_index: np.ndarray
    pairs: np.ndarray

    @property
    def size(self) -> int:
        return self.vectors.shape[0]


def _finish(cutoff_m: int, vectors: np.ndarray) -> Lattice:
    """Sort, build the negation involution and the pair list.

    The vectors must be distinct and nonzero.  Lexicographic order flips
    under v -> -v, so a negation-closed set, once sorted, lists its
    negatives in reverse: -vectors[i] is vectors[size - 1 - i].
    """
    order = np.lexsort(vectors.T[::-1])
    vectors = np.ascontiguousarray(vectors[order])
    if not np.array_equal(vectors[::-1], -vectors):
        raise ValueError("mode set is not closed under negation")
    size = len(vectors)
    neg = np.arange(size - 1, -1, -1, dtype=np.intp)
    pairs = np.stack([np.arange(size // 2, dtype=np.intp), neg[:size // 2]], axis=1)
    return Lattice(cutoff_m=cutoff_m, vectors=vectors, momenta=TWO_PI * vectors,
                   neg_index=neg, pairs=pairs)


def build_lattice(cutoff_m: int) -> Lattice:
    """All n in Z^3 \\ {0} with ||n||_inf <= cutoff_m, as a Lattice.

    Raises ValueError("empty lattice") for cutoff_m < 1.
    """
    if cutoff_m < 1:
        raise ValueError("empty lattice")
    rng = np.arange(-cutoff_m, cutoff_m + 1)
    grid = np.stack(np.meshgrid(rng, rng, rng, indexing="ij"), axis=-1).reshape(-1, 3)
    grid = grid[np.any(grid != 0, axis=1)]
    return _finish(cutoff_m, grid.astype(np.int64))


def lattice_from_vectors(vectors) -> Lattice:
    """Desk-scale constructor from an explicit list of integer 3-vectors.

    The list must already be closed under negation and exclude zero; the
    negatives of listed vectors may be included or omitted (they are added).
    """
    arr = np.asarray(vectors, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 3 or arr.shape[0] == 0:
        raise ValueError("expected a nonempty list of integer 3-vectors")
    seen = {tuple(int(c) for c in v) for v in arr}
    for v in list(seen):
        seen.add((-v[0], -v[1], -v[2]))
    if (0, 0, 0) in seen:
        raise ValueError("zero mode (self-paired vector) is not allowed")
    full = np.array(sorted(seen), dtype=np.int64)
    return _finish(int(np.max(np.abs(full))), full)


def p_squared_array(lattice: Lattice) -> np.ndarray:
    """Vectorized |p|^2 over the whole lattice (plumbing for kernel builds)."""
    return TWO_PI ** 2 * np.einsum("ij,ij->i", lattice.vectors, lattice.vectors).astype(float)
