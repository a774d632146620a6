"""Truncated momentum lattice on the torus and its p <-> -p pairing.

The excitation momenta live on (2*pi*Z)^3 with the zero mode removed.  The
sup-norm cube ||n||_inf <= M keeps the set exactly closed under negation,
with (2M+1)^3 - 1 modes, listed in the lexicographic order of n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True, eq=False)
class Lattice:
    """Integer vectors n of the momenta p = 2*pi*n, shape (size, 3): nonzero,
    distinct, lexicographically sorted and closed under negation, else
    ValueError.  The order flips under n -> -n: -vectors[i] = vectors[-1 - i]."""

    cutoff_m: int
    vectors: np.ndarray

    def __post_init__(self):
        v = self.vectors
        if v.ndim != 2 or v.shape[1] != 3 or v.shape[0] == 0:
            raise ValueError("expected a nonempty (size, 3) array of integer vectors")
        less, tied = np.zeros(len(v) - 1, dtype=bool), np.ones(len(v) - 1, dtype=bool)
        for col in v.T:  # row i < row i + 1 in the first column where they differ
            less |= tied & (col[:-1] < col[1:])
            tied &= col[:-1] == col[1:]
        if not less.all():
            raise ValueError("mode vectors are not distinct and lexicographically sorted")
        if not all(np.array_equal(col[::-1], -col) for col in v.T):
            raise ValueError("mode set is not closed under negation")
        if len(v) % 2:  # the middle row of a mirror-closed list is its own negative
            raise ValueError("zero mode (self-paired vector) is not allowed")

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    @property
    def neg_index(self) -> np.ndarray:
        """neg_index[i] is the index of -n_i."""
        return np.arange(self.size - 1, -1, -1, dtype=np.intp)

    @property
    def pairs(self) -> np.ndarray:
        """Each {i, -i} orbit once, as the row (i, size - 1 - i), i < size / 2."""
        half = np.arange(self.size // 2, dtype=np.intp)
        return np.stack([half, self.size - 1 - half], axis=1)


def build_lattice(cutoff_m: int) -> Lattice:
    """All n in Z^3 \\ {0} with ||n||_inf <= cutoff_m; ValueError("empty
    lattice") for cutoff_m < 1."""
    if cutoff_m < 1:
        raise ValueError("empty lattice")
    rng = np.arange(-cutoff_m, cutoff_m + 1, dtype=np.int64)
    # "ij" order is lexicographic with zero in the middle; the stacked cube
    # is a temporary, freed before Lattice checks the copy without zero
    axes = np.meshgrid(rng, rng, rng, indexing="ij", copy=False)
    return Lattice(cutoff_m, np.delete(np.stack(axes, axis=-1).reshape(-1, 3),
                                       rng.size ** 3 // 2, axis=0))


def lattice_from_vectors(vectors) -> Lattice:
    """Desk-scale Lattice of nonzero integer 3-vectors and their negatives
    (which may be listed or omitted)."""
    arr = np.asarray(vectors, dtype=np.int64)
    rows = {tuple(v) for v in np.vstack((arr, -arr)).tolist()}
    full = np.array(sorted(rows), dtype=np.int64)  # tuples sort lexicographically
    return Lattice(int(np.abs(full).max(initial=0)), full)


def p_squared_array(lattice: Lattice) -> np.ndarray:
    """Vectorized |p|^2 over the whole lattice (plumbing for kernel builds)."""
    return TWO_PI ** 2 * np.einsum("ij,ij->i", lattice.vectors, lattice.vectors).astype(float)
