"""Exact desk-scale oracle on a truncated bosonic Fock space.

Everything here is brute force on purpose: occupation-number bases for one
or two +/-p mode pairs, explicit ladder matrices, matrix exponentials, and
direct evaluation of squeezed-vacuum expectations.  The rest of the package
is validated against these numbers.

The Bogoliubov generator is K = sum_pairs nu * (a*_p a*_{-p} - a_p a_{-p}),
the (anti-Hermitian) form whose conjugation action is
e^{-K} a_p e^{K} = cosh(nu) a_p + sinh(nu) a*_{-p}.  Operators are stored
sparse and exponentials are applied Krylov-style to vectors.  The two
operator identities need whole exponentials; dGamma(O) conserves the total
number and K each pair's n_{+p} - n_{-p}, so those are taken one charge
sector at a time.  Truncation error is always estimated and reported,
never silently ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

DIM_CAP = 20_000


@dataclass(frozen=True, eq=False)
class FockSpace:
    """Occupation basis for 2*pairs modes, cut at n_max quanta per mode.

    Mode convention: modes 2i and 2i+1 are the +p/-p partners of pair i.
    Basis order is lexicographic in the occupation tuple with mode 0 most
    significant; the vacuum is index 0.
    """

    pairs: int
    n_max: int
    occupations: np.ndarray

    @property
    def modes(self) -> int:
        return 2 * self.pairs

    @property
    def dim(self) -> int:
        return self.occupations.shape[0]

    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[0] = 1.0
        return v


@dataclass(frozen=True)
class OracleValue:
    """An oracle number together with its truncation-error estimate."""

    value: float
    truncation_estimate: float


def build_space(pairs: int, n_max: int) -> FockSpace:
    if pairs not in (1, 2):
        raise ValueError("oracle supports 1 or 2 mode pairs")
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    modes = 2 * pairs
    dim = (n_max + 1) ** modes
    if dim > DIM_CAP:
        raise ValueError(f"Fock dimension {dim} exceeds cap {DIM_CAP}")
    grids = np.meshgrid(*([np.arange(n_max + 1)] * modes), indexing="ij")
    occ = np.stack([g.reshape(-1) for g in grids], axis=1)
    return FockSpace(pairs=pairs, n_max=n_max, occupations=occ)


def _strides(space: FockSpace) -> np.ndarray:
    return np.array([(space.n_max + 1) ** (space.modes - 1 - m)
                     for m in range(space.modes)], dtype=np.intp)


def op_annihilate(space: FockSpace, mode: int) -> sp.csr_matrix:
    """Sparse matrix of a_mode: <n-1|a|n> = sqrt(n) on the mode's ladder."""
    if not 0 <= mode < space.modes:
        raise ValueError("invalid mode")
    occ = space.occupations[:, mode]
    src = np.nonzero(occ > 0)[0]
    dst = src - _strides(space)[mode]
    amp = np.sqrt(occ[src].astype(float))
    return sp.csr_matrix((amp, (dst, src)), shape=(space.dim, space.dim), dtype=complex)


def op_create(space: FockSpace, mode: int) -> sp.csr_matrix:
    return op_annihilate(space, mode).conj().T.tocsr()


def second_quantized(space: FockSpace, o_small: np.ndarray) -> sp.csr_matrix:
    """dGamma(O) = sum_{ab} O[a,b] a*_a a_b on the truncated space."""
    o_small = np.asarray(o_small, dtype=complex)
    if o_small.shape != (space.modes, space.modes):
        raise ValueError("one-body matrix must be modes x modes")
    ann = [op_annihilate(space, m) for m in range(space.modes)]
    total = sp.csr_matrix((space.dim, space.dim), dtype=complex)
    for a in range(space.modes):
        row = sp.csr_matrix((space.dim, space.dim), dtype=complex)
        for b in range(space.modes):
            if o_small[a, b] != 0:
                row = row + o_small[a, b] * ann[b]
        if row.nnz:
            total = total + ann[a].conj().T @ row
    return total.tocsr()


def build_bogoliubov_generator(space: FockSpace, nu_by_pair) -> sp.csr_matrix:
    """K = sum_i nu_i (a*_{2i} a*_{2i+1} - a_{2i} a_{2i+1})."""
    nu_by_pair = np.asarray(nu_by_pair, dtype=float)
    if nu_by_pair.shape != (space.pairs,):
        raise ValueError("need one nu per pair")
    k = sp.csr_matrix((space.dim, space.dim), dtype=complex)
    for i, nu in enumerate(nu_by_pair):
        if nu == 0.0:
            continue
        down = op_annihilate(space, 2 * i) @ op_annihilate(space, 2 * i + 1)
        k = k + nu * (down.conj().T - down)
    return k.tocsr()


def _top_shell_mass(space: FockSpace, v: np.ndarray) -> float:
    top = np.any(space.occupations >= space.n_max - 1, axis=1)
    return float(np.sum(np.abs(v[top]) ** 2))


def squeezed_vacuum(space: FockSpace, nu_by_pair) -> tuple[np.ndarray, float]:
    """e^{K} |vac> and a truncation estimate (norm defect + top-shell mass)."""
    k = build_bogoliubov_generator(space, nu_by_pair)
    v = expm_multiply(k, space.vacuum())
    est = abs(1.0 - float(np.vdot(v, v).real)) + _top_shell_mass(space, v)
    return v, est


def mgf_oracle(space: FockSpace, nu_by_pair, o_small, lam: float,
               required_accuracy: float = 1e-6) -> OracleValue:
    """<v, e^{lam dGamma(O)} v> for the squeezed vacuum v = e^K vac.

    O must be Hermitian; the expectation is evaluated as the squared norm
    of e^{(lam/2) dGamma(O)} v, which is exact for self-adjoint dGamma(O).
    Raises if the truncation estimate exceeds required_accuracy.
    """
    o_small = np.asarray(o_small, dtype=complex)
    if not np.allclose(o_small, o_small.conj().T, rtol=0, atol=1e-13):
        raise ValueError("one-body matrix must be Hermitian")
    v, est = squeezed_vacuum(space, nu_by_pair)
    dg = second_quantized(space, o_small)
    w = expm_multiply(0.5 * lam * dg, v)
    est = est + _top_shell_mass(space, w / max(np.linalg.norm(w), 1e-300))
    if est > required_accuracy:
        raise ValueError(
            f"oracle truncation estimate {est:.3e} exceeds {required_accuracy:.3e}; "
            "increase n_max")
    return OracleValue(value=float(np.vdot(w, w).real), truncation_estimate=est)


def _expm_pair_by_sector(x: sp.spmatrix, charge) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """(e^x, e^-x) for an x that conserves `charge` (one row of integers per
    basis state), with one dense expm per charge sector and sign.

    Raises ArithmeticError if x has a nonzero entry between two sectors, so
    the block structure is checked, not assumed.
    """
    charge = np.asarray(charge).reshape(x.shape[0], -1)
    label = np.unique(charge, axis=0, return_inverse=True)[1].reshape(-1)
    coo = x.tocoo()
    if np.any((coo.data != 0) & (label[coo.row] != label[coo.col])):
        raise ArithmeticError("operator couples two conserved-charge sectors")
    x = x.tocsr()
    sectors = np.split(np.argsort(label, kind="stable"),
                       np.cumsum(np.bincount(label))[:-1])
    rows = np.concatenate([np.repeat(idx, idx.size) for idx in sectors])
    cols = np.concatenate([np.tile(idx, idx.size) for idx in sectors])
    blocks = [x[idx][:, idx].toarray() for idx in sectors]

    def assemble(sign: float) -> sp.csr_matrix:
        vals = np.concatenate([scipy.linalg.expm(sign * b).ravel() for b in blocks])
        return sp.csr_matrix((vals, (rows, cols)), shape=x.shape)

    return assemble(1.0), assemble(-1.0)


def bch_check(space: FockSpace, o_small, mode: int) -> float:
    """Defect of e^{dGamma(O)} a*_mode e^{-dGamma(O)} = a*((e^O)_{., mode}).

    Measured as a spectral norm restricted to occupation <= n_max - 2,
    where the truncated ladder algebra is exact.  dGamma(O) conserves the
    total number, so both exponentials are taken sector by sector.
    """
    o_small = np.asarray(o_small, dtype=complex)
    total = space.occupations.sum(axis=1)
    e_plus, e_minus = _expm_pair_by_sector(second_quantized(space, o_small), total)
    keep = total <= space.n_max - 2
    cre = [op_create(space, m) for m in range(space.modes)]
    lhs = e_plus @ (cre[mode] @ e_minus[:, keep])
    col = scipy.linalg.expm(o_small)[:, mode]
    rhs = sum(col[a] * cre[a][:, keep] for a in range(space.modes))
    return float(np.linalg.norm((lhs - rhs).toarray(), 2))


def bogoliubov_action_defect(space: FockSpace, nu_by_pair, mode: int,
                             max_total_occ: int | None = None) -> float:
    """Defect of e^{-K} a_mode e^{K} = cosh(nu) a_mode + sinh(nu) a*_{partner},
    as a spectral norm restricted to total occupation <= max_total_occ
    (default n_max // 2).  Decays to zero as n_max grows at fixed nu.
    K conserves each pair's n_{+p} - n_{-p}, so e^{+-K} are taken sector
    by sector.
    """
    if max_total_occ is None:
        max_total_occ = space.n_max // 2
    nu_by_pair = np.asarray(nu_by_pair, dtype=float)
    occ = space.occupations
    k = build_bogoliubov_generator(space, nu_by_pair).real
    ek, emk = _expm_pair_by_sector(k, occ[:, 0::2] - occ[:, 1::2])
    keep = occ.sum(axis=1) <= max_total_occ
    a = op_annihilate(space, mode).real
    adag_partner = op_create(space, mode ^ 1).real
    nu = nu_by_pair[mode // 2]
    lhs = emk @ (a @ ek[:, keep])
    rhs = math.cosh(nu) * a[:, keep] + math.sinh(nu) * adag_partner[:, keep]
    return float(np.linalg.norm((lhs - rhs).toarray(), 2))
