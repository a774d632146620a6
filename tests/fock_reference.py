"""Sparse, dense and test-only Fock-space references (tests only).

The package builds its Fock operators as dense blocks between conserved-
charge sectors, read off the occupation table, and exponentiates every
block with one scaling-and-squaring Taylor routine in numpy.  This module
keeps the scipy code it replaced: the sparse ladder builders (a, a*,
dGamma(O), K), the sector-by-sector ``scipy.linalg.expm`` pair, and the
dense bodies that exponentiate the whole truncated space at once (an
eigendecomposition of dGamma(O), a full expm of K).  It also keeps the
per-sector conjugation defect that the stacked one replaced: one block pair
and one Taylor run per sector, memoised by charge.  It also keeps the
oracle helpers only the tests call: the number operator, the pair
amplitudes of the fixed-point equation (taken with ``expm_multiply``) and
the exact depletion law.  It has no ``test_`` prefix, so pytest imports it
but collects nothing from it.
"""

import math

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from bose_genfun.fockoracle import FockSpace, _expm_stack, _sectors, _strides


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


def sector_block(space: FockSpace, images: list, src: np.ndarray, dst: np.ndarray):
    """The dense block <dst|X|src> of X, given X's images of src.

    Raises ArithmeticError if X sends a state of src outside dst.
    """
    row_of = np.full(space.dim, -1)
    row_of[dst] = np.arange(len(dst))
    block = np.zeros((len(dst), len(src)), np.result_type(float, *(v for _, v in images)))
    for d, val in images:
        live = np.flatnonzero(val)
        if np.any(row_of[d[live]] < 0):
            raise ArithmeticError("operator couples two conserved-charge sectors")
        block[row_of[d[live]], live] += val[live]
    return block


def conjugation_defect_by_sector(space: FockSpace, charge: np.ndarray, shift, x_images,
                                 l_images, r_images, keep: np.ndarray) -> float:
    """Spectral norm of (e^X L e^{-X} - R)[:, keep], sector by sector.

    Same arguments as ``fockoracle._conjugation_defect``; e^{+-X} are taken
    once per sector, as one stack of the two blocks, and memoised.
    """
    sectors, exps = _sectors(charge), {}

    def e_pm(c):
        if c not in exps:
            idx = sectors[c]
            x = sector_block(space, x_images(idx), idx, idx)
            exps[c] = _expm_stack(np.stack([x, -x]))
        return exps[c]

    worst = 0.0
    for c, src in sectors.items():
        t = tuple(np.add(c, shift).tolist())
        if t in sectors and keep[src].any():  # else no kept state, or L, R empty src
            dst = sectors[t]
            lhs = e_pm(t)[0] @ sector_block(space, l_images(src), src, dst) @ e_pm(c)[1]
            defect = (lhs - sector_block(space, r_images(src), src, dst))[:, keep[src]]
            worst = max(worst, float(np.linalg.norm(defect, 2)))
    return worst


def number_operator(space: FockSpace) -> sp.csr_matrix:
    return sp.diags(space.occupations.sum(axis=1).astype(float)).tocsr().astype(complex)


def pair_amplitudes(space: FockSpace, nu_by_pair, o_small, lam: float):
    """The scalar G = <vac, M vac> and matrix F[p,q] = <vac, a_{-p} a_q M vac>
    for M = e^{-K} e^{lam dGamma(O)} e^{K}, indexed by modes (-p is p's partner).
    """
    o_small = np.asarray(o_small, dtype=complex)
    k = build_bogoliubov_generator(space, nu_by_pair)
    dg = second_quantized(space, o_small)
    vac = np.zeros(space.dim, dtype=complex)
    vac[0] = 1.0
    y = expm_multiply(k, vac)
    y = expm_multiply(lam * dg, y)
    y = expm_multiply(-k, y)
    g = complex(y[0])
    ann = [op_annihilate(space, m) for m in range(space.modes)]
    f = np.empty((space.modes, space.modes), dtype=complex)
    for q in range(space.modes):
        aq_y = ann[q] @ y
        for p in range(space.modes):
            f[p, q] = (ann[p ^ 1] @ aq_y)[0]
    return f, g


def bch_check_dense(space: FockSpace, o_small, mode: int) -> float:
    """Defect of e^{dGamma(O)} a*_mode e^{-dGamma(O)} = a*((e^O)_{., mode}).

    Measured as a spectral norm restricted to occupation <= n_max - 2,
    where the truncated ladder algebra is exact.
    """
    o_small = np.asarray(o_small, dtype=complex)
    dg = second_quantized(space, o_small).toarray()
    w, u = scipy.linalg.eigh(dg)
    e_plus = (u * np.exp(w)) @ u.conj().T
    e_minus = (u * np.exp(-w)) @ u.conj().T
    cre = [op_create(space, m).toarray() for m in range(space.modes)]
    lhs = e_plus @ cre[mode] @ e_minus
    col = scipy.linalg.expm(np.asarray(o_small))[:, mode]
    rhs = sum(col[a] * cre[a] for a in range(space.modes))
    keep = space.occupations.sum(axis=1) <= space.n_max - 2
    return float(np.linalg.norm((lhs - rhs)[:, keep], 2))


def bogoliubov_action_defect_dense(space: FockSpace, nu_by_pair, mode: int,
                                   max_total_occ: int | None = None) -> float:
    """Defect of e^{-K} a_mode e^{K} = cosh(nu) a_mode + sinh(nu) a*_{partner},
    as a spectral norm restricted to total occupation <= max_total_occ
    (default n_max // 2).  Decays to zero as n_max grows at fixed nu.
    """
    if max_total_occ is None:
        max_total_occ = space.n_max // 2
    nu_by_pair = np.asarray(nu_by_pair, dtype=float)
    k = build_bogoliubov_generator(space, nu_by_pair).toarray()
    ek = scipy.linalg.expm(k)
    emk = scipy.linalg.expm(-k)
    a = op_annihilate(space, mode).toarray()
    adag_partner = op_create(space, mode ^ 1).toarray()
    nu = nu_by_pair[mode // 2]
    lhs = emk @ a @ ek
    rhs = math.cosh(nu) * a + math.sinh(nu) * adag_partner
    keep = space.occupations.sum(axis=1) <= max_total_occ
    return float(np.linalg.norm((lhs - rhs)[:, keep], 2))


def depletion_distribution(nu_by_pair, j_cap: int = 400):
    """Exact law of the depletion number for independent mode pairs.

    Each pair contributes 2j quanta with probability (1-q) q^j, q = tanh^2(nu).
    Returns (values, probabilities) for the convolution over pairs, truncated
    at j_cap quanta per pair (tail mass q^{j_cap+1} is folded nowhere and
    reported implicitly through probabilities summing to < 1).
    """
    dist = {0: 1.0}
    for nu in np.asarray(nu_by_pair, dtype=float):
        q = math.tanh(nu) ** 2
        pair_probs = [(1.0 - q) * q ** j for j in range(j_cap + 1)]
        new: dict[int, float] = {}
        for n, pr in dist.items():
            for j, pj in enumerate(pair_probs):
                key = n + 2 * j
                new[key] = new.get(key, 0.0) + pr * pj
        dist = new
    values = np.array(sorted(dist), dtype=np.int64)
    probs = np.array([dist[v] for v in values])
    return values, probs
