"""Dense and test-only Fock-space references (tests only).

The package's conjugation and generator-action checks exponentiate each
conserved-charge sector on its own.  This module keeps the dense bodies
they replaced, which exponentiate the whole truncated space at once (an
eigendecomposition of dGamma(O), a full expm of K), together with the
oracle helpers only the tests call: the number operator, the pair
amplitudes of the fixed-point equation and the exact depletion law.  It
has no ``test_`` prefix, so pytest imports it but collects nothing from it.
"""

import math

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from bose_genfun.fockoracle import (FockSpace, build_bogoliubov_generator,
                                    op_annihilate, op_create, second_quantized)


def number_operator(space: FockSpace) -> sp.csr_matrix:
    return sp.diags(space.occupations.sum(axis=1).astype(float)).tocsr().astype(complex)


def pair_amplitudes(space: FockSpace, nu_by_pair, o_small, lam: float):
    """The scalar G = <vac, M vac> and matrix F[p,q] = <vac, a_{-p} a_q M vac>
    for M = e^{-K} e^{lam dGamma(O)} e^{K}, indexed by modes (-p is p's partner).
    """
    o_small = np.asarray(o_small, dtype=complex)
    k = build_bogoliubov_generator(space, nu_by_pair)
    dg = second_quantized(space, o_small)
    y = expm_multiply(k, space.vacuum())
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
