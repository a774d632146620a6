"""Exact desk-scale oracle on a truncated bosonic Fock space, in numpy.

Everything here is brute force on purpose: occupation-number bases for one
or two +/-p mode pairs, ladder operators read off the occupation table,
matrix exponentials, and direct evaluation of squeezed-vacuum expectations.
The rest of the package is validated against these numbers.

The Bogoliubov generator is K = sum_pairs nu * (a*_p a*_{-p} - a_p a_{-p}),
the (anti-Hermitian) form whose conjugation action is
e^{-K} a_p e^{K} = cosh(nu) a_p + sinh(nu) a*_{-p}.  A ladder word sends a
basis state to at most one state, so operators are dense blocks between
conserved-charge sectors: dGamma(O) conserves the total number, K each
pair's n_{+p} - n_{-p}.  Every exponential is one scaled Taylor routine
(Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 2011); an eigendecomposition
would leave absolute rounding in the small tail amplitudes, which e^{lam N}
amplifies.  Truncation error is always estimated and reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def _ladder(space: FockSpace, word, src: np.ndarray, coef=1.0):
    """(dst, value) with coef * word |src> = value |dst>, state by state.

    word lists (mode, step) factors, the rightmost acting first; step +1 is
    a* (amplitude sqrt(n+1)), -1 is a (sqrt(n)).  Where a factor empties
    the state or leaves the truncated space, value is 0 and dst is src.
    """
    occ = space.occupations[src]
    amp = np.ones(len(src))
    for mode, step in reversed(word):
        n = occ[:, mode]
        amp = amp * np.sqrt(n + (step > 0))
        n += step
        amp[(n < 0) | (n > space.n_max)] = 0.0
    return np.where(amp != 0, occ @ _strides(space), src), coef * amp


def _dgamma(space: FockSpace, o: np.ndarray, src: np.ndarray) -> list:
    """Images of src under dGamma(O) = sum_ab O[a,b] a*_a a_b, one per word."""
    return [_ladder(space, [(a, 1)], *_ladder(space, [(b, -1)], src, o[a, b]))
            for a in range(space.modes) for b in range(space.modes) if o[a, b] != 0]


def _k(space: FockSpace, nu_by_pair, src: np.ndarray) -> list:
    """Images of src under K = sum_i nu_i (a*_{2i} a*_{2i+1} - a_{2i} a_{2i+1})."""
    nu_by_pair = np.asarray(nu_by_pair, dtype=float)
    if nu_by_pair.shape != (space.pairs,):
        raise ValueError("need one nu per pair")
    return [_ladder(space, [(2 * i, step), (2 * i + 1, step)], src, step * nu)
            for i, nu in enumerate(nu_by_pair) if nu != 0.0 for step in (1, -1)]


def _block(space: FockSpace, images: list, src: np.ndarray, dst: np.ndarray):
    """The dense block <dst|X|src> of X, given X's images of src.

    Raises ArithmeticError if X sends a state of src outside dst, so the
    sector structure is checked, not assumed.
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


def _sectors(charge: np.ndarray) -> dict:
    """Basis indices of each sector, keyed by its charge as a tuple."""
    keys, label = np.unique(charge.reshape(len(charge), -1), axis=0, return_inverse=True)
    return {tuple(k): np.flatnonzero(label.reshape(-1) == i)
            for i, k in enumerate(keys.tolist())}


def _expm_apply(apply, x: np.ndarray, norm: float) -> np.ndarray:
    """e^A x for the A with action `apply` and norm at most `norm`.

    Scaled Taylor series (Al-Mohy & Higham 2011): s = ceil(norm) steps of
    e^{A/s}, each summing terms until a term no longer changes the sum.
    """
    steps = max(1, math.ceil(norm))
    for _ in range(steps):
        if not np.isfinite(x).all():
            break  # overflowed: a nan term would never settle
        term, k = x, 0
        while True:
            k += 1
            term = apply(term) / (k * steps)
            total = x + term
            if not (total != x).any():
                break
            x = total
    return x


def _expm(block: np.ndarray, x: np.ndarray) -> np.ndarray:
    """e^B x for a dense block B (or a stack of them), bounded by its 1-norm."""
    return _expm_apply(block.__matmul__, x, np.abs(block).sum(axis=-2).max(initial=0.0))


def _top_shell_mass(space: FockSpace, v: np.ndarray) -> float:
    top = np.any(space.occupations >= space.n_max - 1, axis=1)
    return float(np.sum(np.abs(v[top]) ** 2))


def squeezed_vacuum(space: FockSpace, nu_by_pair) -> tuple[np.ndarray, float]:
    """e^{K} |vac> and a truncation estimate (norm defect + top-shell mass).

    Taken on the vacuum's K-sector, where every pair is balanced.
    """
    occ = space.occupations
    idx = np.flatnonzero(np.all(occ[:, 0::2] == occ[:, 1::2], axis=1))
    v = space.vacuum()
    v[idx] = _expm(_block(space, _k(space, nu_by_pair, idx), idx, idx), v[idx].real)
    return v, abs(1.0 - float(np.vdot(v, v).real)) + _top_shell_mass(space, v)


def mgf_oracle(space: FockSpace, nu_by_pair, o_small, lam: float,
               required_accuracy: float = 1e-6) -> OracleValue:
    """<v, e^{lam dGamma(O)} v> for the squeezed vacuum v = e^K vac.

    O must be Hermitian; the expectation is evaluated as the squared norm
    of e^{(lam/2) dGamma(O)} v, which is exact for self-adjoint dGamma(O).
    A diagonal O acts state by state; otherwise dGamma(O) is applied word
    by word to the whole space.  Raises if the truncation estimate exceeds
    required_accuracy.
    """
    o_small = np.asarray(o_small, dtype=complex)
    if o_small.shape != (space.modes, space.modes):
        raise ValueError("one-body matrix must be modes x modes")
    if not np.allclose(o_small, o_small.conj().T, rtol=0, atol=1e-13):
        raise ValueError("one-body matrix must be Hermitian")
    v, est = squeezed_vacuum(space, nu_by_pair)
    diag = o_small.diagonal().real
    if np.count_nonzero(o_small - np.diag(diag)) == 0:
        w = np.exp(0.5 * lam * (space.occupations @ diag)) * v
    else:
        words = [(d[live], val[live], live) for d, val in
                 _dgamma(space, 0.5 * lam * o_small, np.arange(space.dim))
                 for live in [np.flatnonzero(val)]]

        def apply(x):
            out = np.zeros_like(x)
            for d, val, live in words:
                out[d] += val * x[live]
            return out

        # each word's largest value, summed, bounds the 1-norm
        w = _expm_apply(apply, v, sum(np.abs(val).max(initial=0.0)
                                      for _, val, _ in words))
    est = est + _top_shell_mass(space, w / max(np.linalg.norm(w), 1e-300))
    if est > required_accuracy:
        raise ValueError(
            f"oracle truncation estimate {est:.3e} exceeds {required_accuracy:.3e}; "
            "increase n_max")
    return OracleValue(value=float(np.vdot(w, w).real), truncation_estimate=est)


def _conjugation_defect(space: FockSpace, charge: np.ndarray, shift, x_images,
                        l_images, r_images, keep: np.ndarray) -> float:
    """Spectral norm of (e^X L e^{-X} - R)[:, keep], where X conserves
    `charge`, L and R add `shift` to it, and *_images give each operator's
    images of a sector's states.

    Each sector then maps into exactly one other, so the norm is the
    largest over sector blocks; e^{+-X} are taken once per sector, in one
    Taylor run on the identity.
    """
    sectors, exps = _sectors(charge), {}

    def e_pm(c):
        if c not in exps:
            idx = sectors[c]
            x = _block(space, x_images(idx), idx, idx)
            exps[c] = _expm(np.stack([x, -x]),
                            np.broadcast_to(np.eye(len(x)), (2,) + x.shape))
        return exps[c]

    worst = 0.0
    for c, src in sectors.items():
        t = tuple(np.add(c, shift).tolist())
        if t in sectors and keep[src].any():  # else no kept state, or L, R empty src
            dst = sectors[t]
            lhs = e_pm(t)[0] @ _block(space, l_images(src), src, dst) @ e_pm(c)[1]
            defect = (lhs - _block(space, r_images(src), src, dst))[:, keep[src]]
            worst = max(worst, float(np.linalg.norm(defect, 2)))
    return worst


def bch_check(space: FockSpace, o_small, mode: int) -> float:
    """Defect of e^{dGamma(O)} a*_mode e^{-dGamma(O)} = a*((e^O)_{., mode}).

    Measured as a spectral norm restricted to occupation <= n_max - 2,
    where the truncated ladder algebra is exact.  dGamma(O) conserves the
    total number, so both exponentials are taken sector by sector.
    """
    o_small = np.asarray(o_small, dtype=complex)
    if o_small.shape != (space.modes, space.modes) or not 0 <= mode < space.modes:
        raise ValueError("one-body matrix must be modes x modes, mode one of them")
    col = _expm(o_small, np.eye(space.modes)[:, mode])
    total = space.occupations.sum(axis=1)
    return _conjugation_defect(
        space, total, 1, lambda src: _dgamma(space, o_small, src),
        lambda src: [_ladder(space, [(mode, 1)], src)],
        lambda src: [_ladder(space, [(a, 1)], src, col[a]) for a in range(space.modes)],
        total <= space.n_max - 2)


def bogoliubov_action_defect(space: FockSpace, nu_by_pair, mode: int,
                             max_total_occ: int | None = None) -> float:
    """Defect of e^{-K} a_mode e^{K} = cosh(nu) a_mode + sinh(nu) a*_{partner},
    as a spectral norm restricted to total occupation <= max_total_occ
    (default n_max // 2).  Decays to zero as n_max grows at fixed nu.
    K conserves each pair's n_{+p} - n_{-p}, so e^{+-K} are taken sector
    by sector.
    """
    if not 0 <= mode < space.modes:
        raise ValueError("invalid mode")
    if max_total_occ is None:
        max_total_occ = space.n_max // 2
    nu_by_pair = np.asarray(nu_by_pair, dtype=float)
    nu, occ = nu_by_pair[mode // 2], space.occupations
    # a_mode and a*_partner both lower n_{+p} - n_{-p} for a +p mode
    shift = np.zeros(space.pairs, dtype=int)
    shift[mode // 2] = 1 if mode % 2 else -1
    return _conjugation_defect(
        space, occ[:, 0::2] - occ[:, 1::2], shift,
        lambda src: _k(space, -nu_by_pair, src),
        lambda src: [_ladder(space, [(mode, -1)], src)],
        lambda src: [_ladder(space, [(mode, -1)], src, math.cosh(nu)),
                     _ladder(space, [(mode ^ 1, 1)], src, math.sinh(nu))],
        occ.sum(axis=1) <= max_total_occ)
