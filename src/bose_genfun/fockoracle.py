"""Exact desk-scale oracle on a truncated bosonic Fock space, in numpy.

Everything here is brute force on purpose: occupation-number bases for one
or two +/-p mode pairs, ladder operators read off the occupation table,
matrix exponentials, and direct evaluation of squeezed-vacuum expectations.
The package is validated against them; truncation error is always reported.

The Bogoliubov generator is the anti-Hermitian K = sum_pairs nu *
(a*_p a*_{-p} - a_p a_{-p}), so e^{-K} a_p e^{K} = cosh(nu) a_p + sinh(nu)
a*_{-p}, and its commuting pair terms make e^K |vac> a Kronecker product of
one-pair states.  The MGF oracle's O is diagonal and acts state by state.
A ladder word sends a basis state to at most one state, so the defect
checks' operators are zero-padded stacks of dense blocks between conserved-
charge sectors (dGamma(O) keeps the total number, K each pair's n_{+p} -
n_{-p}).  Each block is exponentiated as a Taylor sum (Al-Mohy & Higham,
SIAM J. Sci. Comput. 33, 2011) over a power of two >= its 1-norm, squared
back: an eigendecomposition would leave absolute rounding in the small tail
amplitudes, which e^{lam N} amplifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DIM_CAP = 20_000
_TAYLOR_CAP = 178  # the first k at which 1/k! is 0.0 in float64


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


@dataclass(frozen=True)
class OracleValue:
    """An oracle number together with its truncation-error estimate."""

    value: float
    truncation_estimate: float


def check_space(pairs: int, n_max: int) -> None:
    """Raise ValueError unless build_space(pairs, n_max) is within the caps."""
    if pairs not in (1, 2):
        raise ValueError(f"pairs must be 1 or 2 (got {pairs})")
    if n_max < 2:
        raise ValueError(f"n_max must be at least 2 (got {n_max})")
    dim = (n_max + 1) ** (2 * pairs)
    if dim > DIM_CAP:
        raise ValueError(f"Fock dimension {dim} exceeds cap {DIM_CAP}")


def build_space(pairs: int, n_max: int) -> FockSpace:
    check_space(pairs, n_max)
    grids = np.meshgrid(*([np.arange(n_max + 1)] * (2 * pairs)), indexing="ij")
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
    if nu_by_pair.shape != (space.pairs,) or not np.isfinite(nu_by_pair).all():
        raise ValueError("nu_by_pair must hold one finite nu per pair")
    return [_ladder(space, [(2 * i, step), (2 * i + 1, step)], src, step * nu)
            for i, nu in enumerate(nu_by_pair) if nu != 0.0 for step in (1, -1)]


def _stack(space: FockSpace, images: list, src: list, dst: list) -> np.ndarray:
    """Zero-padded blocks out[i] = <dst[i]|X|src[i]> of X, given X's images of
    the states np.concatenate(src).  Raises ArithmeticError if X sends a state
    of src[i] outside dst[i], so the sector structure is checked, not assumed."""
    slot, row = np.full(space.dim, -1), np.zeros(space.dim, np.intp)
    for i, idx in enumerate(dst):
        slot[idx], row[idx] = i, np.arange(len(idx))
    block, col = np.hstack([(np.full(len(idx), i), np.arange(len(idx)))
                            for i, idx in enumerate(src)])
    width = max(len(idx) for idx in src + dst)
    out = np.zeros((len(src), width, width), np.result_type(float, *(v for _, v in images)))
    for d, val in images:
        live = np.flatnonzero(val)
        if np.any(slot[d[live]] != block[live]):
            raise ArithmeticError("operator couples two conserved-charge sectors")
        out[block[live], row[d[live]], col[live]] += val[live]
    return out


def _sectors(charge: np.ndarray) -> dict:
    """Basis indices of each sector, keyed by its charge as a tuple."""
    keys, label = np.unique(charge.reshape(len(charge), -1), axis=0, return_inverse=True)
    return {tuple(k): np.flatnonzero(label.reshape(-1) == i)
            for i, k in enumerate(keys.tolist())}


def _taylor(start: np.ndarray, step) -> np.ndarray:
    """e^{A/s} start, summing t_k = step(t_{k-1}, k, out) = (A/s) t_{k-1} / k until
    a term moves no entry.  With ||A/s||_1 <= 1 a finite t_k is below 1/k! of the
    start, 0 from _TAYLOR_CAP on: a sum still moving there raises ArithmeticError."""
    total, term = start.copy(), start.copy()
    new, tmp = np.empty_like(total), np.empty_like(total)  # C order, as .view needs
    for k in range(1, _TAYLOR_CAP + 1):
        term, tmp = step(term, k, tmp), term
        np.add(total, term, out=new)
        if not (new.view(np.float64) != total.view(np.float64)).any():
            return total
        total, new = new, total
    raise ArithmeticError("the Taylor sum of a matrix exponential overflowed")


def _expm_stack(a: np.ndarray) -> np.ndarray:
    """e^{A_i} for each block of a stack: one Taylor run sums every e^{A_i/2^j_i},
    2^j_i the least power of two >= max(1, ||A_i||_1), until no entry moves;
    then T_i is squared j_i times (Higham 2005): work grows as log2 of the norm."""
    mant, j = np.frexp(np.abs(a).sum(axis=-2).max(axis=-1))  # norm = mant * 2^j
    j = np.maximum(0, j - (mant == 0.5))[:, None, None]  # norm == 2^(j-1) needs j - 1
    s = np.ldexp(1.0, j)

    def step(t, k, out):
        parts = np.matmul(a, t, out=out).view(np.float64)  # complex / real is slow
        np.divide(parts, k * s, out=parts)
        return out

    total = _taylor(np.tile(np.eye(a.shape[-1], dtype=a.dtype), (len(a), 1, 1)), step)
    for r in range(int(j.max(initial=0))):
        np.copyto(total, total @ total, where=j > r)
    return total


def _top_shell_mass(space: FockSpace, v: np.ndarray) -> float:
    top = np.any(space.occupations >= space.n_max - 1, axis=1)
    return float(np.sum(np.abs(v[top]) ** 2))


def squeezed_vacuum(space: FockSpace, nu_by_pair) -> tuple[np.ndarray, float]:
    """e^{K} |vac> and a truncation estimate (norm defect + top-shell mass).

    K's pair terms commute and each acts on its own pair, so e^K |vac> is the
    Kronecker product of one-pair states: column 0 of e^{K_i} on the balanced
    states |k,k> of a one-pair space, every pair's block in one stack.
    """
    nu_by_pair = np.asarray(nu_by_pair, dtype=float)
    if nu_by_pair.shape != (space.pairs,):
        raise ValueError("nu_by_pair must hold one finite nu per pair")
    one = build_space(1, space.n_max)
    idx = np.flatnonzero(one.occupations[:, 0] == one.occupations[:, 1])
    states = np.zeros((space.pairs, one.dim), dtype=complex)
    states[:, idx] = _expm_stack(np.concatenate(
        [_stack(one, _k(one, [nu], idx), [idx], [idx]) for nu in nu_by_pair]))[:, :, 0]
    v = states[0] if space.pairs == 1 else np.kron(*states)
    return v, abs(1.0 - float(np.vdot(v, v).real)) + _top_shell_mass(space, v)


def mgf_oracle(space: FockSpace, nu_by_pair, weights, lam: float,
               required_accuracy: float = 1e-6) -> OracleValue:
    """<v, e^{lam dGamma(O)} v> for the squeezed vacuum v = e^K vac and the
    diagonal O = diag(weights), one real weight per mode: the squared norm of
    exp((lam/2) occupations @ weights) v.  Raises ValueError on a non-finite
    lam, weights that are not one finite real number per mode, or a truncation
    estimate above required_accuracy; ArithmeticError on overflow."""
    if not math.isfinite(lam):
        raise ValueError(f"lam must be finite (got {lam!r})")
    o = np.asarray(weights)
    if o.shape != (space.modes,) or o.dtype.kind not in "iuf" or not np.isfinite(o).all():
        raise ValueError("weights must hold one finite real number per mode")
    v, est = squeezed_vacuum(space, nu_by_pair)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        w = np.exp(0.5 * lam * (space.occupations @ o)) * v
    value = float(np.vdot(w, w).real)
    if not math.isfinite(value):
        raise ArithmeticError(f"oracle value overflowed at lam={lam:.6g}")
    est = est + _top_shell_mass(space, w / max(np.linalg.norm(w), 1e-300))
    if est > required_accuracy:
        raise ValueError(
            f"oracle truncation estimate {est:.3e} exceeds {required_accuracy:.3e}; "
            "increase n_max")
    return OracleValue(value=value, truncation_estimate=est)


def _conjugation_defect(space: FockSpace, charge: np.ndarray, shift, x_images,
                        l_images, r_images, keep: np.ndarray) -> float:
    """Spectral norm of (e^X L e^{-X} - R)[:, keep], where X conserves
    `charge`, L and R add `shift` to it, and *_images give each operator's
    images of an array of states.  Each sector maps into exactly one other,
    so the norm is the largest over the (source, target) sector pairs holding
    a kept state.  e^{+X} on targets and e^{-X} on sources are zero-padded
    stacks, one Taylor run per padded width (powers of two up to the widest
    block); padding is exact, as e^{diag(A, 0)} = diag(e^A, I).
    """
    if not keep.any():
        raise ValueError("no basis state is kept: the defect would be vacuous")
    sectors = _sectors(charge)
    pairs = [(c, t) for c in sectors if keep[sectors[c]].any()
             for t in [tuple(np.add(c, shift).tolist())] if t in sectors]
    used = list(dict.fromkeys(key for pair in pairs for key in pair))
    idx = [sectors[key] for key in used]
    x = _stack(space, x_images(np.concatenate(idx)), idx, idx)
    src, dst = [sectors[c] for c, _ in pairs], [sectors[t] for _, t in pairs]
    l, r = (_stack(space, op(np.concatenate(src)), src, dst) for op in (l_images, r_images))
    exps, want = {}, [(1, t) for _, t in pairs] + [(-1, c) for c, _ in pairs]
    pad = {key: min(1 << (len(sectors[key]) - 1).bit_length(), x.shape[-1]) for key in used}
    with np.errstate(over="ignore", invalid="ignore"):  # overflow raises below
        for p in sorted(set(pad.values())):
            group = [(sign, key) for sign, key in want if pad[key] == p]
            a = np.stack([sign * x[used.index(key), :p, :p] for sign, key in group])
            exps.update(zip(group, _expm_stack(a)))
        for i, (c, t) in enumerate(pairs):  # r becomes the defect, in place
            m, n = len(dst[i]), len(src[i])
            r[i, :m, :n] -= exps[1, t][:m, :m] @ l[i, :m, :n] @ exps[-1, c][:n, :n]
            r[i, :, :n][:, ~keep[src[i]]] = 0.0
    if not np.isfinite(r).all():
        raise ArithmeticError("the conjugation defect overflowed")
    return float(np.linalg.svd(r, compute_uv=False)[:, 0].max())


def bch_check(space: FockSpace, o_small, mode: int) -> float:
    """Defect of e^{dGamma(O)} a*_mode e^{-dGamma(O)} = a*((e^O)_{., mode}).

    Measured as a spectral norm restricted to occupation <= n_max - 2,
    where the truncated ladder algebra is exact.  dGamma(O) conserves the
    total number, so both exponentials are taken sector by sector.
    """
    o_small = np.asarray(o_small, dtype=complex)
    if (o_small.shape != (space.modes, space.modes) or not np.isfinite(o_small).all()
            or not 0 <= mode < space.modes):
        raise ValueError("o_small must be finite and modes x modes, mode one of them")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        col = _expm_stack(o_small[None])[0][:, mode]
    if not np.isfinite(col).all():
        raise ArithmeticError("the matrix exponential e^O overflowed")
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
