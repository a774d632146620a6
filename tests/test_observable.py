"""General-observable MGF exponent: fixed-point kernels vs the Fock oracle.

Layout note: lattice pair j occupies Fock oracle modes (2j, 2j+1), so every
comparison below permutes indices through the lattice's pair list.  The
package ships the derived kernels; the "paper" kernels of kernel_reference
are the linearized cross-symmetry form that is exact only on real,
parity-even observables, and their generic-case deviation is pinned here
as a diagnostic, never asserted away.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bose_genfun.fockoracle import build_space, mgf_oracle
from bose_genfun.genfun import log_mgf_closed
from bose_genfun.lattice import build_lattice, lattice_from_vectors
from bose_genfun.observable import (
    NotContracting,
    d_norm_bound,
    log_mgf_det,
    observable_from_csv,
    observable_from_matrix,
    observable_mean,
    observable_random,
    solve_F,
)
from bose_genfun.observable import _apply, _bound, _exp_pair, _Factors, _residuals
from bose_genfun.spectrum import build_kernel, depletion_mean
from fock_reference import pair_amplitudes
import kernel_reference
from kernel_reference import (
    _apply_terms,
    _derived_bound,
    _derived_terms,
    apply_D,
    apply_D_paper,
    apply_D_raw,
    certified_domain,
    d_norm_estimate,
    d_tensor_bruteforce,
    dense_solve,
    kernel_A,
    kernel_A_paper,
    kernel_A_raw,
    kernel_from_nu,
    log_mgf_dense,
    log_mgf_general,
    observable_identity,
    realified,
)

DESK = lattice_from_vectors([(1, 0, 0), (0, 1, 0)])
A16PI = 16.0 * math.pi * 0.05


def desk_kernel():
    return build_kernel(DESK, A16PI)


def generic_kernel():
    # distinct pairing angles per pair, even under negation
    return kernel_from_nu(DESK, [-0.3, -0.2, -0.2, -0.3])


def fock_layout(lat):
    """fock_of_lat[i] = oracle mode of lattice mode i, and the inverse."""
    fock_of_lat = np.empty(lat.size, dtype=int)
    for j, (i1, i2) in enumerate(lat.pairs):
        fock_of_lat[i1] = 2 * j
        fock_of_lat[i2] = 2 * j + 1
    lat_of_fock = np.argsort(fock_of_lat)
    return fock_of_lat, lat_of_fock


def oracle_amplitudes(k, obs, lam, n_max=12):
    """Normalized pair amplitudes F/G from the Fock oracle, on lattice indices."""
    lat = k.lattice
    fock_of_lat, lat_of_fock = fock_layout(lat)
    nu_by_pair = [k.nu[i1] for (i1, _) in lat.pairs]
    o_small = obs.o[np.ix_(lat_of_fock, lat_of_fock)]
    space = build_space(lat.size // 2, n_max)
    f, g = pair_amplitudes(space, nu_by_pair, o_small, lam)
    return f[np.ix_(fock_of_lat, fock_of_lat)] / g


# ---------------------------------------------------------------- builders


def test_builder_validation():
    lat = DESK
    with pytest.raises(ValueError):
        observable_from_matrix(lat, np.eye(3))
    bad = np.eye(4)
    bad[0, 1] = 1.0  # not Hermitian
    with pytest.raises(ValueError):
        observable_from_matrix(lat, bad)
    nan = np.eye(4, dtype=complex)
    nan[2, 2] = math.nan
    with pytest.raises(ValueError):
        observable_from_matrix(lat, nan)
    with pytest.raises(ValueError):
        observable_random(lat, seed=0, ensemble="ginibre")


def test_random_ensembles():
    lat = DESK
    rp = observable_random(lat, seed=7)
    assert np.linalg.norm(rp.o, 2) == pytest.approx(1.0, rel=1e-12)
    assert np.max(np.abs(rp.o.imag)) == 0.0
    assert np.allclose(rp.o, rp.o.T)
    neg = lat.neg_index
    assert np.allclose(rp.o, rp.o[neg][:, neg])  # commutes with negation
    again = observable_random(lat, seed=7)
    assert np.array_equal(rp.o, again.o)

    h = observable_random(lat, seed=7, ensemble="hermitian")
    assert np.allclose(h.o, h.o.conj().T)
    assert np.max(np.abs(h.o.imag)) > 0.0
    assert not np.allclose(h.o, h.o[neg][:, neg])


def test_csv_round_trip(tmp_path):
    lat = DESK
    src = observable_random(lat, seed=3, ensemble="hermitian")
    path = tmp_path / "obs.csv"
    lines = ["# one-body matrix", "p_index,q_index,re,im"]
    for p in range(4):
        for q in range(4):
            z = src.o[p, q]
            lines.append(f"{p},{q},{float(z.real)!r},{float(z.imag)!r}")
    path.write_text("\n".join(lines) + "\n")
    back = observable_from_csv(lat, path)
    assert np.array_equal(back.o, src.o)


@pytest.mark.parametrize("rows, message", [
    (["-1,-1,1.0,0.0"], "outside"),                     # would wrap to the last mode
    (["0,0,1.0,0.0", "99,99,1.0,0.0"], "outside"),     # past the lattice
    (["0,0,1.0,0.0", "0,0,2.0,0.0"], "duplicate"),     # would overwrite row 1
    (["0,0,1.0"], "4 fields"),
    (["1,x,0.5,0"], "non-numeric"),                   # index is not an integer
    (["0,0,1.0,0.0", "0,0,abc,0"], "non-numeric"),    # value is not a number
], ids=["negative", "too-large", "duplicate", "short-row", "bad-index", "bad-value"])
def test_csv_rejects_bad_rows(tmp_path, rows, message):
    path = tmp_path / "obs.csv"
    path.write_text("p_index,q_index,re,im\n" + "\n".join(rows) + "\n")
    with pytest.raises(ValueError, match=f"line {len(rows) + 1}: .*{message}"):
        observable_from_csv(DESK, path)


def test_kernel_and_observable_lattices_must_match():
    # same size, different modes: (0,0,1) in place of (0,1,0)
    other = lattice_from_vectors([(1, 0, 0), (0, 0, 1)])
    obs = observable_random(other, seed=7)
    with pytest.raises(ValueError, match="different lattices"):
        solve_F(desk_kernel(), obs, 0.3)
    # an equal lattice built separately is accepted
    same = observable_random(lattice_from_vectors([(1, 0, 0), (0, 1, 0)]), seed=7)
    assert solve_F(desk_kernel(), same, 0.3).residual < 1e-12


def test_identity_mean_is_depletion_mean():
    k = desk_kernel()
    obs = observable_identity(DESK)
    assert observable_mean(k, obs) == pytest.approx(depletion_mean(k), rel=1e-14)


def test_exp_of_O():
    obs = observable_random(DESK, seed=5, ensemble="hermitian")
    e, e_inv = _exp_pair(obs, 0.7)
    assert np.allclose(e @ e_inv, np.eye(4), atol=1e-12)
    assert np.allclose(e_inv, _exp_pair(obs, -0.7)[0], rtol=0, atol=1e-14)
    d = observable_from_matrix(DESK, np.diag([0.2, -0.1, -0.1, 0.2]))
    assert np.allclose(_exp_pair(d, 2.0)[0], np.diag(np.exp([0.4, -0.2, -0.2, 0.4])))
    assert np.array_equal(_exp_pair(d, 0.0)[0], np.eye(4))


# ---------------------------------------------------------- source kernel A


def test_kernel_A_vanishes_when_it_should():
    k = desk_kernel()
    zero = observable_from_matrix(DESK, np.zeros((4, 4)))
    assert np.max(np.abs(kernel_A(k, zero, 0.8))) == 0.0
    obs = observable_random(DESK, seed=7)
    # kappa = 0 goes through the eigenbasis, so zero only to roundoff
    assert np.max(np.abs(kernel_A(k, obs, 0.0))) < 1e-15


def test_kernel_A_first_order():
    k = generic_kernel()
    obs = observable_random(DESK, seed=7, ensemble="hermitian")
    eps = 1e-6
    fd = (kernel_A(k, obs, eps) - kernel_A(k, obs, -eps)) / (2 * eps)
    s, c, neg = k.s, k.c, k.lattice.neg_index
    expect = np.outer(s, c) * obs.o.T + np.outer(c, s) * obs.o[np.ix_(neg, neg)]
    assert np.max(np.abs(fd - expect)) < 1e-8


def test_kernel_A_raw_equals_stabilized():
    k = generic_kernel()
    obs = observable_random(DESK, seed=11, ensemble="hermitian")
    for variant, stabilized in (("derived", kernel_A), ("paper", kernel_A_paper)):
        for kap in (-0.4, 0.05, 0.3):
            stab = stabilized(k, obs, kap)
            raw = kernel_A_raw(k, obs, kap, variant)
            assert np.max(np.abs(stab - raw)) < 1e-9


def test_paper_ninth_source_term_is_spurious():
    # appending the extra printed summand breaks raw == stabilized by many
    # orders of magnitude; the production kernel drops it
    k = generic_kernel()
    obs = observable_random(DESK, seed=11, ensemble="hermitian")
    raw = kernel_A_raw(k, obs, 0.3, "paper")
    with_it = kernel_A_paper(k, obs, 0.3, with_term9=True)
    without = kernel_A_paper(k, obs, 0.3)
    assert np.max(np.abs(without - raw)) < 1e-12
    assert np.max(np.abs(with_it - raw)) > 1e-8


# ------------------------------------------------------------ fixed-point D


def test_apply_D_matches_bruteforce_tensor():
    k = generic_kernel()
    rng = np.random.default_rng(2)
    F = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    for apply, conjugate in ((apply_D, True), (apply_D_paper, False)):
        obs = observable_random(DESK, seed=9, ensemble="hermitian")
        tensor = d_tensor_bruteforce(lambda X: apply(k, obs, 0.25, X), 4)
        arg = F.conj() if conjugate else F
        direct = np.einsum("pqkl,kl->pq", tensor, arg)
        via = apply(k, obs, 0.25, F)
        assert np.max(np.abs(direct - via)) < 1e-12


def test_apply_D_raw_equals_stabilized():
    k = generic_kernel()
    obs = observable_random(DESK, seed=13, ensemble="hermitian")
    rng = np.random.default_rng(4)
    F = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    neg = DESK.neg_index
    # the derived regrouping is an identity only on the exchange-symmetric
    # subspace F = F~ (which contains every fixed point)
    F_sym = 0.5 * (F + F[neg][:, neg].T)
    d_raw = apply_D_raw(k, obs, 0.3, F_sym)
    d_stab = apply_D(k, obs, 0.3, F_sym)
    assert np.max(np.abs(d_raw - d_stab)) < 1e-9
    # ... and genuinely differs off that subspace
    off = apply_D_raw(k, obs, 0.3, F) - apply_D(k, obs, 0.3, F)
    assert np.max(np.abs(off)) > 1e-6

    p_raw = apply_D_paper(k, obs, 0.3, F, raw=True)
    p_stab = apply_D_paper(k, obs, 0.3, F)
    assert np.max(np.abs(p_raw - p_stab)) < 1e-9


def test_derived_terms_elementwise_reference():
    # independent loop transcription of the four pairing contractions on one
    # pair; guards the index placement inside the factor construction
    lat = lattice_from_vectors([(1, 0, 0)])
    k = kernel_from_nu(lat, [-0.4, -0.4])
    rng = np.random.default_rng(8)
    o = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    obs = observable_from_matrix(lat, 0.5 * (o + o.conj().T))
    F = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    kap = 0.35
    f = _Factors(k, obs, kap)
    s, c, neg = k.s, k.c, lat.neg_index
    dbp, dm = f.dbp, f.dm

    ref = np.zeros((2, 2), dtype=complex)
    for kk in range(2):
        for ll in range(2):
            acc = 0.0 + 0.0j
            for m in range(2):
                for n in range(2):
                    ft = np.conj(F[neg[n], m])
                    fn = np.conj(F[neg[m], n])
                    acc += (c[kk] * dbp[neg[m], neg[kk]] * s[m]) * ft \
                        * (s[n] * dbp[neg[n], ll] * c[ll])
                    acc += (s[kk] * dm[m, kk] * c[m]) * ft \
                        * (c[n] * dm[n, neg[ll]] * s[ll])
                    acc -= (s[kk] * dm[m, kk] * c[m]) * ft \
                        * (s[n] * dbp[neg[n], ll] * c[ll])
                    acc -= (c[kk] * dbp[neg[m], neg[kk]] * s[m]) * fn \
                        * (c[n] * dm[n, neg[ll]] * s[ll])
            ref[kk, ll] = acc
    assert np.max(np.abs(ref - apply_D(k, obs, kap, F))) < 1e-13


def test_norm_bound_and_estimate():
    k = desk_kernel()
    obs = observable_random(DESK, seed=7)
    assert d_norm_bound(k, obs, 0.0) == 0.0
    est = d_norm_estimate(k, obs, 0.5)
    bnd = d_norm_bound(k, obs, 0.5)
    assert 0.0 < est <= bnd * (1 + 1e-9)

    # the power iteration reproduces the spectral norm of the materialized
    # real-linear operator (realified, since the map is antilinear)
    m = realified(lambda X: apply_D(k, obs, 0.5, X), k.size)
    true_norm = float(np.linalg.norm(m, 2))
    assert est == pytest.approx(true_norm, rel=1e-8)
    assert bnd >= true_norm


@settings(max_examples=60, deadline=None)
@given(shape=st.sampled_from(["1-pair", "2-pair", "cube"]),
       ensemble=st.sampled_from(["real-parity", "hermitian", "projector"]),
       a=st.floats(0.005, 0.3), frac=st.floats(-0.95, 0.95),
       seed=st.integers(0, 2**32 - 1))
def test_factors_match_reference_triples(shape, ensemble, a, frac, seed):
    # D kept as its four distinct factors applies exactly as the triple sum
    # with -a2 and -a1 stored separately.  Every factor has the rank of
    # e^{kappa O} - 1, that of O: for full-rank O the spectral-only bound
    # equals the triples' min(spectral, Frobenius); for a rank-one projector
    # ||X||_2 = ||X||_F and rounding may pick the Frobenius sum
    lat = (build_lattice(1) if shape == "cube"
           else lattice_from_vectors([(1, 0, 0), (0, 1, 0)][:int(shape[0])]))
    k = build_kernel(lat, 16.0 * math.pi * a)
    rng = np.random.default_rng(seed)
    if ensemble == "projector":
        v = rng.standard_normal(lat.size) + 1j * rng.standard_normal(lat.size)
        v /= np.linalg.norm(v)
        obs = observable_from_matrix(lat, np.outer(v, v.conj()))
    else:
        obs = observable_random(lat, seed, ensemble=ensemble)
    f = _Factors(k, obs, frac * min(k.lambda0, 2.0))
    F = rng.standard_normal((lat.size,) * 2) + 1j * rng.standard_normal((lat.size,) * 2)
    assert np.array_equal(_apply(f, F), _apply_terms(_derived_terms(f), F, f.neg))
    bnd, ref = _bound(f), _derived_bound(f)
    assert bnd >= ref
    if ensemble != "projector":
        assert bnd == ref


# ------------------------------------------------------- fixed-point solves


def test_solver_routes_agree():
    k = desk_kernel()
    obs = observable_random(DESK, seed=7)
    neu = solve_F(k, obs, 0.6)
    a = kernel_A(k, obs, 0.6)
    den = dense_solve(a, lambda X: apply_D(k, obs, 0.6, X))
    den_residual = np.linalg.norm(den - (a + apply_D(k, obs, 0.6, den)))
    assert np.max(np.abs(neu.F - den)) < 1e-10
    assert neu.residual < 1e-12 and den_residual < 1e-12
    assert neu.iterations >= 1


def test_solver_domain_and_cap_errors():
    k = desk_kernel()
    obs = observable_random(DESK, seed=7)
    with pytest.raises(ValueError):
        solve_F(k, obs, k.lambda0 + 0.1)
    # inside (-lambda0, lambda0) but past the certified contraction cap
    dom = certified_domain(k, obs)
    assert dom < 0.99 * k.lambda0
    with pytest.raises(ValueError, match="certified contraction"):
        solve_F(k, obs, 0.5 * (dom + k.lambda0))


def test_solution_reports_its_contraction_bound():
    # solve_F returns the q it checked, the same number as the one-shot
    # certificate, and refuses q >= 1 with a ValueError subclass
    k = desk_kernel()
    obs = observable_random(DESK, seed=7)
    for lam in (-3.0, -0.6, 0.3, 2.0):
        assert solve_F(k, obs, lam).bound == d_norm_bound(k, obs, lam)
    assert d_norm_bound(k, obs, 4.0) >= 1.0
    with pytest.raises(NotContracting):
        solve_F(k, obs, 4.0)
    assert issubclass(NotContracting, ValueError)


def test_solution_matches_fock_oracle_symmetric_class():
    k = desk_kernel()
    obs = observable_random(DESK, seed=7)
    lam = 0.5
    ref = oracle_amplitudes(k, obs, lam, n_max=10)
    paper = dense_solve(kernel_A_paper(k, obs, lam),
                        lambda X: apply_D_paper(k, obs, lam, X))
    for F in (solve_F(k, obs, lam).F, paper):
        sym, exch = _residuals(k, F)
        assert np.max(np.abs(F - ref)) < 1e-10
        assert sym < 1e-10
        assert exch < 1e-12


def test_solution_matches_fock_oracle_generic():
    # generic complex Hermitian O and distinct pairing angles: the derived
    # kernels still track the oracle; the linearized variant does not
    k = generic_kernel()
    obs = observable_random(DESK, seed=21, ensemble="hermitian")
    lam = 0.15
    ref = oracle_amplitudes(k, obs, lam, n_max=10)
    derived = solve_F(k, obs, lam)
    dev_derived = np.max(np.abs(derived.F - ref))
    assert dev_derived < 1e-8
    assert derived.exchange_residual < 1e-10

    paper = dense_solve(kernel_A_paper(k, obs, lam),
                        lambda X: apply_D_paper(k, obs, lam, X))
    dev_paper = np.max(np.abs(paper - ref))
    assert dev_paper > 100 * max(dev_derived, 1e-12)
    assert dev_paper > 1e-7


def test_certified_domain_brackets_contraction():
    k = desk_kernel()
    obs = observable_random(DESK, seed=7)
    dom = certified_domain(k, obs)
    assert 0.0 < dom <= k.lambda0
    if dom < k.lambda0 * (1 - 1e-9):
        assert d_norm_bound(k, obs, dom * (1 - 1e-6)) < 1.0
        probe = dom * (1 + 1e-6)
        assert (d_norm_bound(k, obs, probe) >= 1.0
                or d_norm_bound(k, obs, -probe) >= 1.0)


def test_certified_domain_bisects_to_float_resolution(monkeypatch):
    # the bisection ends once no float lies strictly inside the bracket:
    # dom contracts and its float successor does not, well before 80 steps
    k = desk_kernel()
    obs = observable_random(DESK, seed=7)
    calls = []
    real = kernel_reference.d_norm_bound
    monkeypatch.setattr(kernel_reference, "d_norm_bound",
                        lambda *args: calls.append(args[2]) or real(*args))
    dom = certified_domain(k, obs)
    assert dom < 0.99 * k.lambda0
    assert len(calls) < 2 * 60
    after = math.nextafter(dom, math.inf)
    assert max(real(k, obs, dom), real(k, obs, -dom)) < 1.0
    assert max(real(k, obs, after), real(k, obs, -after)) >= 1.0


# ------------------------------------------------------------- MGF exponent


def test_log_mgf_general_identity_chain():
    # O = identity must reproduce the scalar depletion exponent
    k = desk_kernel()
    obs = observable_identity(DESK)
    lam = 0.8
    got = log_mgf_general(k, obs, [lam])[0]
    assert got == pytest.approx(log_mgf_closed(k, lam), abs=1e-8)


def test_log_mgf_general_vs_fock_oracle():
    k = generic_kernel()
    obs = observable_random(DESK, seed=21, ensemble="hermitian")
    lam = 0.15
    fock_of_lat, lat_of_fock = fock_layout(DESK)
    nu_by_pair = [k.nu[i1] for (i1, _) in DESK.pairs]
    o_small = obs.o[np.ix_(lat_of_fock, lat_of_fock)]
    ref = mgf_oracle(build_space(2, 10), nu_by_pair, o_small, lam,
                     required_accuracy=1e-8)
    got = log_mgf_general(k, obs, [lam])[0]
    assert got == pytest.approx(math.log(ref.value.real), abs=1e-8)
    den = log_mgf_dense(k, obs, lam)
    assert abs(got - den) < 1e-10


def test_log_mgf_general_domain_rejection():
    k = desk_kernel()
    obs = observable_random(DESK, seed=7)
    dom = certified_domain(k, obs)
    with pytest.raises(ValueError):
        log_mgf_general(k, obs, [dom * 1.01])
    assert log_mgf_general(k, obs, [0.0])[0] == 0.0


def neumann_slope(k, obs, lam):
    """Lambda_O'(lam) = Re sum s_p c_q O_pq F_pq(lam) + mu_O from one
    Neumann fixed-point solve."""
    slope = observable_mean(k, obs)
    if lam != 0.0:
        F = solve_F(k, obs, lam).F
        slope += float(np.sum(np.outer(k.s, k.c) * obs.o * F).real)
    return slope


# Each example runs one Neumann-quadrature integral, about 0.2 s.
@settings(max_examples=10, deadline=None)
@given(pairs=st.sampled_from([1, 2]),
       ensemble=st.sampled_from(["real-parity", "hermitian"]),
       a=st.floats(0.005, 0.3), frac=st.floats(-0.9, 0.9),
       seed=st.integers(0, 2**32 - 1))
def test_log_mgf_det_matches_neumann_route(pairs, ensemble, a, frac, seed):
    lat = lattice_from_vectors([(1, 0, 0), (0, 1, 0)][:pairs])
    k = build_kernel(lat, 16.0 * math.pi * a)
    obs = observable_random(lat, seed, ensemble=ensemble)
    lam = frac * certified_domain(k, obs)
    (val,), (slope,) = log_mgf_det(k, obs, [lam])
    ref = log_mgf_general(k, obs, [lam])[0]
    assert abs(val - ref) <= 1e-12 * max(1.0, abs(ref))
    # relative to the slope's size, not to a value that cancels: with
    # ||O||_2 = 1, |mu_O| <= mu = sum_p s_p^2, and the Neumann cutoff leaves
    # an absolute error of order 1e-13 |s| |c|
    neumann = neumann_slope(k, obs, lam)
    assert abs(slope - neumann) <= 1e-10 * max(abs(neumann), depletion_mean(k))
    # O = 1: the scalar closed form inside (-lambda0, lambda0), refused from
    # lambda0 on
    ident = observable_identity(lat)
    lam = frac * k.lambda0
    closed = log_mgf_closed(k, lam)
    assert abs(log_mgf_det(k, ident, [lam])[0][0] - closed) <= 1e-12 * max(1.0, abs(closed))
    for edge in (k.lambda0, k.lambda0 * (1.0 + abs(frac))):
        with pytest.raises(ValueError, match="exact domain"):
            log_mgf_det(k, ident, [edge])


def test_log_mgf_det_at_zero_and_lattice_check():
    k = desk_kernel()
    obs = observable_random(DESK, seed=7, ensemble="hermitian")
    vals, slopes = log_mgf_det(k, obs, [0.0, 0.3])
    assert vals[0] == 0.0
    assert slopes[0] == pytest.approx(observable_mean(k, obs), rel=1e-12)
    other = observable_random(lattice_from_vectors([(1, 0, 0), (0, 0, 1)]), seed=7)
    with pytest.raises(ValueError, match="different lattices"):
        log_mgf_det(k, other, [0.3])


def per_mode_closed(k, tau, lam):
    """-1/2 sum_p log(c_p^2 - e^{2 lam tau_p} s_p^2): the exponent for
    diagonal weights tau when each mode factorized on its own."""
    return -0.5 * math.fsum(np.log(k.c ** 2 - np.exp(2.0 * lam * tau) * k.s ** 2))


def test_diagonal_sequence_routes():
    k = desk_kernel()
    lam = 0.8
    # unit weights: the per-mode form is the scalar exponent
    assert per_mode_closed(k, np.ones(4), lam) == pytest.approx(
        log_mgf_closed(k, lam), abs=1e-10)
    # zero weights: identically zero
    zero = observable_from_matrix(DESK, np.zeros((4, 4)))
    assert log_mgf_general(k, zero, [lam])[0] == 0.0
    # pair-even weights agree with the general fixed-point route
    tau = np.array([0.7, 0.2, 0.2, 0.7])
    gen = log_mgf_general(k, observable_from_matrix(DESK, np.diag(tau)), [lam])[0]
    assert per_mode_closed(k, tau, lam) == pytest.approx(gen, abs=1e-10)


def test_diagonal_sequence_uneven_weights_are_a_different_quantity():
    # the per-mode formula is only the true MGF exponent for pair-even
    # weights; weighting one mode of a pair alone disagrees with the
    # genuine (oracle-checked) value by a finite amount
    lat = lattice_from_vectors([(1, 0, 0)])
    nu = -0.55
    k = kernel_from_nu(lat, [nu, nu])
    lam = 0.3
    tau = np.array([1.0, 0.0])
    per_mode = per_mode_closed(k, tau, lam)
    ref = mgf_oracle(build_space(1, 40), [nu], np.diag([1.0, 0.0]), lam)
    true_val = math.log(ref.value.real)
    gen = log_mgf_general(k, observable_from_matrix(lat, np.diag(tau)), [lam])[0]
    assert gen == pytest.approx(true_val, abs=1e-9)
    assert abs(per_mode - true_val) > 1e-4
