"""End-to-end CLI runs through main(): exit codes, formats, determinism."""

import copy
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bose_genfun import cli, fockoracle, genfun, tails
from bose_genfun.cli import main
from bose_genfun.fockoracle import mgf_oracle
from bose_genfun.lattice import build_lattice, lattice_from_vectors
from bose_genfun.observable import d_norm_bound, observable_random, solve_F
from bose_genfun.spectrum import build_kernel


def write_cfg(tmp_path, body, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body, indent=1))
    return str(path)


def run(tmp_path, command, body, extra=(), out_name="out.txt", seed=None):
    cfg = write_cfg(tmp_path, body)
    out = tmp_path / out_name
    argv = [command, "--config", cfg, "--out", str(out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    argv += list(extra)
    code = main(argv)
    text = out.read_text() if out.exists() else None
    return code, text


def parse_csv(text):
    meta, header, rows = {}, None, []
    for line in text.strip().splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition("=")
            meta[key] = val
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return meta, header, rows


BASE = {"potential": {"kind": "direct", "a": 0.01}, "cutoff_m": 2}


def test_scattering_square_well(tmp_path):
    body = {"potential": {"kind": "square_well", "v": 1.0, "radius": 0.1},
            "cutoff_m": 1}
    code, text = run(tmp_path, "scattering", body)
    assert code == 0
    meta, header, rows = parse_csv(text)
    assert header == ["kind", "a_std", "a_paper", "a_effective", "residual"]
    assert len(rows) == 1
    a_std = float(rows[0]["a_std"])
    a_paper = float(rows[0]["a_paper"])
    assert a_paper == pytest.approx(8.0 * math.pi * a_std, rel=1e-6)
    assert float(rows[0]["a_effective"]) == a_paper  # paper convention default
    assert float(rows[0]["residual"]) <= 1e-10
    for key in ("version", "command", "config_sha256", "seed", "convention",
                "cutoff_m", "lambda0", "a16pi", "warnings"):
        assert key in meta
    assert meta["command"] == "scattering"


@pytest.mark.parametrize("a", [0.005, 0.013, 0.05])
def test_scattering_lambda0_is_the_cube_lambda0(tmp_path, a):
    body = {"potential": {"kind": "direct", "a": a}, "cutoff_m": 3}
    code, text = run(tmp_path, "scattering", body)
    assert code == 0
    meta, _, _ = parse_csv(text)
    cube = build_kernel(build_lattice(3), 16.0 * math.pi * a)
    assert float(meta["lambda0"]) == cube.lambda0


@pytest.mark.parametrize("convention", ["paper", "standard"])
@pytest.mark.parametrize("potential", [
    {"kind": "square_well", "v": 0.0, "radius": 0.1},
    {"kind": "gaussian_truncated", "v": 0.0, "width": 0.05, "radius": 0.1}])
def test_zero_height_well_scatters_nothing(tmp_path, potential, convention):
    body = {"potential": potential, "convention": convention, "cutoff_m": 1}
    code, text = run(tmp_path, "scattering", body)
    assert code == 0
    meta, _, rows = parse_csv(text)
    for column in ("a_std", "a_paper", "a_effective"):
        assert float(rows[0][column]) == 0.0
    assert float(rows[0]["residual"]) <= 1e-10
    assert meta["lambda0"] == "inf"
    code, text = run(tmp_path, "moments", body, out_name="moments.txt")
    assert code == 0
    assert float(parse_csv(text)[2][0]["mean"]) == 0.0


@pytest.mark.parametrize("command", ["scattering", "moments"])
def test_support_radius_too_small_to_march_exits_3(tmp_path, capsys, command):
    # the finest RK4 step R / 65536 of R = 5e-324 is 0
    body = {"potential": {"kind": "square_well", "v": 1.0, "radius": 5e-324},
            "cutoff_m": 1}
    code, text = run(tmp_path, command, body)
    assert code == 3 and text is None
    err = capsys.readouterr().err
    assert err.startswith("domain error: support radius") and err.count("\n") == 1


def test_genfun_quadrature_failure_exits_3(tmp_path, capsys, monkeypatch):
    body = {"potential": {"kind": "direct", "a": 0.01}, "cutoff_m": 10,
            "lambda_grid": {"min": 5.0, "max": 5.0, "count": 1}}
    monkeypatch.setattr(genfun, "_MAX_PANELS", 1)
    code, text = run(tmp_path, "genfun", body)
    assert code == 3 and text is None
    err = capsys.readouterr().err
    assert err.startswith("domain error: quadrature") and err.count("\n") == 1
    assert "loosen the tolerance (quadrature.tol)" in err


def test_observable_csv_bad_index_exits_3(tmp_path):
    obs_path = tmp_path / "obs.csv"
    obs_path.write_text("-1,-1,1.0,0.0\n")
    code, _ = run(tmp_path, "observable",
                  {"potential": {"kind": "direct", "a": 0.01}, "cutoff_m": 1,
                   "observable": {"kind": "csv", "path": str(obs_path)}})
    assert code == 3


def test_genfun_grid_clipping_and_agreement(tmp_path):
    body = dict(BASE, lambda_grid={"min": -2.0, "max": 9.0, "count": 12})
    code, text = run(tmp_path, "genfun", body)
    assert code == 0
    meta, header, rows = parse_csv(text)
    assert header == ["lambda", "log_mgf_quadrature", "log_mgf_closed",
                      "abs_diff", "mgf"]
    assert "dropped" in meta["warnings"]
    assert 0 < len(rows) < 12
    for row in rows:
        assert float(row["abs_diff"]) <= 1e-8
        assert float(row["mgf"]) == pytest.approx(
            math.exp(float(row["log_mgf_closed"])), rel=1e-12)


def test_moments_flags_printed_combination(tmp_path):
    code, text = run(tmp_path, "moments", BASE)
    assert code == 0
    _, header, rows = parse_csv(text)
    assert header[-1] == "printed_disagrees"
    assert rows[0]["printed_disagrees"] == "yes"
    assert float(rows[0]["printed_discrepancy"]) > 0.0
    assert float(rows[0]["variance"]) > float(rows[0]["mean"]) > 0.0


def test_tails_default_and_override(tmp_path):
    body = {"potential": {"kind": "direct", "a": 0.02}, "cutoff_m": 2}
    code, text = run(tmp_path, "tails", body)
    assert code == 0
    _, _, rows = parse_csv(text)
    # four thresholds x (chernoff, quadratic) + one witness row
    assert [r["bound_type"] for r in rows].count("chernoff") == 4
    assert [r["bound_type"] for r in rows].count("quadratic") == 4
    assert rows[-1]["bound_type"] == "witness"
    assert 0.0 < float(rows[-1]["epsilon"]) <= 0.125

    code, text = run(tmp_path, "tails", body, extra=("--n-list", "0.5,1.5"))
    assert code == 0
    _, _, rows = parse_csv(text)
    assert len(rows) == 5
    assert {r["n"] for r in rows if r["bound_type"] == "chernoff"} \
        == {"0.5", "1.5"}


def test_tails_reports_the_chernoff_engine_calls(tmp_path, monkeypatch):
    # one counter per Chernoff row, fed by every closed-form engine call
    # the tails module makes while that row is solved
    per_row = []
    bound, engine = tails.chernoff_bound, tails.log_mgf_derivatives

    def counted_bound(*args):
        per_row.append(0)
        return bound(*args)

    def counted_engine(*args):
        per_row[-1] += 1
        return engine(*args)

    monkeypatch.setattr(tails, "chernoff_bound", counted_bound)
    monkeypatch.setattr(tails, "log_mgf_derivatives", counted_engine)
    body = {"potential": {"kind": "direct", "a": 0.02}, "cutoff_m": 2}
    code, text = run(tmp_path, "tails", body)
    assert code == 0
    assert len(per_row) == 4 and per_row[0] == 0  # n = mu is a trivial row
    meta = parse_csv(text)[0]
    assert int(meta["chernoff_engine_calls_max"]) == max(per_row) > 0

    per_row.clear()
    code, text = run(tmp_path, "tails", body, extra=("--n-list", "0,-1"))
    assert code == 0
    assert per_row == [0, 0]
    assert parse_csv(text)[0]["chernoff_engine_calls_max"] == "0"


@pytest.mark.parametrize("n_list", ["nan", "abc", "inf"])
def test_tails_bad_n_list_exits_2(tmp_path, capsys, n_list):
    code, text = run(tmp_path, "tails", BASE, extra=("--n-list", f"0.5,{n_list}"))
    assert code == 2 and text is None
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


def test_observable_identity_json(tmp_path):
    body = dict(BASE, observable={"kind": "identity"},
                lambda_grid={"min": -0.5, "max": 0.5, "count": 3},
                output={"format": "json"})
    code, text = run(tmp_path, "observable", body)
    assert code == 0
    doc = json.loads(text)
    assert doc["meta"]["observable"] == "identity"
    assert doc["meta"]["command"] == "observable"
    for row in doc["rows"]:
        assert abs(row["fp_residual"]) <= 1e-8
        assert row["symmetry_residual"] == 0.0


def test_observable_identity_is_genfun_lambda(tmp_path):
    # O = 1: the identity report carries genfun's quadrature Lambda, its
    # distance to the closed form, and moments' mean, bit for bit
    body = {"potential": {"kind": "square_well", "v": 1.0, "radius": 0.1},
            "cutoff_m": 4, "observable": {"kind": "identity"},
            "lambda_grid": {"min": -0.5, "max": 0.5, "count": 5}}
    reports = {cmd: parse_csv(run(tmp_path, cmd, body, out_name=f"{cmd}.txt")[1])
               for cmd in ("observable", "genfun", "moments")}
    (obs_meta, _, obs), (gen_meta, _, gen) = reports["observable"], reports["genfun"]
    assert len(obs) == len(gen) == 5
    for o, g in zip(obs, gen):
        assert (o["lambda"], o["log_mgf_o"], o["fp_residual"]) \
            == (g["lambda"], g["log_mgf_quadrature"], g["abs_diff"])
        assert o["mean_o"] == reports["moments"][2][0]["mean"]
    # the same quadrature, so the same diagnostics: four nonzero gaps of
    # one 21-point Gauss-Kronrod panel each
    for key in ("quad_evals", "quad_abserr_max"):
        assert obs_meta[key] == gen_meta[key]
    assert int(gen_meta["quad_evals"]) == 4 * 21
    assert 0.0 < float(gen_meta["quad_abserr_max"]) <= 1e-10


def test_observable_identity_disagreement_exits_3(tmp_path, capsys):
    # a loose quadrature tolerance next to lambda0 leaves the quadrature
    # about 4e-6 off the closed form (|Lambda| is about 17): genfun
    # reports the gap, the identity observable refuses it
    body = dict(BASE, quadrature={"tol": 1e-1},
                lambda_grid={"min": 5.75, "max": 5.75, "count": 1},
                observable={"kind": "identity"})
    code, text = run(tmp_path, "genfun", body)
    assert code == 0
    assert float(parse_csv(text)[2][0]["abs_diff"]) > 1e-8
    capsys.readouterr()
    code, text = run(tmp_path, "observable", body, out_name="obs.txt")
    assert code == 3 and text is None
    err = capsys.readouterr().err
    assert err.startswith("domain error: quadrature disagrees") and err.count("\n") == 1


def test_observable_identity_check_is_relative_at_small_lambda(
        tmp_path, capsys, monkeypatch):
    # |Lambda(0.1)| is below 1e-3 here, so a quadrature 1e-9 off is 1e-6
    # off relative to it; a check against 1e-8 max(1, |Lambda|) let it pass
    body = dict(BASE, observable={"kind": "identity"},
                lambda_grid={"min": -0.1, "max": 0.1, "count": 3})
    code, text = run(tmp_path, "observable", body)
    assert code == 0
    rows = parse_csv(text)[2]
    assert rows[1]["log_mgf_o"] == "0" and rows[1]["fp_residual"] == "0"
    assert 0.0 < abs(float(rows[2]["log_mgf_o"])) < 1e-3
    real = cli.log_mgf_grid

    def off(k, lams, tol, stats):
        return real(k, lams, tol, stats) + np.where(lams == 0.1, 1e-9, 0.0)

    monkeypatch.setattr(cli, "log_mgf_grid", off)
    capsys.readouterr()
    code, text = run(tmp_path, "observable", body, out_name="obs.txt")
    assert code == 3 and text is None
    err = capsys.readouterr().err
    assert err.startswith("domain error: quadrature disagrees with the closed "
                          "form at lambda=0.1")


def test_observable_random_seed_paths(tmp_path):
    body = {"potential": {"kind": "direct", "a": 0.05}, "cutoff_m": 1,
            "observable": {"kind": "random", "pairs": 2},
            "lambda_grid": {"min": -0.3, "max": 0.3, "count": 3}}
    code3, text3 = run(tmp_path, "observable", body, seed=3)
    code4, text4 = run(tmp_path, "observable", body, seed=4, out_name="out4.txt")
    assert code3 == 0 and code4 == 0
    meta3, _, rows3 = parse_csv(text3)
    meta4, _, rows4 = parse_csv(text4)
    assert meta3["seed"] == "3" and meta4["seed"] == "4"
    assert meta3["config_sha256"] == meta4["config_sha256"]
    assert rows3 != rows4  # different draw
    for row in rows3:
        if float(row["lambda"]) != 0.0:
            assert float(row["fp_residual"]) < 1e-10
        assert 0.0 <= float(row["contraction_bound"]) < 1.0


def test_observable_drops_rows_past_the_contraction_bound(tmp_path):
    # two-pair desk lattice, a = 0.05, seed 7: the bound q on the norm of D
    # passes 1 at |lambda| = 4, inside lambda0 = 4.17, so those two rows are
    # dropped and counted; every kept row reports its own q
    body = {"potential": {"kind": "direct", "a": 0.05}, "cutoff_m": 1,
            "observable": {"kind": "random", "pairs": 2, "seed": 7},
            "lambda_grid": {"min": -4.0, "max": 4.0, "count": 9}}
    code, text = run(tmp_path, "observable", body)
    assert code == 0
    meta, _, rows = parse_csv(text)
    assert meta["warnings"] == "fixed-point bound q >= 1: dropped 2 of 9 points"
    lat = lattice_from_vectors([(1, 0, 0), (0, 1, 0)])
    k = build_kernel(lat, 16.0 * math.pi * 0.05)
    obs = observable_random(lat, 7)
    lams = np.linspace(-4.0, 4.0, 9)
    assert d_norm_bound(k, obs, -4.0) >= 1.0 and d_norm_bound(k, obs, 4.0) >= 1.0
    assert [float(row["lambda"]) for row in rows] == lams[1:-1].tolist()
    for row in rows:
        lam, q = float(row["lambda"]), float(row["contraction_bound"])
        assert 0.0 <= q < 1.0
        assert q == d_norm_bound(k, obs, lam)
    assert int(meta["neumann_iterations_max"]) == max(
        solve_F(k, obs, lam).iterations for lam in lams[1:-1] if lam)


def test_observable_csv_route(tmp_path):
    lines = ["p_index,q_index,re,im"]
    for i in range(26):
        lines.append(f"{i},{i},1.0,0.0")
    obs_path = tmp_path / "obs.csv"
    obs_path.write_text("\n".join(lines) + "\n")
    body = {"potential": {"kind": "direct", "a": 0.05}, "cutoff_m": 1,
            "observable": {"kind": "csv", "path": str(obs_path)},
            "lambda_grid": {"min": 0.0, "max": 0.4, "count": 2}}
    code, text = run(tmp_path, "observable", body)
    assert code == 0
    _, _, rows = parse_csv(text)
    assert len(rows) == 2

    # identity weights through the general route: exponent matches genfun
    code_g, text_g = run(tmp_path, "genfun",
                         dict(body, lambda_grid={"min": 0.4, "max": 0.4,
                                                 "count": 1}),
                         out_name="gf.txt")
    assert code_g == 0
    _, _, gf_rows = parse_csv(text_g)
    obs_val = float(rows[-1]["log_mgf_o"])
    assert obs_val == pytest.approx(float(gf_rows[0]["log_mgf_closed"]), abs=1e-8)


def test_observable_error_paths(tmp_path):
    # kind=none is a config error
    code, _ = run(tmp_path, "observable", dict(BASE, observable={"kind": "none"}))
    assert code == 2
    # too many modes for a csv observable
    obs_path = tmp_path / "o.csv"
    obs_path.write_text("0,0,1.0,0.0\n")
    code, _ = run(tmp_path, "observable",
                  {"potential": {"kind": "direct", "a": 0.01}, "cutoff_m": 3,
                   "observable": {"kind": "csv", "path": str(obs_path)}})
    assert code == 2
    # non-Hermitian payload is a domain (data) error, not a config error
    bad = tmp_path / "bad.csv"
    bad.write_text("0,1,1.0,0.0\n")
    code, _ = run(tmp_path, "observable",
                  {"potential": {"kind": "direct", "a": 0.01}, "cutoff_m": 1,
                   "observable": {"kind": "csv", "path": str(bad)}})
    assert code == 3


def test_oracle_pass_and_breach(tmp_path):
    body = {"potential": {"kind": "direct", "a": 0.05}, "cutoff_m": 1,
            "oracle": {"pairs": 2, "n_max": 10}}
    code, text = run(tmp_path, "oracle", body)
    assert code == 0
    _, _, rows = parse_csv(text)
    assert len(rows) == 5
    assert all(r["status"] == "pass" for r in rows)
    checks = {r["check"] for r in rows}
    assert {"mgf_1pair_vs_closed", "mgf_2pair_vs_closed", "bch_defect",
            "bogoliubov_action_defect"} <= checks
    # every MGF row names the truncation estimate of its oracle run
    mgf_rows = {r["check"]: r for r in rows if r["check"].startswith("mgf_")}
    assert len(mgf_rows) == 3
    for r in mgf_rows.values():
        assert r["detail"].startswith("lambda=")
        assert 0.0 <= float(r["detail"].split(";truncation=")[1]) <= 1e-6
    trunc = mgf_rows["mgf_1pair_truncation"]
    assert float(trunc["detail"].split(";truncation=")[1]) == pytest.approx(
        float(trunc["value"]), rel=1e-2)

    # strong coupling with a starved 2-pair space: truncation breaches
    breach = {"potential": {"kind": "direct", "a": 2.0}, "cutoff_m": 1,
              "oracle": {"pairs": 2, "n_max": 4}}
    code, text = run(tmp_path, "oracle", breach, out_name="breach.txt")
    assert code == 4
    assert text is not None  # report still written before the breach exit
    _, _, rows = parse_csv(text)
    assert any(r["status"] == "FAIL" for r in rows)


def test_oracle_deep_one_pair_space_passes(tmp_path, monkeypatch):
    # README square well, one pair at n_max = 30, seed 0: a dense
    # eigendecomposition of dGamma(O) leaked about 4e-8 between number
    # sectors here and breached the 1e-8 tolerance; the exact defect is zero
    body = {"potential": {"kind": "square_well", "v": 1.0, "radius": 0.1},
            "cutoff_m": 10, "oracle": {"pairs": 1, "n_max": 30}}
    calls = []
    # cmd_oracle imports mgf_oracle from fockoracle when it runs
    monkeypatch.setattr(fockoracle, "mgf_oracle",
                        lambda *a, **kw: calls.append(a) or mgf_oracle(*a, **kw))
    code, text = run(tmp_path, "oracle", body, seed=0)
    assert code == 0
    _, _, rows = parse_csv(text)
    assert all(r["status"] == "pass" for r in rows)
    (bch,) = [r for r in rows if r["check"] == "bch_defect"]
    assert float(bch["value"]) <= 1e-10
    # the requested space is the one-pair MGF space: one MGF run, one row each
    checks = [r["check"] for r in rows]
    assert len(checks) == len(set(checks)) == 4
    assert len(calls) == 1


def test_oracle_one_pair_shallow_space_names_each_check_once(tmp_path):
    body = {"potential": {"kind": "direct", "a": 0.05}, "cutoff_m": 1,
            "oracle": {"pairs": 1, "n_max": 10}}
    code, text = run(tmp_path, "oracle", body)
    assert code == 0
    _, _, rows = parse_csv(text)
    assert [r["check"] for r in rows] == [
        "mgf_1pair_vs_closed", "mgf_1pair_truncation", "bch_defect",
        "bogoliubov_action_defect"]
    assert all(r["status"] == "pass" for r in rows)


def test_config_error_paths(tmp_path):
    out = tmp_path / "x.txt"
    assert main(["genfun", "--config", str(tmp_path / "nope.json"),
                 "--out", str(out)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["genfun", "--config", str(bad), "--out", str(out)]) == 2
    bad.write_bytes(b'\xff\xfe{"cutoff_m": 1}')  # a UTF-16 mark, then no UTF-16
    assert main(["genfun", "--config", str(bad), "--out", str(out)]) == 2
    for broken in (
        {"cutoff_m": 0},
        {"cutoff_m": 2, "potential": {"kind": "yukawa"}},
        {"cutoff_m": 2, "convention": "mks"},
        {"cutoff_m": 2, "lambda_grid": {"min": 1.0, "max": -1.0, "count": 3}},
        {"cutoff_m": 2, "output": {"format": "parquet"}},
        {"cutoff_m": 2, "oracle": {"pairs": 2}},
    ):
        code, _ = run(tmp_path, "genfun", broken)
        assert code == 2, broken


@pytest.mark.parametrize("change", [
    {"output": "json"},
    {"quadrature": [1]},
    {"seed": "x"},
    {"observable": {"kind": "random", "pairs": "x"}},
    {"potential": {"kind": "direct", "a": -0.01}},
    {"potential": {"kind": "direct", "a": math.nan}},
    {"cutoff_m": 2.7},
    {"cutoff_m": True},
    {"lambda_grid": {"min": math.nan, "max": 0.5, "count": 3}},
    {"observable": {"kind": "csv", "path": 7}},
    {"output": {"path": 5}},
    {"observable": {"kind": "random", "ensemble": "ginibre"}},
    {"quadrature": {"tol": 0}},
    {"quadrature": {"tol": -1e-10}},
    {"quadrature": {"max_panels": 0}},
    {"quadrature": {"max_panels": 200}},
], ids=["output-not-object", "quadrature-not-object", "seed-string",
        "pairs-string", "negative-a", "nan-a", "fractional-cutoff",
        "bool-cutoff", "nan-grid-min", "int-csv-path", "int-output-path",
        "unknown-ensemble", "zero-tol", "negative-tol", "zero-panels",
        "max-panels-key"])
def test_mistyped_config_exits_2(tmp_path, capsys, change):
    code, text = run(tmp_path, "genfun", dict(BASE, **change))
    assert code == 2 and text is None
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


@pytest.mark.parametrize("cutoff_m", [cli._CUTOFF_M_CAP + 1, 400])
def test_cutoff_above_cap_exits_2(tmp_path, capsys, cutoff_m):
    # refused in parse_config, before the cube is allocated
    code, text = run(tmp_path, "moments", dict(BASE, cutoff_m=cutoff_m))
    assert code == 2 and text is None
    err = capsys.readouterr().err
    assert err.startswith("config error: cutoff_m") and err.count("\n") == 1


def test_observable_checks_the_neumann_slope(tmp_path, capsys, monkeypatch):
    body = {"potential": {"kind": "direct", "a": 0.05}, "cutoff_m": 1,
            "observable": {"kind": "random", "pairs": 2, "seed": 7},
            "lambda_grid": {"min": -0.3, "max": 0.3, "count": 3}}
    code, text = run(tmp_path, "observable", body)
    assert code == 0
    meta, _, _ = parse_csv(text)
    assert 0.0 <= float(meta["slope_gap"]) <= 1e-12
    # a determinant slope off by more than 1e-8 is a domain failure
    real = cli.log_mgf_det
    monkeypatch.setattr(cli, "log_mgf_det",
                        lambda *args: (real(*args)[0], real(*args)[1] + 2e-8))
    code, _ = run(tmp_path, "observable", body, out_name="bad.txt")
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("domain error: Neumann slope disagrees") and err.count("\n") == 1


def test_unexpected_exception_exits_5(tmp_path, capsys, monkeypatch):
    def broken(cfg):
        raise KeyError("lost")

    monkeypatch.setitem(cli._COMMANDS, "moments", broken)
    code, text = run(tmp_path, "moments", BASE)
    err = capsys.readouterr().err
    assert code == 5 and text is None
    assert err == "internal error: KeyError: 'lost'\n"
    assert "Traceback" not in err

    def interrupted(cfg):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli._COMMANDS, "moments", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run(tmp_path, "moments", BASE)


# The README config at cutoff_m = 2, mutated below.
README_CONFIG = {
    "potential": {"kind": "square_well", "v": 1.0, "radius": 0.1},
    "convention": "paper",
    "cutoff_m": 2,
    "lambda_grid": {"min": -0.5, "max": 0.5, "count": 11},
    "observable": {"kind": "random", "pairs": 2, "seed": 7},
    "oracle": {"pairs": 2, "n_max": 10},
    "output": {"format": "csv"},
}
_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-10**30, 10**30) | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8)
_OUT_OF_RANGE = st.sampled_from([-1, 0, -1e-300, 5e-324, 1e-300, 1e300, 1e308,
                                 -1e308, 2**63, 10**400])


@st.composite
def mutated_configs(draw):
    cfg = copy.deepcopy(README_CONFIG)
    for _ in range(draw(st.integers(1, 3))):
        paths = [(key,) for key in cfg]
        paths += [(key, sub) for key, val in cfg.items() if isinstance(val, dict)
                  for sub in val]
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = cfg if len(path) == 1 else cfg[path[0]]
        op = draw(st.sampled_from(["delete", "junk", "number"]))
        if op == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(_JUNK if op == "junk" else _OUT_OF_RANGE)
    cut = cfg.get("cutoff_m")
    if isinstance(cut, int) and not isinstance(cut, bool) and cut > 2:
        cfg["cutoff_m"] = 2  # keep the cube small
    return cfg


# A numpy warning would print on stderr outside pytest, so each one counts as
# a stderr line.
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=mutated_configs())
def test_config_fuzz_never_exits_5(tmp_path, capsys, cfg):
    for command in ("scattering", "moments"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _ = run(tmp_path, command, cfg)
        err = capsys.readouterr().err
        assert code in (0, 2, 3), (command, code, err)
        assert err.count("\n") + len(caught) <= 1, (command, err, caught)


def test_byte_identical_reruns(tmp_path):
    body = dict(BASE, lambda_grid={"min": -1.0, "max": 1.0, "count": 5})
    _, first = run(tmp_path, "genfun", body, out_name="a.txt")
    _, second = run(tmp_path, "genfun", body, out_name="b.txt")
    assert first == second

    obs = {"potential": {"kind": "direct", "a": 0.05}, "cutoff_m": 1,
           "observable": {"kind": "random", "pairs": 2, "seed": 7},
           "lambda_grid": {"min": -0.3, "max": 0.3, "count": 3},
           "output": {"format": "json"}}
    _, j1 = run(tmp_path, "observable", obs, out_name="j1.json")
    _, j2 = run(tmp_path, "observable", obs, out_name="j2.json")
    assert j1 == j2


def test_seventeen_digit_floats(tmp_path):
    code, text = run(tmp_path, "genfun",
                     dict(BASE, lambda_grid={"min": 0.7, "max": 0.7, "count": 1}))
    assert code == 0
    _, _, rows = parse_csv(text)
    # round trip through the printed representation is exact
    val = float(rows[0]["log_mgf_closed"])
    assert f"{val:.17g}" == rows[0]["log_mgf_closed"]


# Run in a fresh interpreter: no command loads scipy, the quadrature of
# genfun, the identity observable and the Fock exponentials of oracle
# included; scipy is a test dependency only.
_SCIPY_PROBE = """
import json, sys
from bose_genfun.cli import main
cfg, identity, out = sys.argv[1], sys.argv[2], sys.argv[3]
run = lambda cmd, path=cfg: main([cmd, "--config", path, "--out", out])
codes = {cmd: run(cmd) for cmd in ("moments", "tails", "scattering",
                                   "observable", "genfun", "oracle")}
codes["identity"] = run("observable", identity)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_no_command_loads_scipy(tmp_path):
    cfg = write_cfg(tmp_path, README_CONFIG)
    identity = write_cfg(tmp_path, dict(README_CONFIG,
                                        observable={"kind": "identity"}),
                         name="identity.json")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, cfg, identity,
         str(tmp_path / "out.txt")],
        capture_output=True, text=True, env=env, check=True, timeout=120)
    got = json.loads(proc.stdout)
    assert got["codes"] == dict.fromkeys(
        ("moments", "tails", "scattering", "observable", "genfun", "identity",
         "oracle"), 0)
    assert got["loaded"] == []
