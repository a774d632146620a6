"""The three benchmark workloads: config generators and correctness checks.

Each workload is a job shape: the CLI reports a user makes for one config.
Config i of a run is drawn from its own stream seeded by (run seed,
workload, i), so the same seed gives the same inputs however many jobs a
run reaches.  Checks compare the written reports with references the
benchmark computes itself (``reference.py``), at the tolerances the
package's own tests use.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from reference import Shells, ShellStats, square_well_a_std

GRID = np.linspace(-0.5, 0.5, 101)
README_GRID = {"min": -0.5, "max": 0.5, "count": 11}


@dataclass(frozen=True)
class Workload:
    name: str
    index: int
    why: str
    commands: tuple
    sizes: dict
    draw: Callable  # (rng) -> config dict
    check: Callable  # (config, {command: report text}) -> list of failures
    tiny: dict  # untimed warm-up config exercising the same commands

    def config(self, seed: int, i: int) -> dict:
        return self.draw(np.random.default_rng([seed, self.index, i]))


def parse_report(text: str) -> tuple[dict, list]:
    """Split a CSV report into its '# key=value' meta and its rows."""
    meta, body = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition("=")
            meta[key] = val
        else:
            body.append(line)
    return meta, list(csv.DictReader(body))


def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


class _Failures(list):
    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.append(what)


# --- cube-stats: closed-form scalar path on the full cube --------------------

CUBE_M = 12
_cube_shells = Shells(CUBE_M)


def _draw_cube(rng) -> dict:
    return {"potential": {"kind": "direct", "a": float(rng.uniform(0.005, 0.05))},
            "cutoff_m": CUBE_M}


def _check_cube(cfg: dict, reports: dict) -> list:
    bad = _Failures()
    ref = ShellStats(_cube_shells, 16.0 * math.pi * cfg["potential"]["a"])
    mu, var, e4 = ref.mean, ref.variance, ref.central4
    _, rows = parse_report(reports["moments"])
    row = rows[0]
    bad.expect(_rel(float(row["mean"]), mu) <= 1e-10, f"moments mean {row['mean']} vs {mu!r}")
    bad.expect(_rel(float(row["variance"]), var) <= 1e-10,
               f"moments variance {row['variance']} vs {var!r}")
    bad.expect(abs(float(row["central4"]) - e4) <= 1e-8 * max(1.0, abs(e4)),
               f"moments central4 {row['central4']} vs {e4!r}")

    meta, rows = parse_report(reports["tails"])
    bad.expect(_rel(float(meta["mean"]), mu) <= 1e-10, "tails meta mean")
    bad.expect(_rel(float(meta["sigma"]) ** 2, var) <= 1e-10, "tails meta sigma")
    bad.expect(len(rows) == 9, f"tails has {len(rows)} rows, expected 9")
    for row in rows:
        if row["bound_type"] == "chernoff":
            want = max(ref.chernoff_exponent(float(row["n"])), 0.0)
            bad.expect(abs(float(row["exponent"]) - want) <= 1e-8,
                       f"chernoff exponent at n={row['n']}: {row['exponent']} vs {want!r}")
        elif row["bound_type"] == "witness":
            bad.expect(abs(float(row["fourth_moment"]) - e4) <= 1e-8 * max(1.0, abs(e4)),
                       "witness fourth moment")
            bad.expect(_rel(float(row["second_moment"]), var) <= 1e-10,
                       "witness second moment")
    return bad


# --- lambda-grid: quadrature of the integrand on a 101-point grid ------------

GRID_M = 10
_grid_shells = Shells(GRID_M)


def _draw_grid(rng) -> dict:
    return {"potential": {"kind": "gaussian_truncated",
                          "v": float(rng.uniform(0.5, 2.0)),
                          "width": float(rng.uniform(0.04, 0.06)),
                          "radius": float(rng.uniform(0.08, 0.12))},
            "cutoff_m": GRID_M,
            "lambda_grid": {"min": -0.5, "max": 0.5, "count": 101}}


def _check_grid(cfg: dict, reports: dict) -> list:
    bad = _Failures()
    meta, rows = parse_report(reports["genfun"])
    # the truncated Gaussian has no closed-form scattering length, so the
    # coupling is taken from the report and everything downstream is checked
    ref = ShellStats(_grid_shells, float(meta["a16pi"]))
    bad.expect(_rel(float(meta["lambda0"]), ref.lambda0) <= 1e-12, "genfun lambda0")
    bad.expect(len(rows) == GRID.size, f"genfun has {len(rows)} rows, expected {GRID.size}")
    if len(rows) != GRID.size:
        return bad
    lams = np.array([float(r["lambda"]) for r in rows])
    bad.expect(bool(np.all(lams == GRID)), "genfun lambda column is not the config grid")
    want = ref.log_mgf(lams)
    for row, w in zip(rows, want):
        closed, quad = float(row["log_mgf_closed"]), float(row["log_mgf_quadrature"])
        bad.expect(float(row["abs_diff"]) <= 1e-8 and abs(quad - closed) <= 1e-8,
                   f"genfun abs_diff {row['abs_diff']} at lambda={row['lambda']}")
        bad.expect(abs(closed - w) <= 1e-12 * max(1.0, abs(w)),
                   f"genfun closed form {closed!r} vs shell sum {w!r} at lambda={row['lambda']}")
    return bad


# --- desk-observable: the README-shaped desk-scale reports ------------------

def _draw_desk(rng) -> dict:
    return {"potential": {"kind": "square_well", "v": float(rng.uniform(0.5, 2.0)),
                          "radius": float(rng.uniform(0.08, 0.12))},
            "convention": "paper",
            "cutoff_m": 10,
            "lambda_grid": README_GRID,
            "observable": {"kind": "random", "pairs": 2,
                           "seed": int(rng.integers(0, 2 ** 31))},
            "oracle": {"pairs": 2, "n_max": 10},
            "seed": int(rng.integers(0, 2 ** 31))}


def _check_desk(cfg: dict, reports: dict) -> list:
    bad = _Failures()
    pot = cfg["potential"]
    meta, rows = parse_report(reports["scattering"])
    row = rows[0]
    a_std, a_paper = float(row["a_std"]), float(row["a_paper"])
    want = square_well_a_std(pot["v"], pot["radius"])
    bad.expect(_rel(a_std, want) <= 1e-8, f"square-well a_std {a_std!r} vs {want!r}")
    bad.expect(_rel(a_paper, 8.0 * math.pi * a_std) <= 1e-6, "a_paper != 8 pi a_std")
    bad.expect(float(row["residual"]) <= 1e-10, f"scattering residual {row['residual']}")
    bad.expect(_rel(float(meta["a16pi"]), 16.0 * math.pi * a_paper) <= 1e-12,
               "scattering a16pi")

    meta, rows = parse_report(reports["observable"])
    bad.expect(len(rows) == README_GRID["count"] or meta["warnings"] != "",
               f"observable has {len(rows)} rows and no clipping warning")
    for row in rows:
        if float(row["lambda"]) == 0.0:
            bad.expect(float(row["log_mgf_o"]) == 0.0, "observable Lambda(0) != 0")
        else:
            bad.expect(float(row["fp_residual"]) < 1e-10,
                       f"fixed-point residual {row['fp_residual']} at lambda={row['lambda']}")

    _, rows = parse_report(reports["oracle"])
    bad.expect(len(rows) == 5, f"oracle has {len(rows)} rows, expected 5")
    for row in rows:
        bad.expect(row["status"] == "pass", f"oracle check {row['check']}: {row['status']}")
    return bad


WORKLOADS = {w.name: w for w in (
    Workload(
        name="cube-stats", index=0,
        why="moments+tails at cutoff_m=12 (15624 modes, 259 shells), direct "
            "a in [0.005, 0.05]: the closed-form scalar path, no quadrature",
        commands=("moments", "tails"),
        sizes={"cutoff_m": CUBE_M, "modes": _cube_shells.modes,
               "shells": int(_cube_shells.s_values.size),
               "direct_a": [0.005, 0.05]},
        draw=_draw_cube, check=_check_cube,
        tiny={"potential": {"kind": "direct", "a": 0.01}, "cutoff_m": 2}),
    Workload(
        name="lambda-grid", index=1,
        why="genfun on a 101-point lambda grid at cutoff_m=10, truncated-"
            "Gaussian potentials: adaptive quadrature of the integrand plus "
            "the scattering solve",
        commands=("genfun",),
        sizes={"cutoff_m": GRID_M, "modes": _grid_shells.modes,
               "lambda_points": int(GRID.size), "v": [0.5, 2.0],
               "width": [0.04, 0.06], "radius": [0.08, 0.12]},
        draw=_draw_grid, check=_check_grid,
        tiny={"potential": {"kind": "gaussian_truncated", "v": 1.0,
                            "width": 0.05, "radius": 0.1},
              "cutoff_m": 2, "lambda_grid": README_GRID}),
    Workload(
        name="desk-observable", index=2,
        why="scattering+observable+oracle on the README-shaped square-well "
            "config: fixed-point solves, certified domain, RK4 solver, Fock "
            "oracle; the cube only feeds lambda0",
        commands=("scattering", "observable", "oracle"),
        sizes={"cutoff_m": 10, "observable_pairs": 2, "oracle_pairs": 2,
               "oracle_n_max": 10, "lambda_points": README_GRID["count"],
               "v": [0.5, 2.0], "radius": [0.08, 0.12]},
        draw=_draw_desk, check=_check_desk,
        tiny={"potential": {"kind": "square_well", "v": 1.0, "radius": 0.1},
              "cutoff_m": 2, "lambda_grid": README_GRID,
              "observable": {"kind": "random", "pairs": 2, "seed": 7},
              "oracle": {"pairs": 2, "n_max": 10}}),
)}
