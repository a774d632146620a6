"""Command-line front end: JSON config in, CSV/JSON tables out.

Outputs are deterministic given (config, seed): no timestamps, floats
printed with 17 significant digits, files written atomically.  Exit codes:
0 success, 2 config error, 3 domain error (lambda outside the admissible
interval or a quadrature/domain failure), 4 oracle tolerance breach, 5 any
other exception; each failure prints one stderr line, no traceback.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import __version__
from . import tails as tailsmod
from .genfun import (QuadratureStats, cumulants, fourth_central_printed_combination,
                     log_mgf_closed, log_mgf_grid)
from .lattice import build_lattice, lattice_from_vectors
from .observable import (NotContracting, log_mgf_det, observable_from_csv,
                         observable_mean, observable_random, solve_F)
from .scattering import PotentialSpec, scattering_length, solve_scattering
from .spectrum import SpectrumKernel, build_kernel, depletion_mean

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_ORACLE = 4
EXIT_INTERNAL = 5

_CSV_OBS_MODE_CAP = 64
# The largest cube a config may ask for: (2*100 + 1)^3 - 1 = 8.1 M modes,
# where `moments` already peaks near 1.4 GiB.  Memory grows as cutoff_m^3,
# so a larger cutoff is refused before anything is allocated.
_CUTOFF_M_CAP = 100
_DESK_VECTORS = {1: [(1, 0, 0)], 2: [(1, 0, 0), (0, 1, 0)]}


class ConfigError(Exception):
    pass


class OracleBreach(Exception):
    pass


@dataclass
class RunConfig:
    potential: PotentialSpec
    convention: str
    cutoff_m: int
    lambda_min: float
    lambda_max: float
    lambda_count: int
    quad_tol: float
    observable: dict
    oracle: dict | None
    output_format: str
    output_path: str | None
    n_list: list | None
    seed: int
    sha256: str


def _int(value, name: str) -> int:
    """A config integer: a JSON integer, not a bool or a float."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer (got {value!r})")
    return value


def _float(value, name: str) -> float:
    """A config number: a finite JSON number, not a bool."""
    try:
        finite = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an int past float range
        finite = False
    if not finite:
        raise ConfigError(f"{name} must be a finite number (got {value!r})")
    return float(value)


def _path(value, name: str):
    """A config path: a JSON string, or None when absent."""
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"{name} must be a string (got {value!r})")
    return value


def _section(raw: dict, key: str, default):
    """A config section: a JSON object, or the default when absent (None
    marks an optional section)."""
    value = raw.get(key, default)
    if value is None and default is None:
        return None
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be an object")
    return value


_POTENTIAL_FIELDS = {"zero": (), "square_well": ("v", "radius"),
                     "gaussian_truncated": ("v", "width", "radius"),
                     "direct": ("a",)}


def _parse_potential(raw) -> PotentialSpec:
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ConfigError("potential must be an object with a 'kind'")
    kind = raw["kind"]
    if not isinstance(kind, str) or kind not in _POTENTIAL_FIELDS:
        raise ConfigError(f"unknown potential kind {kind!r}")
    params = {key: _float(raw.get(key), f"potential.{key}")
              for key in _POTENTIAL_FIELDS[kind]}
    try:
        return PotentialSpec(kind=kind, **params)
    except ValueError as exc:
        raise ConfigError(f"bad potential parameters: {exc}") from exc


def parse_config(args: argparse.Namespace) -> RunConfig:
    """The config file args.config, with the command-line overrides
    --seed, --out and (tails only) --n-list applied."""
    try:
        with open(args.config, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    sha = hashlib.sha256(blob).hexdigest()
    try:
        raw = json.loads(blob)
    except ValueError as exc:  # JSONDecodeError, or bytes that decode to no text
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")

    potential = _parse_potential(raw.get("potential", {"kind": "zero"}))
    convention = raw.get("convention", "paper")
    if convention not in ("paper", "standard"):
        raise ConfigError(f"convention must be 'paper' or 'standard', got {convention!r}")
    cutoff_m = _int(raw.get("cutoff_m"), "cutoff_m")
    if not 1 <= cutoff_m <= _CUTOFF_M_CAP:
        raise ConfigError(f"cutoff_m must be in 1..{_CUTOFF_M_CAP} (got {cutoff_m})")

    grid = _section(raw, "lambda_grid", {"min": -0.5, "max": 0.5, "count": 11})
    lmin = _float(grid.get("min"), "lambda_grid.min")
    lmax = _float(grid.get("max"), "lambda_grid.max")
    count = _int(grid.get("count"), "lambda_grid.count")
    if not 1 <= count <= 100_000 or lmax < lmin:
        raise ConfigError("lambda_grid needs 1 <= count <= 100000 and max >= min")

    q = _section(raw, "quadrature", {})
    quad_tol = _float(q.get("tol", 1e-10), "quadrature.tol")
    if set(q) - {"tol"} or not quad_tol > 0.0:
        raise ConfigError(f"quadrature takes one positive 'tol' (got {q!r})")

    obs = _section(raw, "observable", {"kind": "none"})
    if obs.get("kind") not in ("none", "identity", "csv", "random"):
        raise ConfigError("observable.kind must be none|identity|csv|random")
    if obs["kind"] == "csv" and not _path(obs.get("path"), "observable.path"):
        raise ConfigError("observable.kind=csv requires a 'path'")
    if obs.get("ensemble", "real-parity") not in ("real-parity", "hermitian"):
        raise ConfigError("observable.ensemble must be real-parity|hermitian")
    obs = dict(obs, pairs=_int(obs.get("pairs", 2), "observable.pairs"))
    if obs["kind"] == "random" and obs["pairs"] not in (1, 2):
        raise ConfigError("observable.random supports pairs in {1, 2}")
    if "seed" in obs:
        _int(obs["seed"], "observable.seed")

    oracle = _section(raw, "oracle", None)
    if oracle is not None:
        oracle = {key: _int(oracle.get(key), f"oracle.{key}")
                  for key in ("pairs", "n_max")}

    out = _section(raw, "output", {})
    fmt = out.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError("output.format must be csv or json")
    out_path = _path(out.get("path"), "output.path")
    if args.out is not None:
        out_path = args.out

    n_list = raw.get("n_list")
    if getattr(args, "n_list", None) is not None:
        try:
            n_list = [float(x) for x in args.n_list.split(",")]
        except ValueError as exc:
            raise ConfigError(f"--n-list must be comma-separated numbers: {exc}") from exc
    if n_list is not None:
        if not isinstance(n_list, list):
            raise ConfigError("n_list must be a list of numbers")
        n_list = [_float(x, "n_list entry") for x in n_list]

    seed = _int(raw.get("seed", 0), "seed")
    if args.seed is not None:
        seed = args.seed
    return RunConfig(potential=potential, convention=convention, cutoff_m=cutoff_m,
                     lambda_min=lmin, lambda_max=lmax, lambda_count=count,
                     quad_tol=quad_tol, observable=obs, oracle=oracle,
                     output_format=fmt, output_path=out_path, n_list=n_list,
                     seed=seed, sha256=sha)


def _a16pi(cfg: RunConfig) -> float:
    """potential -> effective scattering quantity a_eff -> 16 pi a_eff."""
    return 16.0 * math.pi * scattering_length(cfg.potential, convention=cfg.convention)


def _cube_kernel(cfg: RunConfig) -> SpectrumKernel:
    return build_kernel(build_lattice(cfg.cutoff_m), _a16pi(cfg))


def _desk_kernel(pairs: int, a16pi: float) -> SpectrumKernel:
    return build_kernel(lattice_from_vectors(_DESK_VECTORS[pairs]), a16pi)


def _lambda_grid(cfg: RunConfig, limit: float, warnings: list) -> np.ndarray:
    """The config grid, clipped to |lambda| < limit less a 1e-9 relative
    margin (an infinite limit keeps every point)."""
    lams = np.linspace(cfg.lambda_min, cfg.lambda_max, cfg.lambda_count)
    limit *= 1.0 - 1e-9
    keep = np.abs(lams) < limit
    if not np.all(keep):
        warnings.append(f"lambda grid clipped to (+-{limit:.9g}): "
                        f"dropped {int(np.sum(~keep))} of {lams.size} points")
    return lams[keep]


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _render(cfg: RunConfig, command: str, columns: list, rows: list,
            extra_meta: dict, warnings: list) -> str:
    meta = {"version": __version__, "command": command,
            "config_sha256": cfg.sha256, "seed": cfg.seed,
            "convention": cfg.convention, "cutoff_m": cfg.cutoff_m}
    meta.update(extra_meta)
    meta["warnings"] = warnings
    if cfg.output_format == "json":
        body = {"meta": meta,
                "rows": [dict(zip(columns, row)) for row in rows]}
        return json.dumps(body, indent=2) + "\n"
    lines = []
    for key, val in meta.items():
        if key == "warnings":
            lines.append(f"# warnings={'|'.join(val)}")
        else:
            lines.append(f"# {key}={_fmt(val)}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    return "\n".join(lines) + "\n"


def _write_atomic(path: str, text: str) -> None:
    target = os.path.abspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".tmp-out-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(cfg, command, columns, rows, extra_meta, warnings) -> None:
    text = _render(cfg, command, columns, rows, extra_meta, warnings)
    if cfg.output_path:
        _write_atomic(cfg.output_path, text)
    else:
        sys.stdout.write(text)


def cmd_scattering(cfg: RunConfig) -> int:
    pot = cfg.potential
    if pot.kind in ("zero", "direct"):
        a_eff = scattering_length(pot, convention=cfg.convention)
        row = [pot.kind, a_eff, a_eff, a_eff, 0.0]
    else:  # the solve scattering_length runs, kept for its other columns
        sol = solve_scattering(pot)
        a_eff = sol.length(cfg.convention)
        row = [pot.kind, sol.a_std, sol.a_paper, a_eff, sol.residual]
    a16pi = 16.0 * math.pi * a_eff
    # |nu_p| decreases with |p|^2 and every cube holds the |n|^2 = 1 shell,
    # so the one-pair lattice {+-(1,0,0)} has the cube's lambda0 bit for bit
    _emit(cfg, "scattering",
          ["kind", "a_std", "a_paper", "a_effective", "residual"], [row],
          {"lambda0": _desk_kernel(1, a16pi).lambda0, "a16pi": a16pi}, [])
    return EXIT_OK


def _scalar_grid(cfg: RunConfig, k: SpectrumKernel,
                 warnings: list) -> tuple[list, dict]:
    """(lambda, quadrature Lambda, closed-form Lambda) on the clipped grid,
    and the meta lines quad_evals and quad_abserr_max of its quadrature."""
    lams = _lambda_grid(cfg, k.lambda0, warnings)
    stats = QuadratureStats()
    quad = log_mgf_grid(k, lams, cfg.quad_tol, stats)
    rows = [(float(lam), float(qv), log_mgf_closed(k, float(lam)))
            for lam, qv in zip(lams, quad)]
    return rows, {"quad_evals": stats.evals,
                  "quad_abserr_max": stats.abserr_max}


def cmd_genfun(cfg: RunConfig) -> int:
    warnings: list = []
    k = _cube_kernel(cfg)
    grid, quad_meta = _scalar_grid(cfg, k, warnings)
    rows = [[lam, qv, cv, abs(qv - cv), math.exp(cv)] for lam, qv, cv in grid]
    _emit(cfg, "genfun",
          ["lambda", "log_mgf_quadrature", "log_mgf_closed", "abs_diff", "mgf"],
          rows, {"lambda0": k.lambda0, "a16pi": k.a16pi, **quad_meta}, warnings)
    return EXIT_OK


def cmd_moments(cfg: RunConfig) -> int:
    k = _cube_kernel(cfg)
    cum = cumulants(k, 4)
    mu, var = cum.kappa[1], cum.kappa[2]
    c3, c4 = cum.central[3], cum.central[4]
    printed = fourth_central_printed_combination(k, var)
    row = [mu, var, c3, c4, printed, abs(c4 - printed),
           "yes" if abs(c4 - printed) > 1e-10 * max(1.0, abs(c4)) else "no"]
    _emit(cfg, "moments",
          ["mean", "variance", "central3", "central4",
           "printed_fourth_combination", "printed_discrepancy",
           "printed_disagrees"],
          [row], {"lambda0": k.lambda0, "a16pi": k.a16pi}, [])
    return EXIT_OK


def cmd_tails(cfg: RunConfig) -> int:
    warnings: list = []
    k = _cube_kernel(cfg)
    cum = cumulants(k, 4)  # mu, sigma^2 and the witness's E4 in one engine call
    mu, var = float(cum.kappa[1]), float(cum.kappa[2])
    sigma = math.sqrt(var)
    ns = cfg.n_list
    if ns is None:
        ns = [mu + j * sigma for j in range(4)]
    columns = ["bound_type", "n", "lambda_star", "exponent", "bound",
               "m", "epsilon", "second_moment", "fourth_moment", "note"]
    rows, engine_calls = [], 0
    for n in ns:
        chernoff = tailsmod.chernoff_bound(k, float(n), mu)
        engine_calls = max(engine_calls, chernoff.engine_calls)
        for b, label in ((chernoff, "chernoff"),
                         (tailsmod.quadratic_bound(k, float(n), mu, var), "quadratic")):
            rows.append([label, b.n, b.lambda_star, b.exponent, b.bound,
                         "", "", "", "", b.note])
    if sigma > 0.0:
        wit = tailsmod.nonconcentration_witness(var, cum.central[4])
        rows.append(["witness", wit.n, "", "", "", wit.m, wit.epsilon,
                     wit.second_moment, wit.fourth_moment, ""])
    else:
        warnings.append("witness skipped: zero-variance depletion")
    _emit(cfg, "tails", columns, rows,
          {"lambda0": k.lambda0, "a16pi": k.a16pi, "mean": mu,
           "sigma": sigma, "chernoff_engine_calls_max": engine_calls}, warnings)
    return EXIT_OK


def cmd_observable(cfg: RunConfig) -> int:
    warnings: list = []
    kind = cfg.observable["kind"]
    columns = ["lambda", "log_mgf_o", "mean_o", "contraction_bound",
               "fp_residual", "symmetry_residual", "exchange_residual"]
    rows = []

    if kind == "none":
        raise ConfigError("the observable command needs observable.kind != none")

    if kind == "identity":
        # O = 1 on the full lattice: Lambda_O is genfun's scalar Lambda, by
        # quadrature, checked against the closed form at every grid point
        k = _cube_kernel(cfg)
        mu_o = depletion_mean(k)
        grid, quad_meta = _scalar_grid(cfg, k, warnings)
        for lam, qv, cv in grid:
            if abs(qv - cv) > 1e-8 * abs(cv):
                raise ArithmeticError(f"quadrature disagrees with the closed "
                                      f"form at lambda={lam:.9g}")
            rows.append([lam, qv, mu_o, 0.0, abs(qv - cv), 0.0, 0.0])
        _emit(cfg, "observable", columns, rows,
              {"lambda0": k.lambda0, "a16pi": k.a16pi, "observable": "identity",
               **quad_meta}, warnings)
        return EXIT_OK

    if kind == "random":
        work_k = _desk_kernel(cfg.observable["pairs"], _a16pi(cfg))
        seed = cfg.observable.get("seed", cfg.seed)
        ensemble = cfg.observable.get("ensemble", "real-parity")
        obs = observable_random(work_k.lattice, seed, ensemble=ensemble)
    else:  # csv
        modes = (2 * cfg.cutoff_m + 1) ** 3 - 1
        if modes > _CSV_OBS_MODE_CAP:
            raise ConfigError(f"csv observables need <= {_CSV_OBS_MODE_CAP} modes "
                              f"(cutoff_m={cfg.cutoff_m} gives {modes})")
        work_k = _cube_kernel(cfg)
        obs = observable_from_csv(work_k.lattice, cfg.observable["path"])

    # one fixed point per nonzero lambda gives the contraction bound q, the
    # residual columns and a Neumann slope that must match the Gaussian
    # determinant's; a row whose q is not below one is dropped
    lams = _lambda_grid(cfg, work_k.lambda0, warnings)
    solved = []  # (lambda, its fixed point; None at lambda = 0)
    for lam in lams:
        try:
            solved.append((lam, solve_F(work_k, obs, float(lam)) if lam else None))
        except NotContracting:
            pass
    if len(solved) < lams.size:
        warnings.append(f"fixed-point bound q >= 1: dropped "
                        f"{lams.size - len(solved)} of {lams.size} points")
    kept = np.array([lam for lam, _ in solved])
    mu_o = observable_mean(work_k, obs)
    weight = np.outer(work_k.s, work_k.c) * obs.o
    slope_gap = 0.0
    for (lam, sol), val, slope in zip(solved, *log_mgf_det(work_k, obs, kept)):
        res = (0.0, 0.0, 0.0, 0.0)
        if sol is not None:
            gap = (abs(float(np.sum(weight * sol.F).real) + mu_o - slope)
                   / max(1.0, abs(slope)))
            if gap > 1e-8:
                raise ArithmeticError(f"Neumann slope disagrees with the "
                                      f"determinant at lambda={lam:.9g}")
            slope_gap = max(slope_gap, gap)
            res = (sol.bound, sol.residual, sol.symmetry_residual, sol.exchange_residual)
        rows.append([float(lam), float(val), mu_o, *res])
    iterations = max((sol.iterations for _, sol in solved if sol), default=0)
    _emit(cfg, "observable", columns, rows,
          {"lambda0": work_k.lambda0, "a16pi": work_k.a16pi, "observable": kind,
           "slope_gap": slope_gap, "neumann_iterations_max": iterations}, warnings)
    return EXIT_OK


def cmd_oracle(cfg: RunConfig) -> int:
    # only this command uses the Fock oracle, so only it imports the module
    from .fockoracle import (bch_check, bogoliubov_action_defect, build_space,
                             mgf_oracle)

    if cfg.oracle is None:
        raise ConfigError("the oracle command needs an 'oracle' config section")
    try:
        pairs, n_max = cfg.oracle["pairs"], cfg.oracle["n_max"]
        space = build_space(pairs, n_max)
        # the 1-pair diagnostics (BCH / generator action) need enough shells
        # for their 1e-8 tolerances; dim stays tiny for a single pair
        n1 = min(max(n_max, 20), 30)
        space1 = space if (pairs, n_max) == (1, n1) else build_space(1, n1)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    a16pi = _a16pi(cfg)
    dk = _desk_kernel(pairs, a16pi)
    dk1 = dk if pairs == 1 else _desk_kernel(1, a16pi)
    nu_by_pair = [float(dk.nu[i]) for i, _ in dk.lattice.pairs]
    nu1 = [float(dk1.nu[i]) for i, _ in dk1.lattice.pairs]
    lam = 0.25 * min(dk.lambda0, 2.0)

    rows = []
    breach = False

    def record(check: str, value: float, tol: float, detail: str = "") -> None:
        nonlocal breach
        ok = value <= tol
        breach = breach or not ok
        rows.append([check, value, tol, "pass" if ok else "FAIL", detail])

    try:
        # a one-pair request is itself the one-pair MGF space: one MGF check
        mg1 = mgf_oracle(space if pairs == 1 else space1, nu1, np.eye(2), lam)
        closed1 = log_mgf_closed(dk1, lam)
        detail1 = f"lambda={lam:.6g};truncation={mg1.truncation_estimate:.3g}"
        record("mgf_1pair_vs_closed", abs(math.log(mg1.value) - closed1),
               max(1e-10, 10.0 * mg1.truncation_estimate), detail1)
        record("mgf_1pair_truncation", mg1.truncation_estimate, 1e-6, detail1)

        if pairs == 2:
            mg = mgf_oracle(space, nu_by_pair, np.eye(4), lam)
            closed = log_mgf_closed(dk, lam)
            record("mgf_2pair_vs_closed", abs(math.log(mg.value) - closed),
                   max(1e-8, 10.0 * mg.truncation_estimate),
                   f"lambda={lam:.6g};truncation={mg.truncation_estimate:.3g}")

        rng = np.random.default_rng(cfg.seed)
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = 0.5 * (h + h.conj().T)
        # |O| <= 1 keeps the double exponential well-conditioned in float64;
        # at |O| ~ 1 and high occupation the conjugation product amplifies
        # rounding as e^{2 occ |O|} and the measurement loses meaning
        h *= 0.25 / np.linalg.norm(h, 2)
        record("bch_defect", bch_check(space1, h, 0), 1e-8,
               f"n_max={space1.n_max};norm=0.25")
        record("bogoliubov_action_defect",
               bogoliubov_action_defect(space1, nu1, 0), 1e-8,
               f"occupation<= {space1.n_max // 2}")
    except ValueError as exc:
        rows.append(["oracle_failure", math.inf, 0.0, "FAIL", str(exc)])
        breach = True

    _emit(cfg, "oracle", ["check", "value", "tolerance", "status", "detail"],
          rows, {"lambda0": dk.lambda0, "a16pi": a16pi,
                 "oracle_pairs": pairs, "oracle_n_max": n_max}, [])
    if breach:
        raise OracleBreach("oracle validation breached tolerance")
    return EXIT_OK


_COMMANDS = {
    "scattering": cmd_scattering,
    "genfun": cmd_genfun,
    "moments": cmd_moments,
    "tails": cmd_tails,
    "observable": cmd_observable,
    "oracle": cmd_oracle,
}


def _fail(kind: str, exc: Exception, code: int) -> int:
    """Print '<kind>: <message>' as one stderr line and return the exit code."""
    print(f"{kind}: {' '.join(str(exc).split())}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bose-genfun",
        description="Quantum-depletion generating functions, tail bounds, "
                    "and Fock-space validation tables.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        if name == "tails":
            p.add_argument("--n-list", default=None,
                           help="comma-separated thresholds overriding config")
    args = parser.parse_args(argv)

    try:
        return _COMMANDS[args.command](parse_config(args))
    except ConfigError as exc:
        return _fail("config error", exc, EXIT_CONFIG)
    except OracleBreach as exc:
        return _fail("oracle breach", exc, EXIT_ORACLE)
    except (ValueError, ArithmeticError) as exc:
        return _fail("domain error", exc, EXIT_DOMAIN)
    except Exception as exc:  # the boundary: a defect, reported in one line
        return _fail(f"internal error: {type(exc).__name__}", exc, EXIT_INTERNAL)


if __name__ == "__main__":
    sys.exit(main())
