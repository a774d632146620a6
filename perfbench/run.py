"""Closed-loop benchmark of the bose-genfun command line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload cube-stats --seed 1 --seconds 30 --trace 0

One process, one client: each job (the CLI reports one generated config
needs, see workloads.py) starts when the previous one has finished, and
the reports of a job are timed together.  The package is imported from the
checkout's ``src/`` and driven through ``bose_genfun.cli.main``.  BLAS is
pinned to one thread.

--trace 0 prints the end-to-end metrics setup_s, job_tail_s and
peak_rss_mib; job_p50_s, jobs_per_s and failed_frac go in the details
line.
--trace 1 alternates untraced and traced jobs on the same configs and
prints per-layer metrics derived from spans (tracing.py); the spans are
written to perfbench/out/.

Every report is checked after the timed loop against references the
benchmark computes itself, and the first job is rerun and must be
byte-identical.  A job that exits nonzero or fails a check counts as
failed.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the line before it holds the
details (environment, per-job times, failures, the tail percentile).
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import bose_genfun.cli; "
                "print(time.perf_counter() - t)")

# Which workload's job time each layer metric should move: job_tail_s, and
# job_p50_s and jobs_per_s in the details line.
LAYER_TARGETS = {
    "lattice": "cube-stats; desk-observable, which builds cubes only for lambda0",
    "spectrum": "cube-stats",
    "genfun": "cube-stats (closed form) and lambda-grid (integrand)",
    "genfun.integrand_discarded_frac": "cube-stats",
    "tails": "cube-stats",
    "observable": "desk-observable",
    "fockoracle": "desk-observable",
    "scattering": "desk-observable and lambda-grid; cube-stats should not move",
    "cli": "all workloads",
}


def fresh_import_seconds() -> float:
    """Median time for a new interpreter to import bose_genfun.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def tail(times: list) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it, but never
    below the 90th (nearest rank).

    Returns (value, percentile, samples beyond).  On a shared host,
    contention can switch the CPU between two speeds in blocks of seconds;
    a lower percentile then flips between the two modes from run to run.
    A run with fewer than 100 jobs reports the 90th, and the sample count
    beyond says how many jobs it rests on.
    """
    xs = sorted(times)
    k = max(len(xs) - 11, math.ceil(0.9 * len(xs)) - 1)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - 1 - k


class Runner:
    """Writes configs, runs one job's reports and keeps their bytes."""

    def __init__(self, cli, workload, seed: int, work: Path):
        self.cli, self.workload, self.seed, self.work = cli, workload, seed, work
        self.configs: dict = {}

    def config(self, i: int) -> Path:
        if i not in self.configs:
            self.configs[i] = self.workload.config(self.seed, i)
        path = self.work / f"cfg-{i}.json"
        path.write_text(json.dumps(self.configs[i], indent=1))
        return path

    def job(self, cfg_path: Path, tag: str) -> tuple[float, dict, str]:
        """Run every report of the workload; (seconds, texts, error)."""
        outs = {c: self.work / f"{c}-{tag}.csv" for c in self.workload.commands}
        error = ""
        start = time.perf_counter()
        try:
            for cmd, out in outs.items():
                code = self.cli.main([cmd, "--config", str(cfg_path), "--out", str(out)])
                if code != 0:
                    error = f"{cmd} exited {code}"
                    break
        except Exception as exc:  # a traceback is a failed job, not a crash
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        texts = {c: p.read_text() for c, p in outs.items() if p.exists()}
        return seconds, texts, error


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    git = "unavailable (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        git = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                git = ref_file.read_text().strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "bose_genfun").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    task_dir = Path("/proc/self/task")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_revision": git,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "blas": blas.get("name", "unknown"),
        "blas_threads_env": {v: os.environ[v] for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "os_threads": len(os.listdir(task_dir)) if task_dir.is_dir() else None,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "bose_genfun" / "cli.py").is_file():
        print(f"perfbench: no package source at {SRC / 'bose_genfun'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    setup_s = fresh_import_seconds()
    import bose_genfun.cli as cli
    if Path(cli.__file__).resolve().parent != (SRC / "bose_genfun").resolve():
        print(f"perfbench: imported {cli.__file__}, not the checkout", file=sys.stderr)
        return 2

    work = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return measure(cli, workload, args, setup_s, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(cli, workload, args, setup_s: float, work: Path) -> int:
    runner = Runner(cli, workload, args.seed, work)
    warm = work / "warm.json"
    warm.write_text(json.dumps(workload.tiny))
    runner.job(warm, "warm")  # first-call costs (lazy imports, page faults)

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()

    # Closed loop: one job at a time until the time is up.
    jobs = []  # (config index, traced, seconds, texts, error)
    loop_start = time.perf_counter()
    deadline = loop_start + args.seconds
    i = 0
    while True:
        cfg_path = runner.config(i)
        order = [False]
        if tracer is not None:
            # alternate which of the pair goes first, so that neither side
            # always meets the warmer process
            order = [False, True] if i % 2 == 0 else [True, False]
        for traced in order:
            if traced:
                tracer.install(i)
            try:
                seconds, texts, error = runner.job(cfg_path, f"{i}-{int(traced)}")
            finally:
                if traced:
                    tracer.uninstall()
            jobs.append((i, traced, seconds, texts, error))
        i += 1
        if time.perf_counter() >= deadline:
            break
    loop_seconds = time.perf_counter() - loop_start
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Checks, outside the timing.
    failures = []
    first = {}
    for idx, traced, _, texts, error in jobs:
        problems = [error] if error else []
        if not problems:
            try:
                problems = workload.check(runner.configs[idx], texts)
            except (KeyError, IndexError, ValueError) as exc:
                problems = [f"unreadable report: {type(exc).__name__}: {exc}"]
        if idx in first and not problems and texts != first[idx]:
            problems = ["traced and untraced reports differ"]
        first.setdefault(idx, texts)
        if problems:
            failures.append({"job": idx, "traced": traced, "problems": problems[:5]})
    _, rerun_texts, rerun_error = runner.job(runner.config(0), "rerun")
    rerun_identical = not rerun_error and rerun_texts == first[0]
    if not rerun_identical:
        failures.append({"job": 0, "traced": False,
                         "problems": [rerun_error or "rerun is not byte-identical"]})

    attempted = len(jobs) + 1
    failed = len(failures)
    failed_jobs = {(f["job"], f["traced"]) for f in failures}
    untraced = [s for idx, traced, s, _, _ in jobs if not traced]
    details = {
        "workload": workload.name,
        "why": workload.why,
        "sizes": workload.sizes,
        "environment": environment(args.seed),
        "seconds": args.seconds,
        "loop_seconds": loop_seconds,
        "jobs": len(untraced),
        "failed_frac": failed / attempted,
        "failures": failures,
        "rerun_byte_identical": rerun_identical,
        "job_seconds": untraced,
    }

    if tracer is None:
        value, pct, beyond = tail(untraced)
        details["job_tail"] = {"percentile": pct, "samples_beyond": beyond,
                               "samples": len(untraced)}
        ok_jobs = sum(1 for idx, traced, *_ in jobs
                      if not traced and (idx, False) not in failed_jobs)
        # The median and the mean move with the share of a run spent in
        # each host speed mode (see tail()), by more than any bound a gate
        # could use, so they are reported here but not gated.
        details["job_p50_s"] = statistics.median(untraced)
        details["jobs_per_s"] = ok_jobs / loop_seconds
        metrics = {
            "setup_s": (setup_s, "s"),
            "job_tail_s": (value, "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
    else:
        from tracing import layer_metrics
        traced = {idx: s for idx, t, s, _, _ in jobs if t}
        report_bytes = {idx: sum(len(x.encode()) for x in texts.values())
                        for idx, t, _, texts, _ in jobs if t}
        metrics, accounting = layer_metrics(tracer.spans, traced, report_bytes, untraced)
        details["trace_accounting"] = accounting
        details["layer_targets"] = LAYER_TARGETS
        trace_path = OUT / f"trace-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        details["trace_file"] = str(trace_path.relative_to(ROOT))

    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
