"""Spans around every public function of the package's numerical modules.

A wrapper replaces each public function in every module namespace that
binds it (``cli`` imports names from other modules, and so do ``tails``
and ``observable``), so calls made inside the package are seen too.  Spans
are kept in memory as (name, start, end, parent, job) tuples and written
out when the run ends.  Nothing under ``src/`` is edited: the wrappers are
installed for a traced job and removed after it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time

LAYERS = ("lattice", "scattering", "spectrum", "genfun", "observable",
          "fockoracle", "tails")
BINDERS = LAYERS + ("cli",)

# The counters below are the layer work an optimisation is most likely to
# move; "layer.function.calls" is given per job.
CALL_COUNTERS = (
    "lattice.build_lattice",
    "spectrum.build_kernel",
    "spectrum.depletion_mean",
    "genfun.log_mgf_closed",
    "genfun.integrand_diagonal",
    "tails.chernoff_bound",
    "observable.certified_domain",
    "observable.d_norm_bound",
    "observable.solve_F",
    "observable.apply_D",
    "fockoracle.mgf_oracle",
    "scattering.solve_scattering",
)


class Tracer:
    def __init__(self):
        self.modules = {name: importlib.import_module(f"bose_genfun.{name}")
                        for name in BINDERS}
        self.spans: list = []
        self._stack: list = []
        self.job = -1
        self._wrappers = {}
        for layer in LAYERS:
            mod = self.modules[layer]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    self._wrappers[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        self._saved: list = []

    def _wrap(self, key: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (key, start, end, parent, self.job)
        return wrapper

    def install(self, job: int) -> None:
        self.job = job
        for mod in self.modules.values():
            for name, obj in list(vars(mod).items()):
                wrapper = self._wrappers.get(id(obj))
                if wrapper is not None:
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._saved):
            setattr(mod, name, obj)
        self._saved.clear()
        self.job = -1

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(spans: list, job_seconds: dict, job_bytes: dict,
                  untraced_seconds: list) -> tuple[dict, dict]:
    """Per-job means of layer self time and call counts, plus ratios.

    job_seconds maps each traced job to its wall time; report time outside
    every span is cli.self_s, so the layer self times and cli.self_s add up
    to the traced job time by construction.
    """
    jobs = sorted(job_seconds)
    n_jobs = len(jobs)
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {key: 0 for key in CALL_COUNTERS}
    top_level = 0.0
    integrand_total = integrand_in_closed = 0
    closed_in_chernoff = 0
    for i, (name, start, end, parent, _) in enumerate(spans):
        self_s[name.split(".", 1)[0]] += (end - start) - child[i]
        if name in calls:
            calls[name] += 1
        if parent < 0:
            top_level += end - start
        if name == "genfun.integrand_diagonal":
            integrand_total += 1
            if parent >= 0 and spans[parent][0] == "genfun.log_mgf_closed":
                integrand_in_closed += 1
        if name == "genfun.log_mgf_closed" and _has_ancestor(
                spans, parent, "tails.chernoff_bound"):
            closed_in_chernoff += 1

    total_job = sum(job_seconds.values())
    metrics = {f"{layer}.self_s": (self_s[layer] / n_jobs, "s")
               for layer in LAYERS}
    metrics.update({f"{key}.calls": (calls[key] / n_jobs, "count")
                    for key in CALL_COUNTERS})
    metrics["genfun.integrand_discarded_frac"] = (
        integrand_in_closed / integrand_total if integrand_total else 0.0, "ratio")
    chernoff = calls["tails.chernoff_bound"]
    metrics["tails.closed_evals_per_chernoff"] = (
        closed_in_chernoff / chernoff if chernoff else 0.0, "count")
    metrics["cli.self_s"] = ((total_job - top_level) / n_jobs, "s")
    metrics["cli.report_bytes"] = (sum(job_bytes[j] for j in jobs) / n_jobs,
                                   "bytes")
    traced_p50 = statistics.median(job_seconds.values())
    metrics["trace.job_mean_s"] = (total_job / n_jobs, "s")
    metrics["trace.overhead_frac"] = (
        traced_p50 / statistics.median(untraced_seconds) - 1.0, "ratio")
    accounting = {
        "traced_job_mean_s": total_job / n_jobs,
        "layer_self_plus_cli_s": sum(metrics[f"{layer}.self_s"][0]
                                     for layer in LAYERS)
        + metrics["cli.self_s"][0],
        "traced_job_p50_s": traced_p50,
        "untraced_job_p50_s": statistics.median(untraced_seconds),
        "spans": len(spans),
        "traced_jobs": n_jobs,
    }
    return metrics, accounting


def _has_ancestor(spans: list, idx: int, name: str) -> bool:
    while idx >= 0:
        if spans[idx][0] == name:
            return True
        idx = spans[idx][3]
    return False
