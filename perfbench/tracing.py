"""Span tracing of mnlab from outside the package.

`install` rebinds the public names that one mnlab module imports from another
(``mnlab.opnorm.objective``, ``mnlab.opnorm.eval_sum``, ``mnlab.cli.estimate``,
...) to wrappers that record a span per call: name, start, end, parent span
and job id.  Spans stay in memory until the run ends; `layer_metrics` then
derives per-layer self time, call counts and latency medians from them.
Nothing under ``src/`` is edited, and `uninstall` restores every binding.

A span's self time is its duration minus the durations of its direct
children.  Spans are appended when they end, so a child always precedes its
parent in `Tracer.spans`.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from collections import defaultdict
from pathlib import Path

# Span name -> the module attributes bound to that layer entry point.  A name
# appears once per module that imports it, because rebinding the defining
# module alone does not reach a caller holding its own reference.
BINDINGS = {
    "opnorm.estimate": [("opnorm", "estimate"), ("cli", "estimate")],
    "opnorm.objective": [("opnorm", "objective")],
    "trigsum.eval_sum": [("trigsum", "eval_sum"), ("opnorm", "eval_sum"),
                         ("extremizers", "eval_sum"), ("cli", "eval_sum")],
    "trigsum.eval_nonortho": [("trigsum", "eval_nonortho"), ("cli", "eval_nonortho")],
    "norms.lrs_norm": [("norms", "lrs_norm"), ("opnorm", "lrs_norm"),
                       ("extremizers", "lrs_norm"), ("cli", "lrs_norm")],
    "norms.lpq_norm": [("norms", "lpq_norm"), ("opnorm", "lpq_norm"),
                       ("extremizers", "lpq_norm"), ("cli", "lpq_norm")],
    "norms.json": [("cli", "load_matrix"), ("cli", "load_grid"),
                   ("cli", "save_grid"), ("cli", "grid_to_json")],
    "extremizers.build": [("extremizers", "build"), ("opnorm", "build"), ("cli", "build")],
    "extremizers.certified_lower_bound": [("extremizers", "certified_lower_bound"),
                                          ("opnorm", "certified_lower_bound")],
    "extremizers.chirp": [("cli", "chirp_residual_sweep")],
    "extremizers.verify": [("cli", "verify_dirichlet_lower"), ("cli", "unit_sharpness"),
                           ("cli", "verify_chirp_lower")],
    "exponents": [("opnorm", "theta"), ("opnorm", "phi"), ("opnorm", "upper_bound_magnitude"),
                  ("extremizers", "upper_bound_magnitude"), ("cli", "theta"), ("cli", "phi"),
                  ("cli", "upper_bound_magnitude")],
    "cli.main": [("cli", "main")],
}

# Per-layer metrics, in report order: (name, unit).  Every run reports all of
# them; a layer the workload never calls reads 0.
LAYER_METRICS = [
    ("opnorm.objective.calls", "count"),
    ("opnorm.objective.self_s", "s"),
    ("opnorm.objective.p50_us", "us"),
    ("opnorm.estimate.calls", "count"),
    ("opnorm.estimate.self_s", "s"),
    ("trigsum.eval_sum.calls", "count"),
    ("trigsum.eval_sum.self_s", "s"),
    ("trigsum.eval_sum.p50_us", "us"),
    ("trigsum.eval_sum.grid_points", "count"),
    ("trigsum.eval_sum.bytes_computed", "bytes"),
    ("trigsum.eval_nonortho.calls", "count"),
    ("trigsum.eval_nonortho.self_s", "s"),
    ("norms.lrs_norm.calls", "count"),
    ("norms.lrs_norm.self_s", "s"),
    ("norms.lrs_norm.p50_us", "us"),
    ("norms.lpq_norm.calls", "count"),
    ("norms.lpq_norm.self_s", "s"),
    ("norms.json.bytes", "bytes"),
    ("norms.json.self_s", "s"),
    ("norms.quadrature_warnings", "count"),
    ("extremizers.build.self_s", "s"),
    ("extremizers.certified_lower_bound.self_s", "s"),
    ("extremizers.chirp.terms", "count"),
    ("extremizers.chirp.self_s", "s"),
    ("extremizers.verify.self_s", "s"),
    ("exponents.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.self_s", "s"),
    ("trace_overhead_frac", "ratio"),
]


def _eval_sum_counts(args, kwargs, result):
    # Bytes are computed from array sizes, not measured: the zero-padded
    # input, the inverse-FFT output and its scaled copy, all complex128.
    points = result.Kx * result.Ky
    return {"trigsum.eval_sum.grid_points": points, "trigsum.eval_sum.bytes_computed": 48 * points}


def _chirp_counts(args, kwargs, result):
    # chirp_residual_sweep sums len(xs) phase terms per M on the ladder, and
    # the largest M once more for the amplitude.
    return {"extremizers.chirp.terms": len(result.xs) * (sum(result.Ms) + max(result.Ms))}


def _json_counts(args, kwargs, result):
    # load_*/save_* take the path first; grid_to_json builds the document in memory.
    if isinstance(args[0], (str, os.PathLike)):
        return {"norms.json.bytes": os.path.getsize(args[0])}
    return {}


COUNTERS = {
    "trigsum.eval_sum": _eval_sum_counts,
    "extremizers.chirp": _chirp_counts,
    "norms.json": _json_counts,
}


class Tracer:
    """In-memory span recorder for one traced run.

    Each span is (span_id, parent_id, job_id, name, start_ns, end_ns);
    parent_id is 0 for a job's root span.  Counts attached at the same
    boundaries accumulate in `counts`.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = [0]
        self._next_id = 1
        self.job_id = 0
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            self._stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append((span_id, parent, self.job_id, name, start, end))
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[key] += value
            return result

        return traced

    def install(self) -> None:
        """Rebind every entry point in BINDINGS to a span-recording wrapper."""
        for name, targets in BINDINGS.items():
            for module_name, attr in targets:
                module = importlib.import_module(f"mnlab.{module_name}")
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self.span(name, original, COUNTERS.get(name)))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: id, parent, job, name, start_ns, end_ns."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def self_times(spans) -> list[tuple[int, str, int, int]]:
    """(job_id, name, duration_ns, self_ns) per span."""
    child_ns: dict[int, int] = defaultdict(int)
    out = []
    for span_id, parent, job_id, name, start, end in spans:
        duration = end - start
        out.append((job_id, name, duration, duration - child_ns.pop(span_id, 0)))
        child_ns[parent] += duration
    return out


def layer_metrics(spans, counts: dict[str, int], passes: int) -> dict[str, float]:
    """Per-layer metrics for one pass of the job list.

    Counts and self times are totals over the traced passes divided by
    `passes`; `p50_us` is the median duration of a single call, children
    included.  Span names are the metric prefixes, except that the self time
    of `cli.main` reports as `cli.self_s`.
    """
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    durations: dict[str, list[int]] = defaultdict(list)
    for _, name, duration, own in self_times(spans):
        calls[name] += 1
        self_ns[name] += own
        durations[name].append(duration)
    prefix = {"cli.main": "cli"}
    values: dict[str, float] = {}
    for name in BINDINGS:
        values[f"{name}.calls"] = _per_pass(calls[name], passes)
        values[f"{prefix.get(name, name)}.self_s"] = self_ns[name] / passes / 1e9
        values[f"{name}.p50_us"] = statistics.median(durations[name]) / 1e3 if durations[name] else 0.0
    for key, total in counts.items():
        values[key] = _per_pass(total, passes)
    return values


def _per_pass(total: int, passes: int) -> "int | float":
    # Passes repeat the same work, so an exact count divides evenly.
    return total // passes if total % passes == 0 else total / passes
