"""mnlab benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload {search,evaluate,checks} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; mnlab is imported from its ``src/``.
Each run is one process and a closed loop with one caller: the workload's
fixed job list (see workloads.py) runs in passes until the next pass would
overrun ``--seconds``, then job by job while the next job fits.  Worker
threads are off: MNL_THREADS is removed and the BLAS and OpenMP pools are
capped at one thread.  Every job's output is checked and must equal its
output in the first pass; the first pass's outputs are hashed into the
run's digest.  ``wall_s`` is the time of one pass of the job list: the sum
over the jobs of each job's mean latency.

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
measured untraced.  With ``--trace 1`` half of the time runs untraced and
half traced (tracing.py), in whole passes, and the last line carries the
per-layer metrics, each per pass of the job list, plus the traced run's
overhead.  Traced passes must reproduce the untraced outputs.  Every other
metric, the machine's facts and the per-job latencies are printed above
that line and written to
``perfbench/out/<workload>-trace<0|1>.json``; a traced run also writes its
spans to ``perfbench/out/<workload>-spans.jsonl``.

``setup_s`` is the median over SETUP_SAMPLES fresh processes of the time to
start, import mnlab, build the workload's inputs and make one warm-up call
per layer the workload uses.  The processes run between passes, spread over
the untraced part of the run.

Printed but not on the last line: ``job_s_p50_gmean``, the geometric mean
over the job list of each job's median latency (every job weighs the same
whatever its size); each job's median and its tail (the highest percentile
with ten samples above it, when that lies above the median); and each
workload's own figures (workloads.py).  The last line carries only metrics
that every workload reports.  ``job_s_p50_gmean`` is left off it because it
weighs the millisecond jobs as much as the long ones and so spreads from
run to run wider than ``wall_s``, and wider than a 25% regression bound
holds on a shared host.

Timings on a shared host: the speed of Python-bound code drifts by 10-40%
in spells of seconds to minutes, and more than 2x in short bursts (measured
on a 2-vCPU KVM guest; array-bound code such as ``evaluate`` usually moves
less).  Medians over passes absorb the bursts; spreading the set-up samples
and a longer run absorb part of the drift, but not spells that outlast a
run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
THREAD_CAPS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

WORKLOAD_NAMES = ("search", "evaluate", "checks")


def _die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_mnlab():
    """Cap thread pools, then import mnlab from this checkout's src/ only."""
    src = ROOT / "src"
    if not (src / "mnlab" / "__init__.py").is_file():
        _die(f"no mnlab sources under {src}; run from a source checkout")
    os.environ.pop("MNL_THREADS", None)
    os.environ.update(THREAD_CAPS)
    sys.path.insert(0, str(src))
    import mnlab

    if Path(mnlab.__file__).resolve().parent != (src / "mnlab").resolve():
        _die(f"imported mnlab from {mnlab.__file__}, not from {src}")
    import workloads
    import tracing

    return workloads, tracing


def _machine_facts() -> dict:
    import numpy as np

    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor() or None,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_caps": {**THREAD_CAPS, "MNL_THREADS": None},
        "git_commit": _git_commit(),
    }


def _git_commit() -> "str | None":
    """HEAD of the checkout; None when the checkout is not a git repository
    (a repository around it does not count) or git is missing."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _setup(workloads, name: str, seed: int):
    from mnlab.norms import QuadratureWarning

    workload = workloads.WORKLOADS[name](seed, OUT / f"work-{name}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QuadratureWarning)
        workload.warm_up()
    return workload


def _time_setup(name: str, seed: int) -> float:
    """Wall time of one fresh process that only sets up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--setup-only"]
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        _die(f"set-up process exited {done.returncode}: {done.stderr.strip()}")
    return elapsed


def _run_pass(jobs, warning_type, tracer=None, first_job_id=0, fits=None) -> dict:
    """Run the jobs in order, each once; time each call, then check its output
    untimed.  With `fits`, stop before the first job index it rejects."""
    records, warned = [], 0
    for index, job in enumerate(jobs):
        if fits is not None and not fits(index):
            break
        run = job.run
        if tracer is not None:
            tracer.job_id = first_job_id + index
            run = tracer.span("job", run)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", warning_type)
            start = time.perf_counter()
            try:
                result, error = run(), None
            except Exception as exc:  # a job that raises is a failed operation, not a crash
                result, error = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - start
        warned += sum(issubclass(w.category, warning_type) for w in caught)
        doc, failures = (None, [error]) if error else job.inspect(result)
        records.append({"label": job.label, "command": job.command, "latency_s": latency,
                        "failures": failures, "doc": doc})
    return {"wall_s": sum(r["latency_s"] for r in records), "quadrature_warnings": warned,
            "records": records}


def _run_passes(jobs, seconds: float, warning_type, tracer=None, before_pass=None,
                partial=False) -> list[dict]:
    """Closed loop: passes back to back until the next one would overrun `seconds`.

    With `partial`, the loop goes on into a last, partial pass, job by job,
    while each job's median latency so far still fits; a run whose pass is a
    large share of `seconds` then measures most of it.  `before_pass(elapsed)`
    runs untimed ahead of each pass."""
    passes = []
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        if before_pass is not None:
            before_pass(time.perf_counter() - start)
        passes.append(_run_pass(jobs, warning_type, tracer, len(passes) * len(jobs)))
        typical = statistics.median(p["wall_s"] for p in passes)
        if time.perf_counter() + typical > deadline:
            break
    if partial:
        medians = [statistics.median(p["records"][i]["latency_s"] for p in passes) for i in range(len(jobs))]
        last = _run_pass(jobs, warning_type, tracer, len(passes) * len(jobs),
                         fits=lambda i: time.perf_counter() + medians[i] <= deadline)
        if last["records"]:
            passes.append(last)
    return passes


def _job_latencies(passes: list[dict]) -> dict:
    """Each job's latency in every pass that ran it, in pass order."""
    return {record["label"]: [p["records"][i]["latency_s"] for p in passes if i < len(p["records"])]
            for i, record in enumerate(passes[0]["records"])}


def _tail_latency(latencies: list[float], beyond: int = 10) -> "tuple[float, float, int] | None":
    """(percentile, latency, samples above it) for the highest percentile with
    `beyond` samples above it; None when that would not be above the median."""
    n = len(latencies)
    if n <= 2 * beyond:
        return None
    return 100.0 * (n - beyond) / n, sorted(latencies)[n - beyond - 1], beyond


def _traced_breakdown(tracing, tracer, jobs) -> dict:
    """Median inclusive duration per layer and job label, for cross-checks at one size."""
    durations: dict = {}
    for job_id, name, duration, _ in tracing.self_times(tracer.spans):
        label = jobs[job_id % len(jobs)].label
        durations.setdefault(label, {}).setdefault(name, []).append(duration)
    return {label: {name: {"calls": len(ns), "p50_us": statistics.median(ns) / 1e3}
                    for name, ns in sorted(by_name.items())}
            for label, by_name in durations.items()}


def _result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {name: {"value": value, "unit": unit}
                                   for name, (value, unit) in metrics.items()}})


def run(name: str, seed: int, seconds: float, trace: bool) -> None:
    workloads, tracing = _import_mnlab()
    from mnlab.norms import QuadratureWarning

    OUT.mkdir(parents=True, exist_ok=True)
    workload = _setup(workloads, name, seed)
    jobs = workload.jobs
    facts = _machine_facts()

    untraced_seconds = seconds / 2 if trace else seconds
    setup_samples = []

    def sample_setup(elapsed: float) -> None:
        if len(setup_samples) < SETUP_SAMPLES and elapsed >= len(setup_samples) * untraced_seconds / SETUP_SAMPLES:
            setup_samples.append(_time_setup(name, seed))

    untraced = _run_passes(jobs, untraced_seconds, QuadratureWarning, before_pass=sample_setup, partial=True)
    while len(setup_samples) < SETUP_SAMPLES:
        setup_samples.append(_time_setup(name, seed))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    all_passes = list(untraced)
    by_job = _job_latencies(untraced)
    # One pass of the job list: each job's mean latency, summed.  Means over the
    # whole run, a partial last pass included, average over more of the
    # host's slow and fast spells than the median of a few pass walls.
    wall_s = sum(statistics.fmean(ls) for ls in by_job.values())
    end_to_end = {
        "wall_s": (wall_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setup_samples), "s"),
    }
    # Each job's median latency, then their geometric mean: every job in the
    # list weighs the same, whatever its size.
    job_p50_gmean = math.exp(statistics.fmean(math.log(statistics.median(ls)) for ls in by_job.values()))
    extras = {"job_s_p50_gmean": (job_p50_gmean, "s"),
              **workload.extra_metrics([r for p in untraced for r in p["records"]])}
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": facts, "setup_samples_s": setup_samples,
              "pass_walls_s": [p["wall_s"] for p in untraced], "jobs_per_pass": len(jobs),
              "last_pass_jobs": len(untraced[-1]["records"]),
              "job_latencies_s": by_job}

    layer = {}
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = _run_passes(jobs, seconds / 2, QuadratureWarning, tracer)
        finally:
            tracer.uninstall()
        all_passes += traced
        tracer.write(OUT / f"{name}-spans.jsonl")
        values = tracing.layer_metrics(tracer.spans, tracer.counts, len(traced))
        values["norms.quadrature_warnings"] = traced[0]["quadrature_warnings"]
        values["trace_overhead_frac"] = statistics.fmean(p["wall_s"] for p in traced) / wall_s - 1.0
        layer = {metric: (values.get(metric, 0.0), unit) for metric, unit in tracing.LAYER_METRICS}
        report["traced_pass_walls_s"] = [p["wall_s"] for p in traced]
        report["traced_by_job"] = _traced_breakdown(tracing, tracer, jobs)
        report["layer_all"] = values

    # Determinism: every pass, traced or not, must reproduce the first pass's outputs.
    for later in all_passes[1:]:
        for first, record in zip(all_passes[0]["records"], later["records"]):
            if record["doc"] != first["doc"]:
                record["failures"].append(f"{record['label']}: output differs from the first pass")
    digest = hashlib.sha256(json.dumps([r["doc"] for r in all_passes[0]["records"]],
                                       sort_keys=True).encode()).hexdigest()
    failures = [f for p in all_passes for r in p["records"] for f in r["failures"]]
    attempted = sum(len(p["records"]) for p in all_passes)
    failed = sum(bool(r["failures"]) for p in all_passes for r in p["records"])
    correct = failed == 0
    report.update({"digest": digest, "failures": failures[:20], "attempted": attempted,
                   "failed": failed, "correct": correct,
                   "failed_frac": (failed / attempted, "ratio"),
                   "end_to_end": end_to_end, "extras": extras, "per_layer": layer})
    (OUT / f"{name}-trace{int(trace)}.json").write_text(json.dumps(report, indent=2, default=str) + "\n")

    print(f"machine: {json.dumps(facts, sort_keys=True)}")
    print(f"workload {name} seed {seed}: {len(untraced)} untraced passes of {len(jobs)} jobs"
          f" (the last ran {len(untraced[-1]['records'])})"
          + (f", {len(report['traced_pass_walls_s'])} traced" if trace else ""))
    for metric, (value, unit) in {**end_to_end, **extras, "failed_frac": report["failed_frac"], **layer}.items():
        print(f"{metric} = {value:.6g} {unit}")
    for label, latencies in by_job.items():
        tail = _tail_latency(latencies)
        print(f"job {label}: p50 = {statistics.median(latencies):.6g} s over {len(latencies)} samples"
              + (", p{:.0f} = {:.6g} s ({} samples above it)".format(*tail) if tail else ""))
    print(f"digest = {digest}")
    for failure in failures[:5]:
        print(f"FAILED: {failure}")
    print(_result_line(correct, attempted, failed, layer if trace else end_to_end))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measuring time per run (BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_only:
        _setup(_import_mnlab()[0], args.workload, args.seed)
    elif args.seconds is None:
        parser.error("--seconds is required")
    else:
        run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    main()
