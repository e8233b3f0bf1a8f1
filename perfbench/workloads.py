"""The benchmark's three workloads: fixed job lists built from a seed.

Each job calls into mnlab through module attributes (``opnorm.estimate``,
``trigsum.eval_sum``, ``cli.main``) so that a traced run, which rebinds
those attributes, sees every call.  The correctness checks use references
taken at import time and are never traced.

* ``search``: `estimate` at M = N in {2, 4, 8} on three exponent tuples with
  SearchConfig(restarts=2, max_iters=10).  Thousands of `objective` calls
  on grids of 16^2 to 64^2: per-call overhead dominates.  Besides the
  sandwich, each report must reach its job's search quality floor.
* ``evaluate``: one FFT `eval_sum` per seeded random matrix at M = N in
  {16, 64, 256} on the default 8x grid, then `lrs_norm` at three tuples and
  `lpq_norm`.  A few large calls; the 2048^2 grid (64 MiB) is far beyond L2.
* ``checks``: the lab's diagnostic commands through `mnlab.cli.main`: `eval`
  and `norm --refine-check` through grid JSON files, `chirp-check` on
  criterion 4's window and on the interior window, `nonortho-check` at
  criterion 9's sizes, and `extremal` for four kinds.  Covers the CLI, the
  JSON I/O, the chirp sums and the direct evaluation path.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from mnlab import cli, norms, opnorm, trigsum
from mnlab.exponents import MixedExponents
from mnlab.norms import CoefficientMatrix, QuadratureSpec, load_grid, save_matrix
from mnlab.opnorm import SearchConfig
from mnlab.trigsum import EvalPlan, eval_sum, eval_sum_at

SELF_DUAL = MixedExponents(0.5, 0.5, 0.5, 0.5)
SUP_L1 = MixedExponents(1.0, 1.0, 0.0, 0.0)  # l^1 -> L^inf: the r = s = inf max path
INTERIOR = MixedExponents(0.25, 0.5, 0.75, 0.5)
COLUMN_EQUALITY = MixedExponents(0.5, 0.75, 0.25, 0.5)

# Relative agreement demanded of identities that hold up to roundoff.
PARSEVAL_RTOL = 1e-12
# FFT samples against the direct sum, relative to sum |a_mn| (which bounds |S|).
DIRECT_RTOL = 1e-13


@dataclass(frozen=True)
class Job:
    """One timed call.  `inspect` turns its result into the deterministic
    document that enters the digest plus a list of failed checks."""

    label: str
    command: str
    run: Callable[[], object]
    inspect: Callable[[object], "tuple[object, list[str]]"]


@dataclass(frozen=True)
class Workload:
    jobs: list[Job]
    warm_up: Callable[[], None]
    extra_metrics: Callable[[list[dict]], "dict[str, tuple[float, str]]"]


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


def _random_matrix(rng: np.random.Generator, M: int) -> CoefficientMatrix:
    return CoefficientMatrix(M, M, rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M)))


def _relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _median_latency(records: list[dict], commands: set[str]) -> float:
    return statistics.median(r["latency_s"] for r in records if r["command"] in commands)


# ----------------------------------------------------------------------------
# search
# ----------------------------------------------------------------------------

SEARCH_SIZES = (2, 4, 8)
SEARCH_TUPLES = (
    ("column-equality", COLUMN_EQUALITY),
    ("sup-l1", SUP_L1),
    ("interior", INTERIOR),
)


# Search quality floor per job: the best ratio_searched that the ascents from
# the five warm starts alone reach (they do not depend on the seed, so every
# seed's report is at or above it), measured at the seed commit.  A change
# that searches less lands below it: with max_iters=1 every size fails on
# the interior tuple, with max_iters=3 M=4 and M=8 do.  SEARCH_MARGIN leaves
# room for roundoff in a reworked gradient; a change to the objective itself
# must measure the floors again.
SEARCH_FLOOR = {
    "column-equality": {2: 0.9306048591020996, 4: 0.9154117118505208, 8: 0.9116545197299001},
    "sup-l1": {2: 1.0, 4: 1.0, 8: 1.0},
    "interior": {2: 0.9736617730556679, 4: 0.9785122173705041, 8: 0.9583626119452672},
}
SEARCH_MARGIN = 2e-3


def _estimate(M: int, e: MixedExponents, cfg: SearchConfig):
    return opnorm.estimate(M, M, e, cfg)


def _inspect_report(floor: float, report) -> "tuple[dict, list[str]]":
    doc = report.to_json_dict()
    failures = [] if report.sandwich_ok else [f"sandwich violated: {doc}"]
    if report.ratio_searched < floor * (1.0 - SEARCH_MARGIN):
        failures.append(f"searched less: ratio_searched {report.ratio_searched!r} below the "
                        f"floor {floor!r} at M={report.M}")
    return doc, failures


def search(seed: int, workdir: Path) -> Workload:
    jobs = []
    for M in SEARCH_SIZES:
        for name, e in SEARCH_TUPLES:
            cfg_seed = int(_rng(seed, len(jobs)).integers(2**31))
            cfg = SearchConfig(restarts=2, max_iters=10, seed=cfg_seed)
            jobs.append(Job(f"estimate M={M} {name}", "estimate", functools.partial(_estimate, M, e, cfg),
                            functools.partial(_inspect_report, SEARCH_FLOOR[name][M])))

    def warm_up() -> None:
        opnorm.estimate(1, 1, INTERIOR, SearchConfig(restarts=1, max_iters=1))

    def extra_metrics(records: list[dict]) -> dict:
        ratios = [r["doc"]["ratio_searched"] for r in records[: len(jobs)] if r["doc"]]
        if not ratios:
            return {}
        gmean = math.exp(statistics.fmean(math.log(x) for x in ratios))
        return {"ratio_searched_gmean": (gmean, "ratio")}

    return Workload(jobs, warm_up, extra_metrics)


# ----------------------------------------------------------------------------
# evaluate
# ----------------------------------------------------------------------------

EVAL_SIZES = (16, 64, 256)
# (exponents, refine_check): the self-dual point (Parseval), sup/l^1 and one
# refinement check at a finite, non-even exponent.
EVAL_NORMS = ((SELF_DUAL, False), (SUP_L1, False), (INTERIOR, True))
DIRECT_NODES = 8


def _evaluate(A: CoefficientMatrix):
    f = trigsum.eval_sum(A, EvalPlan(Kx=8 * A.M, Ky=8 * A.N))
    lrs = [norms.lrs_norm(f, e, QuadratureSpec(refine_check=refine)) for e, refine in EVAL_NORMS]
    lpq = [norms.lpq_norm(A, e) for e, _ in EVAL_NORMS]
    return A, f, lrs, lpq


def _inspect_evaluation(nodes: np.ndarray, result) -> "tuple[dict, list[str]]":
    A, f, lrs, lpq = result
    failures = []
    if _relative_gap(lrs[0], lpq[0]) > PARSEVAL_RTOL:
        failures.append(f"Parseval: lrs {lrs[0]!r} vs lpq {lpq[0]!r} at M={A.M}")
    scale = float(np.abs(A.entries).sum())
    for j, k in nodes:
        direct = eval_sum_at(A, j / f.Kx, k / f.Ky)
        if abs(f.samples[j, k] - direct) > DIRECT_RTOL * scale:
            failures.append(f"FFT sample ({j}, {k}) {f.samples[j, k]!r} vs direct {direct!r} at M={A.M}")
    doc = {"M": A.M, "lrs": lrs, "lpq": lpq,
           "samples_sha256": hashlib.sha256(f.samples.tobytes()).hexdigest()}
    return doc, failures


def evaluate(seed: int, workdir: Path) -> Workload:
    jobs = []
    for index, M in enumerate(EVAL_SIZES):
        rng = _rng(seed, index)
        A = _random_matrix(rng, M)
        nodes = rng.integers(0, 8 * M, size=(DIRECT_NODES, 2))
        jobs.append(Job(f"evaluate M={M}", "evaluate", functools.partial(_evaluate, A),
                        functools.partial(_inspect_evaluation, nodes)))

    def warm_up() -> None:
        _evaluate(_random_matrix(_rng(seed, len(EVAL_SIZES)), 4))

    def extra_metrics(records: list[dict]) -> dict:
        points = sum((8 * M) ** 2 for M in EVAL_SIZES)
        pass_s = sum(_median_latency([r for r in records if r["label"] == job.label], {"evaluate"})
                     for job in jobs)
        return {"grid_points_per_s": (points / pass_s, "1/s")}

    return Workload(jobs, warm_up, extra_metrics)


# ----------------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------------

CHECKS_M = 64
# Criterion 4's stated window, where the chirp check is red by design, and
# the interior window x < eta/2 where the closed form holds.  Both slopes are
# recorded, neither is gated.
CHIRP_LADDER = "1024:65536"
CHIRP_WINDOWS = {"stated": "0.2,0.3,0.4,0.5,0.6,0.7,0.8", "interior": "0.02,0.04,0.06,0.08"}
INTERIOR_FLAGS = ["--alpha", "0.25", "--beta", "0.5", "--gamma", "0.75", "--delta", "0.5"]


def _cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _exit_failures(argv: list[str], code: int, err: str) -> list[str]:
    return [] if code == 0 else [f"mnlab {argv[0]} exited {code}: {err.strip()}"]


def _inspect_command(argv: list[str], out_path: Path, result) -> "tuple[dict, list[str]]":
    code, stdout, err = result
    doc = {"exit": code, "stdout": stdout, "out": json.loads(out_path.read_text()) if code == 0 else None}
    return doc, _exit_failures(argv, code, err)


def _inspect_eval(argv: list[str], A: CoefficientMatrix, grid_path: Path, verified: set, result):
    code, _, err = result
    failures = _exit_failures(argv, code, err)
    doc = {"exit": code}
    if code == 0:
        doc["grid_sha256"] = sha = hashlib.sha256(grid_path.read_bytes()).hexdigest()
        # A file identical to one already read back needs no second round trip.
        if sha not in verified:
            expected = eval_sum(A, EvalPlan(Kx=8 * A.M, Ky=8 * A.N)).samples
            if np.array_equal(load_grid(grid_path).samples, expected):
                verified.add(sha)
            else:
                failures.append("grid JSON round trip is not bit-exact")
    return doc, failures


def _inspect_norm(argv: list[str], out_path: Path, result):
    doc, failures = _inspect_command(argv, out_path, result)
    if not failures and _relative_gap(doc["out"]["lrs"], doc["out"]["lpq"]) > PARSEVAL_RTOL:
        failures.append(f"Parseval through JSON: {doc['out']}")
    return doc, failures


def checks(seed: int, workdir: Path) -> Workload:
    workdir.mkdir(parents=True, exist_ok=True)
    rng = _rng(seed, 0)
    A = _random_matrix(rng, CHECKS_M)
    matrix_path, grid_path = workdir / "matrix.json", workdir / "grid.json"
    save_matrix(matrix_path, A)
    row, col = (str(int(v)) for v in rng.integers(1, CHECKS_M + 1, size=2))
    size = ["--M", str(CHECKS_M), "--N", str(CHECKS_M)]

    commands = [
        ("eval", "eval M=64", ["eval", "--matrix", str(matrix_path), "--out", str(grid_path)]),
        ("norm", "norm M=64 --refine-check",
         ["norm", "--matrix", str(matrix_path), "--grid", str(grid_path), "--refine-check"]),
        *(("chirp-check", f"chirp-check {window} window",
           ["chirp-check", "--eta", "0.2", "--M-ladder", CHIRP_LADDER, "--xs", xs])
          for window, xs in CHIRP_WINDOWS.items()),
        ("nonortho-check", "nonortho-check",
         ["nonortho-check", "--sizes", "2,4,8,16,32", "--trials", "50",
          "--seed", str(int(rng.integers(2**31)))]),
        ("extremal", "extremal column", ["extremal", "--kind", "column", *size, "--col", col, *INTERIOR_FLAGS]),
        ("extremal", "extremal row", ["extremal", "--kind", "row", *size, "--row", row, *INTERIOR_FLAGS]),
        ("extremal", "extremal ones", ["extremal", "--kind", "ones", *size, *INTERIOR_FLAGS]),
        ("extremal", "extremal unit",
         ["extremal", "--kind", "unit", *size, "--row", row, "--col", col, *INTERIOR_FLAGS]),
    ]
    jobs = []
    for index, (command, label, argv) in enumerate(commands):
        if command == "eval":
            inspect = functools.partial(_inspect_eval, argv, A, grid_path, set())
        else:
            out_path = workdir / f"out{index}.json"
            argv = [*argv, "--out", str(out_path)]
            check = _inspect_norm if command == "norm" else _inspect_command
            inspect = functools.partial(check, argv, out_path)
        jobs.append(Job(label, command, functools.partial(_cli, argv), inspect))

    def warm_up() -> None:
        small = workdir / "warm_matrix.json"
        save_matrix(small, _random_matrix(_rng(seed, 1), 2))
        for argv in (["eval", "--matrix", str(small), "--out", str(workdir / "warm_grid.json")],
                     ["norm", "--grid", str(workdir / "warm_grid.json"), "--refine-check"],
                     ["chirp-check", "--M-ladder", "8:16", "--xs", "0.02"],
                     ["nonortho-check", "--sizes", "2", "--trials", "1"],
                     ["extremal", "--kind", "ones", "--M", "2", "--N", "2"]):
            code, _, err = _cli(argv)
            if code != 0:
                raise RuntimeError(f"warm-up mnlab {argv[0]} exited {code}: {err.strip()}")

    def extra_metrics(records: list[dict]) -> dict:
        slopes = {f"chirp_{r['label'].split()[1]}_slope": (r["doc"]["out"]["slope"], "ratio")
                  for r in records[: len(jobs)]
                  if r["command"] == "chirp-check" and r["doc"] and r["doc"]["out"]}
        eval_norm = [a["latency_s"] + b["latency_s"] for a, b in zip(records, records[1:])
                     if a["command"] == "eval" and b["command"] == "norm"]
        return {
            "eval_norm_s": (statistics.median(eval_norm), "s"),
            "chirp_check_s": (_median_latency(records, {"chirp-check"}), "s"),
            "nonortho_check_s": (_median_latency(records, {"nonortho-check"}), "s"),
            "extremal_s": (_median_latency(records, {"extremal"}), "s"),
            **slopes,
        }

    return Workload(jobs, warm_up, extra_metrics)


WORKLOADS = {"search": search, "evaluate": evaluate, "checks": checks}
