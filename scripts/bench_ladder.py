"""Time mnlab's layers on the size ladder M = N, on the default 8x grid.

    python3 scripts/bench_ladder.py [--sizes 4,8,16,32,64,256] [--repeats 5] [--out FILE --label NAME]

Run from the root of a source checkout; mnlab is imported from its ``src/``.
At each M it times, at the exponent tuple (p, q, r, s) = (4, 2, 4/3, 2),
the layers below.  Rows above M = SEARCH_MAX_M = 64 time only the grid
layers ``eval_sum``, ``lrs_norm`` and ``lpq_norm``: the default M = 256 row
(a 2048 x 2048 grid, 64 MiB of samples) shows the memory-bound costs that
the smaller rows' grids, which fit in cache, hide.

* ``eval_sum``: one synthesis of a random M x M matrix on the 8M x 8M grid;
* ``lrs_norm`` of those samples and ``lpq_norm`` of the matrix;
* ``load_grid`` of those samples from the file ``save_grid`` wrote of them
  (a temporary directory holds it);
* ``objective`` of the matrix on that grid;
  these five rows also give ``peak_bytes``, the tracemalloc peak of one
  separate untimed call: the working memory it allocates above what it was
  handed (numpy reports its buffers to tracemalloc);
* ``gradient``: the ascent step's pull-back ``opnorm._adjoint_gradient``
  and dual map ``opnorm._dual_map``, handed what the ascent has from its
  accepted step: the step's record (``opnorm._evaluate``, its samples and
  the L^{r,s} norm with its reductions);
* ``ascent_step``: ``opnorm._ascend`` with max_iters=1 on a stack of one
  random start: the start's value and one step (gradient, dual map,
  synthesis and evaluation);
* ``ascent``: ``opnorm._ascend`` with max_iters=10 on the same stack; its
  entry also gives ``evaluations``, the objective evaluations of one call,
  counted in a separate untimed call;
* ``estimate`` at SearchConfig(restarts=2, max_iters=10, seed=7);
* ``estimate_closed``: ``estimate`` at the same config on l^1 -> L^inf,
  (p, q, r, s) = (1, 1, inf, inf), whose bound 1.0 the unit start attains,
  so the bracket closes at the first start.

Each figure is the median over ``--repeats`` samples of the mean time per
call, a sample lasting at least 0.2 s (``timeit``'s autorange) or one call,
with the garbage collector on as in a CLI run: ``timeit`` turns it off, which
hides the collections that a Python object per number sets off.
The document records the machine (cores, CPU, Python, numpy) and the git
commit of the checkout.  Without ``--out`` it is printed; with it, it is
stored under ``--label`` in the JSON object in FILE, which keeps its other
labels, so runs of two checkouts on one host land side by side.  A stored
run must name its commit: with ``--out``, a checkout that git cannot read
(a ``git archive`` export, say) exits 1 before timing anything, so measure
the parent in a ``git clone`` or a ``git worktree``.  Timings are not
gated: only the exit code says whether the run worked.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import timeit
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from mnlab import opnorm  # noqa: E402
from mnlab.exponents import MixedExponents  # noqa: E402
from mnlab.norms import CoefficientMatrix, load_grid, lpq_norm, lrs_norm, save_grid  # noqa: E402
from mnlab.opnorm import SearchConfig, estimate, objective  # noqa: E402
from mnlab.trigsum import EvalPlan, default_grid, eval_sum  # noqa: E402

EXPONENTS = MixedExponents(0.25, 0.5, 0.75, 0.5)
CLOSED_EXPONENTS = MixedExponents(1.0, 1.0, 0.0, 0.0)
ESTIMATE_CONFIG = SearchConfig(restarts=2, max_iters=10, seed=7)
DEFAULT_SIZES = (4, 8, 16, 32, 64, 256)
SEARCH_MAX_M = 64
PEAK_LAYERS = ("eval_sum", "lrs_norm", "lpq_norm", "load_grid", "objective")


def _random_entries(rng: np.random.Generator, M: int) -> np.ndarray:
    return rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M))


def _gradient_call(entries: np.ndarray, plan: EvalPlan):
    """One pulled-back gradient and its dual map at `entries`, handed the step record the ascent keeps."""
    samples = eval_sum(CoefficientMatrix(*entries.shape, entries), plan).samples
    trial = opnorm._evaluate(entries, samples, EXPONENTS)
    return lambda: opnorm._dual_map(opnorm._adjoint_gradient(trial), EXPONENTS)


def _layer_calls(M: int, workdir: Path) -> dict:
    rng = np.random.default_rng([M, 7])
    entries = _random_entries(rng, M)
    entries /= np.linalg.norm(entries)
    A = CoefficientMatrix(M, M, entries)
    plan = default_grid(M, M)
    f = eval_sum(A, plan)
    grid_calls = {
        "eval_sum": functools.partial(eval_sum, A, plan),
        "lrs_norm": functools.partial(lrs_norm, f, EXPONENTS),
        "lpq_norm": functools.partial(lpq_norm, A, EXPONENTS),
    }
    if M > SEARCH_MAX_M:
        return grid_calls
    grid_path = workdir / f"grid_{M}.json"
    save_grid(grid_path, f)
    start = _random_entries(rng, M)
    return {
        **grid_calls,
        "load_grid": functools.partial(load_grid, grid_path),
        "objective": functools.partial(objective, A, EXPONENTS, plan),
        "gradient": _gradient_call(entries, plan),
        "ascent_step": functools.partial(opnorm._ascend, start[None], EXPONENTS, plan, SearchConfig(max_iters=1)),
        "ascent": functools.partial(opnorm._ascend, start[None], EXPONENTS, plan, SearchConfig(max_iters=10)),
        "estimate": functools.partial(estimate, M, M, EXPONENTS, ESTIMATE_CONFIG),
        "estimate_closed": functools.partial(estimate, M, M, CLOSED_EXPONENTS, ESTIMATE_CONFIG),
    }


def _median_us(call, repeats: int) -> dict:
    timer = timeit.Timer(call, setup="gc.enable()")
    number, _ = timer.autorange()
    samples = timer.repeat(repeat=repeats, number=number)
    return {"median_us": statistics.median(samples) / number * 1e6, "calls_per_sample": number}


def _evaluations(call) -> int:
    """The objective evaluations (``opnorm._evaluate`` calls) that one call of `call` makes."""
    evaluate, count = opnorm._evaluate, 0

    def counting(*args):
        nonlocal count
        count += 1
        return evaluate(*args)

    opnorm._evaluate = counting
    try:
        call()
    finally:
        opnorm._evaluate = evaluate
    return count


def _peak_bytes(call) -> int:
    """The peak bytes that one call of `call` allocates, as tracemalloc traces them."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _git_commit() -> dict:
    def git(*args: str) -> "str | None":
        try:
            done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                                  env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        except OSError:
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": git("rev-parse", "HEAD"), "dirty": None if status is None else bool(status)}


def _machine() -> dict:
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model or platform.processor() or None,
            "python": platform.python_version(), "numpy": np.__version__}


def _sizes(text: str) -> list[int]:
    try:
        sizes = [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"sizes must be comma-separated integers, got {text!r}")
    if not sizes or min(sizes) < 1:
        raise argparse.ArgumentTypeError(f"sizes must be positive, got {text!r}")
    return sizes


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=_sizes, default=list(DEFAULT_SIZES), help="M = N values, e.g. 4,8,16")
    parser.add_argument("--repeats", type=_positive, default=5, help="timed samples per layer and size")
    parser.add_argument("--out", type=Path, help="JSON file to store the run in, under --label")
    parser.add_argument("--label", help="key of this run in --out, e.g. parent or change")
    args = parser.parse_args(argv)
    if (args.out is None) != (args.label is None):
        parser.error("give --out and --label together, or neither")
    commit = _git_commit()
    if args.out is not None and commit["commit"] is None:
        print(f"error: {ROOT} is not a git checkout, so --out could not record its commit; "
              "run from a git clone or worktree", file=sys.stderr)
        return 1

    layers: dict[str, dict] = {}
    with tempfile.TemporaryDirectory() as workdir:
        for M in args.sizes:
            for name, call in _layer_calls(M, Path(workdir)).items():
                layers.setdefault(name, {})[str(M)] = _median_us(call, args.repeats)
                if name == "ascent":
                    layers[name][str(M)]["evaluations"] = _evaluations(call)
                if name in PEAK_LAYERS:
                    layers[name][str(M)]["peak_bytes"] = _peak_bytes(call)
    run = {
        **commit,
        "machine": _machine(),
        "config": {
            "sizes": args.sizes,
            "repeats": args.repeats,
            "grid": "default_grid(M, M): 8M x 8M",
            "search_max_m": SEARCH_MAX_M,
            "exponents": list(EXPONENTS.as_tuple()),
            "estimate_closed_exponents": list(CLOSED_EXPONENTS.as_tuple()),
            "estimate": {"restarts": ESTIMATE_CONFIG.restarts, "max_iters": ESTIMATE_CONFIG.max_iters,
                         "seed": ESTIMATE_CONFIG.seed},
        },
        "layers": layers,
    }
    if args.out is None:
        print(json.dumps(run, indent=1))
        return 0
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc[args.label] = run
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
