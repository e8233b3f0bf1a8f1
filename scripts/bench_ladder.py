"""Time mnlab's layers on the size ladder M = N, on the default 8x grid.

    python3 scripts/bench_ladder.py [--sizes 4,8,16,32,64,256] [--repeats 5]
        [--parent DIR] [--label NAME] [--out FILE]

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

Each sample is the mean time per call over a run of at least 0.2 s
(``timeit``'s autorange) or one call, with the garbage collector on as in a
CLI run: ``timeit`` turns it off, which hides the collections that a Python
object per number sets off.  An entry keeps its ``--repeats`` samples in
``samples_us``, in the order taken, and their median in ``median_us``.

``--parent DIR`` times a second source checkout in the same process: each
tree's mnlab is imported under a package name of its own, and the two trees
take turns, layer by layer and repeat by repeat, the first turn going to
each in alternation.  Drift of the host then lands on both sides alike,
where runs made one after the other put it between them.  Both trees are
timed with this script's layer list, so the parent must have every name it
calls.  The parent's run is labelled ``parent`` and this checkout's
``--label`` (default ``change``).

Each run records the machine (cores, CPU, Python, numpy) and the git commit
of its checkout.  Without ``--out`` the runs are printed as one JSON object
keyed by label; with it, they are stored under their labels in the JSON
object in FILE, which keeps its other labels.  A stored run must name its
commit: with ``--out``, a checkout that git cannot read (a ``git archive``
export, say) exits 1 before timing anything, so measure the parent in a
``git clone`` or a ``git worktree``.  Timings are not gated: only the exit
code says whether the run worked.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
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
from types import ModuleType, SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
EXPONENTS = (0.25, 0.5, 0.75, 0.5)
CLOSED_EXPONENTS = (1.0, 1.0, 0.0, 0.0)
ESTIMATE = {"restarts": 2, "max_iters": 10, "seed": 7}
DEFAULT_SIZES = (4, 8, 16, 32, 64, 256)
SEARCH_MAX_M = 64
PEAK_LAYERS = ("eval_sum", "lrs_norm", "lpq_norm", "load_grid", "objective")


def _import_tree(root: Path, name: str) -> SimpleNamespace:
    """The mnlab modules of the checkout at `root`, its package imported under the name `name`."""
    init = root / "src" / "mnlab" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package: ModuleType = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    modules = {module: importlib.import_module(f"{name}.{module}") for module in ("norms", "opnorm", "trigsum")}
    exponents = importlib.import_module(f"{name}.exponents")
    return SimpleNamespace(root=root, **modules, exponents=exponents.MixedExponents(*EXPONENTS),
                           closed=exponents.MixedExponents(*CLOSED_EXPONENTS))


def _random_entries(rng: np.random.Generator, M: int) -> np.ndarray:
    return rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M))


def _gradient_call(tree: SimpleNamespace, entries: np.ndarray, plan):
    """One pulled-back gradient and its dual map at `entries`, handed the step record the ascent keeps."""
    opnorm = tree.opnorm
    samples = tree.trigsum.eval_sum(tree.norms.CoefficientMatrix(*entries.shape, entries), plan).samples
    trial = opnorm._evaluate(entries, samples, tree.exponents)
    return lambda: opnorm._dual_map(opnorm._adjoint_gradient(trial), tree.exponents)


def _layer_calls(tree: SimpleNamespace, M: int, workdir: Path) -> dict:
    norms, opnorm, trigsum, e = tree.norms, tree.opnorm, tree.trigsum, tree.exponents
    rng = np.random.default_rng([M, 7])
    entries = _random_entries(rng, M)
    entries /= np.linalg.norm(entries)
    A = norms.CoefficientMatrix(M, M, entries)
    plan = trigsum.default_grid(M, M)
    f = trigsum.eval_sum(A, plan)
    grid_calls = {
        "eval_sum": lambda: trigsum.eval_sum(A, plan),
        "lrs_norm": lambda: norms.lrs_norm(f, e),
        "lpq_norm": lambda: norms.lpq_norm(A, e),
    }
    if M > SEARCH_MAX_M:
        return grid_calls
    grid_path = workdir / f"grid_{M}.json"
    norms.save_grid(grid_path, f)
    start = _random_entries(rng, M)[None]
    config = opnorm.SearchConfig(**ESTIMATE)
    return {
        **grid_calls,
        "load_grid": lambda: norms.load_grid(grid_path),
        "objective": lambda: opnorm.objective(A, e, plan),
        "gradient": _gradient_call(tree, entries, plan),
        "ascent_step": lambda: opnorm._ascend(start, e, plan, opnorm.SearchConfig(max_iters=1)),
        "ascent": lambda: opnorm._ascend(start, e, plan, opnorm.SearchConfig(max_iters=10)),
        "estimate": lambda: opnorm.estimate(M, M, e, config),
        "estimate_closed": lambda: opnorm.estimate(M, M, tree.closed, config),
    }


def _timed_samples(calls: list, repeats: int) -> list[dict]:
    """Per call, `repeats` samples of its mean time per call, the calls taking turns sample by sample.

    Each repeat starts with the next call in turn, so no call always runs first.
    """
    timers = [timeit.Timer(call, setup="gc.enable()") for call in calls]
    numbers = [timer.autorange()[0] for timer in timers]
    samples: list[list[float]] = [[] for _ in calls]
    for repeat in range(repeats):
        for turn in range(len(calls)):
            index = (repeat + turn) % len(calls)
            samples[index].append(timers[index].timeit(numbers[index]) / numbers[index] * 1e6)
    return [{"median_us": statistics.median(taken), "samples_us": taken, "calls_per_sample": number}
            for taken, number in zip(samples, numbers)]


def _evaluations(opnorm: ModuleType, call) -> int:
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


def _git_commit(root: Path) -> dict:
    def git(*args: str) -> "str | None":
        try:
            done = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                                  env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)})
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
    parser.add_argument("--parent", type=Path, help="a second source checkout, timed alternately with this one")
    parser.add_argument("--label", default="change", help="key of this checkout's run (default: change)")
    parser.add_argument("--out", type=Path, help="JSON file to store the runs in, under their labels")
    args = parser.parse_args(argv)
    roots = {args.label: ROOT}
    if args.parent is not None:
        if args.label == "parent":
            parser.error("--label parent is the --parent checkout's label; name this checkout otherwise")
        roots = {"parent": args.parent.resolve(), **roots}
    commits = {label: _git_commit(root) for label, root in roots.items()}
    for label, root in roots.items():
        if not (root / "src" / "mnlab" / "__init__.py").is_file():
            print(f"error: {root} has no src/mnlab package", file=sys.stderr)
            return 1
        if args.out is not None and commits[label]["commit"] is None:
            print(f"error: {root} is not a git checkout, so --out could not record its commit; "
                  "run from a git clone or worktree", file=sys.stderr)
            return 1
    trees = {label: _import_tree(root, "mnlab" if root == ROOT else f"mnlab_{label}")
             for label, root in roots.items()}

    layers: dict[str, dict] = {label: {} for label in trees}
    with tempfile.TemporaryDirectory() as workdir:
        workdirs = {label: Path(workdir) / label for label in trees}
        for path in workdirs.values():
            path.mkdir()
        for M in args.sizes:
            calls = {label: _layer_calls(tree, M, workdirs[label]) for label, tree in trees.items()}
            for name in next(iter(calls.values())):
                timed = _timed_samples([calls[label][name] for label in trees], args.repeats)
                for label, entry in zip(trees, timed):
                    if name == "ascent":
                        entry["evaluations"] = _evaluations(trees[label].opnorm, calls[label][name])
                    if name in PEAK_LAYERS:
                        entry["peak_bytes"] = _peak_bytes(calls[label][name])
                    layers[label].setdefault(name, {})[str(M)] = entry
            del calls
    config = {
        "sizes": args.sizes,
        "repeats": args.repeats,
        "grid": "default_grid(M, M): 8M x 8M",
        "search_max_m": SEARCH_MAX_M,
        "exponents": list(EXPONENTS),
        "estimate_closed_exponents": list(CLOSED_EXPONENTS),
        "estimate": ESTIMATE,
        "timed_together": list(trees),
    }
    runs = {label: {**commits[label], "machine": _machine(), "config": config, "layers": layers[label]}
            for label in trees}
    if args.out is None:
        print(json.dumps(runs, indent=1))
        return 0
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.update(runs)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
