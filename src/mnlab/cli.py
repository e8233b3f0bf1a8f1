"""Command-line driver: norms, grid evaluation, bounds, extremizer checks, sweeps.

Exit status: 0 on success, 1 on a validation error (bad flags, malformed
input files), 2 on an invariant violation (e.g. a sandwich breach in an
operator-norm report).  Every run is reproducible from its flags plus input
files.

Exponents are given as the reciprocals the paper's box Q = [0, 1]^4 and
every report use: --alpha 1/p, --beta 1/q, --gamma 1/r, --delta 1/s, with
0 for an infinite exponent and 0.5 (exponent 2) by default.  A report's
`exponents` list pastes back as `sweep --rtuple`.  Flags are never
abbreviated.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import warnings

import numpy as np

from .exponents import MixedExponents, check_dimensions, phi, theta, upper_bound_magnitude
from .extremizers import (
    ChirpB,
    ColumnC,
    OnesD,
    RowR,
    UnitE,
    # Not called here, but span tracers rebind it as cli.build.
    build,
    chirp_residual_sweep,
    unit_sharpness,
    verify_chirp_lower,
    verify_dirichlet_lower,
)
from .norms import (
    CoefficientMatrix,
    QuadratureSpec,
    # Not called here, but span tracers rebind it as cli.grid_to_json.
    grid_to_json,
    load_grid,
    load_matrix,
    lpq_norm,
    lrs_norm,
    save_grid,
    write_grid,
)
from .opnorm import (
    SearchConfig,
    estimate,
    sharpness_sweep,
    write_reports_csv,
)
from .trigsum import EvalPlan, default_grid, eval_nonortho, eval_sum


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # No prefix matching, so an unknown flag is refused, never read as a longer one
        # (--r as --restarts); subparsers are built by this class too.
        super().__init__(*args, **kwargs, allow_abbrev=False)
        # No mnlab flag looks like a number, so -0.1,0.2 or -.5 is a value, not a flag.
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    # Flag mistakes are validation errors: exit status 1, not argparse's 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(_fail(message))


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _format_warning(message, category, filename, lineno, line=None) -> str:
    # One fixed line: Python's default names this file's path and line.
    return f"warning: {message}\n"


def _add_exponent_flags(p: argparse.ArgumentParser) -> None:
    for name, exponent in (("alpha", "p"), ("beta", "q"), ("gamma", "r"), ("delta", "s")):
        p.add_argument(f"--{name}", type=float, default=0.5,
                       help=f"1/{exponent} in [0, 1], 0 for {exponent} = inf (default 0.5)")


def _exponents_from_args(args) -> MixedExponents:
    return MixedExponents(args.alpha, args.beta, args.gamma, args.delta)


def _grid_from_args(args) -> "EvalPlan | None":
    """The plan of --Kx/--Ky, or None when neither is given."""
    if (args.Kx is None) != (args.Ky is None):
        raise ValueError("give --Kx and --Ky together, or neither")
    return None if args.Kx is None else EvalPlan(args.Kx, args.Ky)


def _parse_list(text: str, flag: str, kind, sep: str = ",", count: "int | None" = None) -> list:
    """The `sep`-separated entries of `flag`'s value `text`, each read by `kind`; `count` of them if given.

    Every list value is read here, so a bad entry or count gets the one message naming the flag.
    """
    try:
        values = [kind(part) for part in text.split(sep)]
    except ValueError:
        values = None
    if values is None or count not in (None, len(values)):
        raise ValueError(f"bad {flag} value {text!r}")
    return values


def _parse_ladder(text: str, flag: str, name: str = "M") -> list[int]:
    """'2:16' doubles from 2 to 16; '2,3,4' is a literal list; '8' is one rung of the size `name`.

    Every rung passes check_dimensions here, before the caller does any work.
    """
    if ":" in text:
        lo, hi = _parse_list(text, flag, int, ":", 2)
        if hi < lo:
            raise ValueError(f"bad ladder {text!r}")
        check_dimensions(lo, names=(name,))  # a rung below one would double forever
        rungs = [lo << k for k in range((hi // lo).bit_length())]  # lo, 2 lo, 4 lo, ... up to hi
    else:
        rungs = _parse_list(text, flag, int)
    for rung in rungs:
        check_dimensions(rung, names=(name,))
    return rungs


def _check_finite(doc, key=None) -> None:
    """Refuse a NaN or an infinity, which JSON cannot hold, naming the key that holds it."""
    if isinstance(doc, float) and not math.isfinite(doc):
        raise ValueError(f"{key} is not a finite number: {doc}")
    children = doc.items() if isinstance(doc, dict) else [(key, item) for item in doc] if isinstance(doc, list) else []
    for child_key, child in children:
        _check_finite(child, child_key)


def _emit(obj, out_path: "str | None") -> None:
    """Print the strict JSON document `obj` and write it to `out_path`, if given; refuse it before either."""
    _check_finite(obj)
    text = json.dumps(obj, sort_keys=True, indent=2)
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text + "\n")
    print(text)


# ----------------------------------------------------------------------------
# Subcommand handlers
# ----------------------------------------------------------------------------


def _cmd_norm(args) -> int:
    e = _exponents_from_args(args)
    out = {}
    if args.matrix:
        out["lpq"] = lpq_norm(load_matrix(args.matrix), e)
    if args.grid:
        out["lrs"] = lrs_norm(load_grid(args.grid), e, QuadratureSpec(refine_check=args.refine_check))
    if not out:
        raise ValueError("give --matrix and/or --grid")
    _emit(out, args.out)
    return 0


def _cmd_eval(args) -> int:
    grid = _grid_from_args(args)
    A = load_matrix(args.matrix)
    evaluate = eval_nonortho if args.scale == "one" else eval_sum
    f = evaluate(A, grid or default_grid(A.M, A.N))
    if args.out:
        save_grid(args.out, f)
    else:
        write_grid(sys.stdout, f)
    return 0


def _cmd_bound(args) -> int:
    e = _exponents_from_args(args)
    _emit(
        {
            "M": args.M,
            "N": args.N,
            "exponents": list(e.as_tuple()),
            "theta": theta(e),
            "phi": phi(e),
            "upper": upper_bound_magnitude(args.M, args.N, e),
        },
        args.out,
    )
    return 0


def _cmd_extremal(args) -> int:
    e = _exponents_from_args(args)
    if args.kind == "chirp":
        report = verify_chirp_lower(args.M, args.N, eta=args.eta)
    elif args.kind in {"column", "row", "ones"}:
        kind = {"column": ColumnC(col=args.col), "row": RowR(row=args.row), "ones": OnesD()}[args.kind]
        report = verify_dirichlet_lower(kind, args.M, args.N, e)
    else:
        report = unit_sharpness(UnitE(row=args.row, col=args.col), args.M, args.N, e)
    _emit(report.to_json_dict(), args.out)
    return 0


def _cmd_chirp_check(args) -> int:
    Ms = _parse_ladder(args.M_ladder, "--M-ladder")
    xs = _parse_list(args.xs, "--xs", float) if args.xs else ChirpB(args.eta).window(7)
    report = chirp_residual_sweep(args.eta, Ms, xs)
    for M, residual in zip(report.Ms, report.max_residuals):
        print(f"M={M:>8d}  max|sum - main|={residual:.6g}")
    print(f"slope={report.slope:.4f}  amplitude_ratio={report.amplitude_ratio:.4f}  "
          f"predicted_amplitude={report.predicted_amplitude:.4f}")
    _emit(report.to_json_dict(), args.out)
    return 0


def _add_search_flags(p: argparse.ArgumentParser, restarts: int, max_iters: int) -> None:
    """The flags `opnorm` and `sweep` share: the search budget, the CSV table and the JSON document."""
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=restarts)
    p.add_argument("--max-iters", type=int, default=max_iters)
    p.add_argument("--csv")
    p.add_argument("--out")


def _cmd_opnorm(args) -> int:
    e = _exponents_from_args(args)
    cfg = SearchConfig(restarts=args.restarts, max_iters=args.max_iters, seed=args.seed,
                       grid=_grid_from_args(args))
    report = estimate(args.M, args.N, e, cfg)
    if args.csv:
        write_reports_csv(args.csv, [report])
    _emit(report.to_json_dict(), args.out)
    if not report.sandwich_ok:
        print("error: sandwich invariant violated (see report)", file=sys.stderr)
        return 2
    return 0


def _cmd_sweep(args) -> int:
    Ms = _parse_ladder(args.M_ladder, "--M-ladder")
    Ns = _parse_ladder(args.N_ladder, "--N-ladder", "N") if args.N_ladder else Ms
    tuples = [MixedExponents(*_parse_list(t, "--rtuple", float, count=4)) for t in args.rtuple or []]
    if not tuples:
        raise ValueError("give at least one --rtuple alpha,beta,gamma,delta")
    cfg = SearchConfig(restarts=args.restarts, max_iters=args.max_iters, seed=args.seed)
    reports = sharpness_sweep(Ms, Ns, tuples, cfg)
    if args.csv:
        write_reports_csv(args.csv, reports)
    _emit([report.to_json_dict() for report in reports], args.out)
    if any(not report.sandwich_ok for report in reports):
        print("error: sandwich invariant violated in at least one report", file=sys.stderr)
        return 2
    return 0


def _cmd_nonortho_check(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    if args.seed < 0:
        raise ValueError(f"seed must be >= 0, got {args.seed}")
    sizes = _parse_ladder(args.sizes, "--sizes")
    e22 = MixedExponents(0.5, 0.5, 0.5, 0.5)
    rng = np.random.default_rng(args.seed)
    max_ratios = []
    for size in sizes:
        plan = default_grid(size, size, floor=64)
        worst = 0.0
        for _ in range(args.trials):
            entries = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            A = CoefficientMatrix(size, size, entries)
            ratio = lrs_norm(eval_nonortho(A, plan), e22) / lpq_norm(A, e22)
            worst = max(worst, ratio)
        max_ratios.append(worst)
        print(f"M=N={size:>3d}  max ratio over {args.trials} draws: {worst:.6f}")
    growth = max_ratios[-1] / max_ratios[-2] - 1.0 if len(max_ratios) >= 2 else 0.0
    _emit(
        {
            "sizes": sizes,
            "trials": args.trials,
            "max_ratios": max_ratios,
            "empirical_constant": max(max_ratios),
            "top_growth": growth,
        },
        args.out,
    )
    return 0


def main(argv=None) -> int:
    """Run the `mnlab` command on `argv` (default: sys.argv[1:]) and return its exit status."""
    parser = _Parser(prog="mnlab", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("norm", help="print mixed norms of a matrix and/or grid file")
    p_norm.add_argument("--matrix")
    p_norm.add_argument("--grid")
    p_norm.add_argument("--refine-check", action="store_true")
    p_norm.add_argument("--out")
    _add_exponent_flags(p_norm)
    p_norm.set_defaults(func=_cmd_norm)

    p_eval = sub.add_parser("eval", help="sample the double sum (or its unit-frequency variant) to a grid file")
    p_eval.add_argument("--matrix", required=True)
    p_eval.add_argument("--out")
    p_eval.add_argument("--Kx", type=int, default=None)
    p_eval.add_argument("--Ky", type=int, default=None)
    p_eval.add_argument("--scale", choices=["two-pi", "one"], default="two-pi")
    p_eval.set_defaults(func=_cmd_eval)

    p_bound = sub.add_parser("bound", help="print theta, phi and the growth bound constant")
    p_bound.add_argument("--M", type=int, required=True)
    p_bound.add_argument("--N", type=int, required=True)
    p_bound.add_argument("--out")
    _add_exponent_flags(p_bound)
    p_bound.set_defaults(func=_cmd_bound)

    p_ext = sub.add_parser("extremal", help="build an extremizer and verify its lower bound")
    p_ext.add_argument("--kind", choices=["chirp", "column", "row", "ones", "unit"], required=True)
    p_ext.add_argument("--M", type=int, required=True)
    p_ext.add_argument("--N", type=int, required=True)
    p_ext.add_argument("--eta", type=float, default=0.2)
    p_ext.add_argument("--row", type=int, default=1)
    p_ext.add_argument("--col", type=int, default=1)
    p_ext.add_argument("--out")
    _add_exponent_flags(p_ext)
    p_ext.set_defaults(func=_cmd_extremal)

    p_chirp = sub.add_parser("chirp-check", help="residual sweep of the chirp sum against its closed form")
    p_chirp.add_argument("--eta", type=float, default=0.2)
    p_chirp.add_argument("--M-ladder", default="1024:65536")
    p_chirp.add_argument("--xs", default="", help="comma-separated x values (default: 7 across the window)")
    p_chirp.add_argument("--out")
    p_chirp.set_defaults(func=_cmd_chirp_check)

    p_op = sub.add_parser("opnorm", help="bracket and search the operator norm at one point")
    p_op.add_argument("--M", type=int, required=True)
    p_op.add_argument("--N", type=int, required=True)
    _add_search_flags(p_op, restarts=8, max_iters=60)
    p_op.add_argument("--Kx", type=int, default=None)
    p_op.add_argument("--Ky", type=int, default=None)
    _add_exponent_flags(p_op)
    p_op.set_defaults(func=_cmd_opnorm)

    p_sweep = sub.add_parser("sweep", help="operator-norm reports along a size ladder")
    p_sweep.add_argument("--M-ladder", required=True)
    p_sweep.add_argument("--N-ladder", default="")
    p_sweep.add_argument("--rtuple", action="append",
                         help="reciprocals alpha,beta,gamma,delta, as a report's exponents; repeatable")
    _add_search_flags(p_sweep, restarts=4, max_iters=40)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_non = sub.add_parser("nonortho-check", help="ratio sweep for the unit-frequency sum")
    p_non.add_argument("--sizes", default="2,4,8,16,32")
    p_non.add_argument("--trials", type=int, default=50)
    p_non.add_argument("--seed", type=int, default=0)
    p_non.add_argument("--out")
    p_non.set_defaults(func=_cmd_nonortho_check)

    args = parser.parse_args(argv)
    format_warning, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, OverflowError, MemoryError) as exc:
        return _fail(str(exc))
    except AssertionError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = format_warning


if __name__ == "__main__":
    raise SystemExit(main())
