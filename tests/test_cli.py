"""End-to-end tests of the command-line interface via main(argv)."""

import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import mnlab
from mnlab import cli, norms
from mnlab.cli import main
from mnlab.norms import (
    CoefficientMatrix,
    GridFunction,
    QuadratureWarning,
    grid_to_json,
    load_grid,
    save_grid,
    save_matrix,
)
from mnlab.trigsum import OVERSAMPLE, EvalPlan, eval_nonortho, eval_sum


@pytest.fixture
def matrix_file(tmp_path):
    rng = np.random.default_rng(0)
    A = CoefficientMatrix(4, 3, rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)))
    path = tmp_path / "matrix.json"
    save_matrix(path, A)
    return path, A


def last_json(text):
    """Parse the JSON object that ends a mixed text/JSON stdout capture."""
    return json.loads(text[text.index("{"):])


# ----------------------------------------------------------------------------
# The README's examples
# ----------------------------------------------------------------------------


def readme_examples():
    """The argv of each `mnlab ...` line in the README's "Command line" code block, in order."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("mnlab ")]


def test_every_readme_example_runs(tmp_path, monkeypatch, capsys):
    examples = readme_examples()
    assert len(examples) == 9
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(3)
    save_matrix("A.json", CoefficientMatrix(4, 3, rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))))
    for argv in examples:  # in order: `norm` reads the S.json that `eval` writes
        assert main(argv) == 0, argv
    capsys.readouterr()


# ----------------------------------------------------------------------------
# bound
# ----------------------------------------------------------------------------


def test_bound_defaults_to_l2(capsys):
    assert main(["bound", "--M", "4", "--N", "9"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["theta"] == 0.5
    assert doc["phi"] == 0.5
    # theta - alpha = theta - beta = 0: the growth constant is one.
    assert doc["upper"] == 1.0
    assert doc["exponents"] == [0.5, 0.5, 0.5, 0.5]


def test_bound_accepts_exponent_style_flags(capsys):
    assert main(["bound", "--M", "8", "--N", "8", "--p", "1", "--q", "1",
                 "--r", "inf", "--s", "inf"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["exponents"] == [1.0, 1.0, 0.0, 0.0]
    assert doc["theta"] == 1.0
    assert doc["upper"] == 1.0


# ----------------------------------------------------------------------------
# eval / norm round trip
# ----------------------------------------------------------------------------


def test_eval_then_norm_round_trip(tmp_path, matrix_file, capsys):
    path, A = matrix_file
    grid_path = tmp_path / "grid.json"
    assert main(["eval", "--matrix", str(path), "--out", str(grid_path),
                 "--Kx", "16", "--Ky", "16"]) == 0
    capsys.readouterr()
    assert main(["norm", "--matrix", str(path), "--grid", str(grid_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    frobenius = float(np.linalg.norm(A.entries))
    assert doc["lpq"] == pytest.approx(frobenius, rel=1e-12)
    # The grid is exact for this matrix size, so the two norms coincide.
    assert doc["lrs"] == pytest.approx(doc["lpq"], rel=1e-9)


def test_eval_without_out_prints_grid(matrix_file, capsys):
    path, A = matrix_file
    assert main(["eval", "--matrix", str(path), "--Kx", "8", "--Ky", "8"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["Kx"] == 8 and doc["Ky"] == 8
    assert len(doc["samples"]) == 64


@pytest.mark.parametrize("scale", ["two-pi", "one"])
def test_eval_stdout_is_the_grid_document(matrix_file, scale, capsys):
    path, A = matrix_file
    assert main(["eval", "--matrix", str(path), "--Kx", "5", "--Ky", "7", "--scale", scale]) == 0
    evaluate = eval_nonortho if scale == "one" else eval_sum
    f = evaluate(A, EvalPlan(Kx=5, Ky=7))
    assert capsys.readouterr().out == json.dumps(grid_to_json(f)) + "\n"


def test_eval_stdout_streams_the_grid(matrix_file, monkeypatch):
    # Building the whole document before printing took 14.6 grids of
    # complex bytes; row by row it is the grid and the transform's buffers.
    path, _ = matrix_file
    with open(os.devnull, "w") as devnull:
        monkeypatch.setattr(sys, "stdout", devnull)
        tracemalloc.start()
        try:
            assert main(["eval", "--matrix", str(path), "--Kx", "128", "--Ky", "128"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 2 * 128 * 128 * 16


def test_eval_unit_scale(tmp_path, matrix_file):
    path, _ = matrix_file
    grid_path = tmp_path / "v.json"
    assert main(["eval", "--matrix", str(path), "--scale", "one",
                 "--out", str(grid_path), "--Kx", "8", "--Ky", "8"]) == 0
    f = load_grid(grid_path)
    assert f.Kx == 8 and f.Ky == 8


def test_eval_determinism_is_byte_for_byte(tmp_path, matrix_file):
    path, _ = matrix_file
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["eval", "--matrix", str(path), "--out", str(out1)]) == 0
    assert main(["eval", "--matrix", str(path), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_eval_out_writes_the_printed_document(tmp_path, matrix_file, capsys):
    path, A = matrix_file
    out = tmp_path / "grid.json"
    assert main(["eval", "--matrix", str(path), "--out", str(out)]) == 0
    assert main(["eval", "--matrix", str(path)]) == 0
    printed = capsys.readouterr().out
    # The document as the whole-grid, per-element serializer wrote it.
    samples = eval_sum(A, EvalPlan(Kx=32, Ky=24)).samples
    pairs = [[float(z.real), float(z.imag)] for z in samples.ravel()]
    expected = json.dumps({"Kx": 32, "Ky": 24, "samples": pairs}) + "\n"
    assert out.read_text() == printed == expected
    # Span tracers rebind these two names on cli to time the JSON layer.
    assert cli.save_grid is norms.save_grid and cli.grid_to_json is norms.grid_to_json


# ----------------------------------------------------------------------------
# extremal
# ----------------------------------------------------------------------------


def test_extremal_unit_reports_sharp_ratio(capsys):
    assert main(["extremal", "--kind", "unit", "--M", "4", "--N", "4",
                 "--row", "2", "--col", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "unit"
    assert doc["ratio"] == pytest.approx(1.0, abs=1e-9)


def test_extremal_column_certified_value(capsys):
    assert main(["extremal", "--kind", "column", "--M", "8", "--N", "4",
                 "--alpha", "0.5", "--beta", "0.75", "--gamma", "0.25", "--delta", "0.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lower"] == pytest.approx(math.sin(1.0) / math.pi**0.25 * 8.0**0.25, rel=1e-12)
    assert doc["ratio"] <= 1.0 + 1e-12


def test_extremal_all_kinds_run(capsys):
    shared = {"kind", "M", "N", "exponents", "lower", "upper", "ratio"}
    extra = {"chirp": {"eta"}, "column": {"observed"}, "row": {"observed"}, "ones": {"observed"},
             "unit": set()}
    for kind in ("chirp", "column", "row", "ones", "unit"):
        assert main(["extremal", "--kind", kind, "--M", "4", "--N", "4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == shared | extra[kind]
        assert doc["kind"] == kind
        assert doc["ratio"] == doc["lower"] / doc["upper"]


# ----------------------------------------------------------------------------
# chirp-check
# ----------------------------------------------------------------------------


def test_chirp_check_small_ladder(tmp_path, capsys):
    out_path = tmp_path / "chirp.json"
    assert main(["chirp-check", "--M-ladder", "256:1024", "--xs", "0.3,0.5",
                 "--out", str(out_path)]) == 0
    text = capsys.readouterr().out
    assert "slope=" in text
    doc = last_json(text)
    assert doc["Ms"] == [256, 512, 1024]
    assert doc["xs"] == [0.3, 0.5]
    assert json.loads(out_path.read_text()) == doc


# ----------------------------------------------------------------------------
# opnorm / sweep / nonortho-check
# ----------------------------------------------------------------------------


def test_opnorm_writes_reports(tmp_path, capsys):
    jsonl = tmp_path / "r.jsonl"
    csv_path = tmp_path / "r.csv"
    assert main(["opnorm", "--M", "2", "--N", "2", "--restarts", "1",
                 "--max-iters", "1", "--jsonl", str(jsonl), "--csv", str(csv_path)]) == 0
    doc = last_json(capsys.readouterr().out)
    assert doc["sandwich_ok"] is True
    assert json.loads(jsonl.read_text().strip()) == doc
    header = csv_path.read_text().splitlines()[0]
    assert header.startswith("M,N,alpha")


def test_opnorm_stdout_is_deterministic(capsys):
    argv = ["opnorm", "--M", "2", "--N", "2", "--restarts", "2",
            "--max-iters", "2", "--seed", "5"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_sweep_runs_a_ladder(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    assert main(["sweep", "--M-ladder", "1:2", "--rtuple", "0.5,0.5,0.5,0.5",
                 "--restarts", "1", "--max-iters", "1", "--csv", str(csv_path)]) == 0
    doc = last_json(capsys.readouterr().out)
    key = str((0.5, 0.5, 0.5, 0.5))
    assert doc[key]["sizes"] == [[1, 1], [2, 2]]
    rows = csv_path.read_text().splitlines()
    assert len(rows) == 3


def test_nonortho_check_reports_ratios(capsys):
    assert main(["nonortho-check", "--sizes", "2,4", "--trials", "3"]) == 0
    doc = last_json(capsys.readouterr().out)
    assert len(doc["max_ratios"]) == 2
    assert doc["empirical_constant"] >= 1.0
    assert "top_growth" in doc


# ----------------------------------------------------------------------------
# Failure modes and exit codes
# ----------------------------------------------------------------------------


def test_mixed_exponent_styles_fail(matrix_file, capsys):
    path, _ = matrix_file
    assert main(["norm", "--matrix", str(path), "--p", "2", "--alpha", "0.5"]) == 1
    assert "not both" in capsys.readouterr().err


def test_exponent_below_one_fails(matrix_file, capsys):
    path, _ = matrix_file
    assert main(["norm", "--matrix", str(path), "--p", "0.5"]) == 1
    assert "must lie in [1, inf]" in capsys.readouterr().err


def test_missing_file_fails(capsys):
    assert main(["norm", "--matrix", "/nonexistent/matrix.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_norm_without_inputs_fails(capsys):
    assert main(["norm"]) == 1
    capsys.readouterr()


def test_undersized_transform_grid_fails(matrix_file, capsys):
    path, _ = matrix_file
    assert main(["eval", "--matrix", str(path), "--Kx", "2", "--Ky", "8"]) == 1
    assert "zero-pad transform needs" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--Kx", "--Ky"])
def test_opnorm_grid_flag_without_its_partner_fails(flag, capsys):
    assert main(["opnorm", "--M", "2", "--N", "2", flag, "32"]) == 1
    err = capsys.readouterr().err
    assert err.strip() == "error: give --Kx and --Ky together, or neither"


def test_opnorm_grid_flags_set_the_grid(capsys):
    assert main(["opnorm", "--M", "2", "--N", "2", "--restarts", "1", "--max-iters", "1",
                 "--Kx", "24", "--Ky", "40"]) == 0
    assert json.loads(capsys.readouterr().out)["grid"] == [24, 40]


def test_nonortho_check_without_trials_fails(capsys):
    assert main(["nonortho-check", "--sizes", "2,4", "--trials", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "error: --trials must be >= 1, got 0"


# A size with 401 digits, beyond float range.
HUGE = "1" + "0" * 400


@pytest.mark.parametrize("argv, message", [
    (["chirp-check", "--eta", "0", "--M-ladder", "8:16"], "eta must lie in (0, 1), got 0.0"),
    (["chirp-check", "--eta", "-0.2", "--M-ladder", "8:16"], "eta must lie in (0, 1), got -0.2"),
    (["chirp-check", "--M-ladder", "0,16"], "every M must be >= 1, got [0, 16]"),
    (["chirp-check", "--M-ladder", "16,16"], "need at least two distinct M values to fit a slope"),
    (["eval", "--Kx", "0", "--Ky", "0"], "dimensions must be positive, got Kx=0, Ky=0"),
    (["eval", "--Kx", "16"], "give --Kx and --Ky together, or neither"),
    (["extremal", "--kind", "ones", "--M", "0", "--N", "4"], "dimensions must be positive, got M=0, N=4"),
    (["extremal", "--kind", "row", "--M", "4", "--N", "0"], "dimensions must be positive, got M=4, N=0"),
    (["chirp-check", "--M-ladder", "8:16", "--xs", "nan"], "every x must be finite, got [nan]"),
    (["chirp-check", "--M-ladder", "8:16", "--xs", "inf"], "every x must be finite, got [inf]"),
    (["chirp-check", "--M-ladder", "8:16", "--xs", "0.3,1e200"],
     "x=1e+200 is too large: M*x*x/eta reaches 2**52 at M=16"),
    (["chirp-check", "--M-ladder", "8:16", "--xs", "1e150"],
     "x=1e+150 is too large: M*x*x/eta reaches 2**52 at M=16"),
    (["nonortho-check", "--sizes", "-2"], "dimensions must be positive, got M=-2, N=-2"),
    (["nonortho-check", "--sizes", "2,0", "--trials", "1"], "dimensions must be positive, got M=0, N=0"),
    (["bound", "--M", "0", "--N", "4"], "dimensions must be positive, got M=0, N=4"),
    (["opnorm", "--M", "2", "--N", "2", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["sweep", "--M-ladder", "2,4", "--tuple", "2,2,2,2", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["nonortho-check", "--sizes", "2", "--trials", "1", "--seed", "-1"], "seed must be >= 0, got -1"),
    # Grids above the plan's ceiling, refused before any transform allocates.
    (["opnorm", "--M", "2", "--N", "2", "--Kx", "10000000000000000", "--Ky", "10000000000000000"],
     "a 10000000000000000 x 10000000000000000 grid needs 1.49e+24 GiB of samples, above the limit of 16 GiB"),
    (["eval", "--Kx", "10000000000000000", "--Ky", "10000000000000000"],
     "a 10000000000000000 x 10000000000000000 grid needs 1.49e+24 GiB of samples, above the limit of 16 GiB"),
    (["opnorm", "--M", "2", "--N", "2", "--Kx", "100000000", "--Ky", "100000000"],
     "a 100000000 x 100000000 grid needs 1.49e+08 GiB of samples, above the limit of 16 GiB"),
    # A 3 x 3 grid has no half grid to check against.
    (["norm", "--refine-check"], "the refinement check needs even grid sizes, got Kx=3, Ky=3"),
    # Sizes beyond float range: each command's first float conversion overflows.
    (["bound", "--M", HUGE, "--N", "1"], "int too large to convert to float"),
    (["opnorm", "--M", HUGE, "--N", "1"], "int too large to convert to float"),
    (["sweep", "--M-ladder", HUGE, "--tuple", "2,2,2,2"], "int too large to convert to float"),
    (["extremal", "--kind", "ones", "--M", HUGE, "--N", "1"], "integer division result too large for a float"),
    (["nonortho-check", "--sizes", HUGE], "integer division result too large for a float"),
    (["chirp-check", "--M-ladder", f"8,{HUGE}", "--xs", "0.01"], "int too large to convert to float"),
], ids=["chirp-eta-zero", "chirp-eta-negative", "chirp-M-zero", "chirp-one-distinct-M",
        "eval-Kx-Ky-zero", "eval-Kx-alone", "extremal-ones-M-zero", "extremal-row-N-zero",
        "chirp-xs-nan", "chirp-xs-inf", "chirp-xs-overflow", "chirp-xs-no-fraction-bits",
        "nonortho-size-negative",
        "nonortho-size-zero-after-valid", "bound-M-zero", "opnorm-seed-negative",
        "sweep-seed-negative", "nonortho-seed-negative", "opnorm-grid-too-large", "eval-grid-too-large",
        "opnorm-grid-1e8-too-large", "norm-refine-check-odd-grid", "bound-M-huge", "opnorm-M-huge",
        "sweep-M-huge", "extremal-ones-M-huge", "nonortho-size-huge", "chirp-M-huge"])
def test_bad_input_fails_with_one_line(argv, message, matrix_file, tmp_path, capsys):
    if argv[0] == "eval":
        argv = [*argv, "--matrix", str(matrix_file[0])]
    if argv[0] == "norm":
        save_grid(tmp_path / "odd.json", GridFunction(3, 3, np.ones((3, 3))))
        argv = [*argv, "--grid", str(tmp_path / "odd.json")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_refine_check_warning_is_one_fixed_line(tmp_path, matrix_file, capsys):
    path, _ = matrix_file
    grid_path = tmp_path / "grid.json"
    assert main(["eval", "--matrix", str(path), "--out", str(grid_path), "--Kx", "8", "--Ky", "8"]) == 0
    argv = ["norm", "--grid", str(grid_path), "--refine-check", "--r", "3"]
    # In process the warning still goes through warnings.warn, and main
    # leaves the warnings module as it found it.
    format_warning = warnings.formatwarning
    with pytest.warns(QuadratureWarning, match="^half-grid value"):
        assert main(argv) == 0
    assert warnings.formatwarning is format_warning
    capsys.readouterr()
    # A fresh interpreter shows it with the default filters: one line, no source location.
    env = {**os.environ, "PYTHONPATH": str(Path(mnlab.__file__).parent.parent)}
    env.pop("PYTHONWARNINGS", None)
    done = subprocess.run([sys.executable, "-m", "mnlab.cli", *argv], env=env, capture_output=True, text=True)
    assert done.returncode == 0
    assert done.stderr.startswith("warning: half-grid value ")
    assert done.stderr.count("\n") == 1 and done.stderr.endswith("\n")
    assert ".py" not in done.stderr


def test_eval_default_grid_is_oversample_times_the_matrix(matrix_file, capsys):
    path, A = matrix_file
    assert main(["eval", "--matrix", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["Kx"], doc["Ky"]) == (OVERSAMPLE * A.M, OVERSAMPLE * A.N) == (8 * A.M, 8 * A.N)


# Each removed resolution flag, at a value its validation once refused and at
# its old default: both are argparse errors.
@pytest.mark.parametrize("argv", [
    ["eval", "--oversample", "1"],
    ["eval", "--oversample", "8"],
    ["nonortho-check", "--sizes", "2", "--trials", "1", "--oversample", "-5"],
    ["nonortho-check", "--sizes", "2", "--trials", "1", "--oversample", "0"],
    ["nonortho-check", "--sizes", "2", "--trials", "1", "--oversample", "8"],
    ["extremal", "--kind", "column", "--M", "3", "--N", "2", "--oversample", "1"],
    ["extremal", "--kind", "unit", "--M", "3", "--N", "2", "--oversample", "1"],
    ["extremal", "--kind", "column", "--M", "3", "--N", "2", "--oversample", "8"],
    ["extremal", "--kind", "column", "--M", "3", "--N", "2", "--samples", "-2"],
    ["extremal", "--kind", "ones", "--M", "3", "--N", "2", "--samples", "64"],
    ["extremal", "--kind", "chirp", "--M", "3", "--N", "2", "--grid-points", "1"],
    ["extremal", "--kind", "chirp", "--M", "3", "--N", "2", "--grid-points", "33"],
], ids=["eval-oversample-1", "eval-oversample-default", "nonortho-oversample-negative", "nonortho-oversample-0",
        "nonortho-oversample-default", "extremal-column-oversample-1", "extremal-unit-oversample-1",
        "extremal-oversample-default", "extremal-negative-samples", "extremal-samples-default",
        "extremal-grid-points-1", "extremal-grid-points-default"])
def test_removed_sampling_flags_are_unrecognized(argv, matrix_file, capsys):
    if argv[0] == "eval":
        argv = ["eval", "--matrix", str(matrix_file[0]), *argv[1:]]
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: unrecognized arguments: {' '.join(argv[-2:])}\n")


@pytest.mark.parametrize("document", [
    "[1, 2]",
    '{"M": 2, "N": 1}',
    '{"M": 2, "N": 1, "entries": [[1.0], [2.0]]}',
    '{"M": 2, "N": 1, "entries": [[1.0, "x"], [2.0, 0.0]]}',
    '{"M": 2, "N": 1, "entries": [1.0, 2.0]}',
])
def test_malformed_matrix_file_fails_with_one_line(tmp_path, document, capsys):
    path = tmp_path / "bad.json"
    path.write_text(document)
    assert main(["norm", "--matrix", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: matrix JSON") and err.count("\n") == 1


@pytest.mark.parametrize("flag, what, keys", [("--grid", "grid", ("Kx", "Ky", "samples")),
                                              ("--matrix", "matrix", ("M", "N", "entries"))])
def test_file_smaller_than_its_header_claims_fails_with_the_shape_message(tmp_path, capsys, flag, what, keys):
    # The canonical layout but one pair for 10^22: nothing is sized from the header.
    size = 100_000_000_000
    path = tmp_path / "huge.json"
    path.write_text('{"%s": %d, "%s": %d, "%s": [[1.0, 0.0]]}\n' % (keys[0], size, keys[1], size, keys[2]))
    assert main(["norm", flag, str(path)]) == 1
    assert capsys.readouterr().err == (f"error: {what} JSON: expected {size * size} [re, im] pairs for "
                                       f"{size} x {size}, got an array of shape (1, 2)\n")


def test_grid_file_in_any_json_layout_loads_through_a_pipe(tmp_path, capsys):
    # A pipe is read once, so a file outside the layout save_grid writes still loads.
    f = eval_sum(CoefficientMatrix(2, 2, np.eye(2)), EvalPlan(4, 4))
    pretty = json.dumps(grid_to_json(f), indent=2)
    path = tmp_path / "grid.json"
    path.write_text(pretty)
    assert main(["norm", "--grid", str(path)]) == 0
    env = {**os.environ, "PYTHONPATH": str(Path(mnlab.__file__).parent.parent)}
    done = subprocess.run([sys.executable, "-m", "mnlab.cli", "norm", "--grid", "/dev/stdin"],
                          input=pretty, env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, capsys.readouterr().out, "")


def test_unknown_flag_exits_one(capsys):
    # The last three are not search flags: the line search is fixed and the starts complex.
    for argv in (["bound", "--M", "4", "--N", "4", "--bogus", "1"],
                 ["opnorm", "--M", "2", "--N", "2", "--real-only"],
                 ["opnorm", "--M", "2", "--N", "2", "--step", "0.1"],
                 ["sweep", "--M-ladder", "2", "--rtuple", "0.5,0.5,0.5,0.5", "--tol", "1e-9"]):
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err


def test_bad_choice_exits_one(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["extremal", "--kind", "quadratic", "--M", "4", "--N", "4"])
    assert exc_info.value.code == 1
    capsys.readouterr()


def test_missing_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main([])
    assert exc_info.value.code == 1
    capsys.readouterr()
