"""End-to-end tests of the command-line interface via main(argv)."""

import dataclasses
import io
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
from mnlab import cli, extremizers, norms, opnorm
from mnlab.cli import main
from mnlab.exponents import MixedExponents
from mnlab.norms import (
    CoefficientMatrix,
    GridFunction,
    QuadratureWarning,
    grid_from_json,
    grid_to_json,
    load_grid,
    load_matrix,
    lpq_norm,
    lrs_norm,
    save_grid,
    save_matrix,
)
from mnlab.opnorm import SearchConfig, estimate
from mnlab.trigsum import OVERSAMPLE, EvalPlan, default_grid, eval_nonortho, eval_sum


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
    # The matrix file the examples name, hand-written as JSON.
    matrix_name = next(argv[argv.index("--matrix") + 1] for argv in examples if "--matrix" in argv)
    entries = np.random.default_rng(3).standard_normal((12, 2)).tolist()
    Path(matrix_name).write_text(json.dumps({"M": 4, "N": 3, "entries": entries}))
    for argv in examples:  # in order: `norm` reads the S.npy that `eval` writes
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


def test_bound_takes_reciprocal_flags(capsys):
    # l^1 -> L^inf: 0 is how an infinite exponent is given.
    assert main(["bound", "--M", "8", "--N", "8", "--alpha", "1", "--beta", "1",
                 "--gamma", "0", "--delta", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["exponents"] == [1.0, 1.0, 0.0, 0.0]
    assert doc["theta"] == 1.0
    assert doc["upper"] == 1.0


@pytest.mark.parametrize("text", ["2", " 2 ", "1", "3", "1.5", "7e0", "1_000", "inf", "INF", " Infinity ", "1e400",
                                  "0", "-0", "0.25", " 0.5 ", "1e-1", "0.3333333333333333"])
def test_exponent_flags_read_what_they_read_before_bit_for_bit(text, capsys):
    # --alpha..--delta read their text with `float`, as they always have, and MixedExponents judges the number.
    argv = ["bound", "--M", "4", "--N", "4", "--alpha", text, "--delta", text]
    try:
        expected = MixedExponents(float(text), 0.5, 0.5, float(text))
    except ValueError as exc:
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {exc}\n"
    else:
        assert main(argv) == 0
        exponents = json.loads(capsys.readouterr().out)["exponents"]
        assert [x.hex() for x in exponents] == [x.hex() for x in expected.as_tuple()]


def test_exponent_flag_names_itself_on_a_bad_value(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["bound", "--M", "4", "--N", "4", "--alpha", "x"])
    assert exc_info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: argument --alpha: invalid float value: 'x'\n"


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
    # --out writes the .npy of the samples that eval prints as JSON without it.
    path, A = matrix_file
    out = tmp_path / "grid.json"
    assert main(["eval", "--matrix", str(path), "--out", str(out)]) == 0
    assert main(["eval", "--matrix", str(path)]) == 0
    printed = capsys.readouterr().out
    samples = eval_sum(A, EvalPlan(Kx=32, Ky=24)).samples
    npy = io.BytesIO()
    np.save(npy, samples, allow_pickle=False)
    assert out.read_bytes() == npy.getvalue()
    # The printed document as the whole-grid, per-element serializer wrote it.
    pairs = [[float(z.real), float(z.imag)] for z in samples.ravel()]
    assert printed == json.dumps({"Kx": 32, "Ky": 24, "samples": pairs}) + "\n"
    (tmp_path / "printed.json").write_text(printed)
    assert load_grid(out).samples.tobytes() == load_grid(tmp_path / "printed.json").samples.tobytes() \
        == grid_from_json(json.loads(printed)).samples.tobytes() == samples.tobytes()
    # Span tracers rebind these two names on cli to time the array-file layer.
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


def test_chirp_check_window(capsys):
    # Without --xs: 7 points across [eta, 1 - eta]; with them, any eta in (0, 1).
    assert main(["chirp-check", "--eta", "0.3", "--M-ladder", "8:16"]) == 0
    assert last_json(capsys.readouterr().out)["xs"] == np.linspace(0.3, 0.7, 7).tolist()
    assert main(["chirp-check", "--eta", "0.7", "--M-ladder", "8:16", "--xs", "0.3"]) == 0
    assert last_json(capsys.readouterr().out)["xs"] == [0.3]


def test_a_list_starting_with_a_negative_number_is_a_value(capsys):
    assert main(["chirp-check", "--M-ladder", "8:16", "--xs", "-0.1,0.2"]) == 0
    assert last_json(capsys.readouterr().out)["xs"] == [-0.1, 0.2]


# ----------------------------------------------------------------------------
# opnorm / sweep / nonortho-check
# ----------------------------------------------------------------------------


def test_opnorm_writes_reports(tmp_path, capsys):
    out = tmp_path / "r.json"
    csv_path = tmp_path / "r.csv"
    assert main(["opnorm", "--M", "2", "--N", "2", "--restarts", "1",
                 "--max-iters", "1", "--out", str(out), "--csv", str(csv_path)]) == 0
    printed = capsys.readouterr().out
    doc = last_json(printed)
    assert doc["sandwich_ok"] is True
    assert out.read_text() == printed
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


def test_sweep_pairs_the_m_and_n_ladders(capsys):
    assert main(["sweep", "--M-ladder", "2:4", "--N-ladder", "1:2", "--rtuple", "1,1,0,0",
                 "--restarts", "1", "--max-iters", "1"]) == 0
    docs = json.loads(capsys.readouterr().out)
    assert [(doc["M"], doc["N"]) for doc in docs] == [(2, 1), (4, 2)]
    assert main(["sweep", "--M-ladder", "2:8", "--N-ladder", "1:2", "--rtuple", "1,1,0,0"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: M_list and N_list must pair up rung for rung\n")


def test_sweep_runs_a_ladder(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    assert main(["sweep", "--M-ladder", "1:2", "--rtuple", "0.5,0.5,0.5,0.5",
                 "--restarts", "1", "--max-iters", "1", "--csv", str(csv_path)]) == 0
    docs = json.loads(capsys.readouterr().out)
    assert [(doc["M"], doc["N"]) for doc in docs] == [(1, 1), (2, 2)]
    assert all(doc["exponents"] == [0.5, 0.5, 0.5, 0.5] for doc in docs)
    rows = csv_path.read_text().splitlines()
    assert len(rows) == 3


def test_sweep_prints_the_reports_it_writes(tmp_path, capsys):
    # Tuple by tuple, rung by rung: the printed list, which --out holds, is each estimate's document, bit for bit.
    out = tmp_path / "r.json"
    assert main(["sweep", "--M-ladder", "2:4", "--rtuple", "0.25,0.5,0.25,0.5", "--rtuple", "0.6,0.2,0.5,0.5",
                 "--restarts", "1", "--max-iters", "3", "--seed", "3", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert out.read_text() == printed
    cfg = SearchConfig(restarts=1, max_iters=3, seed=3)
    tuples = [MixedExponents(0.25, 0.5, 0.25, 0.5), MixedExponents(0.6, 0.2, 0.5, 0.5)]
    expected = [estimate(M, M, e, cfg).to_json_dict() for e in tuples for M in (2, 4)]
    assert printed == json.dumps(expected, sort_keys=True, indent=2) + "\n"


def nonortho_by_grids(sizes, trials, seed):
    """The stdout lines and max ratios of nonortho-check as one grid per draw gives them.

    Each draw is sampled by eval_nonortho and its grid reduced by lrs_norm,
    the draws taken one at a time from the seeded stream.
    """
    e22 = MixedExponents(0.5, 0.5, 0.5, 0.5)
    rng = np.random.default_rng(seed)
    lines, max_ratios = [], []
    for size in sizes:
        plan = default_grid(size, size, floor=64)
        worst = 0.0
        for _ in range(trials):
            A = CoefficientMatrix(size, size, rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size)))
            worst = max(worst, lrs_norm(eval_nonortho(A, plan), e22) / lpq_norm(A, e22))
        max_ratios.append(worst)
        lines.append(f"M=N={size:>3d}  max ratio over {trials} draws: {worst:.6f}")
    return lines, max_ratios


def nonortho_output(capsys):
    """The lines nonortho-check prints before its JSON document, and the document."""
    out = capsys.readouterr().out
    head = out[:out.index("{")]
    return head.splitlines(), json.loads(out[len(head):])


def test_nonortho_check_reports_ratios(capsys):
    assert main(["nonortho-check", "--sizes", "2,4", "--trials", "3"]) == 0
    lines, doc = nonortho_output(capsys)
    expected_lines, expected = nonortho_by_grids([2, 4], 3, 0)
    assert lines == expected_lines
    assert doc["max_ratios"] == pytest.approx(expected, rel=1e-13, abs=0.0)
    assert doc["empirical_constant"] == max(doc["max_ratios"]) >= 1.0
    assert doc["top_growth"] == doc["max_ratios"][1] / doc["max_ratios"][0] - 1.0


@pytest.mark.parametrize("seed", [0, 109])
def test_nonortho_check_matches_one_grid_per_draw(seed, capsys):
    # Criterion 9's sizes and draws: the lines print the same bytes, the ratios agree to rounding.
    sizes = [2, 4, 8, 16, 32]
    assert main(["nonortho-check", "--sizes", "2,4,8,16,32", "--trials", "50", "--seed", str(seed)]) == 0
    lines, doc = nonortho_output(capsys)
    expected_lines, expected = nonortho_by_grids(sizes, 50, seed)
    assert lines == expected_lines
    assert doc["max_ratios"] == pytest.approx(expected, rel=1e-13, abs=0.0)
    assert (doc["sizes"], doc["trials"], doc["empirical_constant"]) == (sizes, 50, max(doc["max_ratios"]))


def test_nonortho_check_stacks_the_draws_of_one_at_a_time(monkeypatch, capsys):
    # 40 draws at M = 32 take several stacks; together they hold every draw's bits, in order.
    stacks, original = [], cli.nonortho_l2_norm

    def recording(entries, plan):
        stacks.append(entries.copy())
        return original(entries, plan)

    monkeypatch.setattr(cli, "nonortho_l2_norm", recording)
    assert main(["nonortho-check", "--sizes", "3,32", "--trials", "40", "--seed", "5"]) == 0
    capsys.readouterr()
    assert len(stacks) > 2
    rng = np.random.default_rng(5)
    one_at_a_time = [rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
                     for size in (3, 32) for _ in range(40)]
    drawn = [entries for stack in stacks for entries in stack]
    assert len(drawn) == len(one_at_a_time)
    for got, expected in zip(drawn, one_at_a_time):
        assert got.view(np.float64).tobytes() == expected.view(np.float64).tobytes()


def test_nonortho_check_holds_less_than_a_grid(capsys):
    # One draw's grid at M = 32 is 256^2 complex samples (1 MiB), and the
    # grid path held about two of them; a stack's arrays hold less than one.
    tracemalloc.start()
    try:
        assert main(["nonortho-check", "--sizes", "32", "--trials", "200"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 256 * 256 * 16 * 1.25


# ----------------------------------------------------------------------------
# Failure modes and exit codes
# ----------------------------------------------------------------------------


def test_exponent_below_one_fails(matrix_file, capsys):
    # p = 1/2 is the reciprocal 2, outside [0, 1].
    path, _ = matrix_file
    assert main(["norm", "--matrix", str(path), "--alpha", "2"]) == 1
    assert capsys.readouterr().err == "error: alpha must lie in [0, 1], got 2.0\n"


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


# A size with 401 digits, beyond float range, and one with 301 digits, within it.
HUGE = "1" + "0" * 400
BIG = "1" + "0" * 300


@pytest.mark.parametrize("argv, message", [
    (["chirp-check", "--eta", "0", "--M-ladder", "8:16"], "eta must lie in (0, 1), got 0.0"),
    (["chirp-check", "--eta", "-0.2", "--M-ladder", "8:16"], "eta must lie in (0, 1), got -0.2"),
    (["chirp-check", "--M-ladder", "0,16"], "dimensions must be positive, got M=0"),
    (["chirp-check", "--M-ladder", "0:16"], "dimensions must be positive, got M=0"),
    (["chirp-check", "--M-ladder", "16:8"], "bad ladder '16:8'"),
    (["chirp-check", "--eta", "0.7", "--M-ladder", "8:16"],
     "eta must lie in (0, 0.5) for a non-empty window, got 0.7"),
    (["sweep", "--M-ladder", "0:16", "--rtuple", "0.5,0.5,0.5,0.5"], "dimensions must be positive, got M=0"),
    (["sweep", "--M-ladder", "2:4", "--N-ladder", "0:2", "--rtuple", "0.5,0.5,0.5,0.5"],
     "dimensions must be positive, got N=0"),
    (["nonortho-check", "--sizes=-1:16"], "dimensions must be positive, got M=-1"),
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
    (["nonortho-check", "--sizes", "-2"], "dimensions must be positive, got M=-2"),
    (["nonortho-check", "--sizes", "2,0", "--trials", "1"], "dimensions must be positive, got M=0"),
    (["bound", "--M", "0", "--N", "4"], "dimensions must be positive, got M=0, N=4"),
    (["bound", "--M", "4", "--N", "4", "--alpha", "nan"], "alpha must be a finite number, got nan"),
    (["opnorm", "--M", "2", "--N", "2", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["sweep", "--M-ladder", "2,4", "--rtuple", "0.5,0.5,0.5,0.5", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["nonortho-check", "--sizes", "2", "--trials", "1", "--seed", "-1"], "seed must be >= 0, got -1"),
    # Grids above the plan's ceiling, refused before any transform allocates.
    (["opnorm", "--M", "2", "--N", "2", "--Kx", "10000000000000000", "--Ky", "10000000000000000"],
     "a 10000000000000000 x 10000000000000000 grid needs 1.49e+24 GiB of samples, above the limit of 16 GiB"),
    (["eval", "--Kx", "10000000000000000", "--Ky", "10000000000000000"],
     "a 10000000000000000 x 10000000000000000 grid needs 1.49e+24 GiB of samples, above the limit of 16 GiB"),
    (["opnorm", "--M", "2", "--N", "2", "--Kx", "100000000", "--Ky", "100000000"],
     "a 100000000 x 100000000 grid needs 1.49e+08 GiB of samples, above the limit of 16 GiB"),
    # A default grid over the limit, refused before the first start is built.
    (["opnorm", "--M", "100000000000", "--N", "100000"],
     "a 800000000000 x 800000 grid needs 9.54e+09 GiB of samples, above the limit of 16 GiB"),
    # A given grid too small for the matrix, refused before the first start is built.
    (["opnorm", "--M", "100000", "--N", "100000", "--Kx", "16", "--Ky", "16"],
     "zero-pad transform needs Kx >= M and Ky >= N, got (16, 16) for (100000, 100000)"),
    # A 3 x 3 grid has no half grid to check against.
    (["norm", "--refine-check"], "the refinement check needs even grid sizes, got Kx=3, Ky=3"),
    # A bound beyond float range, which JSON cannot hold.
    (["bound", "--M", BIG, "--N", BIG, "--alpha", "0", "--beta", "0", "--gamma", "0", "--delta", "0"],
     "upper is not a finite number: inf"),
    # Sizes beyond float range, refused by the size rule before any float conversion.
    (["bound", "--M", HUGE, "--N", "1"], "dimensions must fit in a float, got M of 1329 bits"),
    (["opnorm", "--M", HUGE, "--N", "1"], "dimensions must fit in a float, got M of 1329 bits"),
    (["sweep", "--M-ladder", HUGE, "--rtuple", "0.5,0.5,0.5,0.5"],
     "dimensions must fit in a float, got M of 1329 bits"),
    (["extremal", "--kind", "ones", "--M", HUGE, "--N", "1"], "dimensions must fit in a float, got M of 1329 bits"),
    (["nonortho-check", "--sizes", HUGE], "dimensions must fit in a float, got M of 1329 bits"),
    (["chirp-check", "--M-ladder", f"8,{HUGE}", "--xs", "0.01"],
     "dimensions must fit in a float, got M of 1329 bits"),
    # Sizes within float range whose grid's byte count is not: the figure is still printed.
    (["extremal", "--kind", "ones", "--M", BIG, "--N", BIG],
     f"a {8 * int(BIG)} x {8 * int(BIG)} grid needs 9.54e+593 GiB of samples, above the limit of 16 GiB"),
    (["eval", "--Kx", BIG, "--Ky", BIG],
     f"a {BIG} x {BIG} grid needs 1.49e+592 GiB of samples, above the limit of 16 GiB"),
    # Every list value is read by one rule: a bad entry or count names the flag and quotes the value.
    (["sweep", "--M-ladder", "2,x", "--rtuple", "0.5,0.5,0.5,0.5"], "bad --M-ladder value '2,x'"),
    (["sweep", "--M-ladder", "2:x", "--rtuple", "0.5,0.5,0.5,0.5"], "bad --M-ladder value '2:x'"),
    (["sweep", "--M-ladder", "2:4:8", "--rtuple", "0.5,0.5,0.5,0.5"], "bad --M-ladder value '2:4:8'"),
    (["sweep", "--M-ladder", "2,4", "--N-ladder", "1,y", "--rtuple", "0.5,0.5,0.5,0.5"], "bad --N-ladder value '1,y'"),
    (["nonortho-check", "--sizes", "2,3x"], "bad --sizes value '2,3x'"),
    (["chirp-check", "--M-ladder", "8:16", "--xs", "0.1,y"], "bad --xs value '0.1,y'"),
    (["sweep", "--M-ladder", "2", "--rtuple", "2,2,x,2"], "bad --rtuple value '2,2,x,2'"),
    (["sweep", "--M-ladder", "2", "--rtuple", "0.5,x,0.5,0.5"], "bad --rtuple value '0.5,x,0.5,0.5'"),
    (["sweep", "--M-ladder", "2", "--rtuple", "0.5,0.5,0.5"], "bad --rtuple value '0.5,0.5,0.5'"),
    # A value that starts with '-' and a digit is a value, so the exponent rule judges it.
    (["sweep", "--M-ladder", "2", "--rtuple", "-0.5,0.5,0.5,0.5"], "alpha must lie in [0, 1], got -0.5"),
], ids=["chirp-eta-zero", "chirp-eta-negative", "chirp-M-zero", "chirp-ladder-from-zero",
        "chirp-ladder-descending", "chirp-eta-past-window", "sweep-ladder-from-zero", "sweep-N-ladder-from-zero",
        "nonortho-ladder-from-negative", "chirp-one-distinct-M",
        "eval-Kx-Ky-zero", "eval-Kx-alone", "extremal-ones-M-zero", "extremal-row-N-zero",
        "chirp-xs-nan", "chirp-xs-inf", "chirp-xs-overflow", "chirp-xs-no-fraction-bits",
        "nonortho-size-negative",
        "nonortho-size-zero-after-valid", "bound-M-zero", "bound-alpha-nan", "opnorm-seed-negative",
        "sweep-seed-negative", "nonortho-seed-negative", "opnorm-grid-too-large", "eval-grid-too-large",
        "opnorm-grid-1e8-too-large", "opnorm-default-grid-too-large", "opnorm-grid-below-matrix",
        "norm-refine-check-odd-grid", "bound-upper-overflow", "bound-M-huge", "opnorm-M-huge",
        "sweep-M-huge", "extremal-ones-M-huge", "nonortho-size-huge", "chirp-M-huge", "extremal-ones-M-N-big",
        "eval-Kx-Ky-big", "sweep-M-ladder-bad-entry", "sweep-M-ladder-bad-hi", "sweep-M-ladder-three-bounds",
        "sweep-N-ladder-bad-entry", "nonortho-sizes-bad-entry", "chirp-xs-bad-entry", "sweep-tuple-bad-entry",
        "sweep-rtuple-bad-entry", "sweep-rtuple-three-values", "sweep-rtuple-negative"])
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


# Each spelling the reciprocal flags and --out replaced, including the prefixes
# of --restarts, --seed and --row that argparse would otherwise expand.
@pytest.mark.parametrize("argv", [
    ["opnorm", "--M", "2", "--N", "2", "--r", "4"],
    ["opnorm", "--M", "2", "--N", "2", "--s", "3"],
    ["extremal", "--kind", "unit", "--M", "8", "--N", "8", "--r", "4"],
    ["bound", "--M", "2", "--N", "2", "--p", "1"],
    ["sweep", "--M-ladder", "2", "--tuple", "2,2,2,2"],
    ["opnorm", "--M", "2", "--N", "2", "--jsonl", "x"],
], ids=["opnorm-r", "opnorm-s", "extremal-r", "bound-p", "sweep-tuple", "opnorm-jsonl"])
def test_removed_exponent_and_report_flags_are_unrecognized(argv, tmp_path, monkeypatch, capsys):
    calls = []
    for module, name in [(cli, "estimate"), (opnorm, "estimate"), (cli, "unit_sharpness"),
                         (cli, "upper_bound_magnitude")]:
        monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name))
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unrecognized arguments: {' '.join(argv[-2:])}\n"
    assert calls == [] and list(tmp_path.iterdir()) == []


def test_negative_zero_is_zero(tmp_path, capsys):
    # 0 is how an infinite exponent is given, and -0 gives the same bytes.
    outputs = []
    for text in ("0", "-0"):
        csv_path = tmp_path / f"{text}.csv"
        assert main(["bound", "--M", "4", "--N", "4", "--alpha", text]) == 0
        assert main(["opnorm", "--M", "2", "--N", "2", "--restarts", "1", "--max-iters", "1",
                     "--alpha", text, "--csv", str(csv_path)]) == 0
        outputs.append((capsys.readouterr().out, csv_path.read_text()))
    assert outputs[0] == outputs[1]
    assert "-0.0" not in outputs[1][0] + outputs[1][1]


def test_sweep_refuses_a_bad_rung_before_any_search(monkeypatch, capsys):
    calls = []
    estimate = opnorm.estimate
    monkeypatch.setattr(opnorm, "estimate", lambda *args: calls.append(args) or estimate(*args))
    assert main(["sweep", "--M-ladder", "32,0", "--rtuple", "0.5,0.5,0.5,0.5"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: dimensions must be positive, got M=0\n")
    assert calls == []


def test_norm_refuses_a_non_finite_value_before_any_output(tmp_path, capsys):
    matrix_path, out_path = tmp_path / "huge.json", tmp_path / "norm.json"
    save_matrix(matrix_path, CoefficientMatrix(2, 1, np.full((2, 1), 1e308 + 0j)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warnings would raise here
        assert main(["norm", "--matrix", str(matrix_path), "--alpha", "1", "--out", str(out_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert not out_path.exists()
    assert captured.err == "error: lpq is not a finite number: inf\n"


def breach_sandwich(report):
    return dataclasses.replace(report, sandwich_ok=False)


def test_opnorm_exits_two_on_a_sandwich_breach(monkeypatch, capsys):
    # The report is still printed for inspection; stderr names the breach in one line.
    argv = ["opnorm", "--M", "2", "--N", "2", "--restarts", "1", "--max-iters", "1"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    estimate = cli.estimate
    monkeypatch.setattr(cli, "estimate", lambda *args: breach_sandwich(estimate(*args)))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {**json.loads(printed), "sandwich_ok": False}
    assert captured.err == "error: sandwich invariant violated (see report)\n"


def test_sweep_exits_two_when_any_report_breaches_the_sandwich(monkeypatch, capsys):
    sweep = cli.sharpness_sweep

    def breach_the_last(*args):
        *kept, last = sweep(*args)
        return [*kept, breach_sandwich(last)]

    monkeypatch.setattr(cli, "sharpness_sweep", breach_the_last)
    assert main(["sweep", "--M-ladder", "1:2", "--rtuple", "0.5,0.5,0.5,0.5",
                 "--restarts", "1", "--max-iters", "1"]) == 2
    captured = capsys.readouterr()
    assert [doc["sandwich_ok"] for doc in json.loads(captured.out)] == [True, False]
    assert captured.err == "error: sandwich invariant violated in at least one report\n"


def test_failed_theorem_check_exits_two_with_one_line(monkeypatch, capsys):
    # A kernel constant above the theorem's makes the pointwise check fail: an
    # implementation bug, exit 2, not a validation error.
    monkeypatch.setattr(extremizers, "SIN1", 1.5)
    assert main(["extremal", "--kind", "column", "--M", "4", "--N", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invariant violation: Dirichlet kernel bound failed at x=")
    assert captured.err.endswith(" — implementation bug\n") and captured.err.count("\n") == 1


def test_bound_takes_a_size_beyond_int64(capsys):
    assert main(["bound", "--M", "100000000000000000000", "--N", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["M"] == 10**20


def test_refine_check_warning_is_one_fixed_line(tmp_path, matrix_file, capsys):
    path, _ = matrix_file
    grid_path = tmp_path / "grid.json"
    assert main(["eval", "--matrix", str(path), "--out", str(grid_path), "--Kx", "8", "--Ky", "8"]) == 0
    argv = ["norm", "--grid", str(grid_path), "--refine-check", "--gamma", repr(1 / 3)]
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
    assert done.stderr.endswith("; resample on a finer grid with eval --Kx/--Ky\n")
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
    assert captured.err == f"error: unrecognized arguments: {' '.join(argv[-2:])}\n"


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


@pytest.mark.parametrize("argv, what", [(["eval", "--matrix"], "matrix"), (["norm", "--grid"], "grid")])
@pytest.mark.parametrize("content, reason", [
    (b"", "Expecting value: line 1 column 1 (char 0)"),
    (b'{"Kx": 1, "Ky": 1, "samples": [[1.0, 0.0]', "Expecting ',' delimiter: line 1 column 42 (char 41)"),
    (b"\x89PNG\r\n\x1a\n\x00\x82",
     "'utf-8' codec can't decode byte 0x89 in position 0: invalid start byte"),
], ids=["empty", "truncated", "binary"])
def test_unreadable_file_names_its_document(tmp_path, argv, what, content, reason, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main([*argv, str(path)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {what} JSON: {reason}\n")


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
    # A pretty-printed JSON grid loads from a file and through a pipe, which is read once, alike.
    f = eval_sum(CoefficientMatrix(2, 2, np.eye(2)), EvalPlan(4, 4))
    pretty = json.dumps(grid_to_json(f), indent=2)
    path = tmp_path / "grid.json"
    path.write_text(pretty)
    assert main(["norm", "--grid", str(path)]) == 0
    env = {**os.environ, "PYTHONPATH": str(Path(mnlab.__file__).parent.parent)}
    done = subprocess.run([sys.executable, "-m", "mnlab.cli", "norm", "--grid", "/dev/stdin"],
                          input=pretty, env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, capsys.readouterr().out, "")


def test_npy_and_json_grids_load_through_a_pipe(tmp_path, capsys):
    # A pipe is read once, and its format decided from the bytes read.
    f = eval_sum(CoefficientMatrix(2, 3, np.arange(6.0).reshape(2, 3) - 1j), EvalPlan(8, 8))
    npy, text = tmp_path / "grid.npy", tmp_path / "grid.json"
    save_grid(npy, f)
    text.write_text(json.dumps(grid_to_json(f)))
    env = {**os.environ, "PYTHONPATH": str(Path(mnlab.__file__).parent.parent)}
    for path in (npy, text):
        assert main(["norm", "--grid", str(path), "--gamma", "0.25"]) == 0
        done = subprocess.run([sys.executable, "-m", "mnlab.cli", "norm", "--grid", "/dev/stdin", "--gamma", "0.25"],
                              input=path.read_bytes(), env=env, capture_output=True)
        assert (done.returncode, done.stdout.decode(), done.stderr) == (0, capsys.readouterr().out, b""), path.name


def test_a_hand_written_json_matrix_loads_to_its_bits(tmp_path):
    # json.loads's floats, exactly as the JSON reader has always read them.
    path = tmp_path / "A.json"
    path.write_text('{\n  "N": 2, "M": 2,\n  "entries": [[0.1, -0], [1e-320, 3], [-2.5E+3, 1.7976931348623157e308],'
                    ' [-0.0, 7]]\n}\n')
    expected = np.array([[0.1, 0.0, 1e-320, 3.0], [-2500.0, 1.7976931348623157e308, -0.0, 7.0]])
    assert load_matrix(path).entries.tobytes() == expected.tobytes()


def _npy_header_only(shape):
    out = io.BytesIO()
    np.lib.format.write_array_header_1_0(out, {"descr": "<c16", "fortran_order": False, "shape": shape})
    return out.getvalue()


def _npy_of(array):
    out = io.BytesIO()
    np.save(out, array, allow_pickle=True)
    return out.getvalue()


@pytest.mark.parametrize("flag, what", [("--matrix", "matrix"), ("--grid", "grid")])
@pytest.mark.parametrize("content, reason", [
    (_npy_of(np.zeros(3)), "expected a 2-D array of numbers, got shape (3,) of dtype float64"),
    (_npy_of(np.zeros((2, 2), dtype=bool)), "expected a 2-D array of numbers, got shape (2, 2) of dtype bool"),
    (_npy_of(np.array([[None]])), "expected a 2-D array of numbers, got shape (1, 1) of dtype object"),
    (_npy_header_only((100000, 100000)) + bytes(16),
     "the header calls for 160000000000 bytes of data, the file holds 16"),
    (_npy_of(np.ones((2, 3), dtype=complex))[:-1], "the header calls for 96 bytes of data, the file holds 95"),
], ids=["1-D", "bool", "object", "header-beyond-file", "truncated"])
def test_a_bad_npy_file_fails_with_one_line(tmp_path, flag, what, content, reason, capsys):
    path = tmp_path / "bad.npy"
    path.write_bytes(content)
    assert main(["norm", flag, str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {what} .npy: {reason}\n")


def test_extremal_takes_no_value_flag(capsys):
    # The entry value cancels in every extremal ratio; the library kinds keep it.
    with pytest.raises(SystemExit) as exc_info:
        main(["extremal", "--kind", "unit", "--M", "3", "--N", "3", "--value", "2"])
    assert exc_info.value.code == 1
    assert capsys.readouterr().err == "error: unrecognized arguments: --value 2\n"


def test_unknown_flag_exits_one(capsys):
    # The last three are not search flags: the ascent has no step length or tolerance, and the starts are complex.
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
    err = capsys.readouterr().err
    assert err.startswith("error: argument --kind: invalid choice: 'quadratic'") and err.count("\n") == 1


def test_missing_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main([])
    assert exc_info.value.code == 1
    assert capsys.readouterr().err == "error: the following arguments are required: command\n"
