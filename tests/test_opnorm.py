"""Tests for the operator-ratio objective, ascent search, and report plumbing."""

import csv
import json
from collections import Counter

import numpy as np
import pytest

from mnlab import norms, opnorm
from mnlab.exponents import MixedExponents, phi, theta, upper_bound_magnitude
from mnlab.extremizers import ColumnC, RowR, UnitE, build
from mnlab.norms import CoefficientMatrix, lpq_norm, lrs_norm
from mnlab.opnorm import (
    CSV_COLUMNS,
    BoundReport,
    SearchConfig,
    _adjoint_gradient,
    _ascend,
    _escape_direction,
    _evaluate,
    estimate,
    ladder_diagnostics,
    objective,
    sharpness_sweep,
    write_reports_csv,
    write_reports_jsonl,
)
from mnlab.trigsum import EvalPlan, default_grid, eval_sum, synthesize, synthesize_adjoint

E2222 = MixedExponents(0.5, 0.5, 0.5, 0.5)
SUP_OVER_L1 = MixedExponents(1.0, 1.0, 0.0, 0.0)
INTERIOR = MixedExponents(0.25, 0.5, 0.75, 0.5)
COLUMN_EQUALITY = MixedExponents(0.5, 0.75, 0.25, 0.5)
# The benchmark's search tuples.
SEARCH_TUPLES = {"column-equality": COLUMN_EQUALITY, "sup-l1": SUP_OVER_L1, "interior": INTERIOR}


def random_matrix(rng, M, N):
    return CoefficientMatrix(M, N, rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N)))


# ----------------------------------------------------------------------------
# Objective
# ----------------------------------------------------------------------------


def test_single_entry_objective_is_one():
    entries = np.zeros((3, 4), dtype=complex)
    entries[1, 2] = 2.0 - 1.0j
    A = CoefficientMatrix(3, 4, entries)
    rng = np.random.default_rng(0)
    for _ in range(5):
        e = MixedExponents(*rng.uniform(0.0, 1.0, size=4))
        assert objective(A, e, (24, 32)) == pytest.approx(1.0, abs=1e-12)


def test_l2_to_l2_objective_is_one_for_every_matrix():
    # On an exact grid the mean-square of |T A| telescopes to the squared
    # Frobenius norm of A, so the (2,2,2,2) ratio is one identically.
    rng = np.random.default_rng(1)
    for _ in range(10):
        A = random_matrix(rng, int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        assert objective(A, E2222, (16, 16)) == pytest.approx(1.0, abs=1e-9)


def test_ones_objective_saturates_sup_over_l1():
    A = CoefficientMatrix(4, 4, np.ones((4, 4), dtype=complex))
    assert objective(A, SUP_OVER_L1, (32, 32)) == pytest.approx(1.0, abs=1e-12)


def test_objective_rejects_zero_matrix():
    A = CoefficientMatrix(2, 2, np.zeros((2, 2), dtype=complex))
    with pytest.raises(ValueError):
        objective(A, E2222, (16, 16))


def test_objective_is_the_ascent_trial_value_bit_for_bit(monkeypatch):
    # Every value the ascent computes, at its start and at each trial, is
    # what objective() returns for the same entries, and what the public
    # norms of the public evaluator give.
    seen = []
    evaluate = opnorm._evaluate

    def recording(entries, samples, e):
        trial = evaluate(entries, samples, e)
        seen.append((entries.copy(), trial.value))
        return trial

    monkeypatch.setattr(opnorm, "_evaluate", recording)
    rng = np.random.default_rng(6)
    grid = (24, 16)
    for e in (COLUMN_EQUALITY, SUP_OVER_L1, INTERIOR):
        start = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        _ascend(start, e, grid, SearchConfig(max_iters=3))
        ascent = list(seen)
        for entries, value in ascent:
            A = CoefficientMatrix(3, 2, entries)
            assert objective(A, e, grid).hex() == value.hex()
            assert (lrs_norm(eval_sum(A, EvalPlan(*grid)), e) / lpq_norm(A, e)).hex() == value.hex()
        assert len(ascent) > 3
        seen.clear()


def test_trial_ratio_rejects_undefined_and_non_finite_values():
    # The ascent's trials skip the matrix and grid checks; this one scalar
    # check is what stands in for them.
    entries = np.ones((2, 3), dtype=complex)
    samples = synthesize(entries, 16, 16)
    with np.errstate(invalid="ignore"):  # inf / inf inside the norms
        for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
            spoiled = samples.copy()
            spoiled[3, 5] = bad
            for e in (E2222, SUP_OVER_L1, INTERIOR):
                with pytest.raises(ValueError, match="objective is not finite"):
                    opnorm._evaluate(entries, spoiled, e)
        with pytest.raises(ValueError, match="objective is not finite"):
            opnorm._evaluate(np.full((2, 3), np.nan + 0j), samples, INTERIOR)
    with pytest.raises(ValueError, match="zero matrix"):
        opnorm._evaluate(np.zeros((2, 3), dtype=complex), samples, INTERIOR)


def test_objective_is_scale_invariant():
    rng = np.random.default_rng(2)
    A = random_matrix(rng, 3, 3)
    e = MixedExponents(0.7, 0.3, 0.2, 0.9)
    base = objective(A, e, (24, 24))
    for c in (2.0, 1e-8, 3.7j, -5.0 + 1.0j):
        scaled = CoefficientMatrix(3, 3, c * A.entries)
        assert objective(scaled, e, (24, 24)) == pytest.approx(base, rel=1e-12)


# ----------------------------------------------------------------------------
# Ascent search
# ----------------------------------------------------------------------------


def test_trivial_size_estimates_exactly_one():
    report = estimate(1, 1, MixedExponents(0.3, 0.8, 0.1, 0.6),
                      SearchConfig(restarts=1, max_iters=2))
    assert report.searched == pytest.approx(1.0, abs=1e-12)
    assert report.upper == 1.0
    assert report.lower_extremizer == pytest.approx(1.0, abs=1e-12)
    assert report.ratio_searched == pytest.approx(1.0, abs=1e-12)
    assert report.sandwich_ok
    assert not report.searched_below_lower


def test_l2_search_finds_the_flat_landscape():
    for size in (2, 3):
        report = estimate(size, size, E2222, SearchConfig(restarts=2, max_iters=5))
        assert report.searched == pytest.approx(1.0, abs=1e-6)
        assert report.upper == 1.0
        assert report.sandwich_ok


def test_estimate_is_deterministic():
    e = MixedExponents(0.75, 0.5, 0.5, 0.25)
    cfg = SearchConfig(restarts=2, max_iters=3, seed=7)
    first = estimate(2, 2, e, cfg)
    second = estimate(2, 2, e, cfg)
    assert first.to_json_dict() == second.to_json_dict()


def test_search_report_repeats_bit_for_bit():
    # The same config twice gives the same report, also where the unit and
    # row starts leave their critical points along the escape direction.
    e = MixedExponents(0.5, 0.5, 0.25, 0.25)
    cfg = SearchConfig(restarts=2, max_iters=4, seed=3)
    first = estimate(3, 2, e, cfg)
    second = estimate(3, 2, e, cfg)
    assert json.dumps(first.to_json_dict(), sort_keys=True) == json.dumps(second.to_json_dict(), sort_keys=True)


def adjoint_gradient(entries, e, grid):
    return _adjoint_gradient(_evaluate(entries, synthesize(entries, *grid), e))


def from_scratch_gradient(entries, samples, e):
    """The adjoint gradient, every reduction redone from |entries| and |samples|."""
    def norm_and_weights(a, inner, outer, mean):
        inner_values = norms._reduce(a, inner, mean)
        value = norms._reduce(inner_values, outer, mean)
        weights = norms._reduce_gradient(a, inner_values, inner, mean) * norms._reduce_gradient(
            inner_values, value, outer, mean)
        return float(value), weights

    M, N = entries.shape
    lrs, lrs_weights = norm_and_weights(np.abs(samples), e.gamma, e.delta, True)
    lpq, lpq_weights = norm_and_weights(np.abs(entries), e.alpha, e.beta, False)
    pulled_back = synthesize_adjoint(lrs_weights * opnorm._phase(samples, np.abs(samples)), M, N)
    return (pulled_back - (lrs / lpq) * lpq_weights * opnorm._phase(entries, np.abs(entries))) / lpq


def fd_gradient(entries, e, grid):
    """Central finite differences on the 2MN real parameters: the gradient oracle."""
    h = 1e-5 * float(np.linalg.norm(entries))
    M, N = entries.shape
    grad = np.zeros((M, N), dtype=complex)
    for m in range(M):
        for n in range(N):
            for bump in (h, 1j * h):
                plus = entries.copy()
                plus[m, n] += bump
                minus = entries.copy()
                minus[m, n] -= bump
                slope = (objective(CoefficientMatrix(M, N, plus), e, grid)
                         - objective(CoefficientMatrix(M, N, minus), e, grid)) / (2.0 * h)
                grad[m, n] += slope * bump / h
    return grad


ORACLE_TUPLES = pytest.mark.parametrize("e", [
    COLUMN_EQUALITY,
    SUP_OVER_L1,
    INTERIOR,
    MixedExponents(0.0, 0.6, 0.3, 0.7),  # p = inf
    MixedExponents(0.4, 0.6, 0.0, 0.7),  # r = inf
], ids=["column-equality", "sup-l1", "interior", "p-inf", "r-inf"])
ORACLE_SHAPES = pytest.mark.parametrize("M,N", [(2, 3), (3, 4), (4, 2)])


@ORACLE_TUPLES
@ORACLE_SHAPES
def test_adjoint_gradient_matches_central_differences(e, M, N):
    rng = np.random.default_rng([M, N])
    for _ in range(2):
        entries = rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N))
        entries /= np.linalg.norm(entries)
        grid = default_grid(M, N, floor=16)
        oracle = fd_gradient(entries, e, grid)
        assert np.linalg.norm(oracle) > 1e-3  # a non-stationary point
        error = np.linalg.norm(adjoint_gradient(entries, e, grid) - oracle)
        assert error <= 1e-6 * np.linalg.norm(oracle)


@ORACLE_TUPLES
@ORACLE_SHAPES
def test_gradient_from_the_trial_record_equals_the_from_scratch_gradient(e, M, N):
    rng = np.random.default_rng([M, N])
    grid = default_grid(M, N, floor=16)
    for _ in range(2):
        entries = rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N))
        entries /= np.linalg.norm(entries)
        samples = synthesize(entries, *grid)
        assert np.array_equal(_adjoint_gradient(_evaluate(entries, samples, e)),
                              from_scratch_gradient(entries, samples, e))


def test_adjoint_gradient_matches_central_differences_at_zero_entries_for_p_one():
    # |a| has a kink at 0 when p = 1: central differences see no l^{p,q}
    # slope there, and the adjoint gradient gives those entries weight 0.
    rng = np.random.default_rng(9)
    entries = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    entries[[0, 1, 2], [1, 3, 0]] = 0.0
    e = MixedExponents(1.0, 0.5, 0.25, 0.5)
    oracle = fd_gradient(entries, e, (24, 32))
    error = np.linalg.norm(adjoint_gradient(entries, e, (24, 32)) - oracle)
    assert error <= 1e-6 * np.linalg.norm(oracle)


def test_ascent_leaves_the_unit_saddle():
    # The unit matrix is an exact critical point, where the gradient is
    # roundoff; the fixed escape direction must still find an improvement.
    start = build(UnitE(), 4, 4).entries
    grid = default_grid(4, 4, floor=16)
    assert np.linalg.norm(adjoint_gradient(start, INTERIOR, grid)) < 1e-12
    value, history = _ascend(start, INTERIOR, grid, SearchConfig(max_iters=5))
    assert value > history[0]


def test_one_synthesis_per_trial_and_one_adjoint_per_gradient(monkeypatch):
    counts = Counter()

    def count(name):
        original = getattr(opnorm, name)

        def counting(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(opnorm, name, counting)

    for name in ("eval_sum", "synthesize", "synthesize_adjoint", "_evaluate", "_adjoint_gradient"):
        count(name)
    rng = np.random.default_rng(5)
    start = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    value, history = _ascend(start, INTERIOR, default_grid(3, 2, floor=16), SearchConfig(max_iters=10))
    # Objective evaluations (the start and 14 trials), gradients and the
    # result; the top-down line search made one trial more for the same
    # history.
    assert (counts["_evaluate"], counts["_adjoint_gradient"], len(history)) == (15, 10, 11)
    assert value.hex() == "0x1.46c1cfd9af10ap+0"
    assert counts["eval_sum"] == 1  # the start, checked once
    assert counts["eval_sum"] + counts["synthesize"] == counts["_evaluate"]
    assert counts["synthesize_adjoint"] == counts["_adjoint_gradient"]


def top_down_ascend(start, e, grid, cfg):
    """The ascent with the line search that restarts every step at FIRST_STEP: the reference."""
    entries = start / np.linalg.norm(start)
    current = _evaluate(entries, eval_sum(CoefficientMatrix(*entries.shape, entries), EvalPlan(*grid)).samples, e)
    history = [current.value]
    for _ in range(cfg.max_iters):
        grad = _adjoint_gradient(current)
        norm = float(np.linalg.norm(grad))
        if norm <= opnorm.SADDLE_TOL:
            grad = _escape_direction(current.entries)
            norm = float(np.linalg.norm(grad))
            if norm <= opnorm.SADDLE_TOL:
                break
        direction = grad / norm
        step = opnorm.FIRST_STEP
        while step >= opnorm.STEP_TOL:
            entries = current.entries + step * direction
            entries /= np.linalg.norm(entries)
            trial = _evaluate(entries, synthesize(entries, *grid), e)
            if trial.value > current.value:
                current = trial
                history.append(current.value)
                break
            step /= 2.0
        else:
            break
    return current.value, history


@pytest.mark.parametrize("M", [2, 4, 8])
@pytest.mark.parametrize("name", sorted(SEARCH_TUPLES))
def test_ascent_history_equals_the_top_down_search(name, M):
    # Starting each step next to the last accepted one changes which trials
    # are made, not which step is accepted: on the benchmark's tuples, from
    # every warm start and two seeded random starts, the histories agree bit
    # for bit.
    e = SEARCH_TUPLES[name]
    cfg = SearchConfig(restarts=2, max_iters=10, seed=7)
    grid = default_grid(M, M, floor=16)
    for start in opnorm._start_matrices(M, M, cfg):
        _, history = _ascend(start, e, grid, cfg)
        _, reference = top_down_ascend(start, e, grid, cfg)
        assert [value.hex() for value in history] == [value.hex() for value in reference]


def test_line_search_falls_back_to_longer_steps_before_stalling():
    # From this column start a step comes where neither twice the last step
    # nor any shorter one improves, but a longer one does: without trying the
    # longer steps the ascent stalls after 12 steps, at 1.0187.
    e = MixedExponents(0.3549173343096512, 0.790518245853265, 0.9051438366771739, 0.17735319182304865)
    start = build(ColumnC(), 3, 5).entries
    grid = default_grid(3, 5, floor=16)
    cfg = SearchConfig(max_iters=60)
    _, reference = top_down_ascend(start, e, grid, cfg)
    assert (reference[-1].hex(), len(reference)) == ((1.1449074246907327).hex(), 61)
    value, history = _ascend(start, e, grid, cfg)
    assert value >= 1.144907424
    assert len(history) == 61


def test_escape_direction_skips_scaling_and_phase():
    # Neither direction changes the objective; a 1 x 1 matrix has no other.
    entries = build(RowR(), 3, 2).entries
    entries = entries / np.linalg.norm(entries)
    assert abs(np.vdot(entries, _escape_direction(entries))) < 1e-12
    assert np.linalg.norm(_escape_direction(np.array([[0.6 - 0.8j]]))) < 1e-12


def test_ascent_history_is_monotone():
    rng = np.random.default_rng(3)
    start = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    value, history = _ascend(start, SUP_OVER_L1, (24, 24), SearchConfig(max_iters=10))
    assert history == sorted(history)
    assert value == history[-1]
    assert value <= upper_bound_magnitude(3, 3, SUP_OVER_L1) * (1 + 3e-4)


# `searched` of estimate(M, M, e, SearchConfig(restarts=2, max_iters=10,
# seed=7)) on the benchmark's search tuples, recorded as float.hex before the
# search kernel was pruned; a kernel change that moves one bit fails here.
# The sup-l1 bracket closes at the unit start, whose value is exactly the
# bound 1.0, so the search stops there.
GOLDEN_SEARCHED = {
    ("column-equality", 2): "0x1.1b4f819c2ff81p+0",
    ("column-equality", 4): "0x1.4b6a277d6a2e6p+0",
    ("sup-l1", 2): "0x1.0000000000000p+0",
    ("sup-l1", 4): "0x1.0000000000000p+0",
    ("interior", 2): "0x1.28371e30a727cp+0",
    ("interior", 4): "0x1.62f5c821f1c82p+0",
}


@pytest.mark.parametrize("name,M", sorted(GOLDEN_SEARCHED))
def test_searched_is_pinned_bit_for_bit(name, M):
    report = estimate(M, M, SEARCH_TUPLES[name], SearchConfig(restarts=2, max_iters=10, seed=7))
    assert report.searched.hex() == GOLDEN_SEARCHED[name, M]
    if name == "sup-l1":
        assert report.searched == report.upper


def count_search_calls(monkeypatch):
    counts = Counter()
    for name in ("_evaluate", "_adjoint_gradient"):
        original = getattr(opnorm, name)

        def counting(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(opnorm, name, counting)
    return counts


def test_search_stops_once_the_bracket_closes(monkeypatch):
    # ||S||_inf <= ||A||_1 holds with equality at the unit start, the first
    # one visited: one evaluation and no gradient.
    counts = count_search_calls(monkeypatch)
    report = estimate(8, 8, SUP_OVER_L1, SearchConfig(restarts=2, max_iters=10, seed=7))
    assert (counts["_evaluate"], counts["_adjoint_gradient"]) == (1, 0)
    assert report.searched == report.upper == 1.0
    rng = np.random.default_rng(8)
    random_tuples = [MixedExponents(*rng.uniform(0.0, 1.0, size=4)) for _ in range(4)]
    for e in (E2222, SUP_OVER_L1, INTERIOR, *random_tuples):
        counts.clear()
        report = estimate(1, 1, e, SearchConfig(restarts=3, max_iters=5))
        assert (counts["_evaluate"], counts["_adjoint_gradient"]) == (1, 0)
        assert report.searched == report.upper == 1.0


def test_ascent_stops_before_the_gradient_at_the_target(monkeypatch):
    counts = count_search_calls(monkeypatch)
    rng = np.random.default_rng(5)
    start = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    grid = default_grid(3, 2, floor=16)
    _, history = _ascend(start, INTERIOR, grid, SearchConfig(max_iters=10))
    # A target between two accepted values stops the ascent at the first one that reaches it.
    counts.clear()
    target = (history[3] + history[4]) / 2.0
    stopped, stopped_history = _ascend(start, INTERIOR, grid, SearchConfig(max_iters=10), target)
    assert stopped_history == history[:5]
    assert stopped == history[4]
    assert counts["_adjoint_gradient"] == 4


def test_sandwich_holds_on_random_exponents():
    rng = np.random.default_rng(4)
    cfg = SearchConfig(restarts=1, max_iters=2)
    for _ in range(6):
        e = MixedExponents(*rng.uniform(0.0, 1.0, size=4))
        report = estimate(3, 3, e, cfg)
        assert report.sandwich_ok, (e, report.lower_extremizer, report.searched, report.upper)
        assert report.theta == theta(e)
        assert report.phi == phi(e)
        assert report.upper == upper_bound_magnitude(3, 3, e)


def test_grid_override_recorded():
    report = estimate(2, 2, E2222, SearchConfig(restarts=1, max_iters=1, grid=(32, 48)))
    assert report.grid == (32, 48)


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(restarts=0)
    with pytest.raises(ValueError):
        SearchConfig(max_iters=0)
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        SearchConfig(seed=-1)


@pytest.mark.parametrize("grid, message", [
    ((0, 4), "^dimensions must be positive, got Kx=0, Ky=4$"),
    ((8, -1), "^dimensions must be positive, got Kx=8, Ky=-1$"),
    ((8.0, 8), "^dimensions must be positive, got Kx=8.0, Ky=8$"),
    ((2**16, 2**15), "^a 65536 x 32768 grid needs 32 GiB of samples, above the limit of 16 GiB$"),
])
def test_search_config_checks_its_grid_when_built(grid, message):
    # Checked as an EvalPlan is, before any estimate runs a start.
    with pytest.raises(ValueError, match=message):
        SearchConfig(grid=grid)


def test_search_config_stores_its_grid_as_python_ints():
    cfg = SearchConfig(restarts=1, max_iters=1, grid=(np.int64(32), np.int32(48)))
    assert cfg.grid == (32, 48) and {type(size) for size in cfg.grid} == {int}
    json.dumps(estimate(2, 2, E2222, cfg).to_json_dict())


def test_numpy_integer_sizes_are_accepted():
    M, N = np.int64(3), np.int32(2)
    assert upper_bound_magnitude(M, N, INTERIOR) == upper_bound_magnitude(3, 2, INTERIOR)
    cfg = SearchConfig(restarts=1, max_iters=2)
    report = estimate(M, N, INTERIOR, cfg)
    assert json.dumps(report.to_json_dict()) == json.dumps(estimate(3, 2, INTERIOR, cfg).to_json_dict())
    [swept] = sharpness_sweep(np.array([3]), np.array([2]), [INTERIOR], cfg)
    assert swept == report
    for bad in [(0, 2), (3, -1), (2.0, 2), (np.int64(0), 2)]:
        with pytest.raises(ValueError, match="^dimensions must be positive, got M="):
            upper_bound_magnitude(*bad, INTERIOR)


# ----------------------------------------------------------------------------
# Sweeps, diagnostics, serialization
# ----------------------------------------------------------------------------


def test_sharpness_sweep_order_and_validation():
    cfg = SearchConfig(restarts=1, max_iters=1)
    e_list = [E2222, SUP_OVER_L1]
    reports = sharpness_sweep([1, 2], [1, 2], e_list, cfg)
    assert len(reports) == 4
    assert [r.exponents for r in reports] == [E2222, E2222, SUP_OVER_L1, SUP_OVER_L1]
    assert [(r.M, r.N) for r in reports] == [(1, 1), (2, 2), (1, 1), (2, 2)]
    with pytest.raises(ValueError):
        sharpness_sweep([1, 2], [1], e_list, cfg)


def _synthetic_report(e, M, ratio):
    return BoundReport(
        M=M, N=M, exponents=e, theta=theta(e), phi=phi(e), upper=1.0,
        lower_extremizer=0.5, lower_kind="unit",
        searched=ratio, ratio_lower=0.5, ratio_searched=ratio,
        grid=(16, 16), sandwich_ok=True, searched_below_lower=False,
    )


def test_ladder_diagnostics_groups_and_flags():
    stable = [_synthetic_report(E2222, M, r) for M, r in zip((2, 4, 8, 16), (1.0, 1.1, 1.15, 1.2))]
    drifting = [_synthetic_report(SUP_OVER_L1, M, r) for M, r in zip((2, 4, 8), (1.0, 2.0, 0.5))]
    out = ladder_diagnostics(stable + drifting)
    key_stable = E2222.as_tuple()
    key_drift = SUP_OVER_L1.as_tuple()
    assert out[key_stable]["stable"]
    assert out[key_stable]["top_drift"] == pytest.approx(1.2 / 1.1 - 1.0, rel=1e-12)
    assert not out[key_drift]["stable"]
    assert out[key_drift]["sizes"] == [(2, 2), (4, 4), (8, 8)]


def test_jsonl_round_trip(tmp_path):
    cfg = SearchConfig(restarts=1, max_iters=1)
    reports = [estimate(2, 2, E2222, cfg), estimate(2, 2, SUP_OVER_L1, cfg)]
    path = tmp_path / "reports.jsonl"
    write_reports_jsonl(path, reports)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 2
    for line, report in zip(lines, reports):
        parsed = json.loads(line)
        assert parsed == json.loads(json.dumps(report.to_json_dict()))
        assert list(parsed) == sorted(parsed)


def test_csv_layout_and_float_round_trip(tmp_path):
    # An exponent tuple outside every equality slice leaves the phi column blank.
    no_phi = MixedExponents(0.9, 0.2, 0.05, 0.3)
    assert phi(no_phi) is None
    cfg = SearchConfig(restarts=1, max_iters=1)
    reports = [estimate(2, 2, no_phi, cfg), estimate(2, 2, E2222, cfg)]
    path = tmp_path / "reports.csv"
    write_reports_csv(path, reports)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 3
    assert rows[1][CSV_COLUMNS.index("phi_or_blank")] == ""
    assert rows[2][CSV_COLUMNS.index("phi_or_blank")] != ""
    for row, report in zip(rows[1:], reports):
        assert float(row[CSV_COLUMNS.index("upper")]) == report.upper
        assert float(row[CSV_COLUMNS.index("searched")]) == report.searched
        assert float(row[CSV_COLUMNS.index("ratio_lower")]) == report.ratio_lower
        assert int(row[0]) == report.M and int(row[1]) == report.N
