"""Tests for the operator-ratio objective, ascent search, and report plumbing."""

import csv
import importlib.util
import json
import math
import sys
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from mnlab import norms, opnorm
from mnlab.exponents import MixedExponents, phi, theta, upper_bound_magnitude
from mnlab.extremizers import KINDS, UnitE, build
from mnlab.norms import CoefficientMatrix, lpq_norm, lrs_norm
from mnlab.opnorm import (
    CSV_COLUMNS,
    SearchConfig,
    _adjoint_gradient,
    _ascend,
    _dual_map,
    _evaluate,
    estimate,
    objective,
    sharpness_sweep,
    write_reports_csv,
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
        assert objective(A, e, EvalPlan(24, 32)) == pytest.approx(1.0, abs=1e-12)


def test_l2_to_l2_objective_is_one_for_every_matrix():
    # On an exact grid the mean-square of |T A| telescopes to the squared
    # Frobenius norm of A, so the (2,2,2,2) ratio is one identically.
    rng = np.random.default_rng(1)
    for _ in range(10):
        A = random_matrix(rng, int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        assert objective(A, E2222, EvalPlan(16, 16)) == pytest.approx(1.0, abs=1e-9)


def test_ones_objective_saturates_sup_over_l1():
    A = CoefficientMatrix(4, 4, np.ones((4, 4), dtype=complex))
    assert objective(A, SUP_OVER_L1, EvalPlan(32, 32)) == pytest.approx(1.0, abs=1e-12)


def test_objective_rejects_zero_matrix():
    A = CoefficientMatrix(2, 2, np.zeros((2, 2), dtype=complex))
    with pytest.raises(ValueError):
        objective(A, E2222, EvalPlan(16, 16))


def test_objective_is_the_ascent_trial_value_bit_for_bit(monkeypatch):
    # Every value the ascent computes, at its start and at each step, is
    # what objective() returns for the same entries, and what the public
    # norms of the public evaluator give.
    seen = []
    evaluate = opnorm._evaluate

    def recording(entries, samples, e):
        trial = evaluate(entries, samples, e)
        if entries.ndim == 3:  # the ascent's stacks, not objective()'s lone matrices below
            seen.extend(zip(entries.copy(), trial.value.tolist()))
        return trial

    monkeypatch.setattr(opnorm, "_evaluate", recording)
    rng = np.random.default_rng(6)
    grid = EvalPlan(24, 16)
    for e in (COLUMN_EQUALITY, SUP_OVER_L1, INTERIOR):
        starts = rng.standard_normal((2, 3, 2)) + 1j * rng.standard_normal((2, 3, 2))
        _ascend(starts, e, grid, SearchConfig(max_iters=3))
        ascent = list(seen)
        for entries, value in ascent:
            A = CoefficientMatrix(3, 2, entries)
            assert objective(A, e, grid).hex() == value.hex()
            assert (lrs_norm(eval_sum(A, grid), e) / lpq_norm(A, e)).hex() == value.hex()
        assert len(ascent) >= 6  # each start and at least two steps of it
        seen.clear()


def test_trial_ratio_rejects_undefined_and_non_finite_values():
    # The ascent's steps skip the matrix and grid checks; this one scalar
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
    base = objective(A, e, EvalPlan(24, 24))
    for c in (2.0, 1e-8, 3.7j, -5.0 + 1.0j):
        scaled = CoefficientMatrix(3, 3, c * A.entries)
        assert objective(scaled, e, EvalPlan(24, 24)) == pytest.approx(base, rel=1e-12)


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
    # row starts are fixed points of the iteration.
    e = MixedExponents(0.5, 0.5, 0.25, 0.25)
    cfg = SearchConfig(restarts=2, max_iters=4, seed=3)
    first = estimate(3, 2, e, cfg)
    second = estimate(3, 2, e, cfg)
    assert json.dumps(first.to_json_dict(), sort_keys=True) == json.dumps(second.to_json_dict(), sort_keys=True)


def adjoint_gradient(entries, e, grid):
    return _adjoint_gradient(_evaluate(entries, synthesize(entries, *grid), e))


def from_scratch_gradient(entries, samples, e):
    """The pulled-back L^{r,s} gradient, every reduction redone from |samples|."""
    a = np.abs(samples)
    inner_values = norms._reduce(a, e.gamma, True)
    value = norms._reduce(inner_values, e.delta, True, -1)
    weights = norms._reduce_gradient(a, inner_values, e.gamma, True) * norms._reduce_gradient(
        inner_values, value, e.delta, True, -1)
    return synthesize_adjoint(weights * opnorm._phase(samples, a), *entries.shape)


def fd_gradient(entries, e, grid):
    """Central finite differences of ||T x||_{L^{r,s}} on the 2MN real parameters: the gradient oracle."""
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
                slope = (lrs_norm(eval_sum(CoefficientMatrix(M, N, plus), grid), e)
                         - lrs_norm(eval_sum(CoefficientMatrix(M, N, minus), grid), e)) / (2.0 * h)
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


def conjugate(recip):
    """The exponent dual to the one with reciprocal `recip`: 1/(1 - recip), inf at recip = 1."""
    return math.inf if recip == 1.0 else 1.0 / (1.0 - recip)


def mixed_norm(a, p, q):
    """||a||_{p,q}: the l^p norm down each column, then the l^q norm of those."""
    return float(np.linalg.norm(np.linalg.norm(a, ord=p, axis=0), ord=q))


DUAL_PAIRS = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (0.5, 0.5), (0.25, 0.8), (0.9, 0.1), (0.7, 0.35)]


@pytest.mark.parametrize("alpha,beta", DUAL_PAIRS)
def test_dual_map_meets_hoelders_equality(alpha, beta):
    # D(g) is in the unit sphere of l^{p,q} and attains Re<g, x> = ||g||_{p',q'}
    # there, both by numpy's own vector norms.
    e = MixedExponents(alpha, beta, 0.5, 0.5)
    p, q = (math.inf if recip == 0.0 else 1.0 / recip for recip in (alpha, beta))
    rng = np.random.default_rng(12)
    for M, N in [(1, 1), (3, 4), (5, 2), (8, 8)]:
        g = rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N))
        x = _dual_map(g, e)
        assert mixed_norm(x, p, q) == pytest.approx(1.0, rel=1e-12)
        dual = mixed_norm(g, conjugate(alpha), conjugate(beta))
        assert np.vdot(g, x).real == pytest.approx(dual, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 0.999, 1.0])
@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
def test_dual_map_of_subnormal_entries_is_finite_and_normal(alpha, beta):
    # A subnormal modulus would overflow numpy's complex division; D's
    # phases treat it as 0, and D flushes its own subnormal weights to 0.
    rng = np.random.default_rng(13)
    g = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    g[0, 1], g[2, 2] = 3e-310 + 1e-310j, 5e-324
    g[:, 0] = [1.0, 0.49j, 0.2, -2e-315j]  # 0.49^999 is subnormal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = _dual_map(g, MixedExponents(alpha, beta, 0.5, 0.5))
    modulus = np.abs(x)
    assert np.isfinite(x).all()
    assert ((modulus == 0.0) | (modulus >= np.finfo(float).tiny)).all()


@pytest.mark.parametrize("alpha", [0.999, 1.0])
def test_ascent_near_p_one_stays_finite(alpha):
    # There D's power (|g| / t)^(p' - 1) underflows on most entries.
    rng = np.random.default_rng(14)
    for M, N in [(2, 3), (4, 4), (8, 5)]:
        for beta, gamma, delta in rng.uniform(0.0, 1.0, (3, 3)):
            e = MixedExponents(alpha, float(beta), float(gamma), float(delta))
            starts = np.stack(list(opnorm._start_matrices(M, N, SearchConfig(restarts=2, seed=int(M)))))
            for history in _ascend(starts, e, default_grid(M, N, floor=16), SearchConfig()):
                assert math.isfinite(history[-1]) and history == sorted(history)


def test_ascent_leaves_the_unit_saddle():
    # For finite r and s the unit matrix is an exact critical point and a
    # fixed point of the step; the step from the nudged unit climbs away.
    start = build(UnitE(), 4, 4).entries
    grid = default_grid(4, 4, floor=16)
    assert np.array_equal(_dual_map(adjoint_gradient(start, INTERIOR, grid), INTERIOR), start)
    [history] = _ascend(start[None], INTERIOR, grid, SearchConfig(max_iters=5))
    assert history[0] == 1.0 and history[-1] > 1.01


def stack_rows(arg):
    """The matrices that a call's first argument holds: the rows of a stack, 1 for a lone matrix."""
    return int(np.prod(np.shape(getattr(arg, "entries", arg))[:-2]))


def count_rows(monkeypatch, names):
    """Count, per name, the stack rows that opnorm hands each of these functions."""
    counts = Counter()
    for name in names:
        original = getattr(opnorm, name)

        def counting(*args, _name=name, _original=original):
            counts[_name] += stack_rows(args[0])
            return _original(*args)

        monkeypatch.setattr(opnorm, name, counting)
    return counts


def test_one_synthesis_per_trial_and_one_adjoint_per_gradient(monkeypatch):
    counts = count_rows(monkeypatch, ("eval_sum", "synthesize", "synthesize_adjoint", "_evaluate",
                                      "_adjoint_gradient", "_dual_map"))
    rng = np.random.default_rng(5)
    start = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    [history] = _ascend(start[None], INTERIOR, default_grid(3, 2, floor=16), SearchConfig(max_iters=10))
    # Objective evaluations (the start and 10 steps, none of them retried), gradients and the result.
    assert (counts["_evaluate"], counts["_adjoint_gradient"], len(history)) == (11, 10, 11)
    assert history[-1].hex() == "0x1.4710afd43f612p+0"
    assert counts["eval_sum"] == 0  # the stack's starts are synthesized together, on a plan checked once
    assert counts["eval_sum"] + counts["synthesize"] == counts["_evaluate"]
    assert counts["synthesize_adjoint"] == counts["_adjoint_gradient"] == counts["_dual_map"]


def hoelder_weights(a, inner, outer, mean):
    """d||a||/d a for the mixed norm of the non-negative array a, from the top down.

    The outer level's weight (u_n / ||u||)^(s - 1) on each column's inner
    norm u_n comes first, then the inner level's (a_mn / u_n)^(r - 1) within
    the column; an infinite exponent weighs only the first argmax, and
    `mean` divides each level by its count.
    """
    def level(values, recip, axis):
        exponent = math.inf if recip == 0.0 else 1.0 / recip
        count = values.shape[axis] if mean else 1
        norm = np.linalg.norm(values, ord=exponent, axis=axis, keepdims=True) / count ** recip
        if recip == 0.0:
            weight = np.zeros_like(values)
            np.put_along_axis(weight, np.argmax(values, axis=axis, keepdims=True), 1.0, axis=axis)
            return norm, weight
        safe = np.where(norm > 0.0, norm, 1.0)
        return norm, (values / safe) ** (exponent - 1.0) / count

    columns, inner_weight = level(a, inner, 0)
    _, outer_weight = level(columns, outer, 1)
    return outer_weight * inner_weight


def top_down_step(entries, e, grid):
    """The iteration's next matrix from `entries`, each weight from hoelder_weights: the reference."""
    def phase(z):
        return np.divide(z, np.abs(z), out=np.zeros_like(z), where=np.abs(z) > 0.0)

    samples = synthesize(entries, *grid)
    g = synthesize_adjoint(hoelder_weights(np.abs(samples), e.gamma, e.delta, True) * phase(samples),
                           *entries.shape)
    return hoelder_weights(np.abs(g), 1.0 - e.alpha, 1.0 - e.beta, False) * phase(g)


@pytest.mark.parametrize("M", [2, 4, 8])
@pytest.mark.parametrize("name", sorted(SEARCH_TUPLES))
def test_ascent_history_equals_the_top_down_search(name, M, monkeypatch):
    # The ascent's reductions, reused from each step's record, and its dual
    # map take each level of the mixed norms from the bottom up; the
    # reference weighs them from the top down.  On the benchmark's tuples,
    # from every warm start and two seeded random starts, each step, retries
    # from a nudged matrix included, is the reference's step from the same
    # matrix, its value is objective()'s there, and the history is made of
    # those values.  The tolerance is 1e-9: next to a saddle, entries of g
    # some 1e-9 of its largest carry the FFT's roundoff at about 1e-7
    # relative, and D's power passes it on; whole histories drift apart
    # there, as leaving the saddle amplifies it.
    # Each start ascends as a stack of one, so each step is checked against
    # its own start; test_a_stack_ascends_each_start_as_a_stack_of_one_does
    # ties a stack of starts to these.
    steps = []
    gradient, dual_map, evaluate = opnorm._adjoint_gradient, opnorm._dual_map, opnorm._evaluate

    def recording_gradient(trial):
        steps.append([trial.entries[0]])
        return gradient(trial)

    def recording_dual_map(g, e):
        steps[-1].append(dual_map(g, e))
        return steps[-1][-1]

    def recording_evaluate(entries, samples, e):
        trial = evaluate(entries, samples, e)
        if steps and len(steps[-1]) == 2 and entries is steps[-1][1]:
            # A copy: a retry's rows are later written into this trial's arrays.
            steps[-1][1:] = [entries[0].copy(), trial.value[0]]
        return trial

    monkeypatch.setattr(opnorm, "_adjoint_gradient", recording_gradient)
    monkeypatch.setattr(opnorm, "_dual_map", recording_dual_map)
    monkeypatch.setattr(opnorm, "_evaluate", recording_evaluate)
    e = SEARCH_TUPLES[name]
    cfg = SearchConfig(restarts=2, max_iters=10, seed=7)
    grid = default_grid(M, M, floor=16)
    for start in opnorm._start_matrices(M, M, cfg):
        steps.clear()
        [history] = _ascend(start[None], e, grid, cfg)
        for before, after, value in steps:
            reference = top_down_step(before, e, grid)
            assert np.abs(after - reference).max() <= 1e-9 * np.abs(reference).max()
            assert value == pytest.approx(objective(CoefficientMatrix(M, M, reference), e, grid), rel=1e-9)
        assert set(history[1:]) <= {value for _, _, value in steps}


def test_one_by_one_ascent_stops_at_once(monkeypatch):
    # A 1 x 1 matrix is a fixed point of the step, also once nudged: the
    # start, a step and its retry from the nudged start (two evaluations
    # each), none of which improves, and the ascent stops at the ratio 1.
    counts = count_search_calls(monkeypatch)
    rng = np.random.default_rng(10)
    for e in (E2222, SUP_OVER_L1, INTERIOR, MixedExponents(*rng.uniform(0.0, 1.0, size=4))):
        counts.clear()
        assert _ascend(np.ones((1, 1, 1)), e, EvalPlan(16, 16), SearchConfig()) == [[1.0]]
        assert (counts["_evaluate"], counts["_adjoint_gradient"]) == (4, 2)


def benchmark_workloads(monkeypatch):
    """perfbench's workloads module, loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look their module up there
    spec.loader.exec_module(workloads)
    return workloads


def test_warm_starts_alone_meet_the_benchmark_floors(monkeypatch):
    # perfbench's search floors are what the five warm starts reach on their
    # own, so that every seed's report meets them; here, where the unit,
    # ones, column and row starts are fixed points of the step, the nudged
    # retries carry them.
    workloads = benchmark_workloads(monkeypatch)
    cfg = SearchConfig(restarts=1, max_iters=10)
    for M in workloads.SEARCH_SIZES:
        grid = default_grid(M, M, floor=16)
        warm = np.stack([build(kind(), M, M).entries for kind in KINDS])
        for name, e in workloads.SEARCH_TUPLES:
            upper = upper_bound_magnitude(M, M, e)
            target = upper / (1.0 + 3.0 * opnorm.GRID_TOL)
            best = max(history[-1] for history in _ascend(warm, e, grid, cfg, target))
            floor = workloads.SEARCH_FLOOR[name][M]
            assert best / upper >= floor * (1.0 - workloads.SEARCH_MARGIN), (name, M, best / upper, floor)


def test_ascent_history_is_monotone():
    rng = np.random.default_rng(3)
    start = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    [history] = _ascend(start[None], SUP_OVER_L1, EvalPlan(24, 24), SearchConfig(max_iters=10))
    assert all(later > earlier for earlier, later in zip(history, history[1:]))  # strictly
    assert history[-1] <= upper_bound_magnitude(3, 3, SUP_OVER_L1) * (1 + 3e-4)


def one_by_one(starts, e, grid, cfg, target=math.inf):
    """The starts ascended in order as stacks of one, up to the first that reaches `target`: the reference."""
    histories = []
    for start in starts:
        histories += _ascend(start[None], e, grid, cfg, target)
        if histories[-1][-1] >= target:
            break
    return histories


def hexes(histories):
    return [[value.hex() for value in history] for history in histories]


@pytest.mark.parametrize("e", [
    MixedExponents(0.0, 0.6, 0.3, 0.7),  # p = inf
    MixedExponents(1.0, 0.4, 0.6, 0.5),  # p = 1
    MixedExponents(0.3, 0.7, 0.0, 0.0),  # r = s = inf
    INTERIOR,
], ids=["alpha-0", "alpha-1", "gamma-delta-0", "interior"])
@pytest.mark.parametrize("M,N", [(1, 1), (4, 1), (1, 3), (3, 2), (4, 4)])
def test_a_stack_ascends_each_start_as_a_stack_of_one_does(e, M, N):
    # Every value of every history, bit for bit: the stack's reductions,
    # transforms and retries act on each start as they act on it alone.
    cfg = SearchConfig(restarts=3, max_iters=6, seed=M + 10 * N)
    starts = np.stack(list(opnorm._start_matrices(M, N, cfg)))
    grid = default_grid(M, N, floor=16)
    histories = _ascend(starts, e, grid, cfg)
    assert len(histories) == len(starts)
    assert hexes(histories) == hexes(one_by_one(starts, e, grid, cfg))


def test_a_stack_retries_its_stuck_starts_as_stacks_of_one_do(monkeypatch):
    # At 4 x 4 on the interior tuple the unit start is a fixed point of the
    # step: its first step fails and is retried from the nudged unit while
    # the other starts climb on.
    counts = count_search_calls(monkeypatch)
    cfg = SearchConfig(restarts=3, max_iters=10, seed=0)
    starts = np.stack(list(opnorm._start_matrices(4, 4, cfg)))
    grid = default_grid(4, 4, floor=16)
    histories = _ascend(starts, INTERIOR, grid, cfg)
    assert counts["_evaluate"] > sum(len(history) for history in histories)  # some step failed
    assert histories[0][0] == 1.0 and histories[0][-1] > 1.01
    assert hexes(histories) == hexes(one_by_one(starts, INTERIOR, grid, cfg))


def test_the_first_start_in_order_to_reach_the_target_closes_the_stack():
    # A target that start k reaches at step t, above every earlier start's
    # final value: k stops there, the starts before it run on to their own
    # stop, and the starts after it, some of which climb higher, are dropped.
    cfg = SearchConfig(restarts=3, max_iters=10, seed=0)
    starts = np.stack(list(opnorm._start_matrices(4, 4, cfg)))
    grid = default_grid(4, 4, floor=16)
    free = _ascend(starts, INTERIOR, grid, cfg)
    k = 4
    before = max(history[-1] for history in free[:k])
    t = next(step for step, value in enumerate(free[k]) if value > before)
    target = free[k][t]
    assert 0 < t < min(len(history) for history in free[:k]) - 1  # the earlier starts still climb
    assert max(history[-1] for history in free[k + 1:]) > target  # a dropped start would have won
    stopped = _ascend(starts, INTERIOR, grid, cfg, target)
    assert hexes(stopped) == hexes([*free[:k], free[k][:t + 1]])
    assert hexes(stopped) == hexes(one_by_one(starts, INTERIOR, grid, cfg, target))


def test_searched_equals_the_one_by_one_search_on_the_benchmark_jobs(monkeypatch):
    # estimate's chunked lockstep search against the starts taken one after
    # another, each as a stack of one, on the benchmark's search jobs.
    workloads = benchmark_workloads(monkeypatch)
    for seed in (1, 5, 701):
        for job in workloads.search(seed, Path()).jobs:
            M, e, cfg = job.run.args
            target = upper_bound_magnitude(M, M, e) / (1.0 + 3.0 * opnorm.GRID_TOL)
            reference = one_by_one(list(opnorm._start_matrices(M, M, cfg)), e, default_grid(M, M, floor=16),
                                   cfg, target)
            assert job.run().searched.hex() == max(history[-1] for history in reference).hex(), (seed, job.label)


# `searched` of estimate(M, M, e, SearchConfig(restarts=2, max_iters=10,
# seed=7)) on the benchmark's search tuples, recorded as float.hex before the
# search kernel was pruned; a kernel change that moves one bit fails here.
# The sup-l1 bracket closes at the unit start, whose value is exactly the
# bound 1.0, so the search stops there.
GOLDEN_SEARCHED = {
    ("column-equality", 2): "0x1.1b4f819c2ff81p+0",
    ("column-equality", 4): "0x1.4b6a277d79ec2p+0",
    ("sup-l1", 2): "0x1.0000000000000p+0",
    ("sup-l1", 4): "0x1.0000000000000p+0",
    ("interior", 2): "0x1.284f9f9547e96p+0",
    ("interior", 4): "0x1.63c1aa00589ccp+0",
}


@pytest.mark.parametrize("name,M", sorted(GOLDEN_SEARCHED))
def test_searched_is_pinned_bit_for_bit(name, M):
    report = estimate(M, M, SEARCH_TUPLES[name], SearchConfig(restarts=2, max_iters=10, seed=7))
    assert report.searched.hex() == GOLDEN_SEARCHED[name, M]
    if name == "sup-l1":
        assert report.searched == report.upper


def count_search_calls(monkeypatch):
    return count_rows(monkeypatch, ("_evaluate", "_adjoint_gradient"))


def test_search_stops_once_the_bracket_closes(monkeypatch):
    # ||S||_inf <= ||A||_1 holds with equality at the unit start, the first
    # one visited: the first stack's one evaluation and no gradient.  That
    # stack holds two starts of a 64^2 grid, and all eight of a 16^2 one.
    counts = count_search_calls(monkeypatch)
    report = estimate(8, 8, SUP_OVER_L1, SearchConfig(restarts=2, max_iters=10, seed=7))
    assert (counts["_evaluate"], counts["_adjoint_gradient"]) == (2, 0)
    assert report.searched == report.upper == 1.0
    rng = np.random.default_rng(8)
    random_tuples = [MixedExponents(*rng.uniform(0.0, 1.0, size=4)) for _ in range(4)]
    for e in (E2222, SUP_OVER_L1, INTERIOR, *random_tuples):
        counts.clear()
        report = estimate(1, 1, e, SearchConfig(restarts=3, max_iters=5))
        assert (counts["_evaluate"], counts["_adjoint_gradient"]) == (len(KINDS) + 3, 0)
        assert report.searched == report.upper == 1.0


def test_ascent_stops_before_the_gradient_at_the_target(monkeypatch):
    counts = count_search_calls(monkeypatch)
    rng = np.random.default_rng(5)
    start = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    grid = default_grid(3, 2, floor=16)
    [history] = _ascend(start[None], INTERIOR, grid, SearchConfig(max_iters=10))
    # A target between two accepted values stops the ascent at the first one that reaches it.
    counts.clear()
    target = (history[3] + history[4]) / 2.0
    assert _ascend(start[None], INTERIOR, grid, SearchConfig(max_iters=10), target) == [history[:5]]
    assert counts["_adjoint_gradient"] == 4


# Ground truth: tuples whose operator norm is known in closed form at every
# size, on three faces, each with its (alpha, beta) or (gamma, delta) drawn
# from default_rng(5).  Face: (tuple from the two draws, exact norm).
GROUND_TRUTH_FACES = {
    # gamma = delta = 1/2: by Parseval, M^(1/2-alpha)+ N^(1/2-beta)+.
    "parseval": (lambda u, v: MixedExponents(u, v, 0.5, 0.5),
                 lambda e, M, N: M ** max(0.0, 0.5 - e.alpha) * N ** max(0.0, 0.5 - e.beta)),
    # gamma = delta = 0: M^(1-alpha) N^(1-beta), attained by the ones matrix at the origin.
    "sup": (lambda u, v: MixedExponents(u, v, 0.0, 0.0),
            lambda e, M, N: M ** (1.0 - e.alpha) * N ** (1.0 - e.beta)),
    # alpha = beta = 1: ||S||_{r,s} <= ||S||_inf <= ||A||_{1,1}, with equality at a single entry.
    "l1": (lambda u, v: MixedExponents(1.0, 1.0, u, v), lambda e, M, N: 1.0),
}


def ground_truth_rows():
    """Three tuples per face, at M = N in {8, 16, 32} where the bracket closes and {8, 16} where it does not."""
    rng = np.random.default_rng(5)
    for face, (tuple_of, exact_of) in GROUND_TRUTH_FACES.items():
        for index, (u, v) in enumerate(rng.uniform(0.0, 1.0, (3, 2))):
            e = tuple_of(u, v)
            closes = upper_bound_magnitude(8, 8, e) <= exact_of(e, 8, 8) * (1.0 + 3.0 * opnorm.GRID_TOL)
            for n in (8, 16, 32) if closes else (8, 16):
                yield pytest.param(e, n, exact_of(e, n, n), id=f"{face}-{index}-{n}")


@pytest.mark.parametrize("e, n, exact", ground_truth_rows())
def test_searched_meets_the_ground_truth(e, n, exact):
    report = estimate(n, n, e)
    assert exact * (1.0 - 1e-3) <= report.searched <= exact * (1.0 + 3.0 * opnorm.GRID_TOL), report.searched / exact


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


def test_estimate_checks_its_default_grid_before_any_start():
    # The first start, a 10^11 x 10^5 matrix, would need 142 PiB: the grid's check comes first.
    message = r"^a 800000000000 x 800000 grid needs 9\.54e\+09 GiB of samples, above the limit of 16 GiB$"
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            estimate(10**11, 10**5, E2222, SearchConfig(restarts=1, max_iters=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_estimate_checks_a_given_grid_holds_the_matrix_before_any_start():
    # The first start, a 10^5 x 10^5 matrix, would need 149 GiB: the 16 x 16 grid is refused first.
    message = r"^zero-pad transform needs Kx >= M and Ky >= N, got \(16, 16\) for \(100000, 100000\)$"
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            estimate(10**5, 10**5, E2222, SearchConfig(grid=(16, 16)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_estimate_builds_its_plan_once_whatever_the_number_of_starts(monkeypatch):
    built, starts = [], []
    new, ascend = EvalPlan.__new__, opnorm._ascend

    def counting_new(cls, Kx, Ky):
        built.append((Kx, Ky))
        return new(cls, Kx, Ky)

    def counting_ascend(stack, e, plan, cfg, target):
        starts.extend([plan] * len(stack))
        return ascend(stack, e, plan, cfg, target)

    monkeypatch.setattr(EvalPlan, "__new__", counting_new)
    monkeypatch.setattr(opnorm, "_ascend", counting_ascend)
    report = estimate(3, 2, INTERIOR, SearchConfig(restarts=3, max_iters=2))
    assert built == [(24, 16)] and len(starts) == len(KINDS) + 3
    assert all(plan is starts[0] for plan in starts) and report.grid is starts[0]


@pytest.mark.parametrize("M, stacks", [(1, [7]), (4, [7]), (8, [2, 2, 2, 1]), (16, [1] * 7)])
def test_estimate_stacks_at_most_its_sample_budget_of_starts(M, stacks, monkeypatch):
    # 2^13 grid samples: every start of the 16^2 and 32^2 grids, two of 64^2, one from 128^2 up.
    sizes, ascend = [], opnorm._ascend

    def recording_ascend(stack, e, plan, cfg, target):
        sizes.append(len(stack))
        return ascend(stack, e, plan, cfg, target)

    monkeypatch.setattr(opnorm, "_ascend", recording_ascend)
    estimate(M, M, INTERIOR, SearchConfig(restarts=2, max_iters=1))
    assert sizes == stacks


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
# Sweeps and serialization
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
