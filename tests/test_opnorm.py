"""Tests for the operator-ratio objective, ascent search, and report plumbing."""

import csv
import json

import numpy as np
import pytest

from mnlab.exponents import MixedExponents, phi, theta, upper_bound_magnitude
from mnlab.extremizers import RowR, UnitE, build
from mnlab.norms import CoefficientMatrix
from mnlab.opnorm import (
    CSV_COLUMNS,
    BoundReport,
    SearchConfig,
    _adjoint_gradient,
    _ascend,
    _default_grid,
    _escape_direction,
    estimate,
    ladder_diagnostics,
    objective,
    sharpness_sweep,
    write_reports_csv,
    write_reports_jsonl,
)

E2222 = MixedExponents(0.5, 0.5, 0.5, 0.5)
SUP_OVER_L1 = MixedExponents(1.0, 1.0, 0.0, 0.0)
INTERIOR = MixedExponents(0.25, 0.5, 0.75, 0.5)
COLUMN_EQUALITY = MixedExponents(0.5, 0.75, 0.25, 0.5)


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


@pytest.mark.parametrize("e", [
    COLUMN_EQUALITY,
    SUP_OVER_L1,
    INTERIOR,
    MixedExponents(0.0, 0.6, 0.3, 0.7),  # p = inf
    MixedExponents(0.4, 0.6, 0.0, 0.7),  # r = inf
], ids=["column-equality", "sup-l1", "interior", "p-inf", "r-inf"])
@pytest.mark.parametrize("M,N", [(2, 3), (3, 4), (4, 2)])
def test_adjoint_gradient_matches_central_differences(e, M, N):
    rng = np.random.default_rng([M, N])
    for _ in range(2):
        entries = rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N))
        entries /= np.linalg.norm(entries)
        grid = _default_grid(M, N)
        oracle = fd_gradient(entries, e, grid)
        assert np.linalg.norm(oracle) > 1e-3  # a non-stationary point
        error = np.linalg.norm(_adjoint_gradient(entries, e, grid) - oracle)
        assert error <= 1e-6 * np.linalg.norm(oracle)


def test_adjoint_gradient_matches_central_differences_at_zero_entries_for_p_one():
    # |a| has a kink at 0 when p = 1: central differences see no l^{p,q}
    # slope there, and the adjoint gradient gives those entries weight 0.
    rng = np.random.default_rng(9)
    entries = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    entries[[0, 1, 2], [1, 3, 0]] = 0.0
    e = MixedExponents(1.0, 0.5, 0.25, 0.5)
    oracle = fd_gradient(entries, e, (24, 32))
    error = np.linalg.norm(_adjoint_gradient(entries, e, (24, 32)) - oracle)
    assert error <= 1e-6 * np.linalg.norm(oracle)


def test_ascent_leaves_the_unit_saddle():
    # The unit matrix is an exact critical point, where the gradient is
    # roundoff; the fixed escape direction must still find an improvement.
    start = build(UnitE(), 4, 4).entries
    grid = _default_grid(4, 4)
    assert np.linalg.norm(_adjoint_gradient(start, INTERIOR, grid)) < 1e-12
    value, history = _ascend(start, INTERIOR, grid, SearchConfig(max_iters=5))
    assert value > history[0]


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
    with pytest.raises(ValueError):
        SearchConfig(step=0.0)
    with pytest.raises(ValueError):
        SearchConfig(tol=-1.0)


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
