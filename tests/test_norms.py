"""Tests for discrete/grid mixed norms, chain inequalities, and JSON round trips."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnlab.exponents import MixedExponents
from mnlab.norms import (
    CoefficientMatrix,
    GridFunction,
    QuadratureSpec,
    QuadratureWarning,
    _reduce,
    grid_from_json,
    grid_to_json,
    holder_matrix_chain,
    load_grid,
    lpq_norm,
    lrs_norm,
    matrix_from_json,
    matrix_to_json,
    save_grid,
)
from mnlab.trigsum import EvalPlan, eval_sum


def random_matrix(rng, M, N):
    return CoefficientMatrix(M, N, rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N)))


def random_exponents(rng):
    # Mix interior values with the degenerate endpoints 0 (infinite exponent)
    # and 1, which exercise the max/sum switch.
    vals = rng.uniform(0.0, 1.0, size=4)
    snap = rng.random(size=4) < 0.25
    vals[snap] = rng.choice([0.0, 0.5, 1.0], size=int(snap.sum()))
    return MixedExponents(*vals)


# ---------------------------------------------------------------------------
# lpq_norm
# ---------------------------------------------------------------------------


def test_single_entry_norm_is_its_modulus():
    A = CoefficientMatrix(1, 1, np.array([[1.0 + 0j]]))
    for e in [MixedExponents(1, 1, 1, 1), MixedExponents(0, 0, 0, 0), MixedExponents(0.3, 0.7, 0.5, 0.5)]:
        assert lpq_norm(A, e) == 1.0


def test_two_by_two_ones_euclidean():
    A = CoefficientMatrix(2, 2, np.ones((2, 2), dtype=complex))
    assert lpq_norm(A, MixedExponents(0.5, 0.5, 0.5, 0.5)) == pytest.approx(2.0, rel=1e-15)


def test_three_four_five_column():
    A = CoefficientMatrix(2, 1, np.array([[3.0], [4.0]], dtype=complex))
    e = MixedExponents.from_exponents(2.0, 7.0, 2.0, 2.0)
    assert lpq_norm(A, e) == pytest.approx(5.0, rel=1e-15)


def test_zero_iff_zero_matrix():
    rng = np.random.default_rng(0)
    zero = CoefficientMatrix(3, 4, np.zeros((3, 4), dtype=complex))
    for _ in range(20):
        e = random_exponents(rng)
        assert lpq_norm(zero, e) == 0.0
        A = random_matrix(rng, 3, 4)
        assert lpq_norm(A, e) > 0.0


def test_extreme_exponents_do_not_overflow():
    A = CoefficientMatrix(2, 2, np.array([[3e100, 1e100], [2e100, 4e100]], dtype=complex))
    e = MixedExponents(1e-3, 1e-3, 0.5, 0.5)  # p = q = 1000
    v = lpq_norm(A, e)
    assert math.isfinite(v)
    # The huge exponent is within a whisker of the max norm.
    assert v == pytest.approx(4e100, rel=2e-2)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**31 - 1),
       st.floats(-50, 50, allow_nan=False), st.floats(-50, 50, allow_nan=False))
def test_homogeneity(seed, c_re, c_im):
    rng = np.random.default_rng(seed)
    A = random_matrix(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)))
    e = random_exponents(rng)
    c = complex(c_re, c_im)
    scaled = CoefficientMatrix(A.M, A.N, c * A.entries)
    assert lpq_norm(scaled, e) == pytest.approx(abs(c) * lpq_norm(A, e), rel=1e-12, abs=1e-250)


def test_first_slot_chain_inequality():
    # ||A||_{p,q} <= M^(1/p - 1/pbar) ||A||_{pbar,q} for p <= pbar.
    rng = np.random.default_rng(1)
    for _ in range(60):
        A = random_matrix(rng, int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        a_small, a_big = np.sort(rng.uniform(0.0, 1.0, size=2))
        b = rng.uniform(0.0, 1.0)
        lhs = lpq_norm(A, MixedExponents(a_big, b, 0.5, 0.5))
        rhs = A.M ** (a_big - a_small) * lpq_norm(A, MixedExponents(a_small, b, 0.5, 0.5))
        assert lhs <= rhs * (1 + 1e-12)


def test_second_slot_chain_inequality():
    rng = np.random.default_rng(2)
    for _ in range(60):
        A = random_matrix(rng, int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        b_small, b_big = np.sort(rng.uniform(0.0, 1.0, size=2))
        a = rng.uniform(0.0, 1.0)
        lhs = lpq_norm(A, MixedExponents(a, b_big, 0.5, 0.5))
        rhs = A.N ** (b_big - b_small) * lpq_norm(A, MixedExponents(a, b_small, 0.5, 0.5))
        assert lhs <= rhs * (1 + 1e-12)


# ---------------------------------------------------------------------------
# holder_matrix_chain
# ---------------------------------------------------------------------------


def test_chain_equality_for_constant_modulus():
    A = CoefficientMatrix(2, 2, np.ones((2, 2), dtype=complex))
    first, second = holder_matrix_chain(
        A, MixedExponents(1.0, 1.0, 0.5, 0.5), MixedExponents(0.5, 1.0, 0.5, 0.5)
    )
    assert first == pytest.approx(4.0, rel=1e-15)
    assert second == pytest.approx(4.0, rel=1e-12)


def test_chain_single_entry():
    A = CoefficientMatrix(2, 2, np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))
    first, second = holder_matrix_chain(
        A, MixedExponents(1.0, 1.0, 0.5, 0.5), MixedExponents(0.5, 1.0, 0.5, 0.5)
    )
    assert first == 1.0
    assert second == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_chain_zero_matrix():
    A = CoefficientMatrix(2, 2, np.zeros((2, 2), dtype=complex))
    assert holder_matrix_chain(
        A, MixedExponents(1.0, 0.5, 0.5, 0.5), MixedExponents(0.5, 0.5, 0.5, 0.5)
    ) == (0.0, 0.0)


def test_chain_rejects_incomparable_pairs():
    A = CoefficientMatrix(2, 2, np.ones((2, 2), dtype=complex))
    with pytest.raises(ValueError):
        holder_matrix_chain(A, MixedExponents(0.3, 0.5, 0.5, 0.5), MixedExponents(0.7, 0.5, 0.5, 0.5))


def test_chain_second_slot():
    rng = np.random.default_rng(3)
    A = random_matrix(rng, 3, 5)
    first, second = holder_matrix_chain(
        A, MixedExponents(0.5, 0.9, 0.5, 0.5), MixedExponents(0.5, 0.2, 0.5, 0.5)
    )
    assert first <= second * (1 + 1e-12)


# ---------------------------------------------------------------------------
# lrs_norm
# ---------------------------------------------------------------------------


def constant_grid(Kx, Ky, value=1.0 + 0j):
    return GridFunction(Kx, Ky, np.full((Kx, Ky), value, dtype=complex))


def test_constant_one_has_unit_norm():
    f = constant_grid(12, 10)
    for e in [MixedExponents(0.5, 0.5, 1.0, 1.0), MixedExponents(0.5, 0.5, 0.0, 0.0),
              MixedExponents(0.5, 0.5, 0.3, 0.8)]:
        assert lrs_norm(f, e) == pytest.approx(1.0, rel=1e-14)


def test_unimodular_exponential_has_unit_norm():
    x = np.arange(16) / 16
    samples = np.exp(2j * np.pi * x)[:, None] * np.ones((1, 16))
    f = GridFunction(16, 16, samples)
    for e in [MixedExponents(0.5, 0.5, 0.25, 0.75), MixedExponents(0.5, 0.5, 0.0, 1.0)]:
        assert lrs_norm(f, e) == pytest.approx(1.0, rel=1e-14)


def test_parseval_on_the_smallest_exact_grid():
    # The squared modulus of the sum has 2M-1 x-frequencies, so the rectangle
    # rule is exact already at Kx = 2M-1 (and any larger size).
    rng = np.random.default_rng(4)
    e22 = MixedExponents(0.5, 0.5, 0.5, 0.5)
    for _ in range(25):
        M, N = int(rng.integers(1, 33)), int(rng.integers(1, 33))
        A = random_matrix(rng, M, N)
        for Kx, Ky in [(2 * M - 1 if M > 1 else 1, 2 * N - 1 if N > 1 else 1), (2 * M, 2 * N)]:
            f = eval_sum(A, EvalPlan(Kx=max(Kx, M), Ky=max(Ky, N)))
            assert lrs_norm(f, e22) == pytest.approx(lpq_norm(A, e22), rel=1e-9)


def test_grid_norm_nesting_in_both_slots():
    rng = np.random.default_rng(5)
    for _ in range(40):
        M, N = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        A = random_matrix(rng, M, N)
        f = eval_sum(A, EvalPlan(Kx=8 * M, Ky=8 * N))
        g_small, g_big = np.sort(rng.uniform(0.0, 1.0, size=2))
        d = rng.uniform(0.0, 1.0)
        # Larger reciprocal = smaller exponent = smaller averaged norm.
        low = lrs_norm(f, MixedExponents(0.5, 0.5, g_big, d))
        high = lrs_norm(f, MixedExponents(0.5, 0.5, g_small, d))
        assert low <= high + 1e-12
        d_small, d_big = np.sort(rng.uniform(0.0, 1.0, size=2))
        g = rng.uniform(0.0, 1.0)
        assert (lrs_norm(f, MixedExponents(0.5, 0.5, g, d_big))
                <= lrs_norm(f, MixedExponents(0.5, 0.5, g, d_small)) + 1e-12)


def test_grid_homogeneity():
    rng = np.random.default_rng(6)
    f = GridFunction(8, 8, rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    scaled = GridFunction(8, 8, (2.5 - 1j) * f.samples)
    for e in [MixedExponents(0.5, 0.5, 0.3, 0.9), MixedExponents(0.5, 0.5, 0.0, 1.0)]:
        assert lrs_norm(scaled, e) == pytest.approx(abs(2.5 - 1j) * lrs_norm(f, e), rel=1e-12)


def test_sup_norm_bridge_to_huge_exponent():
    # r = inf (grid max) against r = 2^20: within 1% on both a unimodular
    # function and a generic sum sample.
    gamma_tiny = 2.0**-20
    x = np.arange(32) / 32
    uni = GridFunction(32, 32, np.exp(2j * np.pi * np.add.outer(x, x)))
    rng = np.random.default_rng(7)
    f = eval_sum(random_matrix(rng, 4, 4), EvalPlan(Kx=32, Ky=32))
    for grid in [uni, f]:
        sup = lrs_norm(grid, MixedExponents(0.5, 0.5, 0.0, 0.0))
        huge = lrs_norm(grid, MixedExponents(0.5, 0.5, gamma_tiny, gamma_tiny))
        assert huge == pytest.approx(sup, rel=1e-2)


def test_refine_check_warns_on_under_resolved_grid():
    rng = np.random.default_rng(8)
    A = random_matrix(rng, 4, 4)
    f = eval_sum(A, EvalPlan(Kx=8, Ky=8))
    e = MixedExponents(0.5, 0.5, 0.25, 0.25)  # r = s = 4: |S|^4 needs a finer grid
    with pytest.warns(QuadratureWarning):
        lrs_norm(f, e, QuadratureSpec(refine_check=True, rel_tol=1e-12))


def test_refine_check_quiet_on_resolved_grid():
    rng = np.random.default_rng(9)
    A = random_matrix(rng, 4, 4)
    f = eval_sum(A, EvalPlan(Kx=64, Ky=64))
    e = MixedExponents(0.5, 0.5, 0.25, 0.25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lrs_norm(f, e, QuadratureSpec(refine_check=True, rel_tol=1e-3))


# The reduction with the power taken on a second temporary, as it was written
# before the power went in place: the reference for _reduce's bits.
def reduce_reference(a, recip, mean):
    top = a.max(axis=0)
    if recip == 0.0:
        return top
    expo = 1.0 / recip
    safe = np.where(top > 0.0, top, 1.0)
    body = ((a / safe) ** expo).sum(axis=0)
    if mean:
        body = body / a.shape[0]
    return top * body ** (1.0 / expo)


def mixed_norm_reference(a, inner, outer, mean):
    return float(reduce_reference(reduce_reference(a, inner, mean), outer, mean))


@pytest.mark.parametrize("stride", [1, 2], ids=["contiguous", "strided"])
@pytest.mark.parametrize("mean", [False, True])
# Exponents inf, 1, 2, 4/3, 0.5 and 1000: numpy's scalar-power fast paths
# (positive, square, sqrt) and its general power.
@pytest.mark.parametrize("recip", [0.0, 1.0, 0.5, 0.75, 2.0, 1e-3])
def test_reduce_is_bit_identical_to_the_power_temporary(recip, mean, stride):
    rng = np.random.default_rng(12)
    a = np.abs(rng.standard_normal((40, 30)) + 1j * rng.standard_normal((40, 30)))
    a[:, 4] = 0.0  # a vanishing slice divides by the stand-in 1
    a = a[::stride, ::stride]
    assert _reduce(a, recip, mean).tobytes() == reduce_reference(a, recip, mean).tobytes()


# (seed, M, grid size, exponents, rel_tol) -> the warning lrs_norm issued with
# the power temporary and the half grid's own modulus.
REFINE_WARNINGS = [
    ((8, 4, 8, MixedExponents(0.5, 0.5, 0.25, 0.25), 1e-12),
     "half-grid value 7.55100448885 vs 7.1475076851 (relative disagreement 5.344e-02 > 1.000e-12); "
     "increase the oversampling factor"),
    ((13, 16, 128, MixedExponents(0.25, 0.5, 0.75, 0.5), 1e-6),
     "half-grid value 22.2744067891 vs 22.2744464016 (relative disagreement 1.778e-06 > 1.000e-06); "
     "increase the oversampling factor"),
    ((14, 16, 32, MixedExponents(0.5, 0.5, 0.75, 0.0), 1e-9),
     "half-grid value 27.4814462356 vs 27.0865103401 (relative disagreement 1.437e-02 > 1.000e-09); "
     "increase the oversampling factor"),
]


@pytest.mark.parametrize("case, message", REFINE_WARNINGS)
def test_refine_check_warns_at_the_same_messages(case, message):
    seed, M, K, e, rel_tol = case
    f = eval_sum(random_matrix(np.random.default_rng(seed), M, M), EvalPlan(Kx=K, Ky=K))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = lrs_norm(f, e, QuadratureSpec(refine_check=True, rel_tol=rel_tol))
    assert [str(w.message) for w in caught] == [message]
    assert value == mixed_norm_reference(np.abs(f.samples), e.gamma, e.delta, mean=True)


# ---------------------------------------------------------------------------
# JSON formats
# ---------------------------------------------------------------------------


def test_matrix_json_round_trip_is_bit_exact():
    rng = np.random.default_rng(10)
    A = random_matrix(rng, 3, 5)
    doc = json.loads(json.dumps(matrix_to_json(A)))
    back = matrix_from_json(doc)
    assert back.M == 3 and back.N == 5
    assert np.array_equal(back.entries, A.entries)


def test_grid_json_round_trip_is_bit_exact():
    rng = np.random.default_rng(11)
    f = GridFunction(4, 6, rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6)))
    back = grid_from_json(json.loads(json.dumps(grid_to_json(f))))
    assert np.array_equal(back.samples, f.samples)


# The samples as the per-element loop wrote them: the reference for the bytes.
def grid_document_reference(f):
    pairs = [[float(z.real), float(z.imag)] for z in f.samples.ravel(order="C")]
    return json.dumps({"Kx": f.Kx, "Ky": f.Ky, "samples": pairs}) + "\n"


def _grid_cases():
    rng = np.random.default_rng(15)
    special = np.array([[complex(-0.0, 0.0), complex(0.0, -0.0), complex(5e-324, -2.5e-310)],
                        [complex(1e300, -1e300), complex(-1e300, 1e300), complex(-0.0, -0.0)]])
    return {
        "1x1": np.array([[1.5 - 2.0j]]),
        "1xK": rng.standard_normal((1, 7)) + 1j * rng.standard_normal((1, 7)),
        "Kx1": rng.standard_normal((7, 1)) + 1j * rng.standard_normal((7, 1)),
        "F-ordered": np.asfortranarray(rng.standard_normal((5, 6)) + 1j * rng.standard_normal((5, 6))),
        "zeros-subnormals-huge": special,
    }


@pytest.mark.parametrize("name", list(_grid_cases()))
def test_save_grid_writes_the_document_bytes(tmp_path, name):
    samples = _grid_cases()[name]
    f = GridFunction(*samples.shape, samples)
    path = tmp_path / "grid.json"
    save_grid(path, f)
    expected = grid_document_reference(f)
    assert json.dumps(grid_to_json(f)) + "\n" == expected
    assert path.read_bytes() == expected.encode()
    assert load_grid(path).samples.tobytes() == np.ascontiguousarray(samples).tobytes()


def test_matrix_json_rejects_wrong_entry_count():
    with pytest.raises(ValueError):
        matrix_from_json({"M": 2, "N": 2, "entries": [[1.0, 0.0]]})


@pytest.mark.parametrize("doc", [
    [[1.0, 0.0]],
    "M=1",
    None,
    {"M": 1, "entries": [[1.0, 0.0]]},
    {"M": "one", "N": 1, "entries": [[1.0, 0.0]]},
    {"M": 1.5, "N": 1, "entries": [[1.0, 0.0]]},
    {"M": 0, "N": 1, "entries": []},
    {"M": 1, "N": 2, "entries": [[1.0], [2.0]]},
    {"M": 1, "N": 2, "entries": [[1.0, 0.0], [2.0]]},
    {"M": 1, "N": 2, "entries": [[1.0, 0.0], [2.0, 0.0, 3.0]]},
    {"M": 1, "N": 2, "entries": [1.0, 2.0]},
    {"M": 1, "N": 2, "entries": [[1.0, "re"], [2.0, 0.0]]},
    {"M": 1, "N": 2, "entries": [[1.0, {}], [2.0, 0.0]]},
    {"M": 1, "N": 2, "entries": [["1.0", "0.0"], ["2.0", "0.0"]]},
    {"M": 1, "N": 2, "entries": [[True, False], [False, True]]},
    {"M": 1, "N": 2, "entries": 7},
])
def test_json_loaders_reject_malformed_documents(doc):
    with pytest.raises(ValueError):
        matrix_from_json(doc)
    if isinstance(doc, dict):
        renamed = {{"M": "Kx", "N": "Ky", "entries": "samples"}[key]: value for key, value in doc.items()}
        with pytest.raises(ValueError):
            grid_from_json(renamed)


def test_json_round_trip_keeps_signed_zeros():
    entries = np.array([[complex(-0.0, 0.0), complex(0.0, -0.0)], [complex(-1.5, -0.0), 2.0]])
    back = matrix_from_json(json.loads(json.dumps(matrix_to_json(CoefficientMatrix(2, 2, entries)))))
    assert back.entries.tobytes() == entries.tobytes()


def test_row_major_entry_order():
    # Column index n varies fastest in the flat entry list.
    A = CoefficientMatrix(2, 2, np.array([[1, 2], [3, 4]], dtype=complex))
    doc = matrix_to_json(A)
    assert [pair[0] for pair in doc["entries"]] == [1.0, 2.0, 3.0, 4.0]


def test_numpy_integer_sizes_are_stored_as_python_ints():
    A = CoefficientMatrix(np.int64(2), np.int32(3), np.ones((2, 3)))
    assert type(A.M) is int and type(A.N) is int
    assert json.dumps(matrix_to_json(A)) == json.dumps(matrix_to_json(CoefficientMatrix(2, 3, np.ones((2, 3)))))


def test_construction_validation():
    with pytest.raises(ValueError):
        CoefficientMatrix(2, 2, np.ones((2, 3), dtype=complex))
    with pytest.raises(ValueError):
        CoefficientMatrix(2, 2, np.array([[1, 2], [3, np.nan]], dtype=complex))
    with pytest.raises(ValueError):
        GridFunction(0, 4, np.zeros((0, 4), dtype=complex))
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)


# ---------------------------------------------------------------------------
# Working memory, traced by tracemalloc (numpy reports its buffers to it)
# ---------------------------------------------------------------------------

BUDGET_GRID = 512
GRID_BYTES = BUDGET_GRID * BUDGET_GRID * 16  # one complex128 grid


def traced_peak(call):
    """The peak bytes allocated while `call()` runs, above what was held before."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def budget_matrix():
    rng = np.random.default_rng(16)
    return random_matrix(rng, BUDGET_GRID // 8, BUDGET_GRID // 8)


@pytest.fixture(scope="module")
def budget_grid(budget_matrix):
    return eval_sum(budget_matrix, EvalPlan(Kx=BUDGET_GRID, Ky=BUDGET_GRID))


@pytest.mark.parametrize("refine_check", [False, True])
def test_lrs_norm_holds_one_working_array_beside_the_modulus(budget_grid, refine_check):
    # The modulus and one quotient, each half a complex grid: the power is
    # taken in place, and the half grid reuses the full grid's modulus.
    spec = QuadratureSpec(refine_check=refine_check, rel_tol=1.0)
    peak = traced_peak(lambda: lrs_norm(budget_grid, MixedExponents(0.25, 0.5, 0.75, 0.5), spec))
    assert peak <= 1.1 * GRID_BYTES


def test_eval_sum_holds_about_one_grid(budget_matrix):
    plan = EvalPlan(Kx=BUDGET_GRID, Ky=BUDGET_GRID)
    assert traced_peak(lambda: eval_sum(budget_matrix, plan)) <= 1.25 * GRID_BYTES


def test_save_grid_streams_below_one_grid(tmp_path, budget_grid):
    # A 128 x 128 corner of the grid: traced, the writer's per-float Python
    # objects take 3 s at 512 x 512.  Building the whole document took 22
    # grids of memory at this size; one row at a time takes a fifth of one.
    corner = GridFunction(128, 128, budget_grid.samples[:128, :128].copy())
    assert traced_peak(lambda: save_grid(tmp_path / "grid.json", corner)) < 128 * 128 * 16
