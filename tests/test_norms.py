"""Tests for discrete/grid mixed norms, chain inequalities, and JSON round trips."""

import io
import json
import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mnlab import norms
from mnlab.exponents import MixedExponents
from mnlab.norms import (
    CACHE_SAMPLES,
    CoefficientMatrix,
    GridFunction,
    MixedNorm,
    REFINE_REL_TOL,
    QuadratureSpec,
    QuadratureWarning,
    _column_blocks,
    _inner_norms,
    _reduce,
    grid_from_json,
    grid_to_json,
    load_grid,
    load_matrix,
    lpq_norm,
    lrs_norm,
    matrix_from_json,
    save_grid,
    save_matrix,
    write_grid,
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
    e = MixedExponents(0.5, 1 / 7, 0.5, 0.5)
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


@pytest.mark.parametrize("shape, recips, value", [
    ((2, 1), (1.0, 0.5), 1e308),  # p = 1: the inner norm overflows, then the outer one divides inf by inf
    ((1, 2), (0.5, 1.0), 1e308),  # q = 1: the outer sum overflows
    ((1, 1), (0.5, 0.5), 1.5e308 + 1.5e308j),  # the modulus itself overflows
], ids=["inner", "outer", "modulus"])
def test_an_overflowing_norm_is_inf(shape, recips, value):
    e = MixedExponents(*recips, *recips)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # inf by contract, so no numpy overflow warning either
        assert lpq_norm(CoefficientMatrix(*shape, np.full(shape, value, dtype=complex)), e) == math.inf
        # The grid norm takes means, so only the modulus can overflow there.
        grid = GridFunction(*shape, np.full(shape, value, dtype=complex))
        assert lrs_norm(grid, e) == (math.inf if shape == (1, 1) else abs(value))


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
        lrs_norm(f, e, QuadratureSpec(refine_check=True))


def test_refine_check_quiet_on_resolved_grid():
    rng = np.random.default_rng(9)
    A = random_matrix(rng, 4, 4)
    f = eval_sum(A, EvalPlan(Kx=64, Ky=64))
    e = MixedExponents(0.5, 0.5, 0.25, 0.25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lrs_norm(f, e, QuadratureSpec(refine_check=True))


@pytest.mark.parametrize("Kx, Ky", [(3, 3), (3, 4), (4, 3)])
def test_refine_check_rejects_odd_grids(Kx, Ky):
    f = GridFunction(Kx, Ky, np.ones((Kx, Ky)))
    e = MixedExponents(0.5, 0.5, 0.25, 0.25)
    assert lrs_norm(f, e) == 1.0
    with pytest.raises(ValueError, match=f"^the refinement check needs even grid sizes, got Kx={Kx}, Ky={Ky}$"):
        lrs_norm(f, e, QuadratureSpec(refine_check=True))


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


@pytest.mark.parametrize("mean", [False, True])
@pytest.mark.parametrize("inner, outer", [(0.0, 1.0), (1.0, 0.0), (0.75, 0.5), (0.25, 1e-3), (0.5, 0.5)])
@pytest.mark.parametrize("shape", [(1, 1), (5, 1), (1, 6), (4, 3), (40, 30)])
def test_a_stack_reduces_each_array_as_it_is_reduced_alone(shape, inner, outer, mean):
    # Values, inner values and gradients of a (2, 3) stack, bit for bit; a
    # lone array's value is the one the scalar outer root gave before stacks.
    rng = np.random.default_rng([*shape, 21])
    stack = np.abs(rng.standard_normal((2, 3, *shape)) + 1j * rng.standard_normal((2, 3, *shape)))
    stack[0, 1, :, 0] = 0.0  # a vanishing column divides by the stand-in 1
    norm = MixedNorm.of(stack, inner, outer, mean)
    gradient = norm.gradient()
    for index in np.ndindex(2, 3):
        alone = MixedNorm.of(stack[index], inner, outer, mean)
        reference = mixed_norm_reference(stack[index], inner, outer, mean)
        assert norm.value[index].hex() == alone.value.hex() == reference.hex()
        assert norm.inner_values[index].tobytes() == alone.inner_values.tobytes()
        assert gradient[index].tobytes() == alone.gradient().tobytes()


# (seed, M, grid size, exponents) -> the warning lrs_norm issued with the
# power temporary and the half grid's own modulus.
REFINE_WARNINGS = [
    ((8, 4, 8, MixedExponents(0.5, 0.5, 0.25, 0.25)),
     "half-grid value 7.55100448885 vs 7.1475076851 (relative disagreement 5.344e-02 > 1.000e-06); "
     "resample on a finer grid with eval --Kx/--Ky"),
    ((13, 16, 128, MixedExponents(0.25, 0.5, 0.75, 0.5)),
     "half-grid value 22.2744067891 vs 22.2744464016 (relative disagreement 1.778e-06 > 1.000e-06); "
     "resample on a finer grid with eval --Kx/--Ky"),
    ((14, 16, 32, MixedExponents(0.5, 0.5, 0.75, 0.0)),
     "half-grid value 27.4814462356 vs 27.0865103401 (relative disagreement 1.437e-02 > 1.000e-06); "
     "resample on a finer grid with eval --Kx/--Ky"),
]


@pytest.mark.parametrize("case, message", REFINE_WARNINGS)
def test_refine_check_warns_at_the_same_messages(case, message):
    seed, M, K, e = case
    f = eval_sum(random_matrix(np.random.default_rng(seed), M, M), EvalPlan(Kx=K, Ky=K))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = lrs_norm(f, e, QuadratureSpec(refine_check=True))
    assert [str(w.message) for w in caught] == [message]
    assert value == mixed_norm_reference(np.abs(f.samples), e.gamma, e.delta, mean=True)


# Exponents inf, 1, 2, 4/3, 4 and 1000: the power paths of _reduce.
RECIPS = [0.0, 1.0, 0.5, 0.75, 0.25, 1e-3]


def assert_blocked_norms_are_the_whole_grid_ones(samples, inner, outer):
    modulus = np.abs(samples)
    full, coarse = _inner_norms(samples, inner, half=True)
    assert full.tobytes() == _reduce(modulus, inner, True).tobytes()
    assert coarse.tobytes() == _reduce(modulus[::2, ::2], inner, True).tobytes()
    assert _inner_norms(samples, inner, half=False)[1] is None
    f = GridFunction(*samples.shape, samples)
    e = MixedExponents(0.5, 0.5, inner, outer)
    assert lrs_norm(f, e).hex() == MixedNorm.of(modulus, inner, outer, mean=True).value.hex()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2000), st.integers(1, 3000), st.sampled_from([8, 64, 1024, 2**18]))
def test_column_blocks_tile_the_grid_in_even_blocks_of_four_or_more(Kx, Ky, block_samples):
    blocks = _column_blocks(Kx, Ky, block_samples)
    assert [lo for lo, _ in blocks] == [0] + [hi for _, hi in blocks[:-1]] and blocks[-1][1] == Ky
    if len(blocks) > 1:
        assert all(lo % 2 == 0 and hi - lo >= 4 for lo, hi in blocks)


# Grids above the real block rule (64 columns at Kx = 4096, 8 at Kx = 2^15):
# a tail that would be one column wide, and odd sizes.
@pytest.mark.parametrize("shape", [(4096, 129), (4096, 130), (4095, 131), (2**15, 17), (2**15, 21)],
                         ids=["one-column-tail", "two-column-tail", "odd-both", "narrow-blocks", "odd-Ky"])
@pytest.mark.parametrize("inner, outer", [(0.75, 0.5), (0.0, 1.0)])
def test_blocked_norms_equal_the_whole_grid_ones_bit_for_bit(shape, inner, outer):
    rng = np.random.default_rng([*shape, 17])
    samples = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert len(_column_blocks(*shape, CACHE_SAMPLES)) > 1
    assert_blocked_norms_are_the_whole_grid_ones(samples, inner, outer)


# The same on small grids with small blocks, so that any shape can have many.
@settings(max_examples=150, deadline=None)
@given(st.integers(1, 64), st.integers(1, 90), st.sampled_from([4, 16, 64, 200]),
       st.sampled_from(RECIPS), st.sampled_from(RECIPS), st.integers(0, 2**31 - 1))
def test_small_blocked_norms_equal_the_whole_grid_ones_bit_for_bit(Kx, Ky, block_samples, inner, outer, seed):
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((Kx, Ky)) + 1j * rng.standard_normal((Kx, Ky))
    samples[:, rng.integers(Ky)] = 0.0  # a vanishing column divides by the stand-in 1
    with mock.patch.object(norms, "CACHE_SAMPLES", block_samples):
        assert_blocked_norms_are_the_whole_grid_ones(samples, inner, outer)


# ---------------------------------------------------------------------------
# JSON formats
# ---------------------------------------------------------------------------


def saved_matrix_document(tmp_path, A):
    """The JSON document save_matrix writes for A, as json.loads reads it."""
    save_matrix(tmp_path / "matrix.json", A)
    return json.loads((tmp_path / "matrix.json").read_text())


def test_matrix_json_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(10)
    A = random_matrix(rng, 3, 5)
    doc = saved_matrix_document(tmp_path, A)
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
def test_write_grid_writes_the_document_to_a_text_handle(name):
    samples = _grid_cases()[name]
    f = GridFunction(*samples.shape, samples)
    out = io.StringIO()
    write_grid(out, f)
    assert out.getvalue() == grid_document_reference(f)


@pytest.mark.parametrize("name", list(_grid_cases()))
def test_save_matrix_writes_the_document_bytes(tmp_path, name):
    entries = _grid_cases()[name]
    A = CoefficientMatrix(*entries.shape, entries)
    pairs = [[float(z.real), float(z.imag)] for z in entries.ravel(order="C")]
    save_matrix(tmp_path / "matrix.json", A)
    expected = json.dumps({"M": A.M, "N": A.N, "entries": pairs}) + "\n"
    assert (tmp_path / "matrix.json").read_bytes() == expected.encode()
    assert load_matrix(tmp_path / "matrix.json").entries.tobytes() == np.ascontiguousarray(entries).tobytes()


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
    {"M": True, "N": 1, "entries": [[1.0, 0.0]]},
    {"M": 1, "N": False, "entries": []},
])
def test_json_loaders_reject_malformed_documents(doc):
    with pytest.raises(ValueError):
        matrix_from_json(doc)
    if isinstance(doc, dict):
        renamed = {{"M": "Kx", "N": "Ky", "entries": "samples"}[key]: value for key, value in doc.items()}
        with pytest.raises(ValueError):
            grid_from_json(renamed)


def test_json_round_trip_keeps_signed_zeros(tmp_path):
    entries = np.array([[complex(-0.0, 0.0), complex(0.0, -0.0)], [complex(-1.5, -0.0), 2.0]])
    back = matrix_from_json(saved_matrix_document(tmp_path, CoefficientMatrix(2, 2, entries)))
    assert back.entries.tobytes() == entries.tobytes()


# ---------------------------------------------------------------------------
# The file loaders: the canonical reader against the general path as oracle
# ---------------------------------------------------------------------------

# kind: (file loader, general path from the document, writer, size keys, data key)
LOADERS = {
    "grid": (load_grid, grid_from_json, lambda path, z: save_grid(path, GridFunction(*z.shape, z)),
             ("Kx", "Ky"), "samples"),
    "matrix": (load_matrix, matrix_from_json, lambda path, z: save_matrix(path, CoefficientMatrix(*z.shape, z)),
               ("M", "N"), "entries"),
}


def loaded(call):
    """The array a loader returns, as (shape, bytes), or the (type, message) of what it raised."""
    try:
        value = call()
    except Exception as exc:  # the rejection is what is compared
        return type(exc), str(exc)
    array = value.samples if isinstance(value, GridFunction) else value.entries
    return array.shape, array.tobytes()


# The canonical reader's read sizes: reads of 1 byte put a chunk boundary at
# every offset inside a pair, reads of 7 cut pair separators at varied
# offsets and leave a carry after them, and the default reads a small file
# whole.
CHUNK_SIZES = (1, 7, norms._CHUNK_BYTES)


def loaded_in_chunks(load, path):
    """loaded(load(path)) at each of CHUNK_SIZES, which must all agree."""
    results = []
    for chunk_bytes in CHUNK_SIZES:
        with mock.patch.object(norms, "_CHUNK_BYTES", chunk_bytes):
            results.append(loaded(lambda: load(path)))
    assert all(result == results[0] for result in results), CHUNK_SIZES
    return results[0]


def assert_loads_as_the_general_path(path, kind):
    load, from_json = LOADERS[kind][:2]
    expected = loaded(lambda: from_json(json.loads(path.read_text())))
    if expected[0] is json.JSONDecodeError:  # the loaders name the document that does not parse
        expected = (ValueError, f"{kind} JSON: {expected[1]}")
    assert loaded_in_chunks(load, path) == expected


def canonical_text(kind, shape, tokens):
    """The document of `shape` with these number tokens, two a sample, in the layout the savers write."""
    (rows_key, cols_key), data_key = LOADERS[kind][3:]
    pairs = ", ".join(f"[{real}, {imag}]" for real, imag in zip(tokens[::2], tokens[1::2]))
    return f'{{"{rows_key}": {shape[0]}, "{cols_key}": {shape[1]}, "{data_key}": [{pairs}]}}\n'


# Each a token that strtod (np.fromstring) and JSON (json.loads) read
# differently, or that one of them refuses.
TRAP_TOKENS = ["-0", "1" + "0" * 29, "9007199254740993", "18446744073709551616", "+1", "+1.5", ".5", ".5e1",
               "5.", "-.5", "01", "-01", "01.5", "-00.5", "1.e5", "1e", "1e+", "1.5e", "e5", "-", "--1.5", "1.5-",
               "1.5.5", "1e5e5", "NaN", "-Infinity", "1e999", "1e-400", "0e5", "-0e5", "1E+5", "1e-05", "-0.0"]


@pytest.mark.parametrize("kind", list(LOADERS))
@pytest.mark.parametrize("token", TRAP_TOKENS)
def test_trap_tokens_load_as_the_general_path_reads_them(tmp_path, kind, token):
    for at in range(4):  # each position in a 1 x 2 document, the last number included
        tokens = ["0.5", "-1.25", "3.0", "4e-05"]
        tokens[at] = token
        path = tmp_path / "doc.json"
        path.write_text(canonical_text(kind, (1, 2), tokens))
        assert_loads_as_the_general_path(path, kind)


# A number outside its slot, or a slot left empty, leaves the bytes between
# the numbers as the layout has them.
MISPLACED = [("[[", "[5["), ("], [", "]5, ["), ("], [", "],5 ["), (", -1.25", ",5 -1.25"), ("]]}", "]]5}"),
             ("}\n", "}5\n"), ("\n", "\n5"), (": [[", ":5 [["), ("0.5", ""), ("-1.25", ""), ("4e-05", "")]


@pytest.mark.parametrize("kind", list(LOADERS))
@pytest.mark.parametrize("old, new", MISPLACED)
def test_numbers_out_of_their_slots_load_as_the_general_path_reads_them(tmp_path, kind, old, new):
    path = tmp_path / "doc.json"
    path.write_text(canonical_text(kind, (1, 2), ["0.5", "-1.25", "3.0", "4e-05"]).replace(old, new, 1))
    assert_loads_as_the_general_path(path, kind)


def test_integer_tokens_keep_the_general_path_values(tmp_path):
    # json.loads reads -0 as the int 0, so the sample is +0.0 where strtod gives -0.0.
    path = tmp_path / "grid.json"
    path.write_text('{"Kx": 1, "Ky": 1, "samples": [[-0, -0.0]]}\n')
    z = load_grid(path).samples[0, 0]
    assert not np.signbit(z.real) and np.signbit(z.imag)
    # An integer above 2**64 makes the pairs an object array, which is refused.
    path.write_text('{"Kx": 1, "Ky": 1, "samples": [[%s, 0.0]]}\n' % ("1" + "0" * 29))
    with pytest.raises(ValueError, match="samples must hold numbers only"):
        load_grid(path)


EDIT_TOKENS = TRAP_TOKENS + ["2.5", "-3.75e-300", "6.02e+23", '"1.0"', "true", "null", ",", "[", "]", "{", "}", ":",
                             " ", "\n", ""]


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(list(LOADERS)), st.integers(1, 3), st.integers(1, 3), st.data())
def test_edited_canonical_files_load_as_the_general_path_reads_them(tmp_path, kind, rows, cols, data):
    values = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                min_size=2 * rows * cols, max_size=2 * rows * cols))
    text = canonical_text(kind, (rows, cols), [repr(value) for value in values])
    tokens = re.findall(r'-?[0-9.eE+]+|"[^"]*"|.', text, flags=re.S)
    numbers = [i for i, token in enumerate(tokens) if token[-1].isdigit()]
    for _ in range(data.draw(st.integers(1, 3))):
        # Half the edits replace a number, so that many files keep the canonical layout.
        if data.draw(st.booleans()):
            at, edit = data.draw(st.sampled_from(numbers)), "replace"
        else:
            at = data.draw(st.integers(0, len(tokens) - 1))
            edit = data.draw(st.sampled_from(["insert", "replace", "delete"]))
        token = data.draw(st.sampled_from(EDIT_TOKENS))
        tokens[at:at + (edit != "insert")] = [] if edit == "delete" else [token]
    path = tmp_path / "doc.json"
    path.write_text("".join(tokens))
    assert_loads_as_the_general_path(path, kind)


float_bits = st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64))).filter(math.isfinite)
EXTREME_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.225073858507201e-308,
                  1.7976931348623157e308, -1.7976931348623157e308, 1e-05, 1e16]


@pytest.mark.parametrize("kind", list(LOADERS))
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=st.lists(float_bits, min_size=2, max_size=24).map(lambda v: v[:len(v) // 2 * 2]))
def test_saved_files_load_bit_for_bit_on_the_canonical_path(tmp_path, kind, values):
    load, _, save = LOADERS[kind][:3]
    for samples in (np.array(values).view(np.complex128), np.array(EXTREME_FLOATS).view(np.complex128)):
        samples = samples.reshape(1, -1) if len(samples) % 2 else samples.reshape(2, -1)
        path = tmp_path / "doc.json"
        save(path, samples)
        tokens = [repr(value) for value in samples.view(float).ravel().tolist()]
        assert path.read_text() == canonical_text(kind, samples.shape, tokens)
        with mock.patch.object(norms.json, "loads", side_effect=AssertionError("general path taken")):
            assert loaded_in_chunks(load, path) == (samples.shape, samples.tobytes())


def test_a_multi_chunk_grid_file_loads_on_the_canonical_path(tmp_path, budget_grid):
    path = tmp_path / "grid.json"
    save_grid(path, budget_grid)
    assert path.stat().st_size > 40 * norms._CHUNK_BYTES
    with mock.patch.object(norms.json, "loads", side_effect=AssertionError("general path taken")):
        assert load_grid(path).samples.tobytes() == budget_grid.samples.tobytes()


@pytest.mark.parametrize("kind", list(LOADERS))
def test_files_cut_short_or_closed_otherwise_load_as_the_general_path_reads_them(tmp_path, kind):
    save = LOADERS[kind][2]
    z = np.random.default_rng(20).standard_normal((4, 6)).view(np.complex128)
    whole = tmp_path / "whole.json"
    save(whole, z)
    data = whole.read_bytes()
    middle = data.index(b"], [", len(data) // 2)
    path = tmp_path / "cut.json"
    # Every cut inside one pair and its separators, and cuts in the closing "]]}\n".
    for end in [*range(middle - 50, middle + 5), *range(len(data) - 4, len(data))]:
        path.write_bytes(data[:end])
        assert_loads_as_the_general_path(path, kind)
    for ending in [b"]]}}", b"]]]\n", b"]}}\n", b"]]} ", b"]]}\n\n", b"]]}\n}"]:
        path.write_bytes(data[:-4] + ending)
        assert_loads_as_the_general_path(path, kind)


@pytest.mark.parametrize("kind", list(LOADERS))
@pytest.mark.parametrize("shape", [(4, 5), (4, 7), (3, 8), (1, 1), (4, 60)])
def test_sizes_that_disagree_with_the_pairs_load_as_the_general_path_reads_them(tmp_path, kind, shape):
    # 24 pairs under each header: fewer, more or as many pairs as it calls for.
    path = tmp_path / "doc.json"
    tokens = [repr(value) for value in np.random.default_rng(21).standard_normal(48).tolist()]
    path.write_text(canonical_text(kind, shape, tokens))
    assert_loads_as_the_general_path(path, kind)


def test_row_major_entry_order(tmp_path):
    # Column index n varies fastest in the flat entry list.
    A = CoefficientMatrix(2, 2, np.array([[1, 2], [3, 4]], dtype=complex))
    doc = saved_matrix_document(tmp_path, A)
    assert [pair[0] for pair in doc["entries"]] == [1.0, 2.0, 3.0, 4.0]


def test_numpy_integer_sizes_are_stored_as_python_ints(tmp_path):
    A = CoefficientMatrix(np.int64(2), np.int32(3), np.ones((2, 3)))
    assert type(A.M) is int and type(A.N) is int
    save_matrix(tmp_path / "numpy.json", A)
    save_matrix(tmp_path / "python.json", CoefficientMatrix(2, 3, np.ones((2, 3))))
    assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "python.json").read_bytes()


def test_construction_validation():
    with pytest.raises(ValueError):
        CoefficientMatrix(2, 2, np.ones((2, 3), dtype=complex))
    with pytest.raises(ValueError):
        CoefficientMatrix(2, 2, np.array([[1, 2], [3, np.nan]], dtype=complex))
    with pytest.raises(ValueError):
        GridFunction(0, 4, np.zeros((0, 4), dtype=complex))
    # The refinement tolerance is the constant REFINE_REL_TOL, not a field.
    with pytest.raises(TypeError):
        QuadratureSpec(rel_tol=1e-3)
    assert REFINE_REL_TOL == 1e-6


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


# These grids disagree with their half grids beyond REFINE_REL_TOL; the warning is not what is measured.
@pytest.mark.filterwarnings("ignore::mnlab.norms.QuadratureWarning")
@pytest.mark.parametrize("refine_check", [False, True])
def test_lrs_norm_holds_one_working_array_beside_the_modulus(budget_grid, refine_check):
    # The modulus and one quotient, each half a complex grid: the power is
    # taken in place, and the half grid reuses the full grid's modulus.
    spec = QuadratureSpec(refine_check=refine_check)
    peak = traced_peak(lambda: lrs_norm(budget_grid, MixedExponents(0.25, 0.5, 0.75, 0.5), spec))
    assert peak <= 1.1 * GRID_BYTES


# These grids disagree with their half grids beyond REFINE_REL_TOL; the warning is not what is measured.
@pytest.mark.filterwarnings("ignore::mnlab.norms.QuadratureWarning")
@pytest.mark.parametrize("refine_check", [False, True])
def test_lrs_norm_holds_one_column_block_on_a_large_grid(refine_check):
    # The evaluate benchmark's largest grid, 64 MiB of samples.  lrs_norm
    # holds one block's modulus and quotient (2^18 samples each, 4 MiB); a
    # whole-grid modulus and quotient took 1.0 grid here.
    Kx = Ky = 2048
    assert len(_column_blocks(Kx, Ky, CACHE_SAMPLES)) > 1
    samples = np.random.default_rng(18).random((Kx, 2 * Ky)).view(np.complex128)
    f = GridFunction(Kx, Ky, samples)
    spec = QuadratureSpec(refine_check=refine_check)
    peak = traced_peak(lambda: lrs_norm(f, MixedExponents(0.25, 0.5, 0.75, 0.5), spec))
    assert peak <= 0.1 * Kx * Ky * 16


def test_eval_sum_holds_about_one_grid(budget_matrix):
    plan = EvalPlan(Kx=BUDGET_GRID, Ky=BUDGET_GRID)
    assert traced_peak(lambda: eval_sum(budget_matrix, plan)) <= 1.25 * GRID_BYTES


def test_panelled_eval_sum_holds_about_one_grid():
    # 1024^2 is above CACHE_SAMPLES, so synthesize takes its column panels;
    # each holds 2^16 samples, 1/16 of this grid.  The first pass runs on
    # the grid's own first M rows: at M = Kx a separate first-pass array
    # took a second whole grid (2.08 grids).
    Kx = Ky = 1024
    assert Kx * Ky > CACHE_SAMPLES
    for M, N in [(Kx // 8, Ky // 8), (Kx, 8)]:
        A = random_matrix(np.random.default_rng(19), M, N)
        assert traced_peak(lambda: eval_sum(A, EvalPlan(Kx=Kx, Ky=Ky))) <= 1.25 * Kx * Ky * 16, (M, N)


def test_load_grid_parses_without_a_python_float_per_number(tmp_path, budget_grid):
    # The file is 2.7 grids of bytes.  The reader holds the loaded grid and
    # a few copies of one 256 KiB chunk of the file: 1.32 grids at its peak.
    # Reading the whole file, it held two copies of it (5.6 grids), and
    # json.loads, a Python float per number, peaked at 12.0.
    path = tmp_path / "grid.json"
    save_grid(path, budget_grid)
    assert traced_peak(lambda: load_grid(path)) <= 1.5 * GRID_BYTES


@pytest.mark.parametrize("kind", list(LOADERS))
def test_sizes_beyond_the_file_take_the_general_path_without_allocating(tmp_path, kind):
    # A 4096 x 4096 header over one pair: the canonical reader would need
    # 256 MiB for the values, and checks the file's size before it sizes them.
    path = tmp_path / "doc.json"
    path.write_text(canonical_text(kind, (4096, 4096), ["0.5", "-1.25"]))
    with pytest.raises(ValueError, match=r"expected 16777216 \[re, im\] pairs for 4096 x 4096"):
        LOADERS[kind][0](path)
    assert_loads_as_the_general_path(path, kind)
    peak = traced_peak(lambda: loaded(lambda: LOADERS[kind][0](path)))
    assert peak < 64 * 1024


def test_a_body_without_pair_separators_is_refused_within_a_chunk(tmp_path):
    # No canonical pair runs 64 bytes without a "], [".  Gathering this 2 MB
    # body until one came would copy it once a read: quadratic time.
    path = tmp_path / "grid.json"
    path.write_text('{"Kx": 1, "Ky": 1, "samples": [[' + "0.5, " * 400_000 + "0.5]]}\n")
    result = []
    peak = traced_peak(lambda: result.append(norms._canonical_array(path, ("Kx", "Ky"), "samples")))
    assert result == [None] and peak < 3 * norms._CHUNK_BYTES


def test_save_grid_streams_below_one_grid(tmp_path, budget_grid):
    # A 128 x 128 corner of the grid: traced, the writer's per-float Python
    # objects take 3 s at 512 x 512.  Building the whole document took 22
    # grids of memory at this size; one row at a time takes a fifth of one.
    corner = GridFunction(128, 128, budget_grid.samples[:128, :128].copy())
    assert traced_peak(lambda: save_grid(tmp_path / "grid.json", corner)) < 128 * 128 * 16


def test_save_matrix_streams_below_half_a_matrix(tmp_path):
    # Traced, this takes about 3 s.  Building the whole document took 13.4
    # matrices of bytes here; one row at a time takes 0.016.  The bytes are
    # checked against json.dumps on the small shapes above.
    rng = np.random.default_rng(22)
    entries = rng.standard_normal((BUDGET_GRID, 2 * BUDGET_GRID)).view(np.complex128)
    A = CoefficientMatrix(BUDGET_GRID, BUDGET_GRID, entries)
    assert traced_peak(lambda: save_matrix(tmp_path / "matrix.json", A)) <= 0.5 * GRID_BYTES
