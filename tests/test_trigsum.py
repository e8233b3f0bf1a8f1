"""Tests for grid evaluation of the double sum and its unit-frequency variant."""

import cmath
import math

import numpy as np
import pytest

from mnlab.exponents import MixedExponents
from mnlab.norms import CoefficientMatrix, GridFunction, load_grid, lpq_norm, lrs_norm, save_grid
from mnlab.trigsum import (
    MAX_GRID_BYTES,
    OVERSAMPLE,
    EvalPlan,
    _direct,
    default_grid,
    eval_nonortho,
    eval_sum,
    eval_sum_at,
    nonortho_l2_norm,
    synthesize,
    synthesize_adjoint,
)


E2222 = MixedExponents(0.5, 0.5, 0.5, 0.5)


def random_matrix(rng, M, N):
    return CoefficientMatrix(M, N, rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N)))


def unit_frequency_sum(A, x, y):
    """V(x, y) = sum a_mn e^{i((m-1)x + (n-1)y)}, the literal double sum in numpy: V's point oracle."""
    m, n = np.arange(A.M)[:, None], np.arange(A.N)[None, :]
    return complex(np.sum(A.entries * np.exp(1j * (m * x + n * y))))


def test_direct_and_transform_paths_agree():
    rng = np.random.default_rng(0)
    A = random_matrix(rng, 64, 64)
    f_fft = eval_sum(A, EvalPlan(Kx=512, Ky=512))
    nodes = np.arange(512) / 512
    direct = _direct(A, nodes, nodes, 2.0 * np.pi)
    scale = np.max(np.abs(f_fft.samples))
    assert np.max(np.abs(f_fft.samples - direct)) <= 1e-10 * scale


# Square and non-square matrices and grids, grids of one matrix size, grids
# beyond the cache (more than 2^18 samples), narrow and wide grids, a size
# with a large prime factor (16411), and matrices of one row or column.
# Some ids name a shape by the column panels that an earlier synthesis cut
# it into; they are kept so that each case keeps its name.
TRANSFORM_SHAPES = [
    (4, 4, 32, 32),
    (5, 3, 12, 7),
    (3, 5, 24, 40),
    (3, 5, 3, 40),
    (7, 9, 7, 9),
    (4, 4, 512, 512),
    (4, 4, 513, 512),
    (6, 5, 600, 500),
    (5, 3, 65536, 10),
    (3, 2, 65536, 5),
    (9, 2, 16, 16411),
    (7, 7, 1448, 200),
    (600, 3, 600, 500),
    (5, 520, 520, 520),
    (1, 7, 1024, 512),
    (9, 1, 1024, 512),
    (6, 6, 1024, 1024),
]
TRANSFORM_IDS = ["square", "non-square", "non-square-grid", "Kx-equals-M", "grid-equals-matrix",
                 "at-panel-threshold", "just-above-panel-threshold", "Ky-not-a-panel-multiple",
                 "four-column-panels-with-a-folded-tail", "one-panel-wide", "wide-and-short",
                 "Kx-with-a-large-prime-factor", "panels-with-no-zero-tail", "first-pass-with-no-padding",
                 "one-row-matrix-on-panels", "one-column-matrix-on-panels", "sixteen-panels"]


def padded_matrix(entries, Kx, Ky):
    padded = np.zeros((*entries.shape[:-2], Kx, Ky), dtype=complex)
    padded[..., :entries.shape[-2], :entries.shape[-1]] = entries
    return padded


@pytest.mark.parametrize("M,N,Kx,Ky", TRANSFORM_SHAPES, ids=TRANSFORM_IDS)
def test_pruned_transforms_equal_the_padded_ones_bit_for_bit(M, N, Kx, Ky):
    # The unpruned transforms in the pruned ones' order: synthesis down the
    # columns, then along the rows, unscaled; the adjoint is fft2's order.
    rng = np.random.default_rng([M, N, Kx, Ky])
    entries = rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N))
    columns_first = np.fft.ifft(padded_matrix(entries, Kx, Ky), axis=0, norm="forward")
    assert np.array_equal(synthesize(entries, Kx, Ky), np.fft.ifft(columns_first, axis=1, norm="forward"))
    samples = rng.standard_normal((Kx, Ky)) + 1j * rng.standard_normal((Kx, Ky))
    assert np.array_equal(synthesize_adjoint(samples, M, N), np.fft.fft2(samples)[:M, :N])


@pytest.mark.parametrize("stack,M,N,Kx,Ky", [((), *shape) for shape in TRANSFORM_SHAPES] + [((2, 3), 5, 3, 12, 7)],
                         ids=[*TRANSFORM_IDS, "stack"])
def test_synthesis_agrees_with_ifft2_and_the_direct_sum(stack, M, N, Kx, Ky):
    # Within the benchmark's DIRECT_RTOL of sum |a_mn|, which bounds |S|:
    # against ifft2, which takes the rows first and scales, and against the
    # direct double sum, the independent oracle.
    rng = np.random.default_rng([M, N, Kx, Ky, 7])
    entries = rng.standard_normal((*stack, M, N)) + 1j * rng.standard_normal((*stack, M, N))
    samples = synthesize(entries, Kx, Ky)
    nodes_x, nodes_y = np.arange(Kx) / Kx, np.arange(Ky) / Ky
    reference = np.fft.ifft2(padded_matrix(entries, Kx, Ky)) * (Kx * Ky)
    for index in np.ndindex(*stack):
        tol = 1e-13 * np.sum(np.abs(entries[index]))
        assert np.max(np.abs(samples[index] - reference[index])) <= tol
        direct = _direct(CoefficientMatrix(M, N, entries[index]), nodes_x, nodes_y, 2.0 * np.pi)
        assert np.max(np.abs(samples[index] - direct)) <= tol


@pytest.mark.parametrize("stack", [(), (3,)], ids=["alone", "stack"])
@pytest.mark.parametrize("M,N,Kx,Ky", [(4, 4, 32, 32), (5, 3, 12, 7), (3, 5, 24, 40), (6, 6, 1024, 1024)],
                         ids=["square", "non-square", "non-square-grid", "beyond-the-cache"])
def test_synthesis_and_its_adjoint_are_adjoint(M, N, Kx, Ky, stack):
    # <synthesize(a), g> = <a, synthesize_adjoint(g)>, <u, v> = sum u conj(v):
    # the unscaled synthesis and the cropped fft2 are exactly adjoint.
    rng = np.random.default_rng([M, N, Kx, Ky, 12])
    a = rng.standard_normal((*stack, M, N)) + 1j * rng.standard_normal((*stack, M, N))
    g = rng.standard_normal((*stack, Kx, Ky)) + 1j * rng.standard_normal((*stack, Kx, Ky))
    lhs = np.sum(synthesize(a, Kx, Ky) * g.conj(), axis=(-2, -1))
    rhs = np.sum(a * synthesize_adjoint(g, M, N).conj(), axis=(-2, -1))
    assert np.all(np.abs(lhs - rhs) <= 1e-12 * np.abs(lhs))


@pytest.mark.parametrize("M,N,Kx,Ky", [(1, 1, 16, 16), (5, 3, 12, 7), (4, 4, 32, 32), (4, 4, 513, 512),
                                       (1, 7, 1024, 512)],
                         ids=["one-by-one", "non-square", "square", "panels", "one-row-matrix-on-panels"])
def test_a_stack_transforms_each_matrix_as_it_is_transformed_alone(M, N, Kx, Ky):
    # Leading axes are a stack, each member's samples and adjoint bit for
    # bit those of the member alone, on grids beyond the cache too.
    rng = np.random.default_rng([M, N, Kx, Ky, 3])
    entries = rng.standard_normal((2, M, N)) + 1j * rng.standard_normal((2, M, N))
    samples = synthesize(entries, Kx, Ky)
    adjoint = synthesize_adjoint(samples, M, N)
    assert samples.shape == (2, Kx, Ky) and adjoint.shape == (2, M, N)
    for index in range(2):
        assert np.array_equal(samples[index], synthesize(entries[index], Kx, Ky))
        assert np.array_equal(adjoint[index], synthesize_adjoint(samples[index], M, N))
    if Kx * Ky <= 1024:  # two leading axes
        small = rng.standard_normal((2, 3, M, N)) + 1j * rng.standard_normal((2, 3, M, N))
        grids = synthesize(small, Kx, Ky)
        for index in np.ndindex(2, 3):
            assert np.array_equal(grids[index], synthesize(small[index], Kx, Ky))
            assert np.array_equal(synthesize_adjoint(grids, M, N)[index], synthesize_adjoint(grids[index], M, N))


@pytest.mark.parametrize("scale", [1.0, 2.0 * np.pi])
def test_direct_sum_on_a_square_grid_computes_one_exponential_table_with_the_same_bits(scale):
    # `_direct` reuses its x table for y when `ys is xs` and N == M; a copy
    # of the nodes takes the two-table form.
    rng = np.random.default_rng(29)
    nodes = np.arange(72) / 72
    for M, N in [(9, 9), (9, 5)]:
        A = random_matrix(rng, M, N)
        assert np.array_equal(_direct(A, nodes, nodes, scale), _direct(A, nodes, nodes.copy(), scale))
        assert np.array_equal(eval_nonortho(A, EvalPlan(Kx=72, Ky=72)).samples,
                              _direct(A, nodes, nodes.copy(), 1.0))


def test_transform_convention_matches_pointwise_sum():
    # Pins the sign and scaling of the zero-padded transform against the
    # literal double sum at grid nodes.
    rng = np.random.default_rng(1)
    A = random_matrix(rng, 5, 3)
    f = eval_sum(A, EvalPlan(Kx=12, Ky=7))
    for j, k in [(0, 0), (3, 2), (11, 6), (7, 1)]:
        direct = eval_sum_at(A, j / 12, k / 7)
        assert abs(f.samples[j, k] - direct) <= 1e-12 * max(1.0, abs(direct))


def test_linearity():
    rng = np.random.default_rng(2)
    A = random_matrix(rng, 4, 6)
    B = random_matrix(rng, 4, 6)
    ca, cb = 1.3 - 0.7j, -0.4 + 2.1j
    combo = CoefficientMatrix(4, 6, ca * A.entries + cb * B.entries)
    plan = EvalPlan(Kx=16, Ky=16)
    lhs = eval_sum(combo, plan).samples
    rhs = ca * eval_sum(A, plan).samples + cb * eval_sum(B, plan).samples
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(lhs))


def test_unit_periodicity_of_the_two_pi_sum():
    rng = np.random.default_rng(3)
    A = random_matrix(rng, 8, 8)
    for x, y in [(0.13, 0.77), (0.5, 0.25), (0.999, 0.001)]:
        base = eval_sum_at(A, x, y)
        assert abs(eval_sum_at(A, x + 1.0, y) - base) <= 1e-12 * max(1.0, abs(base))
        assert abs(eval_sum_at(A, x, y + 1.0) - base) <= 1e-12 * max(1.0, abs(base))


def test_unit_frequency_sum_is_not_unit_periodic():
    # V has period 2*pi, not 1; shifting x by 1 must change the value.
    A = CoefficientMatrix(2, 2, np.ones((2, 2), dtype=complex))
    v0 = unit_frequency_sum(A, 0.3, 0.2)
    v1 = unit_frequency_sum(A, 1.3, 0.2)
    assert abs(v1 - v0) > 0.05
    # The grid evaluator is that V: its node (0.3, 0.2) holds v0.  The point evaluator is S's only.
    assert eval_nonortho(A, EvalPlan(Kx=10, Ky=5)).samples[3, 1] == pytest.approx(v0, rel=1e-12)
    with pytest.raises(TypeError):
        eval_sum_at(A, 0.3, 0.2, scale=1.0)


def test_triangle_bound_on_grid_maximum():
    rng = np.random.default_rng(4)
    e11 = MixedExponents(1.0, 1.0, 0.5, 0.5)
    for _ in range(30):
        A = random_matrix(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        f = eval_sum(A, EvalPlan(Kx=8 * A.M, Ky=8 * A.N))
        assert np.max(np.abs(f.samples)) <= lpq_norm(A, e11) * (1 + 1e-12)


def test_single_entry_gives_unimodular_sum():
    entries = np.zeros((3, 4), dtype=complex)
    entries[1, 2] = 1.0
    A = CoefficientMatrix(3, 4, entries)
    f = eval_sum(A, EvalPlan(Kx=16, Ky=16))
    assert np.max(np.abs(np.abs(f.samples) - 1.0)) <= 1e-12
    assert abs(abs(eval_sum_at(A, 0.377, 0.913)) - 1.0) <= 1e-12


def test_all_ones_at_origin_sums_to_mn():
    A = CoefficientMatrix(3, 5, np.ones((3, 5), dtype=complex))
    assert eval_sum_at(A, 0.0, 0.0) == pytest.approx(15.0 + 0j, abs=1e-12)


def test_two_term_cancellation_at_half():
    A = CoefficientMatrix(2, 1, np.ones((2, 1), dtype=complex))
    assert abs(eval_sum_at(A, 0.5, 0.0)) <= 1e-12


def test_one_by_one_sum_is_constant():
    A = CoefficientMatrix(1, 1, np.array([[2.0 - 1.5j]]))
    f = eval_sum(A, EvalPlan(Kx=8, Ky=8))
    assert np.max(np.abs(f.samples - (2.0 - 1.5j))) <= 1e-14


def test_column_matrix_matches_dirichlet_closed_form():
    # Ones in column k: the sum is e^{2 pi i (k-1) y} e^{i pi (M-1) x}
    # sin(pi M x)/sin(pi x).
    M, N, k = 6, 4, 3
    entries = np.zeros((M, N), dtype=complex)
    entries[:, k - 1] = 1.0
    A = CoefficientMatrix(M, N, entries)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x, y = rng.uniform(0.01, 0.99), rng.uniform(0.0, 1.0)
        closed = (
            cmath.exp(2j * math.pi * (k - 1) * y)
            * cmath.exp(1j * math.pi * (M - 1) * x)
            * math.sin(math.pi * M * x)
            / math.sin(math.pi * x)
        )
        assert eval_sum_at(A, x, y) == pytest.approx(closed, rel=1e-10)


def test_nonortho_value_and_trivial_cases():
    # 1x1: V is the constant a_11.
    A = CoefficientMatrix(1, 1, np.array([[0.5 + 2j]]))
    f = eval_nonortho(A, EvalPlan(Kx=8, Ky=8))
    assert np.max(np.abs(f.samples - (0.5 + 2j))) <= 1e-14
    # Single unit entry: |V| = 1 everywhere.
    entries = np.zeros((3, 3), dtype=complex)
    entries[2, 1] = 1.0
    E = CoefficientMatrix(3, 3, entries)
    g = eval_nonortho(E, EvalPlan(Kx=16, Ky=16))
    assert np.max(np.abs(np.abs(g.samples) - 1.0)) <= 1e-12
    # Every grid value matches the literal double sum at its node.
    rng = np.random.default_rng(6)
    B = random_matrix(rng, 3, 2)
    h = eval_nonortho(B, EvalPlan(Kx=4, Ky=4))
    for j in range(4):
        for k in range(4):
            assert h.samples[j, k] == pytest.approx(unit_frequency_sum(B, j / 4, k / 4), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("M,N,Kx,Ky", [(1, 1, 64, 64), (3, 3, 24, 24), (4, 7, 40, 72), (9, 2, 80, 16),
                                       (32, 32, 256, 256), (6, 5, 3, 2)],
                         ids=["1x1", "square", "wide-Kx-ne-Ky", "tall-Kx-ne-Ky", "criterion-9-top", "grid-below-matrix"])
def test_nonortho_l2_norm_is_the_grid_norm_of_eval_nonortho(M, N, Kx, Ky):
    # The grid path samples V and reduces the grid; the Gram path never builds it.
    rng = np.random.default_rng(M * 100 + N)
    plan = EvalPlan(Kx, Ky)
    for _ in range(5):
        A = random_matrix(rng, M, N)
        expected = lrs_norm(eval_nonortho(A, plan), E2222)
        assert nonortho_l2_norm(A.entries, plan) == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_nonortho_l2_norm_of_a_stack_is_each_matrix_alone():
    rng = np.random.default_rng(12)
    for shape, plan in (((7, 4, 5), EvalPlan(40, 48)), ((2, 3, 6, 6), EvalPlan(64, 64)), ((5, 1, 1), EvalPlan(8, 3))):
        entries = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        values = nonortho_l2_norm(entries, plan)
        assert values.shape == shape[:-2]
        for index in np.ndindex(*shape[:-2]):
            alone = nonortho_l2_norm(entries[index], plan)
            assert isinstance(alone, np.float64)
            assert values[index] == alone, index


def test_nonortho_l2_norm_of_a_unit_entry_is_one():
    # |V| = 1 at every node, so every grid mean of |V|^2 is 1.
    for M, N, row, col, plan in ((3, 3, 2, 1, EvalPlan(16, 16)), (8, 5, 7, 4, EvalPlan(64, 40)),
                                 (32, 32, 31, 0, EvalPlan(256, 256))):
        entries = np.zeros((M, N), dtype=complex)
        entries[row, col] = 1.0
        assert nonortho_l2_norm(entries, plan) == pytest.approx(1.0, rel=1e-14, abs=0.0)


def test_nonortho_l2_norm_stays_with_the_grid_at_the_gram_null_space():
    # The Gram matrix of V's table is nearly singular from M = 16 on: its
    # least eigenvalue sits below rounding.  On the outer product of that
    # eigenvector the quadratic form Re sum conj(A) (G_x A conj(G_y)),
    # summed in floats, can be negative (at M = 32 it is, and its square
    # root NaN); the R factors keep the value non-negative and within
    # rounding of the grid path.
    for M in (8, 16, 32):
        plan = default_grid(M, M, floor=64)
        table = np.exp(1j * np.outer(np.arange(plan.Kx) / plan.Kx, np.arange(M)))  # E_x[j, m] = e^{i m j/Kx}
        least = np.linalg.eigh(table.conj().T @ table / plan.Kx)[1][:, 0]
        A = CoefficientMatrix(M, M, np.outer(least, least))
        value = nonortho_l2_norm(A.entries, plan)
        assert value >= 0.0
        assert abs(value - lrs_norm(eval_nonortho(A, plan), E2222)) <= 1e-14 * lpq_norm(A, E2222)


def test_plan_validation():
    rng = np.random.default_rng(7)
    A = random_matrix(rng, 4, 4)
    with pytest.raises(ValueError, match="zero-pad transform needs"):
        eval_sum(A, EvalPlan(Kx=2, Ky=8))
    with pytest.raises(ValueError, match="dimensions must be positive, got Kx=0, Ky=4"):
        EvalPlan(Kx=0, Ky=4)
    # The ceiling is on the samples' bytes, checked before anything is allocated.
    assert 16 * 2**15 * 2**15 == MAX_GRID_BYTES
    EvalPlan(Kx=2**15, Ky=2**15)
    with pytest.raises(ValueError, match="above the limit of 16 GiB"):
        EvalPlan(Kx=2**15, Ky=2**15 + 1)
    with pytest.raises(ValueError, match="^a 65536 x 32768 grid needs 32 GiB of samples, above the limit of 16 GiB$"):
        EvalPlan(Kx=2**16, Ky=2**15)
    # The rate is the constant OVERSAMPLE; a third positional argument is refused, not taken as the floor.
    assert default_grid(4, 3) == (32, 24) and OVERSAMPLE == 8
    with pytest.raises(TypeError):
        default_grid(4, 4, 3)
    with pytest.raises(TypeError):
        default_grid(4, 4, oversample=3)


@pytest.mark.parametrize("M, N", [(2.5, 3), (0, 4), (4, -1), (True, 2)], ids=repr)
def test_default_grid_names_the_sizes_it_was_given(M, N):
    # Checked before the grid is derived: the message names M and N, not 8M x 8N.
    with pytest.raises(ValueError, match=f"^dimensions must be positive, got M={M}, N={N}$"):
        default_grid(M, N, floor=8)


def test_numpy_integer_grid_sizes_round_trip_as_ints(tmp_path):
    A = random_matrix(np.random.default_rng(8), 3, 2)
    plan = EvalPlan(np.int64(8), np.int32(4))
    assert type(plan.Kx) is int and type(plan.Ky) is int
    f = eval_sum(A, plan)
    assert type(f.Kx) is int and type(f.Ky) is int
    save_grid(tmp_path / "grid.json", f)
    g = load_grid(tmp_path / "grid.json")
    assert (type(g.Kx), type(g.Ky)) == (int, int) and (g.Kx, g.Ky) == (8, 4)
    assert g.samples.tobytes() == f.samples.tobytes()
    assert type(GridFunction(np.int64(2), np.int64(2), np.zeros((2, 2))).Kx) is int


@pytest.mark.parametrize("Kx, Ky", [(4.0, 4.0), (True, True), (4, False), (np.float64(4), 4)], ids=repr)
def test_grid_sizes_must_be_integers(Kx, Ky):
    message = f"^dimensions must be positive, got Kx={Kx}, Ky={Ky}$"
    with pytest.raises(ValueError, match=message):
        EvalPlan(Kx, Ky)
    with pytest.raises(ValueError, match=message):
        GridFunction(Kx, Ky, np.zeros((int(Kx), int(Ky))))
    with pytest.raises(ValueError, match=f"^dimensions must be positive, got M={Kx}, N={Ky}$"):
        CoefficientMatrix(Kx, Ky, np.zeros((int(Kx), int(Ky))))


# Each grid-size rule that default_grid replaced, as a function of
# (M, N, oversample), next to the call its caller now makes.  Every caller's
# oversampling defaulted to 8, the one rate left.
LEGACY_GRIDS = {
    "opnorm": (
        lambda M, N, k: (max(8 * M, 16), max(8 * N, 16)),
        lambda M, N: default_grid(M, N, floor=16),
    ),
    "extremal": (
        lambda M, N, k: (max(k * M, 8), max(k * N, 8)),
        lambda M, N: default_grid(M, N),  # the floor of 8 never bound: 8 M >= 8
    ),
    "eval": (
        lambda M, N, k: (k * M, k * N),
        lambda M, N: default_grid(M, N),
    ),
    "nonortho-check": (
        lambda M, N, k: (max(k * M, 64), max(k * M, 64)),
        lambda M, N: default_grid(M, M, floor=64),
    ),
}


@pytest.mark.parametrize("caller", sorted(LEGACY_GRIDS))
def test_default_grid_reproduces_every_legacy_grid(caller):
    legacy, current = LEGACY_GRIDS[caller]
    for M in (1, 2, 3, 8, 33):
        for N in (1, 5, 16):
            plan = current(M, N)
            assert isinstance(plan, EvalPlan) and plan == legacy(M, N, 8), (M, N)
            assert EvalPlan(*plan) == plan

