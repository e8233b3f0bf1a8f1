"""Tests for grid evaluation of the double sum and its unit-frequency variant."""

import cmath
import math

import numpy as np
import pytest

from mnlab.exponents import MixedExponents
from mnlab.norms import CoefficientMatrix, lpq_norm
from mnlab.trigsum import (
    EvalPlan,
    _direct,
    default_grid,
    eval_nonortho,
    eval_sum,
    eval_sum_at,
    synthesize,
    synthesize_adjoint,
)


def random_matrix(rng, M, N):
    return CoefficientMatrix(M, N, rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N)))


def test_direct_and_transform_paths_agree():
    rng = np.random.default_rng(0)
    A = random_matrix(rng, 64, 64)
    f_fft = eval_sum(A, EvalPlan(Kx=512, Ky=512))
    nodes = np.arange(512) / 512
    direct = _direct(A, nodes, nodes, 2.0 * np.pi)
    scale = np.max(np.abs(f_fft.samples))
    assert np.max(np.abs(f_fft.samples - direct)) <= 1e-10 * scale


@pytest.mark.parametrize("M,N,Kx,Ky", [
    (4, 4, 32, 32),
    (5, 3, 12, 7),
    (3, 5, 24, 40),
    (3, 5, 3, 40),
    (7, 9, 7, 9),
], ids=["square", "non-square", "non-square-grid", "Kx-equals-M", "grid-equals-matrix"])
def test_pruned_transforms_equal_the_padded_ones_bit_for_bit(M, N, Kx, Ky):
    rng = np.random.default_rng([M, N, Kx, Ky])
    entries = rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N))
    padded = np.zeros((Kx, Ky), dtype=complex)
    padded[:M, :N] = entries
    assert np.array_equal(synthesize(entries, Kx, Ky), np.fft.ifft2(padded) * (Kx * Ky))
    samples = rng.standard_normal((Kx, Ky)) + 1j * rng.standard_normal((Kx, Ky))
    assert np.array_equal(synthesize_adjoint(samples, M, N), np.fft.fft2(samples)[:M, :N])


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
    v0 = eval_sum_at(A, 0.3, 0.2, scale=1.0)
    v1 = eval_sum_at(A, 1.3, 0.2, scale=1.0)
    assert abs(v1 - v0) > 0.05


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
    # Grid values match the pointwise evaluator.
    rng = np.random.default_rng(6)
    B = random_matrix(rng, 3, 2)
    h = eval_nonortho(B, EvalPlan(Kx=4, Ky=4))
    assert h.samples[1, 3] == pytest.approx(eval_sum_at(B, 1 / 4, 3 / 4, scale=1.0), rel=1e-12)


def test_plan_validation():
    rng = np.random.default_rng(7)
    A = random_matrix(rng, 4, 4)
    with pytest.raises(ValueError, match="zero-pad transform needs"):
        eval_sum(A, EvalPlan(Kx=2, Ky=8))
    with pytest.raises(ValueError, match="grid sizes must be positive"):
        EvalPlan(Kx=0, Ky=4)
    for oversample in (1, 0, -5):
        with pytest.raises(ValueError, match=f"oversample must be >= 2, got {oversample}"):
            default_grid(4, 4, oversample)


# Each grid-size rule that default_grid replaced, as a function of
# (M, N, oversample), next to the call its caller now makes.
LEGACY_GRIDS = {
    "opnorm": (
        lambda M, N, k: (max(8 * M, 16), max(8 * N, 16)),
        lambda M, N, k: default_grid(M, N, floor=16),
    ),
    "extremal": (
        lambda M, N, k: (max(k * M, 8), max(k * N, 8)),
        lambda M, N, k: default_grid(M, N, k, floor=8),
    ),
    "eval": (
        lambda M, N, k: (k * M, k * N),
        lambda M, N, k: default_grid(M, N, k),
    ),
    "nonortho-check": (
        lambda M, N, k: (max(k * M, 64), max(k * M, 64)),
        lambda M, N, k: default_grid(M, M, k, floor=64),
    ),
}


@pytest.mark.parametrize("caller", sorted(LEGACY_GRIDS))
def test_default_grid_reproduces_every_legacy_grid(caller):
    legacy, current = LEGACY_GRIDS[caller]
    for M in (1, 2, 3, 8, 33):
        for N in (1, 5, 16):
            for k in (2, 3, 8, 16):
                assert current(M, N, k) == legacy(M, N, k), (M, N, k)

