"""Tests for extremizer matrices, chirp sums, and certified lower bounds."""

import cmath
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from branch_build import branch_build

from mnlab.exponents import MixedExponents, upper_bound_magnitude
from mnlab.extremizers import (
    CHIRP_POINTS,
    KINDS,
    LOBE_SAMPLES,
    SIN1,
    ChirpB,
    ColumnC,
    OnesD,
    RowR,
    UnitE,
    build,
    certified_lower_bound,
    chirp_residual_sweep,
    dirichlet_quotient,
    kind_name,
    quadratic_phase_main_term,
    quadratic_phase_sum,
    unit_sharpness,
    verify_chirp_lower,
    verify_dirichlet_lower,
)
from mnlab.norms import lpq_norm
from mnlab.trigsum import eval_sum_at

# ----------------------------------------------------------------------------
# Matrix constructions
# ----------------------------------------------------------------------------


def test_chirp_matrix_entries():
    B = build(ChirpB(eta=0.2), 4, 4)
    assert B.entries[0, 0] == pytest.approx(1.0 + 0j, abs=1e-15)
    # 1-based (2, 1): phase (pi/2) * 0.2 * (1/4) = pi/40.
    assert B.entries[1, 0] == pytest.approx(cmath.exp(-1j * math.pi / 40.0), abs=1e-15)
    assert np.max(np.abs(np.abs(B.entries) - 1.0)) <= 1e-15


def test_unimodular_matrix_norm_is_a_power_product():
    B = build(ChirpB(eta=0.3), 5, 7)
    for e in [
        MixedExponents(0.5, 0.5, 0.5, 0.5),
        MixedExponents(1.0, 0.25, 0.5, 0.5),
        MixedExponents(0.0, 1.0, 0.5, 0.5),
    ]:
        assert lpq_norm(B, e) == pytest.approx(5.0**e.alpha * 7.0**e.beta, rel=1e-12)


def test_structured_matrix_builds():
    C = build(ColumnC(col=2, value=3j), 3, 4)
    assert C.entries[1, 1] == 3j and C.entries[2, 1] == 3j
    assert np.count_nonzero(C.entries) == 3
    R = build(RowR(row=3, value=-2.0), 3, 4)
    assert np.count_nonzero(R.entries) == 4
    assert R.entries[2, 0] == -2.0
    D = build(OnesD(value=1 + 1j), 2, 2)
    assert np.all(D.entries == 1 + 1j)
    E = build(UnitE(row=2, col=3), 4, 4)
    assert np.count_nonzero(E.entries) == 1
    assert E.entries[1, 2] == 1.0


def test_build_validation():
    with pytest.raises(ValueError):
        build(ColumnC(col=5), 3, 4)
    with pytest.raises(ValueError):
        build(RowR(row=0), 3, 4)
    with pytest.raises(ValueError):
        build(UnitE(row=1, col=1, value=0.0), 3, 3)
    with pytest.raises(ValueError):
        build(OnesD(), 0, 4)
    with pytest.raises(ValueError):
        ChirpB(eta=1.5)
    with pytest.raises(TypeError):
        build("chirp", 4, 4)


# Values whose bits a fill could lose: signs of zero parts, a subnormal, a
# value that underflows when squared.
BUILD_VALUES = (1, -2, 3j, -1 - 1j, complex(-0.0, 1), 1e-300, -5e-324)


def _non_chirp_kinds(M, N, value):
    """Every non-chirp kind at its first and last row and column."""
    yield OnesD(value)
    for row in (1, M):
        yield RowR(row, value)
        for col in (1, N):
            yield UnitE(row, col, value)
    for col in (1, N):
        yield ColumnC(col, value)


@pytest.mark.parametrize("M, N", [(1, 1), (1, 5), (4, 1), (3, 4), (8, 8), (5, 7)])
def test_build_equals_the_branch_oracle_bit_for_bit(M, N):
    for value in BUILD_VALUES:
        for kind in _non_chirp_kinds(M, N, value):
            entries = build(kind, M, N).entries
            assert entries.dtype == np.complex128 and entries.shape == (M, N)
            assert entries.tobytes() == branch_build(kind, M, N).tobytes(), kind


@pytest.mark.parametrize("kind", [
    ColumnC(col=0), ColumnC(col=5), ColumnC(col=5, value=0), ColumnC(value=0),
    RowR(row=0), RowR(row=4), RowR(row=4, value=0), RowR(value=0),
    UnitE(row=0, col=9, value=0), UnitE(row=4, col=1), UnitE(row=3, col=0), UnitE(row=3, col=5, value=0),
    UnitE(row=3, col=4, value=0), OnesD(value=0), OnesD(value=-0.0j), "chirp",
], ids=repr)
def test_build_rejects_as_the_branch_oracle(kind):
    with pytest.raises((ValueError, TypeError)) as expected:
        branch_build(kind, 3, 4)
    with pytest.raises(expected.type, match=f"^{re.escape(str(expected.value))}$"):
        build(kind, 3, 4)


@pytest.mark.parametrize("kind", [UnitE(row=1.5, col=1), UnitE(row=1, col=2.0), RowR(row=True), ColumnC(col=False)],
                         ids=repr)
def test_build_takes_integer_indices_only(kind):
    # Range alone let 1.5 through to numpy's IndexError, and True build row 1.
    with pytest.raises(ValueError, match=r"^(row|column) index must lie in 1\.\.3, got [^\n]+$"):
        build(kind, 3, 3)


def test_build_takes_numpy_integer_indices():
    E = build(UnitE(row=np.int64(2), col=np.int32(3)), 3, 3)
    assert E.entries.tobytes() == build(UnitE(row=2, col=3), 3, 3).entries.tobytes()


def test_kind_names():
    assert kind_name(ChirpB()) == "chirp"
    assert kind_name(ColumnC()) == "column"
    assert kind_name(RowR()) == "row"
    assert kind_name(OnesD()) == "ones"
    assert kind_name(UnitE()) == "unit"


# ----------------------------------------------------------------------------
# Chirp sums
# ----------------------------------------------------------------------------


def test_single_term_chirp_sum_is_one():
    assert quadratic_phase_sum(1, 0.2, 0.4) == pytest.approx(1.0 + 0j, abs=1e-15)


def test_chirp_sum_takes_a_scalar_or_an_array():
    xs = np.array([0.02, 0.3, 0.77])
    sums = quadratic_phase_sum(64, 0.2, xs)
    assert sums.shape == (3,)
    for x, total in zip(xs, sums):
        value = quadratic_phase_sum(64, 0.2, float(x))
        assert isinstance(value, complex)
        assert value == total


def outer_chirp_sums(M, eta, xs):
    """The chirp sums from one (x, m) array, each row summed down its last axis: the reference."""
    m = np.arange(M, dtype=np.float64)
    t = np.mod(np.multiply.outer(xs, m) - (eta / 4.0) * (m * m) / M, 1.0)
    return np.exp(2j * np.pi * t).sum(axis=-1)


@pytest.mark.parametrize("M", [1, 2, 7, 64, 1000, 8191, 8192, 8193, 65536])
def test_chirp_sums_equal_the_row_sums_of_one_array_bit_for_bit(M):
    xs = np.array([0.02, 0.2, 0.35, 0.5, 0.8, -1.7, 2.25])
    for eta in (0.2, 0.37):
        assert quadratic_phase_sum(M, eta, xs).tobytes() == outer_chirp_sums(M, eta, xs).tobytes()
        grid = xs[:6].reshape(2, 3)
        assert quadratic_phase_sum(M, eta, grid).tobytes() == outer_chirp_sums(M, eta, grid).tobytes()


def test_chirp_residual_sweep_holds_one_x_at_a_time():
    # chirp-check's largest rung and its stated window.  One x at a time
    # peaks at 3.0 MiB; one (x, m) array of the seven x's peaked at 18.0.
    xs = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]
    tracemalloc.start()
    try:
        chirp_residual_sweep(0.2, [1024, 65536], xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_two_term_chirp_sum_by_hand():
    # M=2: 1 + e^{2 pi i (x - eta/8)}.
    value = quadratic_phase_sum(2, 0.25, 0.25)
    expected = 1.0 + cmath.exp(2j * math.pi * (0.25 - 0.25 / 8.0))
    assert value == pytest.approx(expected, abs=1e-14)


def test_main_term_modulus_law():
    for M in (1, 7, 1024):
        for eta in (0.1, 0.2, 0.5):
            for x in (0.01, 0.3, 0.77):
                assert abs(quadratic_phase_main_term(M, eta, x)) == pytest.approx(
                    math.sqrt(2.0 * M / eta), rel=1e-13
                )


def test_chirp_image_factorizes_into_axis_sums():
    eta = 0.2
    B = build(ChirpB(eta=eta), 8, 5)
    rng = np.random.default_rng(10)
    for _ in range(10):
        x, y = rng.uniform(0, 1), rng.uniform(0, 1)
        via_matrix = eval_sum_at(B, x, y)
        via_factors = quadratic_phase_sum(8, eta, x) * quadratic_phase_sum(5, eta, y)
        assert via_matrix == pytest.approx(via_factors, rel=1e-10)


def test_main_term_matches_where_stationary_point_is_interior():
    # The phase m(x - (eta/4) m/M) is stationary at m* = 2Mx/eta, which lies
    # inside the summation range only for x < eta/2.  There the closed form
    # holds: residuals stay bounded in M (flat log-log slope) and the
    # amplitude approaches sqrt(2/eta).
    eta = 0.2
    xs = [0.02, 0.04, 0.06, 0.08]
    Ms = [2**k for k in range(10, 15)]
    residuals = []
    for M in Ms:
        worst = max(
            abs(quadratic_phase_sum(M, eta, x) - quadratic_phase_main_term(M, eta, x))
            for x in xs
        )
        residuals.append(worst)
    slope = float(np.polyfit(np.log(Ms), np.log(residuals), 1)[0])
    assert slope <= 0.1, f"residual growth slope {slope:.3f} should be flat"
    assert max(residuals) <= 12.0
    amp = max(abs(quadratic_phase_sum(Ms[-1], eta, x)) for x in xs) / math.sqrt(Ms[-1])
    assert amp == pytest.approx(math.sqrt(2.0 / eta), rel=0.25)


def test_main_term_does_not_match_on_the_central_window():
    # For x in [eta, 1-eta] the stationary point 2Mx/eta exceeds M-1, the sum
    # stays O(1), and the sqrt(M)-sized main term dominates the difference:
    # the measured residual slope is near 1/2, not near 0.  This pins the
    # measured behaviour that `chirp_residual_sweep` reports on that window.
    report = chirp_residual_sweep(0.2, [2**10, 2**12, 2**14], [0.2, 0.35, 0.5, 0.65, 0.8])
    assert report.slope > 0.3
    assert report.amplitude_ratio < 1.0
    assert report.predicted_amplitude == pytest.approx(math.sqrt(10.0), rel=1e-12)


def test_residual_sweep_report_shape():
    report = chirp_residual_sweep(0.25, [16, 32, 64], [0.3, 0.5])
    assert report.Ms == (16, 32, 64)
    assert report.xs == (0.3, 0.5)
    assert len(report.max_residuals) == 3
    assert all(r >= 0.0 for r in report.max_residuals)
    d = report.to_json_dict()
    assert d["kind"] == "chirp_residual"
    assert d["eta"] == 0.25
    assert set(d) == {
        "kind", "eta", "Ms", "xs", "max_residuals", "slope",
        "amplitude_ratio", "predicted_amplitude",
    }
    with pytest.raises(ValueError):
        chirp_residual_sweep(0.25, [16], [0.3])


def test_chirp_lower_report():
    report = verify_chirp_lower(16, 8, eta=0.2)
    xs = np.linspace(0.2, 0.8, CHIRP_POINTS)
    minima = [np.abs(quadratic_phase_sum(size, 0.2, xs)).min() for size in (16, 8)]
    assert report.lower == minima[0] * minima[1]
    assert report.lower >= 0.0
    assert report.ratio == pytest.approx(report.lower / math.sqrt(16 * 8), rel=1e-12)
    d = report.to_json_dict()
    assert d["kind"] == "chirp" and d["exponents"] is None
    assert d["upper"] == pytest.approx(math.sqrt(128.0), rel=1e-12)
    # Length-one axes contribute a factor of exactly one.
    trivial = verify_chirp_lower(1, 1, eta=0.2)
    assert trivial.lower == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        verify_chirp_lower(8, 8, eta=0.6)
    # The window's sampling is the constant CHIRP_POINTS, not a parameter.
    with pytest.raises(TypeError):
        verify_chirp_lower(8, 8, grid_points=1)


# ----------------------------------------------------------------------------
# Dirichlet-kernel bounds
# ----------------------------------------------------------------------------


def test_dirichlet_quotient_values():
    assert dirichlet_quotient(7, 0.0) == 7.0
    assert dirichlet_quotient(1, 0.37) == pytest.approx(1.0, rel=1e-12)
    x = 1.0 / 14.0  # sin(pi/2) / sin(pi/14)
    assert dirichlet_quotient(7, x) == pytest.approx(1.0 / math.sin(math.pi / 14.0), rel=1e-12)
    arr = dirichlet_quotient(3, np.array([0.0, 0.1]))
    assert isinstance(arr, np.ndarray)
    assert arr[0] == 3.0
    assert arr[1] == pytest.approx(math.sin(0.3 * math.pi) / math.sin(0.1 * math.pi), rel=1e-12)


def test_kernel_dominates_sine_of_one_on_the_main_lobe():
    for M in (2, 4, 8, 16, 32, 64, 128, 256):
        pts = np.linspace(0.0, 1.0 / (math.pi * M), 200)
        values = np.asarray(dirichlet_quotient(M, pts))
        assert np.min(values - SIN1 * M) >= 0.0


def test_certified_bound_formulas():
    e = MixedExponents(0.5, 0.75, 0.25, 0.5)
    assert certified_lower_bound(ColumnC(), 9, 4, e) == SIN1 / math.pi**0.25 * 9.0**0.25
    e2 = MixedExponents(0.75, 0.5, 0.5, 0.25)
    assert certified_lower_bound(RowR(), 9, 4, e2) == SIN1 / math.pi**0.25 * 4.0**0.25
    e3 = MixedExponents(0.5, 0.5, 0.25, 0.25)
    expected = SIN1**2 / math.pi**0.5 * 9.0**0.25 * 4.0**0.25
    assert certified_lower_bound(OnesD(), 9, 4, e3) == expected
    # The single entry has no Dirichlet axis: its bound is the empty product, exactly one.
    assert certified_lower_bound(UnitE(), 4, 4, e) == 1.0
    with pytest.raises(TypeError):
        certified_lower_bound(ChirpB(), 4, 4, e)


def test_certified_bound_never_exceeds_growth_bound():
    rng = np.random.default_rng(11)
    certified = [kind() for kind, (_, factors) in KINDS.items() if factors]
    for _ in range(200):
        e = MixedExponents(*rng.uniform(0.0, 1.0, size=4))
        M, N = int(rng.integers(1, 33)), int(rng.integers(1, 33))
        assert certified_lower_bound(UnitE(), M, N, e) == 1.0
        for kind in certified:
            assert certified_lower_bound(kind, M, N, e) <= upper_bound_magnitude(M, N, e) * (1 + 1e-12)


def test_dirichlet_report_for_random_exponents():
    rng = np.random.default_rng(12)
    for _ in range(10):
        e = MixedExponents(*rng.uniform(0.0, 1.0, size=4))
        report = verify_dirichlet_lower(ColumnC(), 8, 4, e)
        assert report.ratio <= 1.0 + 1e-12
        assert report.lower == certified_lower_bound(ColumnC(), 8, 4, e)
        # Grid measurement of the true ratio can only sit above the certified
        # main-lobe bound, up to quadrature error.
        assert report.observed >= report.lower * (1 - 0.05)


def test_ones_matrix_saturates_sup_over_l1():
    # r = s = infinity, p = q = 1: sup |T D| = MN is attained at the origin
    # and l^{1,1} of D is MN, so the observed ratio is exactly one.
    e = MixedExponents(1.0, 1.0, 0.0, 0.0)
    report = verify_dirichlet_lower(OnesD(), 8, 8, e)
    assert report.observed == pytest.approx(1.0, abs=1e-9)
    assert report.lower == pytest.approx(SIN1**2, rel=1e-15)
    assert report.upper == 1.0
    assert report.kind == "ones"
    d = report.to_json_dict()
    assert d["exponents"] == [1.0, 1.0, 0.0, 0.0]


def test_entry_value_cancels_in_the_ratio():
    e = MixedExponents(0.5, 0.5, 0.5, 0.5)
    a = verify_dirichlet_lower(ColumnC(value=1.0), 6, 3, e)
    b = verify_dirichlet_lower(ColumnC(value=5j), 6, 3, e)
    assert a.lower == b.lower
    assert a.observed == pytest.approx(b.observed, rel=1e-12)


def test_numpy_integer_sizes_serialize():
    e = MixedExponents(0.5, 0.25, 0.75, 0.5)
    assert type(build(RowR(), np.int64(3), np.int32(2)).M) is int
    reports = [
        verify_dirichlet_lower(OnesD(), np.int64(2), 2, e),
        unit_sharpness(UnitE(), np.int64(2), np.int32(3), e),
        verify_chirp_lower(np.int64(4), np.int32(4)),
    ]
    for report in reports:
        assert type(report.M) is int and type(report.N) is int
        json.dumps(report.to_json_dict())


@pytest.mark.parametrize("check, kind", [(verify_dirichlet_lower, ColumnC()), (verify_dirichlet_lower, OnesD()),
                                         (unit_sharpness, UnitE())], ids=["column", "ones", "unit"])
def test_checks_name_the_sizes_they_were_given(check, kind):
    # The sizes are checked before the grid is derived from them: M=2.5 is
    # reported as given, not as the grid's Kx=20.0.
    e = MixedExponents(0.5, 0.5, 0.5, 0.5)
    for M, N in [(2.5, 3), (0, 3), (3, True)]:
        with pytest.raises(ValueError, match=f"^dimensions must be positive, got M={M}, N={N}$"):
            check(kind, M, N, e)


@pytest.mark.parametrize("check, kind, knob", [
    (verify_dirichlet_lower, ColumnC(), {"samples": 64}),
    (verify_dirichlet_lower, ColumnC(), {"oversample": 8}),
    (unit_sharpness, UnitE(), {"oversample": 8}),
], ids=["dirichlet-samples", "dirichlet-oversample", "unit-oversample"])
def test_checks_sample_at_one_fixed_resolution(check, kind, knob):
    with pytest.raises(TypeError):
        check(kind, 4, 4, MixedExponents(0.5, 0.5, 0.5, 0.5), **knob)
    # The constants are the removed parameters' defaults, so no report moved.
    assert (CHIRP_POINTS, LOBE_SAMPLES) == (33, 64)


def test_dirichlet_lower_rejects_other_kinds():
    e = MixedExponents(0.5, 0.5, 0.5, 0.5)
    with pytest.raises(TypeError):
        verify_dirichlet_lower(UnitE(), 4, 4, e)
    with pytest.raises(TypeError):
        verify_dirichlet_lower(ChirpB(), 4, 4, e)


# ----------------------------------------------------------------------------
# The sharp single-entry case
# ----------------------------------------------------------------------------


def test_unit_sharpness_ratio_is_one():
    rng = np.random.default_rng(13)
    for _ in range(8):
        M, N = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        kind = UnitE(
            row=int(rng.integers(1, M + 1)),
            col=int(rng.integers(1, N + 1)),
            value=complex(rng.standard_normal(), rng.standard_normal()) or 1.0,
        )
        e = MixedExponents(*rng.uniform(0.0, 1.0, size=4))
        report = unit_sharpness(kind, M, N, e)
        assert report.ratio == pytest.approx(1.0, abs=1e-9)
        assert report.lower == pytest.approx(report.upper, rel=1e-9)
    d = report.to_json_dict()
    assert d["kind"] == "unit" and d["ratio"] == report.ratio
