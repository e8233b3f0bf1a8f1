"""Tests for the exponent hypercube: theta against the paper's region table, phi, bounds."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from regions import REGIONS, matching

from mnlab.exponents import (
    MixedExponents,
    phi,
    theta,
    upper_bound_magnitude,
)
from mnlab.extremizers import (
    ChirpB,
    ColumnC,
    OnesD,
    UnitE,
    build,
    certified_lower_bound,
    chirp_residual_sweep,
    quadratic_phase_sum,
    unit_sharpness,
    verify_chirp_lower,
    verify_dirichlet_lower,
)
from mnlab.norms import CoefficientMatrix, GridFunction, load_grid, load_matrix
from mnlab.opnorm import SearchConfig, estimate
from mnlab.trigsum import EvalPlan, default_grid

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def test_theta_center_is_half():
    assert theta(MixedExponents(0.5, 0.5, 0.5, 0.5)) == 0.5


def test_theta_corner_is_one():
    # (1,1,0,0): the alpha branch applies with alpha = 1.
    assert theta(MixedExponents(1.0, 1.0, 0.0, 0.0)) == 1.0


def test_theta_alpha_branch_value():
    # alpha >= 1/2, alpha >= beta, alpha+gamma >= 1, alpha+delta >= 1
    # all hold at (0.7, 0.3, 0.4, 0.9), so theta = alpha.  (Frozen by hand
    # case analysis.)
    assert theta(MixedExponents(0.7, 0.3, 0.4, 0.9)) == 0.7


def test_upper_bound_magnitude_known_points():
    assert upper_bound_magnitude(4, 4, MixedExponents(0.5, 0.5, 0.5, 0.5)) == 1.0
    assert upper_bound_magnitude(4, 4, MixedExponents(1.0, 1.0, 0.0, 0.0)) == 1.0
    # (0,0,1,1) sits in the central region, so the constant is (MN)^(1/2).
    assert upper_bound_magnitude(4, 4, MixedExponents(0.0, 0.0, 1.0, 1.0)) == 4.0


def test_classify_center_matches_every_branch():
    assert matching(0.5, 0.5, 0.5, 0.5) == [name for name, _, _ in REGIONS]
    assert theta(MixedExponents(0.5, 0.5, 0.5, 0.5)) == 0.5


def test_classify_two_branch_overlap():
    # At (1, 0, 0, 0.3) both the alpha branch (value 1) and the 1-gamma
    # branch (value 1 - 0 = 1) hold and agree.
    assert matching(1.0, 0.0, 0.0, 0.3) == ["alpha", "one_minus_gamma"]
    assert theta(MixedExponents(1.0, 0.0, 0.0, 0.3)) == 1.0


def test_classify_single_branch():
    assert matching(0.6, 0.3, 0.9, 0.2) == ["one_minus_delta"]
    assert theta(MixedExponents(0.6, 0.3, 0.9, 0.2)) == 0.8


def test_theta_at_ties_is_the_correctly_rounded_max():
    # Where two branches tie in exact arithmetic on the decimal inputs, their
    # rounded values can differ by an ulp; theta takes the larger, which is
    # the correctly rounded max of the stored reciprocals.
    assert theta(MixedExponents(0.0, 2 / 3, 1 / 3, 1 / 3)).hex() == "0x1.5555555555556p-1"
    assert theta(MixedExponents(0.74, 0.82, 1.0, 0.18)).hex() == "0x1.a3d70a3d70a3ep-1"


@settings(max_examples=300, deadline=None)
@given(unit, unit, unit, unit)
def test_theta_is_the_correctly_rounded_exact_max(a, b, g, d):
    exact = max(Fraction(1, 2), Fraction(a), Fraction(b), 1 - Fraction(g), 1 - Fraction(d))
    assert theta(MixedExponents(a, b, g, d)) == float(exact)


def test_phi_central_region():
    assert phi(MixedExponents(0.25, 0.25, 0.75, 0.75)) == 0.5


def test_phi_diagonal_branch():
    # alpha = beta = 0.8 with alpha+gamma and alpha+delta above 1:
    # phi = sqrt(0.8 * 0.8) = 0.8.
    assert phi(MixedExponents(0.8, 0.8, 0.5, 0.5)) == pytest.approx(0.8, abs=1e-15)


def test_phi_undefined_off_domain():
    # No equality constraint holds at (0.7, 0.3, 0.4, 0.9).
    assert phi(MixedExponents(0.7, 0.3, 0.4, 0.9)) is None


@settings(max_examples=300, deadline=None)
@given(unit, unit, unit, unit)
def test_every_point_is_covered_and_well_defined(a, b, g, d):
    t = theta(MixedExponents(a, b, g, d))
    values = [value(a, b, g, d) for _, holds, value in REGIONS if holds(a, b, g, d)]
    assert values, f"no region of the paper's table covers {(a, b, g, d)}"
    assert max(abs(v - t) for v in values) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(unit, unit, unit, unit)
def test_theta_range_and_phi_agreement(a, b, g, d):
    e = MixedExponents(a, b, g, d)
    t = theta(e)
    assert 0.5 <= t <= 1.0
    f = phi(e)
    if f is not None:
        assert abs(f - t) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.5, max_value=1.0, allow_nan=False), unit, unit)
def test_phi_defined_on_the_alpha_slice(a, b, g):
    # On the slice alpha + delta = 1 with alpha dominant, phi = theta = alpha.
    # (1 - a is exact for a in [1/2, 1], so the equality constraint holds
    # exactly in floating point.)
    b = min(b, a)
    if a + g < 1.0:
        g = 1.0 - a
    e = MixedExponents(a, b, g, 1.0 - a)
    assert phi(e) == theta(e) == a


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=0.5, allow_nan=False), unit, unit)
def test_phi_defined_on_the_small_gamma_diagonal(g, a, b):
    # gamma = delta <= 1/2 with alpha + gamma <= 1 and beta + delta <= 1:
    # phi = 1 - gamma.
    a = min(a, 1.0 - g)
    b = min(b, 1.0 - g)
    e = MixedExponents(a, b, g, g)
    assert phi(e) == pytest.approx(1.0 - g, abs=1e-15)
    assert phi(e) == pytest.approx(theta(e), abs=1e-12)


def test_theta_is_one_lipschitz_along_axes():
    rng = np.random.default_rng(42)
    h = 1e-3
    for _ in range(200):
        base = rng.uniform(0.0, 1.0, size=4)
        axis = rng.integers(0, 4)
        stepped = base.copy()
        stepped[axis] = min(1.0, stepped[axis] + h)
        t0 = theta(MixedExponents(*base))
        t1 = theta(MixedExponents(*stepped))
        assert abs(t1 - t0) <= (stepped[axis] - base[axis]) + 1e-12


def test_central_region_magnitude_formula():
    # With alpha, beta <= 1/2 <= gamma, delta the constant reduces to
    # M^(1/2 - alpha) * N^(1/2 - beta).
    rng = np.random.default_rng(7)
    for _ in range(100):
        a, b = rng.uniform(0.0, 0.5, size=2)
        g, d = rng.uniform(0.5, 1.0, size=2)
        M, N = int(rng.integers(1, 64)), int(rng.integers(1, 64))
        got = upper_bound_magnitude(M, N, MixedExponents(a, b, g, d))
        want = M ** (0.5 - a) * N ** (0.5 - b)
        assert got == pytest.approx(want, rel=1e-12)


def test_reciprocal_round_trip():
    # The stored reciprocals build the same point again; zero is stored as +0.0 whatever its sign.
    e = MixedExponents(0.5, -0.0, 1.0, 0.25)
    assert [x.hex() for x in e.as_tuple()] == [x.hex() for x in (0.5, 0.0, 1.0, 0.25)]
    assert MixedExponents(*e.as_tuple()) == e


def test_rejects_out_of_range_values():
    with pytest.raises(ValueError):
        MixedExponents(1.5, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        MixedExponents(-0.1, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        MixedExponents(float("nan"), 0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        upper_bound_magnitude(0, 4, MixedExponents(0.5, 0.5, 0.5, 0.5))


@pytest.mark.parametrize("value", [np.float32(0.5), np.float64(0.5), np.int64(1), np.int8(0), Fraction(1, 4)])
def test_accepts_any_real_number_type(value):
    e = MixedExponents(value, 0.5, 0.5, 0.5)
    assert type(e.alpha) is float and e.alpha == float(value)


@pytest.mark.parametrize("value", [True, False, np.bool_(True), "0.5", None, complex(0.5)])
def test_rejects_bool_and_non_real_values(value):
    with pytest.raises(ValueError, match="alpha must be a finite number"):
        MixedExponents(value, 0.5, 0.5, 0.5)


# ---------------------------------------------------------------------------
# The one size rule, through every public function that takes a size
# ---------------------------------------------------------------------------

E22 = MixedExponents(0.5, 0.5, 0.5, 0.5)


def _write_document(path, keys, first_size):
    """A document whose sizes are the JSON text `first_size` and 3, over the 6 pairs of a 2 x 3 array."""
    path.write_text('{"%s": %s, "%s": 3, "%s": %s}' % (keys[0], first_size, keys[1], keys[2], [[1.0, 0.0]] * 6))
    return path


# name -> (the call with first size M, the names of its sizes; one name when it takes one size)
SIZE_TAKERS = {
    "CoefficientMatrix": (lambda M: CoefficientMatrix(M, 3, np.ones((2, 3))), ("M", "N")),
    "GridFunction": (lambda M: GridFunction(M, 3, np.ones((2, 3))), ("Kx", "Ky")),
    "EvalPlan": (lambda M: EvalPlan(M, 3), ("Kx", "Ky")),
    "default_grid": (lambda M: default_grid(M, 3), ("M", "N")),
    "build-ones": (lambda M: build(OnesD(), M, 3), ("M", "N")),
    "build-chirp": (lambda M: build(ChirpB(), M, 3), ("M", "N")),
    "upper_bound_magnitude": (lambda M: upper_bound_magnitude(M, 3, E22), ("M", "N")),
    "certified_lower_bound": (lambda M: certified_lower_bound(ColumnC(), M, 3, E22), ("M", "N")),
    "quadratic_phase_sum": (lambda M: quadratic_phase_sum(M, 0.2, 0.3), ("M",)),
    "chirp_residual_sweep": (lambda M: chirp_residual_sweep(0.2, [M, 4], [0.05]), ("M",)),
    "verify_chirp_lower": (lambda M: verify_chirp_lower(M, 3), ("M", "N")),
    "verify_dirichlet_lower": (lambda M: verify_dirichlet_lower(ColumnC(), M, 3, E22), ("M", "N")),
    "unit_sharpness": (lambda M: unit_sharpness(UnitE(), M, 3, E22), ("M", "N")),
    "estimate": (lambda M: estimate(M, 3, E22, SearchConfig(restarts=1, max_iters=1)), ("M", "N")),
}
# A numeric string shows as one in the message: M='2', not M=2.
BAD_SIZES = [0, -1, 2.5, True, 10**400, "2"]
BAD_IDS = ["0", "-1", "2.5", "True", "1e400", "str"]


def _size_message(names, bad):
    if isinstance(bad, int) and bad >= 2**1024:
        return f"dimensions must fit in a float, got {names[0]} of {bad.bit_length()} bits"
    shown = repr(bad) if isinstance(bad, str) else bad
    return "dimensions must be positive, got " + ", ".join(f"{n}={v}" for n, v in zip(names, (shown, 3)))


@pytest.mark.parametrize("bad", BAD_SIZES, ids=BAD_IDS)
@pytest.mark.parametrize("name", list(SIZE_TAKERS))
def test_every_size_goes_through_the_one_rule(name, bad):
    call, names = SIZE_TAKERS[name]
    with pytest.raises(ValueError) as raised:
        call(bad)
    assert str(raised.value) == _size_message(names, bad)


@pytest.mark.parametrize("name", list(SIZE_TAKERS))
def test_numpy_integer_sizes_give_what_python_ints_give(name):
    # Sizes are stored as Python ints, so even the reprs agree (numpy 2 shows np.int64(2)).
    call, _ = SIZE_TAKERS[name]
    assert repr(call(np.int64(2))) == repr(call(2))


@pytest.mark.parametrize("bad", BAD_SIZES, ids=BAD_IDS)
@pytest.mark.parametrize("loader, keys, what", [(load_matrix, ("M", "N", "entries"), "matrix"),
                                                (load_grid, ("Kx", "Ky", "samples"), "grid")],
                         ids=["load_matrix", "load_grid"])
def test_file_headers_go_through_the_one_rule(tmp_path, loader, keys, what, bad):
    with pytest.raises(ValueError) as raised:
        loader(_write_document(tmp_path / "bad.json", keys, json.dumps(bad)))
    assert str(raised.value) == f"{what} JSON: {_size_message(keys[:2], bad)}"
    loaded = loader(_write_document(tmp_path / "good.json", keys, "2"))
    assert (getattr(loaded, keys[0]), getattr(loaded, keys[1])) == (2, 3)
