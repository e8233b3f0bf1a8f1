"""Tests for the exponent hypercube: theta against the paper's region table, phi, bounds."""

import math
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
    e = MixedExponents.from_exponents(2.0, math.inf, 1.0, 4.0)
    assert e.as_tuple() == (0.5, 0.0, 1.0, 0.25)
    assert e.p == 2.0 and e.q == math.inf and e.r == 1.0 and e.s == 4.0


def test_rejects_out_of_range_values():
    with pytest.raises(ValueError):
        MixedExponents(1.5, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        MixedExponents(-0.1, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        MixedExponents.from_exponents(0.5, 2.0, 2.0, 2.0)
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
