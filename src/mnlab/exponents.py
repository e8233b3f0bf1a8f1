"""Exponent quadruples on the unit hypercube and the piecewise bound exponent.

Lebesgue exponents (p, q, r, s) in [1, inf] are stored as their reciprocals
(alpha, beta, gamma, delta) in [0, 1], with 0 standing for an infinite
exponent.  The parameter space is then the compact box Q = [0, 1]^4 and every
formula below is plain arithmetic on reciprocals.

The central object is the piecewise-linear exponent theta(alpha, beta, gamma,
delta) in [1/2, 1] that governs the growth bound

    ||S_{M,N}||_{L^{r,s}}  <=  (M N)^theta / (M^alpha N^beta) * ||A||_{l^{p,q}}

for the truncated double trigonometric sum with coefficient matrix A.  Five
closed regions cover Q; on overlaps the branch values agree, which `classify`
exposes for testing.  `phi` is the restriction of theta to the region where
the bound is known to give the exact growth order (it matches theta wherever
it is defined and is None elsewhere).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "Branch",
    "CoverageError",
    "MixedExponents",
    "RegionLabel",
    "check_dimensions",
    "classify",
    "phi",
    "theta",
    "upper_bound_magnitude",
    "PHI_EQUALITY_TOL",
]

# Tolerance for the equality constraints that carve out the measure-zero
# slices of phi's domain (alpha + delta = 1, alpha = beta, ...).
PHI_EQUALITY_TOL = 1e-12


class CoverageError(Exception):
    """No branch of the piecewise exponent matched a point of Q.

    The five closed regions are expected to cover the whole hypercube; this
    exception existing (and never firing) is the detector for that claim.
    """


class Branch(Enum):
    """The five branches of theta, in fixed precedence order."""

    HALF = "half"
    ALPHA = "alpha"
    BETA = "beta"
    ONE_MINUS_GAMMA = "one_minus_gamma"
    ONE_MINUS_DELTA = "one_minus_delta"


@dataclass(frozen=True)
class MixedExponents:
    """A point (alpha, beta, gamma, delta) = (1/p, 1/q, 1/r, 1/s) of Q.

    alpha, beta are the reciprocals of the discrete-norm exponents (p inner
    over the row index, q outer over the column index); gamma, delta are the
    reciprocals of the integral-norm exponents (r in x, s in y).  Each lies
    in [0, 1]; the value 0 encodes an infinite exponent.
    """

    alpha: float
    beta: float
    gamma: float
    delta: float

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma", "delta"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ValueError(f"{name} must be a finite number, got {v!r}")
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
            object.__setattr__(self, name, float(v))

    @classmethod
    def from_exponents(cls, p: float, q: float, r: float, s: float) -> "MixedExponents":
        """Build from Lebesgue exponents in [1, inf] (math.inf allowed)."""
        return cls(_reciprocal(p, "p"), _reciprocal(q, "q"),
                   _reciprocal(r, "r"), _reciprocal(s, "s"))

    # Round-trip view: p = 1/alpha for alpha > 0, p = inf for alpha = 0.
    @property
    def p(self) -> float:
        return math.inf if self.alpha == 0.0 else 1.0 / self.alpha

    @property
    def q(self) -> float:
        return math.inf if self.beta == 0.0 else 1.0 / self.beta

    @property
    def r(self) -> float:
        return math.inf if self.gamma == 0.0 else 1.0 / self.gamma

    @property
    def s(self) -> float:
        return math.inf if self.delta == 0.0 else 1.0 / self.delta

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.alpha, self.beta, self.gamma, self.delta)


def _reciprocal(exponent: float, name: str) -> float:
    if exponent != exponent:  # NaN
        raise ValueError(f"{name} must be a number in [1, inf], got {exponent!r}")
    if exponent == math.inf:
        return 0.0
    if exponent < 1.0:
        raise ValueError(f"{name} must lie in [1, inf], got {exponent}")
    return 1.0 / float(exponent)


@dataclass(frozen=True)
class RegionLabel:
    """Which branches of theta hold at a point.

    `branch` is the first matching branch in the fixed order HALF, ALPHA,
    BETA, ONE_MINUS_GAMMA, ONE_MINUS_DELTA; `all_matching` lists every branch
    whose closed constraints hold.  Well-definedness (all matching branches
    produce the same theta value) is a tested invariant, not assumed here.
    """

    branch: Branch
    all_matching: tuple[Branch, ...]


def _branch_holds(b: Branch, e: MixedExponents) -> bool:
    a, be, g, d = e.alpha, e.beta, e.gamma, e.delta
    if b is Branch.HALF:
        return a <= 0.5 and be <= 0.5 and g >= 0.5 and d >= 0.5
    if b is Branch.ALPHA:
        return a >= 0.5 and a >= be and a + g >= 1.0 and a + d >= 1.0
    if b is Branch.BETA:
        return be >= 0.5 and be >= a and be + g >= 1.0 and be + d >= 1.0
    if b is Branch.ONE_MINUS_GAMMA:
        return g <= 0.5 and g <= d and a + g <= 1.0 and be + g <= 1.0
    if b is Branch.ONE_MINUS_DELTA:
        return d <= 0.5 and d <= g and a + d <= 1.0 and be + d <= 1.0
    raise AssertionError(f"unknown branch {b!r}")


def _branch_value(b: Branch, e: MixedExponents) -> float:
    if b is Branch.HALF:
        return 0.5
    if b is Branch.ALPHA:
        return e.alpha
    if b is Branch.BETA:
        return e.beta
    if b is Branch.ONE_MINUS_GAMMA:
        return 1.0 - e.gamma
    if b is Branch.ONE_MINUS_DELTA:
        return 1.0 - e.delta
    raise AssertionError(f"unknown branch {b!r}")


def classify(e: MixedExponents) -> RegionLabel:
    """Classify a point of Q into the theta branches that hold there.

    All branch conditions are closed (<=, >=), so boundary points belong to
    every adjacent region.  Raises CoverageError if no branch matches, which
    would falsify the tested coverage invariant.
    """
    matching = tuple(b for b in Branch if _branch_holds(b, e))
    if not matching:
        raise CoverageError(f"no branch covers {e.as_tuple()}")
    return RegionLabel(branch=matching[0], all_matching=matching)


def theta(e: MixedExponents) -> float:
    """The piecewise-linear bound exponent, a value in [1/2, 1].

    Branch values: 1/2 on the central region (alpha, beta <= 1/2 <= gamma,
    delta); alpha where alpha dominates (alpha >= 1/2, alpha >= beta,
    alpha + gamma >= 1, alpha + delta >= 1); symmetrically beta; 1 - gamma
    where gamma is small (gamma <= 1/2, gamma <= delta, alpha + gamma <= 1,
    beta + gamma <= 1); symmetrically 1 - delta.  When several branches
    match, their values agree (tested) and the first is returned.
    """
    return _branch_value(classify(e).branch, e)


def phi(e: MixedExponents) -> float | None:
    """The exact growth-order exponent where known; None outside its domain.

    phi restricts theta to five sub-regions: the central region; the alpha
    branch narrowed to the slice alpha + delta = 1; the diagonal branch
    sqrt(alpha * beta) with alpha = beta (both at least 1/2, alpha + gamma
    and alpha + delta at least 1); the beta branch narrowed to the slice
    beta + gamma = 1; and the diagonal sqrt((1-gamma)(1-delta)) with
    gamma = delta (at most 1/2, alpha + gamma <= 1, beta + delta <= 1).
    Equality constraints are tested with tolerance PHI_EQUALITY_TOL.
    Wherever defined, phi equals theta.
    """
    a, b, g, d = e.alpha, e.beta, e.gamma, e.delta
    tol = PHI_EQUALITY_TOL
    if a <= 0.5 and b <= 0.5 and g >= 0.5 and d >= 0.5:
        return 0.5
    if a >= 0.5 and a >= b and a + g >= 1.0 and abs(a + d - 1.0) <= tol:
        return a
    if a >= 0.5 and abs(a - b) <= tol and a + g >= 1.0 and a + d >= 1.0:
        return math.sqrt(a * b)
    if b >= 0.5 and b >= a and abs(b + g - 1.0) <= tol and b + d >= 1.0:
        return b
    if g <= 0.5 and abs(g - d) <= tol and a + g <= 1.0 and b + d <= 1.0:
        return math.sqrt((1.0 - g) * (1.0 - d))
    return None


def check_dimensions(M: int, N: int) -> tuple[int, int]:
    """The one rule for matrix sizes: (M, N) as Python ints if both are positive integers."""
    try:
        sizes = (operator.index(M), operator.index(N))
    except TypeError:  # not integers, e.g. 2.0
        sizes = (0, 0)
    if min(sizes) < 1:
        raise ValueError(f"dimensions must be positive, got M={M}, N={N}")
    return sizes


def upper_bound_magnitude(M: int, N: int, e: MixedExponents) -> float:
    """The bound constant (M N)^theta / (M^alpha N^beta).

    This is the factor multiplying ||A||_{l^{p,q}} in the growth estimate;
    equivalently M^(theta - alpha) * N^(theta - beta).
    """
    check_dimensions(M, N)
    t = theta(e)
    return float(M) ** (t - e.alpha) * float(N) ** (t - e.beta)
