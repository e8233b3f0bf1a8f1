"""Exponent quadruples on the unit hypercube and the piecewise bound exponent.

Lebesgue exponents (p, q, r, s) in [1, inf] are given and stored as their
reciprocals (alpha, beta, gamma, delta) in [0, 1], with 0 standing for an
infinite exponent.  The parameter space is then the compact box Q = [0, 1]^4
and every formula below is plain arithmetic on reciprocals.

The central object is the piecewise-linear exponent theta(alpha, beta, gamma,
delta) in [1/2, 1] that governs the growth bound

    ||S_{M,N}||_{L^{r,s}}  <=  (M N)^theta / (M^alpha N^beta) * ||A||_{l^{p,q}}

for the truncated double trigonometric sum with coefficient matrix A.  The
paper states theta branch by branch over five closed regions that cover Q;
each region is where its branch value is the largest of 1/2, alpha, beta,
1 - gamma and 1 - delta, so theta is that maximum.  `phi` is the
restriction of theta to the region where the bound is known to give the
exact growth order (it matches theta wherever it is defined and is None
elsewhere).
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from dataclasses import dataclass

# Tolerance for the equality constraints that carve out the measure-zero
# slices of phi's domain (alpha + delta = 1, alpha = beta, ...).
PHI_EQUALITY_TOL = 1e-12


@dataclass(frozen=True)
class MixedExponents:
    """A point (alpha, beta, gamma, delta) = (1/p, 1/q, 1/r, 1/s) of Q.

    alpha, beta are the reciprocals of the discrete-norm exponents (p inner
    over the row index, q outer over the column index); gamma, delta are the
    reciprocals of the integral-norm exponents (r in x, s in y).  Each lies
    in [0, 1]; the value 0 encodes an infinite exponent.  Any real number
    type is accepted (numpy scalars included) and stored as a float, zero
    always as +0.0; bool is not a number here.
    """

    alpha: float
    beta: float
    gamma: float
    delta: float

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma", "delta"):
            v = getattr(self, name)
            if isinstance(v, bool) or not (isinstance(v, numbers.Real) and math.isfinite(v)):
                raise ValueError(f"{name} must be a finite number, got {v!r}")
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
            object.__setattr__(self, name, float(v) + 0.0)  # + 0.0 stores -0.0 as 0.0

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.alpha, self.beta, self.gamma, self.delta)


def theta(e: MixedExponents) -> float:
    """The piecewise-linear bound exponent max(1/2, alpha, beta, 1 - gamma, 1 - delta).

    The paper's five branches (1/2 on the central region alpha, beta <= 1/2
    <= gamma, delta; alpha where alpha >= 1/2, alpha >= beta, alpha + gamma
    >= 1 and alpha + delta >= 1; symmetrically beta; 1 - gamma where gamma
    <= 1/2, gamma <= delta, alpha + gamma <= 1 and beta + gamma <= 1;
    symmetrically 1 - delta) are each the largest of these five values on
    their region.  Rounding is monotone and 1/2, alpha and beta are exact,
    so the result is the correctly rounded theta of the stored reciprocals.
    """
    return max(0.5, e.alpha, e.beta, 1.0 - e.gamma, 1.0 - e.delta)


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


def check_dimensions(*sizes: int, names: tuple[str, ...] = ("M", "N")) -> tuple[int, ...]:
    """The one rule for matrix and grid sizes: the sizes as Python ints if all are positive integers.

    Bools are not sizes, and neither is an integer too large for a float.
    `names` name the sizes in order in the message, e.g. ("Kx", "Ky") for a
    grid; a single size is "M".
    """
    try:
        ints = tuple(map(operator.index, sizes))
    except TypeError:  # not integers, e.g. 2.0
        ints = (0,)
    if min(ints) < 1 or any(isinstance(size, bool) for size in sizes):
        got = ", ".join(f"{n}={v!r}" if isinstance(v, str) else f"{n}={v}" for n, v in zip(names, sizes))
        raise ValueError(f"dimensions must be positive, got {got}")
    for name, size in zip(names, ints):
        if size > sys.float_info.max:
            raise ValueError(f"dimensions must fit in a float, got {name} of {size.bit_length()} bits")
    return ints


def upper_bound_magnitude(M: int, N: int, e: MixedExponents) -> float:
    """The bound constant (M N)^theta / (M^alpha N^beta).

    This is the factor multiplying ||A||_{l^{p,q}} in the growth estimate;
    equivalently M^(theta - alpha) * N^(theta - beta).
    """
    check_dimensions(M, N)
    t = theta(e)
    return float(M) ** (t - e.alpha) * float(N) ** (t - e.beta)
