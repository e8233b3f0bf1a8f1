"""Candidate extremizer matrices and their certified or measured lower bounds.

Five families of coefficient matrices come close to saturating the mixed-norm
growth bound in different exponent regions:

* the chirp matrix B with unimodular quadratic-phase entries, whose sum
  factorizes into two one-dimensional quadratic-phase sums;
* the column matrix C (ones in a single column), whose sum is a modulated
  Dirichlet kernel in x;
* the row matrix R (ones in a single row), the transpose picture;
* the all-ones matrix D, a Dirichlet kernel in each variable;
* the single-entry matrix E, whose sum has constant modulus — the exactly
  sharp case.

For C, R and D the kernel inequality sin(pi M x)/sin(pi x) >= sin(1) * M on
[0, 1/(pi M)] turns into closed-form lower bounds on the operator ratio with
explicit constants; those are certified (theorem-backed, checked pointwise,
no tolerance).  E's ratio is exactly one, the empty product of those
bounds.  For B the lower bound rests on the stationary-phase approximation
of the quadratic chirp sum, which this module measures rather than assumes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .exponents import MixedExponents, check_dimensions, upper_bound_magnitude
from .norms import CoefficientMatrix, JsonReport, lpq_norm, lrs_norm
from .trigsum import default_grid, eval_sum

SIN1 = math.sin(1.0)

# The checks' fixed sampling: the chirp's minimum is taken over CHIRP_POINTS
# equispaced points of [eta, 1 - eta] per axis, and the kernel inequality is
# checked at LOBE_SAMPLES interior points of each main lobe and at both ends.
CHIRP_POINTS = 33
LOBE_SAMPLES = 64

# ----------------------------------------------------------------------------
# Matrix constructions
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class ChirpB:
    """Unimodular quadratic-phase entries e^{-(pi/2) eta i ((j-1)^2/M + (k-1)^2/N)}."""

    eta: float = 0.2

    def __post_init__(self) -> None:
        if not 0.0 < self.eta < 1.0:
            raise ValueError(f"eta must lie in (0, 1), got {self.eta}")

    def window(self, points: int) -> np.ndarray:
        """`points` equispaced x across [eta, 1 - eta], where the chirp sum is sampled; it needs eta < 1/2."""
        if not self.eta < 0.5:
            raise ValueError(f"eta must lie in (0, 0.5) for a non-empty window, got {self.eta}")
        return np.linspace(self.eta, 1.0 - self.eta, points)


@dataclass(frozen=True)
class ColumnC:
    """A single column (1-based index) filled with one nonzero value."""

    col: int = 1
    value: complex = 1.0 + 0.0j


@dataclass(frozen=True)
class RowR:
    """A single row (1-based index) filled with one nonzero value."""

    row: int = 1
    value: complex = 1.0 + 0.0j


@dataclass(frozen=True)
class OnesD:
    """A constant matrix."""

    value: complex = 1.0 + 0.0j


@dataclass(frozen=True)
class UnitE:
    """A single nonzero entry at a 1-based position."""

    row: int = 1
    col: int = 1
    value: complex = 1.0 + 0.0j


ExtremizerKind = Union[ChirpB, ColumnC, RowR, OnesD, UnitE]

# Each kind's name and, except for the chirp, its (x, y) factors: "unit" puts
# the kind's value at its `row` (x, length M) or `col` (y, length N), "ones"
# fills the whole axis, along which the sum is a Dirichlet kernel.  The search
# takes its warm starts in this order.
KINDS = {
    UnitE: ("unit", ("unit", "unit")),
    OnesD: ("ones", ("ones", "ones")),
    ColumnC: ("column", ("ones", "unit")),
    RowR: ("row", ("unit", "ones")),
    ChirpB: ("chirp", None),
}


def kind_name(kind: ExtremizerKind) -> str:
    """The kind's name in `KINDS`, which its `ExtremalReport` carries as `kind`."""
    return KINDS[type(kind)][0]


def build(kind: ExtremizerKind, M: int, N: int) -> CoefficientMatrix:
    """Construct the literal extremizer matrix of the given kind and shape."""
    M, N = check_dimensions(M, N)
    if isinstance(kind, ChirpB):
        j = np.arange(M, dtype=np.float64)  # j-1 for 1-based j
        k = np.arange(N, dtype=np.float64)
        phase = (math.pi / 2.0) * kind.eta * (np.add.outer(j * j / M, k * k / N))
        return CoefficientMatrix(M=M, N=N, entries=np.exp(-1j * phase))
    if type(kind) not in KINDS:
        raise TypeError(f"unknown extremizer kind {kind!r}")
    index = []
    for factor, dim, attr, what in zip(KINDS[type(kind)][1], (M, N), ("row", "col"), ("row", "column")):
        if factor == "ones":
            index.append(slice(None))
            continue
        i = getattr(kind, attr)
        try:  # a 1-based position is a size no larger than its axis: not 1.5, and not a bool
            position = check_dimensions(i)[0]
        except ValueError:
            position = dim + 1
        if position > dim:
            raise ValueError(f"{what} index must lie in 1..{dim}, got {i}")
        index.append(position - 1)
    value = complex(kind.value)
    if value == 0:
        raise ValueError("entry value must be nonzero")
    entries = np.zeros((M, N), dtype=np.complex128)
    entries[tuple(index)] = value
    return CoefficientMatrix(M=M, N=N, entries=entries)


# ----------------------------------------------------------------------------
# Quadratic-phase (chirp) sums and their stationary-phase main term
# ----------------------------------------------------------------------------


def quadratic_phase_sum(M: int, eta: float, xs: "float | np.ndarray") -> "complex | np.ndarray":
    """sum_{m=0}^{M-1} e^{2 pi i m (x - (eta/4) m / M)} for a scalar x or each x of an array.

    Valid for any real x; phases are reduced mod 1 before exponentiation.
    Each x is summed on its own, so the working arrays hold M terms, not
    M per x; each sum is the same pairwise sum over M contiguous terms
    that one row of an (x, m) array would take, bit for bit.
    """
    M = check_dimensions(M)[0]
    m = np.arange(M, dtype=np.float64)
    quadratic = (eta / 4.0) * (m * m) / M
    sums = np.array([np.exp(2j * np.pi * np.mod(x * m - quadratic, 1.0)).sum() for x in np.ravel(xs)],
                    dtype=np.complex128).reshape(np.shape(xs))
    return complex(sums) if np.ndim(xs) == 0 else sums


def quadratic_phase_main_term(M: int, eta: float, x: float) -> complex:
    """The stationary-phase closed form sqrt(2/eta) e^{-i pi/4} e^{2 pi i M x^2/eta} sqrt(M).

    Its modulus is exactly sqrt(2 M / eta).  The phase of the chirp sum is
    stationary at m* = 2 M x / eta, which lies inside the summation range
    0..M-1 only when x < eta/2; the closed form describes the sum in that
    regime (measured by `chirp_residual_sweep`, not assumed).
    """
    phase = math.fmod(M * x * x / eta, 1.0)
    return (
        math.sqrt(2.0 / eta)
        * cmath.exp(-1j * math.pi / 4.0)
        * cmath.exp(2j * math.pi * phase)
        * math.sqrt(M)
    )


@dataclass(frozen=True)
class ChirpResidualReport(JsonReport):
    """Residual sweep of the chirp sum against its stationary-phase main term.

    `max_residuals[i]` is max over the x-sample of |sum - main term| at
    M = Ms[i]; `slope` is the least-squares slope of log(max residual)
    against log(M) — near zero when the main term captures the sum, near 1/2
    when it does not (the spurious main term itself grows like sqrt(M)).
    `amplitude_ratio` is max over the x-sample of |sum|/sqrt(M) at the
    largest M, to be compared with the predicted amplitude sqrt(2/eta).
    """

    eta: float
    Ms: tuple[int, ...]
    xs: tuple[float, ...]
    max_residuals: tuple[float, ...]
    slope: float
    amplitude_ratio: float
    predicted_amplitude: float
    kind: str = "chirp_residual"


def chirp_residual_sweep(
    eta: float, Ms: "list[int] | tuple[int, ...]", xs: "list[float] | tuple[float, ...]"
) -> ChirpResidualReport:
    """Measure |chirp sum - main term| over an (M, x) grid and fit its growth."""
    ChirpB(eta)  # the kind's own check of eta
    Ms = [check_dimensions(M)[0] for M in Ms]
    if len(set(Ms)) < 2:
        raise ValueError("need at least two distinct M values to fit a slope")
    xs_arr = np.asarray(xs, dtype=np.float64)
    if not np.all(np.isfinite(xs_arr)):
        raise ValueError(f"every x must be finite, got {list(xs)}")
    # The main term reduces M x^2 / eta mod 1; from 2^52 on a double has no fractional bits left.
    for x in xs_arr.tolist():
        if not max(Ms) * x * x / eta < 2.0**52:
            raise ValueError(f"x={x!r} is too large: M*x*x/eta reaches 2**52 at M={max(Ms)}")
    largest = max(Ms)
    max_residuals = []
    for M in Ms:
        sums = quadratic_phase_sum(M, eta, xs_arr)
        if M == largest:  # a repeated size gives the same bits each time
            largest_sums = sums
        mains = np.array([quadratic_phase_main_term(M, eta, float(x)) for x in xs_arr])
        max_residuals.append(float(np.max(np.abs(sums - mains))))
    slope = float(np.polyfit(np.log(np.asarray(Ms, dtype=float)), np.log(max_residuals), 1)[0])
    amp = float(np.max(np.abs(largest_sums))) / math.sqrt(largest)
    return ChirpResidualReport(
        eta=float(eta),
        Ms=tuple(Ms),
        xs=tuple(float(x) for x in xs_arr),
        max_residuals=tuple(max_residuals),
        slope=slope,
        amplitude_ratio=amp,
        predicted_amplitude=math.sqrt(2.0 / eta),
    )


@dataclass(frozen=True)
class ExtremalReport(JsonReport):
    """An extremizer's lower bound on the operator ratio against the growth bound.

    `ratio` is lower / upper.  The chirp report adds its `eta` and has no
    exponents.  The column, row and ones reports certify `lower` and add the
    `observed` grid measurement of the ratio, which sits above it up to
    quadrature error; their `ratio` is at most 1 by soundness of the growth
    bound.
    """

    kind: str
    M: int
    N: int
    exponents: "MixedExponents | None"
    lower: float
    upper: float
    ratio: float = field(init=False)
    eta: "float | None" = None
    observed: "float | None" = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "ratio", self.lower / self.upper)


def verify_chirp_lower(M: int, N: int, eta: float = 0.2) -> ExtremalReport:
    """Minimum of |T B| over a CHIRP_POINTS^2 grid on [eta, 1-eta]^2 against sqrt(M N).

    T B (x, y) splits into the product of one x-chirp sum of length M and one
    y-chirp sum of length N, so the grid minimum of the modulus is the
    product of the per-axis minima.  In the central exponent region (alpha,
    beta <= 1/2 <= gamma, delta) the growth bound constant is
    M^(1/2-alpha) N^(1/2-beta), so the ratio is exactly the observed
    constant relating the chirp lower bound to the upper bound there.
    Recorded, not asserted.
    """
    M, N = check_dimensions(M, N)
    xs = ChirpB(eta).window(CHIRP_POINTS)
    fx = np.abs(quadratic_phase_sum(M, eta, xs))
    fy = np.abs(quadratic_phase_sum(N, eta, xs))
    return ExtremalReport(kind=kind_name(ChirpB(eta)), M=M, N=N, exponents=None,
                          lower=float(fx.min() * fy.min()), upper=math.sqrt(M * N), eta=float(eta))


# ----------------------------------------------------------------------------
# Dirichlet-kernel lower bounds (certified)
# ----------------------------------------------------------------------------


def dirichlet_quotient(M: int, x: "float | np.ndarray") -> "float | np.ndarray":
    """sin(pi M x) / sin(pi x), with the removable singularity filled by its limit.

    At integer x both sine factors vanish and the quotient tends to M (times
    the sign (-1)^{x (M-1)}, which is +1 at x = 0); only the limit value M is
    relevant on [0, 1/(pi M)].
    """
    x_arr = np.asarray(x, dtype=np.float64)
    denom = np.sin(np.pi * x_arr)
    with np.errstate(divide="ignore", invalid="ignore"):
        quot = np.where(denom == 0.0, float(M), np.sin(np.pi * M * x_arr) / denom)
    if np.isscalar(x) or x_arr.ndim == 0:
        return float(quot)
    return quot


def _check_dirichlet_pointwise(dim: int) -> None:
    """Verify sin(pi*dim*x)/sin(pi*x) >= sin(1)*dim on [0, 1/(pi*dim)], both ends included."""
    pts = np.linspace(0.0, 1.0 / (math.pi * dim), LOBE_SAMPLES + 2)
    values = np.asarray(dirichlet_quotient(dim, pts))
    margins = values - SIN1 * dim
    if margins.min() < 0.0:
        bad = int(np.argmin(margins))
        raise AssertionError(
            f"Dirichlet kernel bound failed at x={pts[bad]!r} for size {dim}: "
            f"{values[bad]!r} < sin(1)*{dim} — implementation bug"
        )


def _dirichlet_axes(kind: ExtremizerKind, M: int, N: int, e: MixedExponents) -> list:
    """(length, r-reciprocal, p-reciprocal) per "ones" factor of a kind, x before y; the unit has none."""
    factors = KINDS.get(type(kind), (None, None))[1]
    if factors is None:
        raise TypeError(f"certified bounds exist for the kinds with factors in KINDS, got {kind!r}")
    return [axis for factor, axis in zip(factors, [(M, e.gamma, e.alpha), (N, e.delta, e.beta)])
            if factor == "ones"]


def certified_lower_bound(kind: "UnitE | ColumnC | RowR | OnesD", M: int, N: int, e: MixedExponents) -> float:
    """The closed-form main-lobe lower bound on ||T kind|| / ||kind||, for every KINDS row with factors.

    sin(1)/pi^(1/r) * M^(1 - 1/r - 1/p) for a column, sin(1)/pi^(1/s) *
    N^(1 - 1/s - 1/q) for a row, the product of both factors for the all-ones
    matrix: sin(1)^k / pi^(sum of the k r-reciprocals) times one factor
    per Dirichlet axis.  The single entry has no Dirichlet axis, so its
    bound is the empty product sin(1)^0 / pi^0, exactly 1.0; the chirp has
    no factors and raises TypeError.  Independent of the nonzero entry
    value, which cancels in the ratio.
    """
    axes = _dirichlet_axes(kind, *check_dimensions(M, N), e)
    bound = SIN1 ** len(axes) / math.pi ** sum(r for _, r, _ in axes)
    for dim, r, p in axes:
        bound *= float(dim) ** (1.0 - r - p)
    return bound


def verify_dirichlet_lower(kind: "ColumnC | RowR | OnesD", M: int, N: int, e: MixedExponents) -> ExtremalReport:
    """Check the kernel inequality pointwise, then certify the closed-form lower bound.

    The pointwise stage samples x in [0, 1/(pi M)] (and/or y in [0, 1/(pi N)]
    for the kinds extending in that direction) at LOBE_SAMPLES equispaced
    points plus both endpoints, comparing against sin(1) * dimension exactly
    — a failure raises, since the inequality is theorem-backed.  The
    certified ratio is then compared against the growth bound constant, and
    the observed ratio is measured on the default grid.  A kind with no
    ones axis (the single entry, the chirp) has nothing to check and raises
    TypeError.
    """
    M, N = check_dimensions(M, N)
    grid = default_grid(M, N)
    axes = _dirichlet_axes(kind, M, N, e)
    if not axes:
        raise TypeError(f"the kernel check needs a kind with a ones axis, got {kind!r}")
    for dim, _, _ in axes:
        _check_dirichlet_pointwise(dim)
    certified = certified_lower_bound(kind, M, N, e)
    upper = upper_bound_magnitude(M, N, e)
    if certified > upper * (1.0 + 1e-12):
        raise AssertionError(
            f"certified lower bound {certified!r} exceeds the growth bound {upper!r} "
            f"at M={M}, N={N}, exponents {e.as_tuple()} — implementation bug"
        )
    A = build(kind, M, N)
    observed = lrs_norm(eval_sum(A, grid), e) / lpq_norm(A, e)
    return ExtremalReport(kind=kind_name(kind), M=M, N=N, exponents=e, lower=certified, upper=upper,
                          observed=float(observed))


# ----------------------------------------------------------------------------
# The exactly sharp single-entry case
# ----------------------------------------------------------------------------


def unit_sharpness(kind: UnitE, M: int, N: int, e: MixedExponents) -> ExtremalReport:
    """Confirm that a single-entry matrix gives operator ratio exactly one.

    |T E| is constant (equal to the entry's modulus), so every grid L^{r,s}
    norm is exact regardless of resolution and the ratio is 1 up to roundoff
    for every exponent tuple and entry position.
    """
    grid = default_grid(M, N)
    A = build(kind, M, N)
    return ExtremalReport(kind=kind_name(kind), M=A.M, N=A.N, exponents=e,
                          lower=lrs_norm(eval_sum(A, grid), e), upper=lpq_norm(A, e))
