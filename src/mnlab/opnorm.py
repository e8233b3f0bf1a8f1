"""Bracketing the operator norm sup ||T A||_{L^{r,s}} / ||A||_{l^{p,q}}.

The true value is squeezed between the best certified extremizer lower bound
and the growth-bound upper bound; a multi-start gradient ascent over the 2MN
real parameters of A reports the best ratio it can actually reach.  The
searched value is a lower bound for the sup by construction and is never
claimed exact.

The ascent uses the closed-form (adjoint) gradient of f(A) = L(TA) / P(A),
with L the grid L^{r,s} norm and P the l^{p,q} norm:

    grad f = (T*(dL/d|S| * S/|S|) - f * dP/d|A| * A/|A|) / P(A),

where S = TA is the zero-padded inverse FFT of A and the adjoint T* is the
forward FFT cropped to the first M x N frequencies (`trigsum.synthesize` and
`synthesize_adjoint`, both pruned).  Each line-search trial costs one
synthesis and one evaluation, which keeps its samples and both mixed norms
with their inner reductions (`norms.MixedNorm`); the accepted trial's record
feeds the next gradient, which then costs the two dual weights, the two
phases and one adjoint.  `estimate` checks its grid once, as an EvalPlan
that holds the matrix, before it builds any start.  Each start is checked
once, as a CoefficientMatrix evaluated on that plan; the trials run on raw
arrays and only check that the value is defined and finite.  Infinite
exponents take the one-hot subgradient at the first argmax, and zero
entries get weight 0, which is what central differences give there.

Depending on the exponents and the size, the unit, ones, column and row warm
starts can be exact critical points of f, where the gradient vanishes to
roundoff (for example the unit start whenever r and s are finite).  Where
its norm is at most SADDLE_TOL the ascent tries a fixed, seed-independent
direction instead, less its components along A and iA, which never change f.
Each step's length comes from the line search, whose rule `_line_search`'s
docstring states.  A restart stops when no length on its ladder improves or
after max_iters steps.  Since only strict improvements are accepted, a
start that is a local maximum stays put.

The search stops once the bracket closes: with target = upper / (1 +
3*GRID_TOL), the sandwich check's own slack, an ascent stops before its
next gradient once its value reaches the target, and `estimate` visits no
start after the first that does.  Where the bound is attained at the unit
start (l^1 -> L^inf, l^2 -> L^2, every 1 x 1 matrix) the whole search is one
evaluation.

Every estimate emits a BoundReport, whose JSON document is its fields
(`to_json_dict`); batches also serialize to an aggregate CSV whose frozen
column order is CSV_COLUMNS.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .exponents import MixedExponents, check_dimensions, phi, theta, upper_bound_magnitude
from .extremizers import KINDS, build, certified_lower_bound
# lpq_norm and lrs_norm are unused here but stay bound: perfbench's tracer rebinds them in this module.
from .norms import CoefficientMatrix, JsonReport, MixedNorm, lpq_norm, lrs_norm  # noqa: F401
from .trigsum import EvalPlan, default_grid, eval_sum, synthesize, synthesize_adjoint

# Relative tolerance attributed to grid quadrature when comparing searched
# values against certified bounds; the sandwich checks allow 3x this slack.
GRID_TOL = 1e-4

# Gradient norm (at unit Frobenius norm of A) below which an iterate counts as
# a critical point; roundoff leaves about 1e-16 at the critical warm starts.
SADDLE_TOL = 1e-10

# The line search's ladder of lengths FIRST_STEP / 2^k >= STEP_TOL.  A start's
# first step tries FIRST_STEP, each later one twice the last accepted length;
# a start stops when no length on the ladder improves.
FIRST_STEP = 0.25
STEP_TOL = 1e-9

CSV_COLUMNS = [
    "M", "N", "alpha", "beta", "gamma", "delta", "theta", "phi_or_blank",
    "upper", "lower", "searched", "ratio_lower", "ratio_searched",
]


@dataclass(frozen=True)
class SearchConfig:
    """Multi-start ascent configuration; identical configs give identical reports.

    `grid` fixes the quadrature grid (Kx, Ky) for the objective, any pair
    the caller gives, stored as the checked EvalPlan; None selects
    `default_grid`, at least 16 per side.
    """

    restarts: int = 8
    max_iters: int = 60
    seed: int = 0
    grid: "EvalPlan | None" = None

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.grid is not None:
            object.__setattr__(self, "grid", EvalPlan(*self.grid))


@dataclass(frozen=True)
class BoundReport(JsonReport):
    """One (M, N, exponents) point: lower bounds, searched value, upper bound.

    `lower_extremizer` is the best certified lower bound over the KINDS rows
    with factors (unit entry, ones, column and row — never the chirp, whose
    bound is asymptotic only) and `lower_kind` names which one achieved it,
    the first in table order on a tie.  The sandwich
    lower <= searched <= upper is checked with (1 + 3*GRID_TOL) slack;
    `searched_below_lower` flags a search that failed to reach the certified
    floor.
    """

    M: int
    N: int
    exponents: MixedExponents
    theta: float
    phi: "float | None"
    upper: float
    lower_extremizer: float
    lower_kind: str
    searched: float
    ratio_lower: float
    ratio_searched: float
    grid: EvalPlan
    sandwich_ok: bool
    searched_below_lower: bool

    def to_csv_row(self) -> list[str]:
        a, b, g, d = self.exponents.as_tuple()
        return [
            str(self.M), str(self.N), repr(a), repr(b), repr(g), repr(d),
            repr(self.theta), "" if self.phi is None else repr(self.phi),
            repr(self.upper), repr(self.lower_extremizer), repr(self.searched),
            repr(self.ratio_lower), repr(self.ratio_searched),
        ]


def objective(A: CoefficientMatrix, e: MixedExponents, plan: EvalPlan) -> float:
    """||T A||_{L^{r,s}} on the plan's grid over ||A||_{l^{p,q}}: the ascent's value at A."""
    return _evaluate(A.entries, eval_sum(A, plan).samples, e).value


class _Trial(NamedTuple):
    """The objective at `entries`, whose synthesis is `samples`, and the two norms behind it.

    The gradient at this point reuses the reductions kept in `lpq` (of
    |entries|) and `lrs` (of |samples|).
    """

    entries: np.ndarray
    samples: np.ndarray
    value: float
    lpq: MixedNorm
    lrs: MixedNorm


def _evaluate(entries: np.ndarray, samples: np.ndarray, e: MixedExponents) -> _Trial:
    """||samples||_{L^{r,s}} / ||entries||_{l^{p,q}}; raises unless it is defined and finite.

    A non-finite entry or sample makes the ratio non-finite, so the one
    scalar check stands for scans of both arrays.
    """
    lpq = MixedNorm.of(np.abs(entries), e.alpha, e.beta, mean=False)
    if lpq.value == 0.0:
        raise ValueError("objective undefined for the zero matrix")
    lrs = MixedNorm.of(np.abs(samples), e.gamma, e.delta, mean=True)
    value = lrs.value / lpq.value
    if not math.isfinite(value):
        raise ValueError(f"objective is not finite: {value!r}")
    return _Trial(entries, samples, value, lpq, lrs)


# ----------------------------------------------------------------------------
# Ascent
# ----------------------------------------------------------------------------


def _phase(z: np.ndarray, modulus: np.ndarray) -> np.ndarray:
    """z / |z|, and 0 where z = 0, given modulus = |z|."""
    return np.divide(z, modulus, out=np.zeros_like(z), where=modulus > 0.0)


def _adjoint_gradient(trial: _Trial) -> np.ndarray:
    """Gradient of the objective at the trial's entries, as d/dRe + i d/dIm of its 2MN real parameters."""
    M, N = trial.entries.shape
    lrs, lpq = trial.lrs, trial.lpq
    pulled_back = synthesize_adjoint(lrs.gradient() * _phase(trial.samples, lrs.a), M, N)
    return (pulled_back - trial.value * lpq.gradient() * _phase(trial.entries, lpq.a)) / lpq.value


def _escape_direction(entries: np.ndarray) -> np.ndarray:
    """The fixed direction tried at a critical point; it does not depend on any seed.

    Its components along `entries` (of unit Frobenius norm) and i * `entries`
    are removed: the objective is invariant under scaling and a global phase,
    so those never change it.  For a 1 x 1 matrix nothing is left, and the
    ascent stops.
    """
    parts = np.random.default_rng(0).standard_normal((*entries.shape, 2))
    direction = parts[:, :, 0] + 1j * parts[:, :, 1]
    return direction - np.vdot(entries, direction) * entries


def _ascend(
    start: np.ndarray, e: MixedExponents, plan: EvalPlan, cfg: SearchConfig, target: float = math.inf
) -> tuple[float, list[float]]:
    """Backtracking gradient ascent from one start; returns (best value, history).

    The history of accepted objective values is non-decreasing by
    construction.  The iterate stays normalized (the objective is
    scale-invariant), and a restart stops when no step of at least STEP_TOL
    improves the value, or before the next gradient once the value reaches
    `target`.  The start is checked once, by eval_sum on `plan`; the trials
    run on raw arrays, and each gradient reuses the accepted trial's norms.
    """
    entries = start / np.linalg.norm(start)
    samples = eval_sum(CoefficientMatrix(*entries.shape, entries), plan).samples
    current = _evaluate(entries, samples, e)
    history = [current.value]
    last = FIRST_STEP / 2.0  # so that the first step tries FIRST_STEP
    for _ in range(cfg.max_iters):
        if current.value >= target:
            break
        grad = _adjoint_gradient(current)
        norm = float(np.linalg.norm(grad))
        if norm <= SADDLE_TOL:
            grad = _escape_direction(current.entries)
            norm = float(np.linalg.norm(grad))
            if norm <= SADDLE_TOL:
                break
        accepted = _line_search(current, grad / norm, e, plan, last)
        if accepted is None:
            break
        current, last = accepted
        history.append(current.value)
    return current.value, history


def _ladder(top: float) -> Iterator[float]:
    """The line search's steps from `top` down by halves, while at least STEP_TOL."""
    while top >= STEP_TOL:
        yield top
        top /= 2.0


def _line_search(
    current: _Trial, direction: np.ndarray, e: MixedExponents, plan: EvalPlan, last: float
) -> "tuple[_Trial, float] | None":
    """An improving trial along `direction` and its step, or None if no step on the ladder improves.

    The first trial is at twice the last accepted step (at most FIRST_STEP).
    If it improves, the step doubles while the longer step still improves;
    if not, it halves until a trial improves, and only if none down to
    STEP_TOL does are the untried longer steps tried, top down.  So it
    returns None exactly when no step on the ladder improves, and wherever
    the improving steps form an interval it accepts the longest one, as a
    top-down search from FIRST_STEP does.
    """
    def improves(step: float) -> "_Trial | None":
        entries = current.entries + step * direction
        entries /= np.linalg.norm(entries)
        trial = _evaluate(entries, synthesize(entries, *plan), e)
        return trial if trial.value > current.value else None

    first = min(FIRST_STEP, 2.0 * last)
    best = improves(first)
    if best is not None:
        step = first
        while step < FIRST_STEP and (longer := improves(2.0 * step)) is not None:
            best, step = longer, 2.0 * step
        return best, step
    longer_steps = itertools.takewhile(lambda step: step > first, _ladder(FIRST_STEP))
    for step in itertools.chain(_ladder(first / 2.0), longer_steps):
        if (trial := improves(step)) is not None:
            return trial, step
    return None


def _start_matrices(M: int, N: int, cfg: SearchConfig) -> Iterator[np.ndarray]:
    """Warm starts at the five extremizer kinds in table order, then seeded random starts.

    Each start is built only when the search reaches it.
    """
    for kind in KINDS:
        yield build(kind(), M, N).entries
    for child in np.random.SeedSequence(cfg.seed).spawn(cfg.restarts):
        rng = np.random.default_rng(child)
        yield rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N))


def estimate(M: int, N: int, e: MixedExponents, cfg: SearchConfig = SearchConfig()) -> BoundReport:
    """Bracket the operator norm at one point and search for its value.

    Runs ascents from the extremizer warm starts plus cfg.restarts random
    starts (deterministically spawned from cfg.seed), in that order, and
    reduces to the best value, so reports are reproducible bit-for-bit.
    The search stops after the first start whose value reaches
    upper / (1 + 3*GRID_TOL): no start can exceed the proven bound by more
    than the sandwich check's slack, so the bracket is closed.
    """
    M, N = check_dimensions(M, N)
    grid = cfg.grid or default_grid(M, N, floor=16)
    grid.check_holds(M, N)  # before any start is built
    upper = upper_bound_magnitude(M, N, e)
    slack = 1.0 + 3.0 * GRID_TOL
    target = upper / slack
    searched = -math.inf
    for start in _start_matrices(M, N, cfg):
        searched = max(searched, _ascend(start, e, grid, cfg, target)[0])
        if searched >= target:
            break

    # Every KINDS row with factors is certified, the unit at exactly 1.0; on ties the first row wins.
    lower_kind, lower = max(((name, certified_lower_bound(kind(), M, N, e))
                             for kind, (name, factors) in KINDS.items() if factors), key=lambda item: item[1])

    sandwich_ok = lower <= searched * slack and searched <= upper * slack
    return BoundReport(
        M=M,
        N=N,
        exponents=e,
        theta=theta(e),
        phi=phi(e),
        upper=upper,
        lower_extremizer=lower,
        lower_kind=lower_kind,
        searched=searched,
        ratio_lower=lower / upper,
        ratio_searched=searched / upper,
        grid=grid,
        sandwich_ok=sandwich_ok,
        searched_below_lower=searched < lower,
    )


# ----------------------------------------------------------------------------
# Sweeps and serialization
# ----------------------------------------------------------------------------


def sharpness_sweep(
    M_list: Sequence[int],
    N_list: Sequence[int],
    e_list: Sequence[MixedExponents],
    cfg: SearchConfig = SearchConfig(),
) -> list[BoundReport]:
    """Estimate along the (M, N) ladder (zipped) for every exponent tuple."""
    if len(M_list) != len(N_list):
        raise ValueError("M_list and N_list must pair up rung for rung")
    return [
        estimate(M, N, e, cfg)
        for e in e_list
        for M, N in zip(M_list, N_list)
    ]


def write_reports_csv(path: "str | Path", reports: Iterable[BoundReport]) -> None:
    """Write the reports to `path` as CSV: a CSV_COLUMNS header, then one row per report."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for report in reports:
            writer.writerow(report.to_csv_row())
