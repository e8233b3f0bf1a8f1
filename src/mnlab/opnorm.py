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
synthesis, and the accepted trial's samples feed the next gradient, which
then costs one adjoint.  Each start is validated once, as a CoefficientMatrix
on a grid that holds its frequencies; the trials run on raw arrays and only
check that the value is defined and finite.  Infinite exponents take the
one-hot subgradient at the first argmax, and zero entries get weight 0,
which is what central differences give there.

Depending on the exponents and the size, the unit, ones, column and row warm
starts can be exact critical points of f, where the gradient vanishes to
roundoff (for example the unit start whenever r and s are finite).  Where
its norm is at most SADDLE_TOL the ascent tries a fixed, seed-independent
direction instead, less its components along A and iA, which never change f.
The line search is fixed: each step first tries length 0.25 along the unit
gradient and halves it until the value strictly improves; a restart stops
when the step falls below 1e-9 or after max_iters steps.  Since only strict
improvements are accepted, a start that is a local maximum stays put.

Every estimate emits a BoundReport; batches serialize to JSON lines and an
aggregate CSV with the frozen column order
M,N,alpha,beta,gamma,delta,theta,phi_or_blank,upper,lower,searched,ratio_lower,ratio_searched.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .exponents import MixedExponents, check_dimensions, phi, theta, upper_bound_magnitude
from .extremizers import KINDS, ColumnC, OnesD, RowR, UnitE, build, certified_lower_bound, kind_name
# lpq_norm and lrs_norm are unused here but stay bound: perfbench's tracer rebinds them in this module.
from .norms import CoefficientMatrix, JsonReport, lpq_norm, lrs_norm, mixed_norm, mixed_norm_gradient  # noqa: F401
from .trigsum import EvalPlan, default_grid, eval_sum, synthesize, synthesize_adjoint

__all__ = [
    "GRID_TOL",
    "SearchConfig",
    "BoundReport",
    "objective",
    "estimate",
    "sharpness_sweep",
    "ladder_diagnostics",
    "write_reports_jsonl",
    "write_reports_csv",
    "CSV_COLUMNS",
]

# Relative tolerance attributed to grid quadrature when comparing searched
# values against certified bounds; the sandwich checks allow 3x this slack.
GRID_TOL = 1e-4

# Gradient norm (at unit Frobenius norm of A) below which an iterate counts as
# a critical point; roundoff leaves about 1e-16 at the critical warm starts.
SADDLE_TOL = 1e-10

# The fixed line search: each step tries FIRST_STEP, halving it; a start stops below STEP_TOL.
FIRST_STEP = 0.25
STEP_TOL = 1e-9

CSV_COLUMNS = [
    "M", "N", "alpha", "beta", "gamma", "delta", "theta", "phi_or_blank",
    "upper", "lower", "searched", "ratio_lower", "ratio_searched",
]


@dataclass(frozen=True)
class SearchConfig:
    """Multi-start ascent configuration; identical configs give identical reports.

    `grid` fixes the quadrature grid (Kx, Ky) for the objective; None selects
    8x oversampling of the matrix dimensions, at least 16 per side.
    """

    restarts: int = 8
    max_iters: int = 60
    seed: int = 0
    grid: "tuple[int, int] | None" = None

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True)
class BoundReport(JsonReport):
    """One (M, N, exponents) point: lower bounds, searched value, upper bound.

    `lower_extremizer` is the best certified lower bound (unit entry, column,
    row or ones — never the chirp, whose bound is asymptotic only) and
    `lower_kind` names which one achieved it.  The sandwich
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
    grid: tuple[int, int]
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


def objective(A: CoefficientMatrix, e: MixedExponents, grid: tuple[int, int]) -> float:
    """||T A||_{L^{r,s}} on the grid divided by ||A||_{l^{p,q}}: the ascent's value at A."""
    return _ratio(A.entries, eval_sum(A, EvalPlan(*grid)).samples, e)


def _ratio(entries: np.ndarray, samples: np.ndarray, e: MixedExponents) -> float:
    """||samples||_{L^{r,s}} / ||entries||_{l^{p,q}}; raises unless it is defined and finite.

    A non-finite entry or sample makes the ratio non-finite, so the one
    scalar check stands for scans of both arrays.
    """
    denom = mixed_norm(np.abs(entries), e.alpha, e.beta, mean=False)
    if denom == 0.0:
        raise ValueError("objective undefined for the zero matrix")
    value = mixed_norm(np.abs(samples), e.gamma, e.delta, mean=True) / denom
    if not math.isfinite(value):
        raise ValueError(f"objective is not finite: {value!r}")
    return value


# ----------------------------------------------------------------------------
# Ascent
# ----------------------------------------------------------------------------


def _phase(z: np.ndarray) -> np.ndarray:
    """z / |z|, and 0 where z = 0."""
    modulus = np.abs(z)
    return np.divide(z, modulus, out=np.zeros_like(z), where=modulus > 0.0)


def _adjoint_gradient(entries: np.ndarray, samples: np.ndarray, e: MixedExponents) -> np.ndarray:
    """Gradient of the objective in the 2MN real parameters of A, as d/dRe + i d/dIm.

    `samples` is the synthesis of `entries` on the objective's grid.
    """
    M, N = entries.shape
    lrs, lrs_weights = mixed_norm_gradient(np.abs(samples), e.gamma, e.delta, mean=True)
    lpq, lpq_weights = mixed_norm_gradient(np.abs(entries), e.alpha, e.beta, mean=False)
    pulled_back = synthesize_adjoint(lrs_weights * _phase(samples), M, N)
    return (pulled_back - (lrs / lpq) * lpq_weights * _phase(entries)) / lpq


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
    start: np.ndarray, e: MixedExponents, grid: tuple[int, int], cfg: SearchConfig
) -> tuple[float, list[float]]:
    """Backtracking gradient ascent from one start; returns (best value, history).

    The history of accepted objective values is non-decreasing by
    construction.  The iterate stays normalized (the objective is
    scale-invariant), and a restart stops when no step of at least STEP_TOL
    improves the value.  The start is checked once, by eval_sum; the trials
    run on raw arrays.
    """
    entries = start / np.linalg.norm(start)
    samples = eval_sum(CoefficientMatrix(*entries.shape, entries), EvalPlan(*grid)).samples
    value = _ratio(entries, samples, e)
    history = [value]
    for _ in range(cfg.max_iters):
        grad = _adjoint_gradient(entries, samples, e)
        norm = float(np.linalg.norm(grad))
        if norm <= SADDLE_TOL:
            grad = _escape_direction(entries)
            norm = float(np.linalg.norm(grad))
            if norm <= SADDLE_TOL:
                break
        direction = grad / norm
        step = FIRST_STEP
        accepted = False
        while step >= STEP_TOL:
            trial = entries + step * direction
            trial /= np.linalg.norm(trial)
            trial_samples = synthesize(trial, *grid)
            trial_value = _ratio(trial, trial_samples, e)
            if trial_value > value:
                entries, value, samples = trial, trial_value, trial_samples
                history.append(value)
                accepted = True
                break
            step /= 2.0
        if not accepted:
            break
    return value, history


def _start_matrices(M: int, N: int, cfg: SearchConfig) -> list[np.ndarray]:
    """Warm starts at the five extremizer kinds in table order, then seeded random starts."""
    starts = [build(kind(), M, N).entries for kind in KINDS]
    for child in np.random.SeedSequence(cfg.seed).spawn(cfg.restarts):
        rng = np.random.default_rng(child)
        starts.append(rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N)))
    return starts


def estimate(M: int, N: int, e: MixedExponents, cfg: SearchConfig = SearchConfig()) -> BoundReport:
    """Bracket the operator norm at one point and search for its value.

    Runs ascents from the extremizer warm starts plus cfg.restarts random
    starts (deterministically spawned from cfg.seed) and reduces to the best
    value in start order, so reports are reproducible bit-for-bit.
    """
    M, N = check_dimensions(M, N)
    grid = cfg.grid if cfg.grid is not None else default_grid(M, N, floor=16)
    searched = max(_ascend(start, e, grid, cfg)[0] for start in _start_matrices(M, N, cfg))

    # The single entry's ratio is exactly one.  On ties the first candidate wins.
    candidates = [(kind_name(UnitE()), 1.0)] + [
        (kind_name(kind), certified_lower_bound(kind, M, N, e)) for kind in (ColumnC(), RowR(), OnesD())
    ]
    lower_kind, lower = max(candidates, key=lambda item: item[1])

    upper = upper_bound_magnitude(M, N, e)
    slack = 1.0 + 3.0 * GRID_TOL
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


def ladder_diagnostics(reports: Iterable[BoundReport]) -> dict:
    """Per-exponent stabilization of ratio_searched along the size ladder.

    For each exponent tuple, collects ratio_searched in rung order and
    measures the relative drift (max/min - 1) over the top three rungs;
    drift at or below 20% counts as stable, supporting a size-independent
    ratio on that tuple.
    """
    by_exponents: dict[tuple, list[BoundReport]] = {}
    for report in reports:
        by_exponents.setdefault(report.exponents.as_tuple(), []).append(report)
    out = {}
    for key, group in by_exponents.items():
        ratios = [r.ratio_searched for r in group]
        top = ratios[-3:]
        drift = max(top) / min(top) - 1.0 if min(top) > 0 else float("inf")
        out[key] = {
            "sizes": [(r.M, r.N) for r in group],
            "ratio_searched": ratios,
            "top_drift": drift,
            "stable": drift <= 0.2,
        }
    return out


def write_reports_jsonl(path: "str | Path", reports: Iterable[BoundReport]) -> None:
    with open(path, "w") as handle:
        for report in reports:
            handle.write(json.dumps(report.to_json_dict(), sort_keys=True) + "\n")


def write_reports_csv(path: "str | Path", reports: Iterable[BoundReport]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for report in reports:
            writer.writerow(report.to_csv_row())
