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
forward FFT cropped to the first M x N frequencies.  One gradient costs two
FFTs.  Infinite exponents take the one-hot subgradient at the first argmax,
and zero entries get weight 0, which is what central differences give there.

Depending on the exponents and the size, the unit, ones, column and row warm
starts can be exact critical points of f, where the gradient vanishes to
roundoff (for example the unit start whenever r and s are finite).  Where
its norm is at most SADDLE_TOL the ascent tries a fixed, seed-independent
direction instead, less its components along A and iA, which never change f.
The line search still accepts only strict improvements, so a start that is a
local maximum stays put.

Every estimate emits a BoundReport; batches serialize to JSON lines and an
aggregate CSV with the frozen column order
M,N,alpha,beta,gamma,delta,theta,phi_or_blank,upper,lower,searched,ratio_lower,ratio_searched.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .exponents import MixedExponents, phi, theta, upper_bound_magnitude
from .extremizers import KINDS, ColumnC, OnesD, RowR, UnitE, build, certified_lower_bound, kind_name
from .norms import CoefficientMatrix, JsonReport, lpq_norm, lrs_norm, mixed_norm_gradient
from .trigsum import EvalPlan, default_grid, eval_sum

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

CSV_COLUMNS = [
    "M", "N", "alpha", "beta", "gamma", "delta", "theta", "phi_or_blank",
    "upper", "lower", "searched", "ratio_lower", "ratio_searched",
]


@dataclass(frozen=True)
class SearchConfig:
    """Multi-start ascent configuration; identical configs give identical reports.

    `grid` fixes the quadrature grid (Kx, Ky) for the objective; None selects
    8x oversampling of the matrix dimensions, at least 16 per side.  `step`
    is the initial ascent step, halved on rejection down to `tol`, at which
    point the restart is considered stagnant.
    """

    restarts: int = 8
    max_iters: int = 60
    step: float = 0.25
    seed: int = 0
    grid: "tuple[int, int] | None" = None
    tol: float = 1e-9
    real_only: bool = False

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.step > 0 or not self.tol > 0:
            raise ValueError("step and tol must be positive")


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
    """||T A||_{L^{r,s}} on the grid divided by ||A||_{l^{p,q}}."""
    denom = lpq_norm(A, e)
    if denom == 0.0:
        raise ValueError("objective undefined for the zero matrix")
    return lrs_norm(eval_sum(A, EvalPlan(*grid)), e) / denom


# ----------------------------------------------------------------------------
# Ascent
# ----------------------------------------------------------------------------


def _phase(z: np.ndarray) -> np.ndarray:
    """z / |z|, and 0 where z = 0."""
    modulus = np.abs(z)
    return np.divide(z, modulus, out=np.zeros_like(z), where=modulus > 0.0)


def _adjoint_gradient(entries: np.ndarray, e: MixedExponents, grid: tuple[int, int]) -> np.ndarray:
    """Gradient of the objective in the 2MN real parameters of A, as d/dRe + i d/dIm."""
    M, N = entries.shape
    samples = eval_sum(CoefficientMatrix(M, N, entries), EvalPlan(*grid)).samples
    lrs, lrs_weights = mixed_norm_gradient(np.abs(samples), e.gamma, e.delta, mean=True)
    lpq, lpq_weights = mixed_norm_gradient(np.abs(entries), e.alpha, e.beta, mean=False)
    pulled_back = np.fft.fft2(lrs_weights * _phase(samples))[:M, :N]
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
    scale-invariant), and a restart stops when no step above cfg.tol improves
    the value.
    """
    entries = start / np.linalg.norm(start)
    value = objective(CoefficientMatrix(*entries.shape, entries), e, grid)
    history = [value]
    for _ in range(cfg.max_iters):
        grad = _adjoint_gradient(entries, e, grid)
        norm = float(np.linalg.norm(grad))
        if norm <= SADDLE_TOL:
            grad = _escape_direction(entries)
            norm = float(np.linalg.norm(grad))
            if norm <= SADDLE_TOL:
                break
        direction = grad / norm
        if cfg.real_only:
            direction = direction.real.astype(np.complex128)
        step = cfg.step
        accepted = False
        while step >= cfg.tol:
            trial = entries + step * direction
            trial /= np.linalg.norm(trial)
            trial_value = objective(CoefficientMatrix(*trial.shape, trial), e, grid)
            if trial_value > value:
                entries, value = trial, trial_value
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
        real = rng.standard_normal((M, N))
        imag = np.zeros((M, N)) if cfg.real_only else rng.standard_normal((M, N))
        starts.append(real + 1j * imag)
    return starts


def estimate(M: int, N: int, e: MixedExponents, cfg: SearchConfig = SearchConfig()) -> BoundReport:
    """Bracket the operator norm at one point and search for its value.

    Runs ascents from the extremizer warm starts plus cfg.restarts random
    starts (deterministically spawned from cfg.seed) and reduces to the best
    value in start order, so reports are reproducible bit-for-bit.
    """
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
