"""Bracketing the operator norm sup ||T A||_{L^{r,s}} / ||A||_{l^{p,q}}.

The true value is squeezed between the best certified extremizer lower bound
and the growth-bound upper bound; a multi-start ascent over the 2MN real
parameters of A reports the best ratio it can actually reach.  The
searched value is a lower bound for the sup by construction and is never
claimed exact.

The ascent is Boyd's power iteration for mixed-norm operator norms (Boyd
1974; Higham 1992).  With N(x) = L(T x), L the grid L^{r,s} norm, one step
is

    x <- D(T* grad L(T x)),

where S = T x is the zero-padded inverse FFT of x and the adjoint T* is the
forward FFT cropped to the first M x N frequencies (`trigsum.synthesize`
and `synthesize_adjoint`, both pruned).  D is the l^{p,q} dual map: D(g)
takes the phase of g, and its moduli are the gradient of the dual norm
||.||_{p',q'} at |g|, so ||D(g)||_{p,q} = 1 and Re<g, D(g)> = ||g||_{p',q'}.
N is convex and 1-homogeneous, so N(D(g)) >= Re<grad N(x), D(g)> >=
Re<grad N(x), x> / ||x||_{p,q} = N(x) / ||x||_{p,q}: in exact arithmetic a
step never lowers the ratio, and no line search is needed.  Each step costs
one adjoint, one synthesis and one evaluation, which keeps the samples and
their L^{r,s} norm with its inner reductions (`norms.MixedNorm`) for the
next step's gradient.  On the benchmark's `search`
pass that is 466 evaluations and 403 adjoints.  `estimate` checks its grid
once, as an EvalPlan that holds the matrix, before it builds any start.
Each start is checked once, as a CoefficientMatrix evaluated on that plan;
the steps run on raw arrays and only check that the value is defined and
finite.  Infinite exponents take the one-hot subgradient at the first
argmax.

A step that does not strictly improve is retried once from the iterate
nudged along a fixed direction (`_nudge`, the same for every seed); if the
retry does not strictly improve either, the restart ends.  It also ends
after max_iters accepted steps.  Depending on the exponents and
the size, the unit, ones, column and row warm starts can be exact critical
points of the ratio and so fixed points of the step (the unit start
whenever r and s are finite).  Where such a point is a saddle, the retry
leaves it, so what the warm starts reach does not hang on the random
starts.

The search stops once the bracket closes: with target = upper / (1 +
3*GRID_TOL), the sandwich check's own slack, an ascent stops before its
next step once its value reaches the target, and `estimate` visits no
start after the first that does.  Where the bound is attained at the unit
start (l^1 -> L^inf, l^2 -> L^2, every 1 x 1 matrix) the whole search is one
evaluation.

Every estimate emits a BoundReport, whose JSON document is its fields
(`to_json_dict`); batches also serialize to an aggregate CSV whose frozen
column order is CSV_COLUMNS.
"""

from __future__ import annotations

import csv
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

# The smallest normal float, looked up once: np.finfo costs a microsecond a call.
_TINY = np.finfo(float).tiny

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
    """The objective at `entries`, whose synthesis is `samples`, and the L^{r,s} norm behind it.

    The gradient at this point reuses the reductions kept in `lrs` (of |samples|).
    """

    entries: np.ndarray
    samples: np.ndarray
    value: float
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
    return _Trial(entries, samples, value, lrs)


# ----------------------------------------------------------------------------
# Ascent
# ----------------------------------------------------------------------------


def _phase(z: np.ndarray, modulus: np.ndarray) -> np.ndarray:
    """z / |z|, given modulus = |z|; 0 where |z| is 0 or subnormal (numpy's complex division overflows there)."""
    return np.divide(z, modulus, out=np.zeros_like(z), where=modulus >= _TINY)


def _adjoint_gradient(trial: _Trial) -> np.ndarray:
    """Gradient of ||T x||_{L^{r,s}} at the trial's entries x, as d/dRe + i d/dIm of its 2MN real parameters."""
    lrs = trial.lrs
    return synthesize_adjoint(lrs.gradient() * _phase(trial.samples, lrs.a), *trial.entries.shape)


def _dual_map(g: np.ndarray, e: MixedExponents) -> np.ndarray:
    """D(g): the x of unit l^{p,q} norm that maximizes Re<g, x>, with Re<g, x> = ||g||_{p',q'}.

    x takes the phase of g, and |x| is the gradient of the dual norm
    ||.||_{p',q'} at |g|: one-hot at each column's first argmax where p = 1,
    flat where p = infinity.  Weights below the smallest normal float are
    flushed to 0, so no entry of x is subnormal.
    """
    modulus = np.abs(g)
    weights = MixedNorm.of(modulus, 1.0 - e.alpha, 1.0 - e.beta, mean=False).gradient()
    weights[weights < _TINY] = 0.0
    return weights * _phase(g, modulus)


def _ascend(
    start: np.ndarray, e: MixedExponents, plan: EvalPlan, cfg: SearchConfig, target: float = math.inf
) -> tuple[float, list[float]]:
    """Boyd's power iteration from one start; returns (best value, history).

    Each step is x <- D(T* grad L(T x)): one adjoint, one dual map, one
    synthesis and one evaluation.  The history of accepted objective values
    is strictly increasing.  A step that does not strictly improve is
    retried from x + _nudge(x), at two more evaluations and one more
    adjoint; the restart stops when the retry does not strictly improve
    either, after max_iters accepted steps, or before its next step once the
    value reaches `target`.  The start is checked once, by eval_sum on `plan`; the steps
    run on raw arrays.
    """
    def step(trial: _Trial) -> _Trial:
        entries = _dual_map(_adjoint_gradient(trial), e)
        return _evaluate(entries, synthesize(entries, *plan), e)

    entries = start / np.linalg.norm(start)
    samples = eval_sum(CoefficientMatrix(*entries.shape, entries), plan).samples
    current = _evaluate(entries, samples, e)
    history = [current.value]
    for _ in range(cfg.max_iters):
        if current.value >= target:
            break
        trial = step(current)
        if not trial.value > current.value:
            nudged = current.entries + _nudge(current.entries)
            trial = step(_evaluate(nudged, synthesize(nudged, *plan), e))
            if not trial.value > current.value:
                break
        current = trial
        history.append(current.value)
    return current.value, history


def _nudge(entries: np.ndarray) -> np.ndarray:
    """A fixed direction, the same for every seed, of Frobenius norm sqrt(eps) times that of `entries`.

    Standard normals from seed 0: small enough to leave a local maximum's
    value in place up to roundoff, large enough that a saddle's unstable
    direction grows out of it within a few steps.
    """
    parts = np.random.default_rng(0).standard_normal((*entries.shape, 2))
    direction = parts[:, :, 0] + 1j * parts[:, :, 1]
    return direction * (np.sqrt(np.finfo(float).eps) * np.linalg.norm(entries) / np.linalg.norm(direction))


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
