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
next step's gradient.  `estimate` checks its grid once, as an EvalPlan that
holds the matrix, before it builds any start; the steps run on raw arrays
and only check that the value is defined and finite.  Infinite exponents
take the one-hot subgradient at the first argmax.

The starts ascend in lockstep, as one (B, M, N) stack.  Every array layer
takes leading batch axes and treats each start as it treats a lone matrix,
bit for bit: `norms.MixedNorm` reduces over the last two axes,
`trigsum.synthesize` and `synthesize_adjoint` transform them, and `_phase`,
`_dual_map` and `_evaluate` work elementwise; a lone 2-D matrix is a stack
of none.  `_ascend` keeps the live starts, and each step is one call of
each layer on all of them.  `estimate` cuts its starts, in order, into
stacks of at most _STACK_SAMPLES grid samples: every start of a 32^2 grid
(M = N = 4) in one stack, two of a 64^2 grid, and one at a time from 128^2
up, as before stacking.  On the small grids numpy's per-call overhead
outweighs the arithmetic, so a stack's step costs little more than one
start's; on larger grids a stack would buy little time and hold its
working arrays once per start.  A pass of the benchmark's `search`
workload evaluates 479 starts or steps in 153 calls (466 in 466 calls one
start at a time: a closing start's stack mates now take their first
evaluation too) and pulls back 403 gradients.

A step that does not strictly improve is retried once from the iterate
nudged along a fixed direction (`_nudge`, the same for every seed, drawn
once per ascent), together with the other stuck starts of its stack; if
the retry does not strictly improve either, the start stops.  It also
stops after max_iters accepted steps.  Depending on the exponents and the
size, the unit, ones, column and row warm starts can be exact critical
points of the ratio and so fixed points of the step (the unit start
whenever r and s are finite).  Where such a point is a saddle, the retry
leaves it, so what the warm starts reach does not hang on the random
starts.

The search stops once the bracket closes: with target = upper / (1 +
3*GRID_TOL), the sandwich check's own slack, a start stops before its next
step once its value reaches the target.  The rule is the one of starts run
one after another: the first start in order to reach the target, k, ends
the search.  The starts after k are dropped, from its stack and every later
one, while the starts before k run on to their own stop, and `searched` is
the best value of starts 0..k.  Where the bound is attained at the unit
start (l^1 -> L^inf, l^2 -> L^2, every 1 x 1 matrix) the whole search is the
first stack's one evaluation.

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

# The smallest normal float, looked up once: np.finfo costs a microsecond a call.
_TINY = np.finfo(float).tiny

# The most grid samples that one stack of starts holds: all the starts of a
# 32^2 grid (M = N = 4), two of a 64^2 one.  Stacking pays where numpy's
# per-call overhead outweighs a start's own arithmetic, on grids of a few
# thousand samples; beyond that a larger stack buys little time and holds
# its working arrays once per start.  On the benchmark's `search` workload,
# norms.CACHE_SAMPLES (2^18, every start in one stack) measured 2% faster
# than this budget but 3% higher in peak memory.
_STACK_SAMPLES = 2**13

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
    return float(_evaluate(A.entries, eval_sum(A, plan).samples, e).value)


class _Trial(NamedTuple):
    """The objective at `entries`, whose synthesis is `samples`, and the L^{r,s} norm behind it.

    The gradient at this point reuses the reductions kept in `lrs` (of |samples|).
    For a stack of matrices every field is stacked along the same leading axes.
    """

    entries: np.ndarray
    samples: np.ndarray
    value: np.ndarray
    lrs: MixedNorm

    def arrays(self) -> tuple:
        """Every array of the trial, in a fixed order: each has the stack's leading axes."""
        return self.entries, self.samples, self.value, self.lrs.a, self.lrs.inner_values, self.lrs.value

    def rows(self, index) -> "_Trial":
        """The trial of the starts at `index` (a mask or indices) of a stack."""
        entries, samples, value, a, inner_values, norm = (part[index] for part in self.arrays())
        return _Trial(entries, samples, value, self.lrs._replace(a=a, inner_values=inner_values, value=norm))

    def put(self, index, rows: "_Trial") -> None:
        """Overwrite, in place, the starts at `index` of a stack by the trial `rows`: how retries fold in."""
        for mine, theirs in zip(self.arrays(), rows.arrays()):
            mine[index] = theirs


def _evaluate(entries: np.ndarray, samples: np.ndarray, e: MixedExponents) -> _Trial:
    """||samples||_{L^{r,s}} / ||entries||_{l^{p,q}}; raises unless it is defined and finite.

    Elementwise over a stack.  A non-finite entry or sample makes the ratio
    non-finite, so the one check of the values stands for scans of both
    arrays.
    """
    lpq = MixedNorm.of(np.abs(entries), e.alpha, e.beta, mean=False)
    # The checks read Python floats: numpy's reductions cost microseconds a call on a few values.
    if 0.0 in lpq.value.reshape(-1).tolist():
        raise ValueError("objective undefined for the zero matrix")
    lrs = MixedNorm.of(np.abs(samples), e.gamma, e.delta, mean=True)
    value = lrs.value / lpq.value
    if not all(map(math.isfinite, value.reshape(-1).tolist())):
        raise ValueError(f"objective is not finite: {value.tolist()!r}")
    return _Trial(entries, samples, value, lrs)


# ----------------------------------------------------------------------------
# Ascent
# ----------------------------------------------------------------------------


def _phase(z: np.ndarray, modulus: np.ndarray) -> np.ndarray:
    """z / |z|, given modulus = |z|; 0 where |z| is 0 or subnormal (numpy's complex division overflows there)."""
    return np.divide(z, modulus, out=np.zeros_like(z), where=modulus >= _TINY)


def _adjoint_gradient(trial: _Trial) -> np.ndarray:
    """Gradient of ||T x||_{L^{r,s}} at the trial's entries x, as d/dRe + i d/dIm of its 2MN real parameters."""
    weights = _phase(trial.samples, trial.lrs.a)
    weights *= trial.lrs.gradient()  # in place: one grid-sized complex array less at the peak
    return synthesize_adjoint(weights, *trial.entries.shape[-2:])


def _dual_map(g: np.ndarray, e: MixedExponents) -> np.ndarray:
    """D(g): the x of unit l^{p,q} norm that maximizes Re<g, x>, with Re<g, x> = ||g||_{p',q'}.

    x takes the phase of g, and |x| is the gradient of the dual norm
    ||.||_{p',q'} at |g|: one-hot at each column's first argmax where p = 1,
    flat where p = infinity.  Weights below the smallest normal float are
    flushed to 0, so no entry of x is subnormal.  Elementwise over a stack.
    """
    modulus = np.abs(g)
    weights = MixedNorm.of(modulus, 1.0 - e.alpha, 1.0 - e.beta, mean=False).gradient()
    weights[weights < _TINY] = 0.0
    return weights * _phase(g, modulus)


def _frobenius(stack: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each matrix of a stack, one call per matrix: its BLAS dot keeps its own bits."""
    return np.array([np.linalg.norm(x) for x in stack])


def _ascend(
    starts: np.ndarray, e: MixedExponents, plan: EvalPlan, cfg: SearchConfig, target: float = math.inf
) -> list[list[float]]:
    """Boyd's power iteration from a (B, M, N) stack of starts in lockstep; returns their histories.

    Each step is x <- D(T* grad L(T x)) on every live start at once: one
    adjoint, one dual map, one synthesis and one evaluation of the stack,
    each start's arithmetic that of a stack of one.  A history holds a
    start's accepted objective values, strictly increasing; its last is the
    start's value.  The starts whose step does not strictly improve are
    retried together from x + nudge(x), at two more evaluations and one more
    adjoint of that sub-stack.  A start stops when its retry does not
    strictly improve either, after max_iters accepted steps, or before its
    next step once its value reaches `target`.  The first start in order to
    reach `target`, k, closes the bracket: every start after k is dropped
    then, and only the histories of starts 0..k are returned; starts before
    k run on to their own stop.  The plan is checked to hold the matrices
    once; the steps run on raw arrays.
    """
    def step(trial: _Trial) -> _Trial:
        entries = _dual_map(_adjoint_gradient(trial), e)
        return _evaluate(entries, synthesize(entries, *plan), e)

    plan.check_holds(*starts.shape[-2:])
    entries = starts / _frobenius(starts)[:, None, None]
    current = _evaluate(entries, synthesize(entries, *plan), e)
    histories = [[value] for value in current.value.tolist()]
    # The start of each row of `current`, in order; the nudge is drawn at the first retry.
    live, nudge = np.arange(len(histories)), None
    for iteration in range(cfg.max_iters + 1):
        if live.size and current.value.max() >= target:
            first = live[(current.value >= target).argmax()]
            del histories[first + 1:]
            current, live = current.rows(live < first), live[live < first]
        if iteration == cfg.max_iters or not live.size:
            break
        trial = step(current)
        improved = trial.value > current.value
        if not improved.all():
            nudge = nudge or _nudge(*starts.shape[-2:])
            nudged = nudge(current.entries[~improved])
            trial.put(~improved, step(_evaluate(nudged, synthesize(nudged, *plan), e)))
            moved = trial.value > current.value
            trial, live = trial.rows(moved), live[moved]
        current = trial
        for start, value in zip(live, current.value.tolist()):
            histories[start].append(value)
    return histories


def _nudge(M: int, N: int):
    """The map that nudges a stack of M x N iterates, each x to x + d(x), along one direction drawn here.

    d(x) is that direction, the same for every seed, scaled to Frobenius
    norm sqrt(eps) times that of x.  Standard normals from seed 0: small
    enough to leave a local maximum's value in place up to roundoff, large
    enough that a saddle's unstable direction grows out of it within a few
    steps.  An ascent draws it once, at its first retry.
    """
    parts = np.random.default_rng(0).standard_normal((M, N, 2))
    direction = parts[:, :, 0] + 1j * parts[:, :, 1]
    size = np.linalg.norm(direction)
    return lambda stack: stack + direction * (np.sqrt(np.finfo(float).eps) * _frobenius(stack) / size)[:, None, None]


def _start_matrices(M: int, N: int, cfg: SearchConfig) -> Iterator[np.ndarray]:
    """Warm starts at the five extremizer kinds in table order, then seeded random starts.

    Each start is built only when the search takes the stack that holds it.
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
    The starts run in that order as stacks of at most _STACK_SAMPLES grid
    samples, one stack after another.  The search stops after the first
    start whose value reaches upper / (1 + 3*GRID_TOL): no start can exceed
    the proven bound by more than the sandwich check's slack, so the
    bracket is closed.
    """
    M, N = check_dimensions(M, N)
    grid = cfg.grid or default_grid(M, N, floor=16)
    grid.check_holds(M, N)  # before any start is built
    upper = upper_bound_magnitude(M, N, e)
    slack = 1.0 + 3.0 * GRID_TOL
    target = upper / slack
    searched = -math.inf
    starts = _start_matrices(M, N, cfg)
    while chunk := list(itertools.islice(starts, max(1, _STACK_SAMPLES // (grid.Kx * grid.Ky)))):
        searched = max(searched, *(history[-1] for history in _ascend(np.stack(chunk), e, grid, cfg, target)))
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
