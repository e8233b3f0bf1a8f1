"""Evaluation of the truncated double trigonometric sum on uniform grids.

S_{M,N}(x, y) = sum_{n=1}^{N} sum_{m=1}^{M} a_{mn} e^{2 pi i ((m-1)x + (n-1)y)}

is a trigonometric polynomial with nonnegative frequencies, so it is
sampled on the unit-periodic Kx x Ky grid by the inverse FFT of the
coefficient matrix zero-padded to Kx x Ky.  `synthesize` prunes that
transform: its first pass runs over the M nonzero rows only.
`synthesize_adjoint` is the forward FFT cropped to the first M x N
frequencies, pruned the same way.  Both take the same 1-D passes in the
same order as ifft2 / fft2 of the padded grid, so their output is
bit-for-bit that of the unpruned transforms.  Both take a stack: leading
axes hold independent matrices or grids, and the transforms run over the
last two axes.  numpy's FFT takes each 1-D transform on its own, so every
matrix of a stack gets the samples it gets alone, bit for bit; the search
(`opnorm`) steps all its starts through one call this way.  `eval_sum` is
the checked synthesis.  The direct double sum (two small matrix products)
is the independent oracle: `eval_sum_at` evaluates S by it at any point,
and the tests pin the transform convention against it.

Every pass of `synthesize` runs in place (`out=`, numpy >= 2.0) on a
buffer that already holds its zero padding: the first pass on the output
grid's first M rows, the second on the whole grid or on one column panel
padded to Kx.  numpy's own padding path, ifft(..., n=), costs more than
the transform it pads for: a 32-column panel of a 2048^2 grid took ~1.0 ms
through it and ~0.63 ms pre-padded (2-vCPU x86-64 host, numpy 2.4.6).  The
adjoint's second pass runs in place on a contiguous copy of the cropped
first pass.

The second pass of `synthesize` transforms down the columns of a row-major
grid.  pocketfft gathers each column into a buffer and scatters the result
back with a stride of one row (32 KiB at Ky = 2048), so on grids beyond the
cache each scattered sample lands on a cache line of its own.  Grids of
more than norms.CACHE_SAMPLES samples therefore run that pass over column
panels of a quarter of that (32 columns at Kx = 2048, cut by the column
rule lrs_norm walks its blocks by): each panel's columns are copied, as
rows, into one reused zero-padded buffer, transformed along its contiguous
last axis, and scaled back into the same columns of the grid as one small
transpose that stays in cache.  Each column still takes the same 1-D
transform and the same scaling, so the samples keep their bits.  A stack of
grids takes the same panels, each holding that column range of every grid.
Smaller grids, and grids too narrow for two panels, take the pass as one
call: there the panels' extra calls and copy cost more than the scatter.

The non-orthogonal variant V_{M,N} replaces the frequency scale 2 pi by 1:
V(x, y) = sum a_{mn} e^{i((m-1)x + (n-1)y)}.  Its frequencies are not
commensurate with the unit-periodic grid — V is 2 pi -periodic, not
1-periodic — so `eval_nonortho` uses the direct sum and no periodicity in
the unit cell may be assumed.  `default_grid` is the one grid-size rule:
OVERSAMPLE = 8 samples per frequency along each axis, raised to a floor
that each caller fixes.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .exponents import check_dimensions
from .norms import CACHE_SAMPLES, CoefficientMatrix, GridFunction, _column_blocks


# Samples per frequency along each axis of every default grid.
OVERSAMPLE = 8

# The largest grid a plan accepts, in bytes of complex samples (16 Kx Ky):
# 2^30 samples, 32768^2.  Beyond it a plan fails at once, before any
# transform allocates its first pass.
MAX_GRID_BYTES = 2**34


class EvalPlan(namedtuple("EvalPlan", "Kx Ky")):
    """The grid (Kx, Ky): both sizes positive, at most MAX_GRID_BYTES of samples.

    A tuple, so it unpacks and compares as the pair it is, and a report
    serializes it as [Kx, Ky].  `__new__` checks every plan built by calling
    the class; the namedtuple's `_make` and `_replace` skip it, so nothing
    builds a plan through them.
    """

    __slots__ = ()

    def __new__(cls, Kx: int, Ky: int) -> "EvalPlan":
        Kx, Ky = check_dimensions(Kx, Ky, names=("Kx", "Ky"))
        nbytes = 16 * Kx * Ky
        if nbytes > MAX_GRID_BYTES:
            # The GiB figure as "%.3g" prints a float, rounded as a Decimal: it can pass the largest float.
            from decimal import Decimal  # imported here, as only this message needs it (2 ms at import)
            digits, power = f"{Decimal(nbytes) / 2**30:.2e}".split("e")
            power = int(power)
            gib = f"{float(digits):g}e{power:+03d}" if power > 2 else f"{float(digits) * 10**power:g}"
            raise ValueError(
                f"a {Kx} x {Ky} grid needs {gib} GiB of samples, above the limit of {MAX_GRID_BYTES // 2**30} GiB"
            )
        return super().__new__(cls, Kx, Ky)

    def check_holds(self, M: int, N: int) -> None:
        """Refuse a grid smaller than the M x N frequencies of a matrix: the zero-pad transform would crop."""
        if self.Kx < M or self.Ky < N:
            raise ValueError(
                f"zero-pad transform needs Kx >= M and Ky >= N, got ({self.Kx}, {self.Ky}) for ({M}, {N})"
            )


def default_grid(M: int, N: int, *, floor: int = 1) -> EvalPlan:
    """The plan (max(OVERSAMPLE * M, floor), max(OVERSAMPLE * N, floor)) for positive integer sizes M, N."""
    M, N = check_dimensions(M, N)
    return EvalPlan(max(OVERSAMPLE * M, floor), max(OVERSAMPLE * N, floor))


def _direct(A: CoefficientMatrix, xs: np.ndarray, ys: np.ndarray, scale: float) -> np.ndarray:
    """The literal double sum at the points xs x ys, with frequencies scaled by `scale`.

    When `ys is xs` and N == M the two exponential tables are one (same
    expression, same bits), computed once.
    """
    ex = np.exp(1j * scale * np.outer(xs, np.arange(A.M)))
    ey = ex if ys is xs and A.N == A.M else np.exp(1j * scale * np.outer(ys, np.arange(A.N)))
    return ex @ A.entries @ ey.T


def synthesize(entries: np.ndarray, Kx: int, Ky: int) -> np.ndarray:
    """The Kx x Ky samples of S for each M x N array in the last two axes of `entries`, unchecked.

    Equal bit for bit to ifft2(P) * (Kx * Ky), where P is the array
    embedded at the nonnegative frequencies (m-1, n-1) of a zero Kx x Ky
    array; the caller guarantees Kx >= M and Ky >= N (a smaller grid would
    crop).  Leading axes are a stack, each array transformed as it would be
    alone.  Grids of more than CACHE_SAMPLES samples take the second pass
    in column panels (see the module docstring).
    """
    *stack, M, N = entries.shape
    panels = _column_blocks(Kx, Ky, CACHE_SAMPLES // 4) if Kx * Ky > CACHE_SAMPLES else []
    # The first pass runs in place on the first M rows of the output grid.
    grid = np.zeros((*stack, Kx, Ky), dtype=complex)
    rows = grid[..., :M, :]
    rows[..., :N] = entries
    np.fft.ifft(rows, axis=-1, out=rows)
    if len(panels) < 2:
        np.fft.ifft(grid, axis=-2, out=grid)
        grid *= Kx * Ky
        return grid
    # Each panel copies its columns of the first pass out before its scaled
    # transform overwrites them in the grid.
    buffer = np.zeros((*stack, max(hi - lo for lo, hi in panels), Kx), dtype=complex)
    for lo, hi in panels:
        panel = buffer[..., : hi - lo, :]
        panel[..., :M] = rows[..., lo:hi].swapaxes(-1, -2)
        panel[..., M:] = 0.0  # the previous panel's transform overwrote the padding
        np.fft.ifft(panel, axis=-1, out=panel)
        np.multiply(panel.swapaxes(-1, -2), Kx * Ky, out=grid[..., lo:hi])
    return grid


def synthesize_adjoint(samples: np.ndarray, M: int, N: int) -> np.ndarray:
    """The adjoint of `synthesize` up to the grid scale: fft2 over the last two axes, cropped to M x N, bit for bit."""
    cropped = np.ascontiguousarray(np.fft.fft(samples, axis=-1)[..., :N])
    return np.fft.fft(cropped, axis=-2, out=cropped)[..., :M, :]


def eval_sum(A: CoefficientMatrix, plan: EvalPlan) -> GridFunction:
    """Sample S_{M,N} on the plan's grid (frequency scale 2 pi); needs Kx >= M and Ky >= N."""
    plan.check_holds(A.M, A.N)
    return GridFunction(Kx=plan.Kx, Ky=plan.Ky, samples=synthesize(A.entries, plan.Kx, plan.Ky))


def eval_sum_at(A: CoefficientMatrix, x: float, y: float) -> complex:
    """S_{M,N}(x, y) by the direct double sum at a single (possibly off-grid) point: the FFT's oracle.

    S only (frequency scale 2 pi, 1-periodic in each variable); V has its
    grid evaluator, `eval_nonortho`.  Any real (x, y) is accepted.
    """
    return complex(_direct(A, np.array([x]), np.array([y]), 2.0 * np.pi)[0, 0])


def eval_nonortho(A: CoefficientMatrix, plan: EvalPlan) -> GridFunction:
    """Sample V_{M,N} (frequency scale one) on the plan's grid over the unit square."""
    x = np.arange(plan.Kx) / plan.Kx
    y = x if plan.Ky == plan.Kx else np.arange(plan.Ky) / plan.Ky
    return GridFunction(Kx=plan.Kx, Ky=plan.Ky, samples=_direct(A, x, y, 1.0))
