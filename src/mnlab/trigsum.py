"""Evaluation of the truncated double trigonometric sum on uniform grids.

S_{M,N}(x, y) = sum_{n=1}^{N} sum_{m=1}^{M} a_{mn} e^{2 pi i ((m-1)x + (n-1)y)}

is a trigonometric polynomial with nonnegative frequencies, so it is
sampled on the unit-periodic Kx x Ky grid by the inverse FFT of the
coefficient matrix zero-padded to Kx x Ky, unscaled (numpy's
norm="forward"): the transform is the sum itself, so no pass scales the
grid.  `synthesize` prunes that transform.  Its first pass runs down the
columns, and only the N nonzero ones; its second runs along every row,
contiguous in a row-major grid.  Both run in place (`out=`, numpy >= 2.0)
on the output grid, which already holds the zero padding, so the grid is
the one grid-sized array the synthesis allocates.  Its output is bit for bit that of
the unpruned transforms in that order,
ifft(ifft(P, axis=0, norm="forward"), axis=1, norm="forward") of the padded
matrix P; it agrees with ifft2(P) * (Kx * Ky), which takes the rows first,
to rounding.  `synthesize_adjoint` is the forward FFT cropped to the first
M x N frequencies, pruned the same way: its first pass runs along the rows,
its second down the N kept columns of a contiguous copy of the crop, and
its output is bit for bit fft2's.  Both take a stack: leading axes hold
independent matrices or grids, and the transforms run over the last two
axes.  numpy's FFT takes each 1-D transform on its own, so every matrix of
a stack gets the samples it gets alone, bit for bit; the search (`opnorm`)
steps all its starts through one call this way.  `eval_sum` is the checked
synthesis.  The direct double sum (two small matrix products) is the
independent oracle: `eval_sum_at` evaluates S by it at any point, and the
tests pin the transform convention against it.

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
from .norms import CoefficientMatrix, GridFunction


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

    The unscaled inverse FFT of the array embedded at the nonnegative
    frequencies (m-1, n-1) of a zero Kx x Ky array P, down the columns
    first: equal bit for bit to ifft(ifft(P, axis=0, norm="forward"),
    axis=1, norm="forward"), and to ifft2(P) * (Kx * Ky) up to rounding.
    The caller guarantees Kx >= M and Ky >= N (a smaller grid would crop).
    Leading axes are a stack, each array transformed as it would be alone.
    """
    *stack, M, N = entries.shape
    grid = np.zeros((*stack, Kx, Ky), dtype=complex)
    # The first pass runs in place on the N nonzero columns; the second on every row.
    cols = grid[..., :N]
    cols[..., :M, :] = entries
    np.fft.ifft(cols, axis=-2, out=cols, norm="forward")
    return np.fft.ifft(grid, axis=-1, out=grid, norm="forward")


def synthesize_adjoint(samples: np.ndarray, M: int, N: int) -> np.ndarray:
    """The adjoint of `synthesize`: fft2 over the last two axes, cropped to M x N, bit for bit."""
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
