"""Evaluation of the truncated double trigonometric sum on uniform grids.

S_{M,N}(x, y) = sum_{n=1}^{N} sum_{m=1}^{M} a_{mn} e^{2 pi i ((m-1)x + (n-1)y)}

is a trigonometric polynomial with nonnegative frequencies, so it is
sampled on the unit-periodic Kx x Ky grid by the inverse FFT of the
coefficient matrix zero-padded to Kx x Ky.  `synthesize` prunes that
transform: it never builds the padded array, and its first pass runs over
the M nonzero rows only.  `synthesize_adjoint` is the forward FFT cropped to
the first M x N frequencies, pruned the same way.  Both take the same 1-D
passes in the same order as ifft2 / fft2 of the padded grid, so their
output is bit-for-bit that of the unpruned transforms.  `eval_sum` is the
checked synthesis.  The direct double sum (two small matrix products) is the
independent oracle: `eval_sum_at` uses it at any point, and the tests pin
the transform convention against it.

The non-orthogonal variant V_{M,N} replaces the frequency scale 2 pi by 1:
V(x, y) = sum a_{mn} e^{i((m-1)x + (n-1)y)}.  Its frequencies are not
commensurate with the unit-periodic grid — V is 2 pi -periodic, not
1-periodic — so `eval_nonortho` uses the direct sum and no periodicity in
the unit cell may be assumed.  `default_grid` is the one grid-size rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .norms import CoefficientMatrix, GridFunction

__all__ = [
    "EvalPlan",
    "default_grid",
    "eval_sum",
    "eval_sum_at",
    "eval_nonortho",
    "synthesize",
    "synthesize_adjoint",
]


@dataclass(frozen=True)
class EvalPlan:
    """Output grid sizes Kx x Ky, both positive."""

    Kx: int
    Ky: int

    def __post_init__(self) -> None:
        if self.Kx < 1 or self.Ky < 1:
            raise ValueError(f"grid sizes must be positive, got Kx={self.Kx}, Ky={self.Ky}")


def default_grid(M: int, N: int, oversample: int = 8, floor: int = 1) -> tuple[int, int]:
    """(max(oversample * M, floor), max(oversample * N, floor)); oversample must be >= 2."""
    if oversample < 2:
        raise ValueError(f"oversample must be >= 2, got {oversample}")
    return (max(oversample * M, floor), max(oversample * N, floor))


def _direct(A: CoefficientMatrix, xs: np.ndarray, ys: np.ndarray, scale: float) -> np.ndarray:
    """The literal double sum at the points xs x ys, with frequencies scaled by `scale`."""
    ex = np.exp(1j * scale * np.outer(xs, np.arange(A.M)))
    ey = np.exp(1j * scale * np.outer(ys, np.arange(A.N)))
    return ex @ A.entries @ ey.T


def synthesize(entries: np.ndarray, Kx: int, Ky: int) -> np.ndarray:
    """The Kx x Ky samples of S for the M x N array `entries`, unchecked.

    Equal bit for bit to ifft2(P) * Kx * Ky, where P is `entries` embedded at
    the nonnegative frequencies (m-1, n-1) of a zero Kx x Ky array; the
    caller guarantees Kx >= M and Ky >= N (a smaller grid would crop).
    """
    return np.fft.ifft(np.fft.ifft(entries, n=Ky, axis=1), n=Kx, axis=0) * (Kx * Ky)


def synthesize_adjoint(samples: np.ndarray, M: int, N: int) -> np.ndarray:
    """The adjoint of `synthesize` up to the grid scale: fft2(samples)[:M, :N], bit for bit."""
    return np.fft.fft(np.fft.fft(samples, axis=1)[:, :N], axis=0)[:M]


def eval_sum(A: CoefficientMatrix, plan: EvalPlan) -> GridFunction:
    """Sample S_{M,N} on the plan's grid (frequency scale 2 pi); needs Kx >= M and Ky >= N."""
    M, N = A.M, A.N
    if plan.Kx < M or plan.Ky < N:
        raise ValueError(
            f"zero-pad transform needs Kx >= M and Ky >= N, got ({plan.Kx}, {plan.Ky}) for ({M}, {N})"
        )
    return GridFunction(Kx=plan.Kx, Ky=plan.Ky, samples=synthesize(A.entries, plan.Kx, plan.Ky))


def eval_sum_at(A: CoefficientMatrix, x: float, y: float, scale: float = 2.0 * np.pi) -> complex:
    """Direct double-sum evaluation at a single (possibly off-grid) point.

    `scale` multiplies the frequencies: 2 pi for S (1-periodic in each
    variable), 1 for V.  Any real (x, y) is accepted.
    """
    return complex(_direct(A, np.array([x]), np.array([y]), scale)[0, 0])


def eval_nonortho(A: CoefficientMatrix, plan: EvalPlan) -> GridFunction:
    """Sample V_{M,N} (frequency scale one) on the plan's grid over the unit square."""
    x = np.arange(plan.Kx) / plan.Kx
    y = np.arange(plan.Ky) / plan.Ky
    return GridFunction(Kx=plan.Kx, Ky=plan.Ky, samples=_direct(A, x, y, 1.0))
