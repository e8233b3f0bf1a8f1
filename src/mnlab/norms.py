"""Discrete l^{p,q} and grid L^{r,s} mixed norms, plus the shared JSON formats.

The discrete norm applies the p-norm down each column (row index m is the
inner index), then the q-norm across columns.  The grid norm applies the
rectangle rule in x for each grid row, then the same rule in y; on uniform
periodic grids the rectangle rule is spectrally accurate and exact on
trigonometric polynomials of degree below the grid size, which makes the
l^{2,2} / L^{2,2} identity an exact check rather than an approximate one.

Powers are accumulated with the largest modulus factored out, so exponents
like p = 1000 neither overflow nor underflow.  Each reduction allocates one
working array the size of its input, the quotient by the slice maxima, and
takes the power in place on it; on the 2048^2 grid every extra full-grid
temporary is another 32 MiB at peak.
"""

from __future__ import annotations

import json
import operator
import warnings
from dataclasses import dataclass, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .exponents import MixedExponents, check_dimensions

__all__ = [
    "CoefficientMatrix",
    "GridFunction",
    "JsonReport",
    "QuadratureSpec",
    "QuadratureWarning",
    "lpq_norm",
    "lrs_norm",
    "MixedNorm",
    "holder_matrix_chain",
    "matrix_to_json",
    "matrix_from_json",
    "grid_to_json",
    "grid_from_json",
    "load_matrix",
    "save_matrix",
    "load_grid",
    "save_grid",
]


class QuadratureWarning(UserWarning):
    """The refinement check found the half-coarse grid disagreeing beyond rel_tol."""


@dataclass(frozen=True)
class CoefficientMatrix:
    """A complex M x N coefficient matrix with explicit dimensions.

    `entries[m, n]` is a_{m+1, n+1} in 1-based terms; the row index m is the
    inner (p-summed) index.  Entries must be finite.
    """

    M: int
    N: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        M, N = check_dimensions(self.M, self.N)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "N", N)
        arr = np.asarray(self.entries, dtype=np.complex128)
        if arr.shape != (self.M, self.N):
            raise ValueError(f"entries shape {arr.shape} does not match (M, N)=({self.M}, {self.N})")
        if not np.isfinite(arr).all():
            raise ValueError("entries must all be finite")
        object.__setattr__(self, "entries", arr)


@dataclass(frozen=True)
class GridFunction:
    """Complex samples f(x_j, y_k) on the uniform grid x_j = j/Kx, y_k = k/Ky.

    The grid is left-closed and periodic: the right endpoint 1 is identified
    with 0 and never sampled.  `samples[j, k]` is the value at (x_j, y_k).
    """

    Kx: int
    Ky: int
    samples: np.ndarray

    def __post_init__(self) -> None:
        if self.Kx < 1 or self.Ky < 1:
            raise ValueError(f"grid sizes must be positive, got Kx={self.Kx}, Ky={self.Ky}")
        arr = np.asarray(self.samples, dtype=np.complex128)
        if arr.shape != (self.Kx, self.Ky):
            raise ValueError(f"samples shape {arr.shape} does not match (Kx, Ky)=({self.Kx}, {self.Ky})")
        if not np.isfinite(arr).all():
            raise ValueError("samples must all be finite")
        object.__setattr__(self, "samples", arr)


@dataclass(frozen=True)
class QuadratureSpec:
    """Grid-quadrature policy: the optional refinement check of lrs_norm.

    With `refine_check` set, lrs_norm recomputes on the half-coarse grid and
    warns when the two values disagree by more than `rel_tol` relatively.
    """

    refine_check: bool = False
    rel_tol: float = 1e-6

    def __post_init__(self) -> None:
        if not self.rel_tol > 0:
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol}")


def lpq_norm(A: CoefficientMatrix, e: MixedExponents) -> float:
    """The discrete mixed norm: p-norm over rows m per column, q-norm across columns.

    Only e.alpha and e.beta are consulted.  Exactly zero iff A is the zero
    matrix.
    """
    return MixedNorm.of(np.abs(A.entries), e.alpha, e.beta, mean=False).value


def lrs_norm(f: GridFunction, e: MixedExponents, spec: QuadratureSpec = QuadratureSpec()) -> float:
    """The grid L^{r,s} mixed norm by the periodic rectangle rule.

    For each y_k the x-norm is ((1/Kx) sum_j |f|^r)^(1/r) (max over j when
    r = inf); the same rule is then applied in y with exponent s.  Only
    e.gamma and e.delta are consulted.  With spec.refine_check set, the value
    is recomputed on the half-coarse grid (every second sample in each
    direction) and a QuadratureWarning is issued when the relative
    disagreement exceeds spec.rel_tol.
    """
    modulus = np.abs(f.samples)
    value = MixedNorm.of(modulus, e.gamma, e.delta, mean=True).value
    # The half grid only stays uniform-periodic when both sizes are even.
    if spec.refine_check and f.Kx % 2 == 0 and f.Ky % 2 == 0:
        coarse = MixedNorm.of(modulus[::2, ::2], e.gamma, e.delta, mean=True).value
        denom = max(abs(value), abs(coarse), 1e-300)
        disagreement = abs(value - coarse) / denom
        if disagreement > spec.rel_tol:
            warnings.warn(
                QuadratureWarning(
                    f"half-grid value {coarse:.12g} vs {value:.12g} "
                    f"(relative disagreement {disagreement:.3e} > {spec.rel_tol:.3e}); "
                    "increase the oversampling factor"
                ),
                stacklevel=2,
            )
    return value


def _reduce(a: np.ndarray, recip: float, mean: bool) -> np.ndarray:
    """The norm with reciprocal exponent `recip` (0 = infinite) down axis 0.

    `a` must be non-negative real.  Sums of powers (rectangle-rule means when
    `mean` is set) are accumulated with each slice's largest entry factored
    out, so large exponents neither overflow nor underflow.
    """
    top = a.max(axis=0)
    if recip == 0.0:
        return top
    expo = 1.0 / recip
    # Avoid 0/0 where a whole slice vanishes; those slices contribute 0.
    safe = np.where(top > 0.0, top, 1.0)
    # The power is taken in place on the quotient: one working array the size
    # of `a`.  `**=` takes the same scalar-power paths (square, sqrt, ...) as `**`.
    body = a / safe
    body **= expo
    body = body.sum(axis=0)
    if mean:  # ndarray.mean's own arithmetic, without its Python wrapper
        body = body / a.shape[0]
    return top * body ** (1.0 / expo)


def _reduce_gradient(a: np.ndarray, value: np.ndarray, recip: float, mean: bool) -> np.ndarray:
    """d value / d a for value = _reduce(a, recip, mean), broadcast to a's shape.

    An infinite exponent takes the one-hot subgradient at the first argmax.
    Slices that vanish get weight 0 (for exponent one, the caller's phase
    factor supplies that zero).
    """
    if recip == 0.0:
        grad = np.zeros_like(a)
        np.put_along_axis(grad, np.expand_dims(np.argmax(a, axis=0), 0), 1.0, axis=0)
        return grad
    safe = np.where(value > 0.0, value, 1.0)
    grad = (a / safe) ** (1.0 / recip - 1.0)
    return grad / a.shape[0] if mean else grad


class MixedNorm(NamedTuple):
    """A mixed norm of the non-negative 2-D array `a`, with the reductions its gradient reuses.

    The norm with reciprocal exponent `inner` runs down axis 0, giving
    `inner_values`, then `outer` across axis 1, giving `value`; `mean`
    selects the rectangle-rule means of lrs_norm over the plain sums of
    lpq_norm.  Build one with `MixedNorm.of`: lpq_norm is the value of
    MixedNorm.of(|entries|, alpha, beta, mean=False) and lrs_norm that of
    MixedNorm.of(|samples|, gamma, delta, mean=True).
    """

    a: np.ndarray
    inner: float
    outer: float
    mean: bool
    inner_values: np.ndarray
    value: float

    @classmethod
    def of(cls, a: np.ndarray, inner: float, outer: float, mean: bool) -> "MixedNorm":
        inner_values = _reduce(a, inner, mean)
        return cls(a, inner, outer, mean, inner_values, float(_reduce(inner_values, outer, mean)))

    def gradient(self) -> np.ndarray:
        """The partial derivatives of `value` in `a`, from the stored reductions.

        Where an exponent is infinite this is a subgradient: one-hot at the
        first argmax.
        """
        return _reduce_gradient(self.a, self.inner_values, self.inner, self.mean) * _reduce_gradient(
            self.inner_values, self.value, self.outer, self.mean
        )


def holder_matrix_chain(
    A: CoefficientMatrix, e: MixedExponents, e_bar: MixedExponents
) -> tuple[float, float]:
    """Both sides of the dimension-power norm comparison, as a self-test primitive.

    For a first-slot chain (e.alpha >= e_bar.alpha, same beta) returns
    (||A||_{l^{p,q}}, M^(alpha - alpha_bar) * ||A||_{l^{p_bar,q}}); for a
    second-slot chain (same alpha, e.beta >= e_bar.beta) the comparison
    factor is N^(beta - beta_bar).  Asserts first <= second within 1e-12
    relative before returning.
    """
    if e.alpha >= e_bar.alpha and e.beta == e_bar.beta:
        factor = float(A.M) ** (e.alpha - e_bar.alpha)
    elif e.beta >= e_bar.beta and e.alpha == e_bar.alpha:
        factor = float(A.N) ** (e.beta - e_bar.beta)
    else:
        raise ValueError(
            "exponent pair must differ in exactly one slot, with e at least as "
            f"large there: got {e.as_tuple()} vs {e_bar.as_tuple()}"
        )
    first = lpq_norm(A, e)
    second = factor * lpq_norm(A, e_bar)
    if first > second * (1.0 + 1e-12):
        raise AssertionError(
            f"norm chain violated: {first!r} > {factor!r} * {lpq_norm(A, e_bar)!r}"
        )
    return first, second


# ----------------------------------------------------------------------------
# Shared JSON formats.  Matrices: {"M", "N", "entries": [[re, im], ...]} in
# row-major order (column index n fastest).  Grids: the analogous
# {"Kx", "Ky", "samples"} document.  Floats survive the round trip bit-exactly.
# Reports: one key per dataclass field (see JsonReport).
# ----------------------------------------------------------------------------


class JsonReport:
    """Base of the report dataclasses: their JSON document is their fields.

    Each field becomes the key of its name; exponents become the 4-list of
    reciprocals and tuples become lists.  A field whose default is None is
    left out while it is None, so a report kind carries only its own extras.
    """

    def to_json_dict(self) -> dict:
        doc = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.default is None:
                continue
            if isinstance(value, MixedExponents):
                value = value.as_tuple()
            doc[f.name] = list(value) if isinstance(value, tuple) else value
        return doc


def _pairs(flat: np.ndarray) -> list[list[float]]:
    """[[re, im], ...] of a 1-D complex array, as Python floats with every bit kept."""
    return np.ascontiguousarray(flat).view(np.float64).reshape(-1, 2).tolist()


def _document_array(doc, size_keys: tuple[str, str], data_key: str, what: str):
    """(rows, cols, complex rows x cols array) from a matrix or grid document.

    Every malformed document raises ValueError: a non-object, a missing key,
    a non-integer or non-positive size, values that are not numbers (numeric
    strings included), or pairs of the wrong count or length.
    """
    keys = (*size_keys, data_key)
    if not isinstance(doc, dict) or any(key not in doc for key in keys):
        raise ValueError(f"{what} JSON must be an object with keys {', '.join(keys)}")
    try:
        rows, cols = (operator.index(doc[key]) for key in size_keys)
        pairs = np.asarray(doc[data_key])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} JSON: {exc}") from exc
    if pairs.dtype.kind not in "iuf":
        raise ValueError(f"{what} JSON: {data_key} must hold numbers only")
    if rows < 1 or cols < 1:
        raise ValueError(f"{what} JSON: sizes must be positive, got {rows} x {cols}")
    if pairs.shape != (rows * cols, 2):
        raise ValueError(
            f"{what} JSON: expected {rows * cols} [re, im] pairs for {rows} x {cols}, "
            f"got an array of shape {pairs.shape}"
        )
    # Reinterpreting the (re, im) float pairs keeps every bit, signed zeros included.
    flat = np.ascontiguousarray(pairs, dtype=np.float64).view(np.complex128)
    return rows, cols, flat.reshape(rows, cols)


def matrix_to_json(A: CoefficientMatrix) -> dict:
    return {"M": A.M, "N": A.N, "entries": _pairs(A.entries.ravel(order="C"))}


def matrix_from_json(doc: dict) -> CoefficientMatrix:
    M, N, entries = _document_array(doc, ("M", "N"), "entries", "matrix")
    return CoefficientMatrix(M=M, N=N, entries=entries)


def grid_to_json(f: GridFunction) -> dict:
    return {"Kx": f.Kx, "Ky": f.Ky, "samples": _pairs(f.samples.ravel(order="C"))}


def grid_from_json(doc: dict) -> GridFunction:
    Kx, Ky, samples = _document_array(doc, ("Kx", "Ky"), "samples", "grid")
    return GridFunction(Kx=Kx, Ky=Ky, samples=samples)


def save_matrix(path: str | Path, A: CoefficientMatrix) -> None:
    Path(path).write_text(json.dumps(matrix_to_json(A)) + "\n")


def load_matrix(path: str | Path) -> CoefficientMatrix:
    return matrix_from_json(json.loads(Path(path).read_text()))


def save_grid(path: str | Path, f: GridFunction) -> None:
    """Write json.dumps(grid_to_json(f)) + "\\n", byte for byte, one grid row at a time.

    Only one row's pairs exist as Python objects at once, not the whole grid's.
    """
    head = json.dumps({"Kx": f.Kx, "Ky": f.Ky, "samples": []})[:-2]  # up to and including "["
    with Path(path).open("w") as out:
        out.write(head)
        for j, row in enumerate(f.samples):
            if j:
                out.write(", ")
            out.write(json.dumps(_pairs(row))[1:-1])
        out.write("]}\n")


def load_grid(path: str | Path) -> GridFunction:
    return grid_from_json(json.loads(Path(path).read_text()))
