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
takes the power in place on it.  The reductions (`_reduce`,
`_reduce_gradient`, `MixedNorm`) take a stack: the inner norm runs over
axis -2 and the outer one over axis -1, and leading axes hold independent
arrays, each reduced as it would be alone, bit for bit.  A lone matrix's
outer root is a numpy scalar, which `**` raises by libm's pow, while an
array's `**` may take a SIMD power that differs in the last bit; every
outer root is therefore taken by `np.float_power`, which is libm's pow on
scalars and arrays alike.

`lrs_norm` never builds the modulus of the whole grid.  Its inner norm runs
down each column on its own, so it walks the samples in blocks of columns
of about CACHE_SAMPLES samples (`_column_blocks`), whose modulus and
quotient stay in cache, and joins the blocks' inner values for the outer norm.
Every block takes the same reduction as the whole grid would, column by
column, so the value keeps its bits: numpy sums a block of two or more
columns row after row, as it sums the whole grid, but sums a lone column
pairwise, so no block is one column wide unless the grid is.
"""

from __future__ import annotations

import json
import os
import re
import warnings
from dataclasses import dataclass, fields
from pathlib import Path
from typing import NamedTuple, TextIO

import numpy as np

from .exponents import MixedExponents, check_dimensions


class QuadratureWarning(UserWarning):
    """The refinement check found the half-coarse grid disagreeing beyond REFINE_REL_TOL."""


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
        _check_array(self, ("M", "N"), "entries")


def _check_array(obj, size_keys: tuple[str, str], data_key: str) -> None:
    """Store a matrix's or grid's sizes as Python ints and its values as a finite complex128 array."""
    shape = check_dimensions(*(getattr(obj, key) for key in size_keys), names=size_keys)
    arr = np.asarray(getattr(obj, data_key), dtype=np.complex128)
    if arr.shape != shape:
        raise ValueError(f"{data_key} shape {arr.shape} does not match ({', '.join(size_keys)})={shape}")
    # An inf or nan makes the sum inf or nan, so a finite sum clears every
    # value in one pass without a mask; only a sum that is not finite needs it.
    with np.errstate(over="ignore", invalid="ignore"):
        if not (np.isfinite(arr.sum()) or np.isfinite(arr).all()):
            raise ValueError(f"{data_key} must all be finite")
    for key, value in zip((*size_keys, data_key), (*shape, arr)):
        object.__setattr__(obj, key, value)


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
        _check_array(self, ("Kx", "Ky"), "samples")


# The refinement check warns above this relative disagreement with the half grid.
REFINE_REL_TOL = 1e-6


@dataclass(frozen=True)
class QuadratureSpec:
    """Grid-quadrature policy: the optional refinement check of lrs_norm.

    With `refine_check` set, lrs_norm recomputes on the half-coarse grid and
    warns when the two values disagree by more than REFINE_REL_TOL relatively.
    """

    refine_check: bool = False


def lpq_norm(A: CoefficientMatrix, e: MixedExponents) -> float:
    """The discrete mixed norm: p-norm over rows m per column, q-norm across columns.

    Only e.alpha and e.beta are consulted.  Exactly zero iff A is the zero
    matrix; inf, never NaN, beyond float range, and then without numpy's
    overflow warnings.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _overflowed(float(MixedNorm.of(np.abs(A.entries), e.alpha, e.beta, mean=False).value))


def lrs_norm(f: GridFunction, e: MixedExponents, spec: QuadratureSpec = QuadratureSpec()) -> float:
    """The grid L^{r,s} mixed norm by the periodic rectangle rule.

    For each y_k the x-norm is ((1/Kx) sum_j |f|^r)^(1/r) (max over j when
    r = inf); the same rule is then applied in y with exponent s.  Only
    e.gamma and e.delta are consulted.  With spec.refine_check set, the value
    is recomputed on the half-coarse grid (every second sample in each
    direction) and a QuadratureWarning is issued when the relative
    disagreement exceeds REFINE_REL_TOL; a grid with an odd size has no
    half grid and raises ValueError.  A value beyond float range is inf,
    without numpy's overflow warnings.

    The value is MixedNorm.of(|samples|, gamma, delta, mean=True).value, bit
    for bit, taken one column block at a time (see the module docstring).
    """
    # The half grid only stays uniform-periodic when both sizes are even.
    if spec.refine_check and (f.Kx % 2 or f.Ky % 2):
        raise ValueError(f"the refinement check needs even grid sizes, got Kx={f.Kx}, Ky={f.Ky}")
    with np.errstate(over="ignore", invalid="ignore"):
        inner, coarse_inner = _inner_norms(f.samples, e.gamma, spec.refine_check)
        value = _overflowed(float(_reduce(inner, e.delta, True, -1)))
        if coarse_inner is None:
            return value
        coarse = _overflowed(float(_reduce(coarse_inner, e.delta, True, -1)))
    denom = max(abs(value), abs(coarse), 1e-300)
    disagreement = abs(value - coarse) / denom
    if disagreement > REFINE_REL_TOL:
        warnings.warn(
            QuadratureWarning(
                f"half-grid value {coarse:.12g} vs {value:.12g} "
                f"(relative disagreement {disagreement:.3e} > {REFINE_REL_TOL:.3e}); "
                "resample on a finer grid with eval --Kx/--Ky"
            ),
            stacklevel=2,
        )
    return value


# About the float64 samples a 2 MiB cache holds: lrs_norm's column blocks
# hold this many samples.
CACHE_SAMPLES = 2**18


def _column_blocks(Kx: int, Ky: int, samples: int) -> list[tuple[int, int]]:
    """Column ranges [lo, hi) covering 0..Ky, of about `samples` samples each.

    Blocks are an even number of columns wide, at least four (a 64-byte line
    of complex samples), so each starts on an even column and its half-grid
    slice [::2, ::2] is at least two columns wide; a tail of fewer than four
    columns joins the block before it.  A grid narrower than one block is
    one block.
    """
    width = 2 * max(2, samples // (2 * Kx))
    edges = list(range(0, Ky, width))
    if len(edges) > 1 and Ky - edges[-1] < 4:
        edges.pop()
    return list(zip(edges, [*edges[1:], Ky]))


def _inner_norms(samples: np.ndarray, recip: float, half: bool) -> tuple[np.ndarray, "np.ndarray | None"]:
    """_reduce(|samples|, recip, True) and, with `half`, that of |samples|[::2, ::2] (else None).

    Bit for bit those arrays, taken one column block at a time.
    """
    full, coarse = [], []
    for lo, hi in _column_blocks(*samples.shape, CACHE_SAMPLES):
        block = np.abs(samples[:, lo:hi])
        full.append(_reduce(block, recip, True))
        if half:  # blocks start on even columns, so these are the half grid's columns
            coarse.append(_reduce(block[::2, ::2], recip, True))
    return np.concatenate(full), np.concatenate(coarse) if half else None


def _reduce(a: np.ndarray, recip: float, mean: bool, axis: int = -2) -> np.ndarray:
    """The norm with reciprocal exponent `recip` (0 = infinite) along `axis`, -2 or -1.

    `a` must be non-negative real.  Sums of powers (rectangle-rule means when
    `mean` is set) are accumulated with each slice's largest entry factored
    out, so large exponents neither overflow nor underflow.
    """
    top = a.max(axis=axis)
    if recip == 0.0:
        return top
    expo = 1.0 / recip
    # Avoid 0/0 where a whole slice vanishes; those slices contribute 0.
    safe = np.where(top > 0.0, top, 1.0)
    # The power is taken in place on the quotient: one working array the size
    # of `a`.  `**=` takes the same scalar-power paths (square, sqrt, ...) as `**`.
    body = a / _spread(safe, axis)
    body **= expo
    body = body.sum(axis=axis)
    if mean:  # ndarray.mean's own arithmetic, without its Python wrapper
        body = body / a.shape[axis]
    # Outer roots by libm's pow, on a stack as on a lone matrix's scalar (see the module docstring).
    return top * (np.float_power(body, 1.0 / expo) if axis == -1 else body ** (1.0 / expo))


def _spread(reduced: np.ndarray, axis: int) -> np.ndarray:
    """`reduced` with the axis (-2 or -1) it was reduced along put back as a unit: np.expand_dims, less its cost."""
    return reduced[..., None, :] if axis == -2 else reduced[..., None]


def _overflowed(value: float) -> float:
    """`value`, or inf where it is NaN.

    A norm of finite values is NaN only where a modulus or an inner norm
    overflowed to inf and the outer reduction divided it by itself.  The
    search's steps skip the finiteness checks, so MixedNorm keeps its NaN.
    """
    return np.inf if value != value else value


def _reduce_gradient(a: np.ndarray, value: np.ndarray, recip: float, mean: bool, axis: int = -2) -> np.ndarray:
    """d value / d a for value = _reduce(a, recip, mean, axis), broadcast to a's shape.

    An infinite exponent takes the one-hot subgradient at the first argmax.
    Slices that vanish get weight 0 (for exponent one, the caller's phase
    factor supplies that zero).
    """
    if recip == 0.0:
        grad = np.zeros_like(a)
        np.put_along_axis(grad, _spread(np.argmax(a, axis=axis), axis), 1.0, axis=axis)
        return grad
    safe = np.where(value > 0.0, value, 1.0)
    grad = (a / _spread(safe, axis)) ** (1.0 / recip - 1.0)
    return grad / a.shape[axis] if mean else grad


class MixedNorm(NamedTuple):
    """A mixed norm of the non-negative array `a`, with the reductions its gradient reuses.

    The norm with reciprocal exponent `inner` runs down axis -2, giving
    `inner_values`, then `outer` across axis -1, giving `value`; `mean`
    selects the rectangle-rule means of lrs_norm over the plain sums of
    lpq_norm.  Leading axes are a stack of independent arrays, each reduced
    as it would be alone, bit for bit; for a 2-D `a` (a stack of none)
    `value` is a numpy float.  Build one with `MixedNorm.of`: lpq_norm is
    the value of MixedNorm.of(|entries|, alpha, beta, mean=False) and
    lrs_norm that of MixedNorm.of(|samples|, gamma, delta, mean=True).
    """

    a: np.ndarray
    inner: float
    outer: float
    mean: bool
    inner_values: np.ndarray
    value: np.ndarray

    @classmethod
    def of(cls, a: np.ndarray, inner: float, outer: float, mean: bool) -> "MixedNorm":
        inner_values = _reduce(a, inner, mean)
        return cls(a, inner, outer, mean, inner_values, _reduce(inner_values, outer, mean, -1))

    def gradient(self) -> np.ndarray:
        """The partial derivatives of `value` in `a`, from the stored reductions.

        Where an exponent is infinite this is a subgradient: one-hot at the
        first argmax.
        """
        return _reduce_gradient(self.a, self.inner_values, self.inner, self.mean) * _spread(
            _reduce_gradient(self.inner_values, self.value, self.outer, self.mean, -1), -2)


# ----------------------------------------------------------------------------
# Shared JSON formats.  Matrices: {"M", "N", "entries": [[re, im], ...]} in
# row-major order (column index n fastest).  Grids: the analogous
# {"Kx", "Ky", "samples"} document.  Floats survive the round trip bit-exactly.
# The loaders parse the savers' bytes without json.loads, in chunks of about
# 2^18 bytes, so they hold the loaded array and about a chunk of text
# (_canonical_array); any other text goes through json.loads.
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


def _document_array(doc, size_keys: tuple[str, str], data_key: str, what: str):
    """(rows, cols, complex rows x cols array) from a matrix or grid document.

    Every malformed document raises ValueError: a non-object, a missing key,
    sizes that check_dimensions refuses, values that are not numbers (numeric
    strings included), or pairs of the wrong count or length.
    """
    keys = (*size_keys, data_key)
    if not isinstance(doc, dict) or any(key not in doc for key in keys):
        raise ValueError(f"{what} JSON must be an object with keys {', '.join(keys)}")
    try:
        rows, cols = check_dimensions(*(doc[key] for key in size_keys), names=size_keys)
        pairs = np.asarray(doc[data_key])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} JSON: {exc}") from exc
    if pairs.dtype.kind not in "iuf":
        raise ValueError(f"{what} JSON: {data_key} must hold numbers only")
    if pairs.shape != (rows * cols, 2):
        raise ValueError(
            f"{what} JSON: expected {rows * cols} [re, im] pairs for {rows} x {cols}, "
            f"got an array of shape {pairs.shape}"
        )
    # Reinterpreting the (re, im) float pairs keeps every bit, signed zeros included.
    flat = np.ascontiguousarray(pairs, dtype=np.float64).view(np.complex128)
    return rows, cols, flat.reshape(rows, cols)


def _load_array(path: str | Path, size_keys: tuple[str, str], data_key: str, what: str):
    """(rows, cols, complex array) of the matrix or grid file at `path`; a malformed one raises ValueError.

    The exact layout that the savers write is parsed without a Python float
    per number (_canonical_array); any other text goes through json.loads
    and _document_array.  Text that is not JSON, or not UTF-8, is named as
    the `what` document, as _document_array names its own refusals.
    """
    canonical = _canonical_array(path, size_keys, data_key)
    try:
        return canonical or _document_array(json.loads(Path(path).read_text()), size_keys, data_key, what)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{what} JSON: {exc}") from exc


def matrix_from_json(doc: dict) -> CoefficientMatrix:
    """The matrix of a parsed `{"M", "N", "entries"}` document; a malformed one raises ValueError."""
    M, N, entries = _document_array(doc, ("M", "N"), "entries", "matrix")
    return CoefficientMatrix(M=M, N=N, entries=entries)


def grid_to_json(f: GridFunction) -> dict:
    """The grid's `{"Kx", "Ky", "samples"}` document, each sample an exact [re, im] pair."""
    pairs = np.ascontiguousarray(f.samples).view(np.float64).reshape(-1, 2)  # [re, im] with every bit kept
    return {"Kx": f.Kx, "Ky": f.Ky, "samples": pairs.tolist()}


def grid_from_json(doc: dict) -> GridFunction:
    """The grid of a parsed `{"Kx", "Ky", "samples"}` document; a malformed one raises ValueError."""
    Kx, Ky, samples = _document_array(doc, ("Kx", "Ky"), "samples", "grid")
    return GridFunction(Kx=Kx, Ky=Ky, samples=samples)


def save_matrix(path: str | Path, A: CoefficientMatrix) -> None:
    """Write the matrix's JSON document to the file at `path`, one row at a time (see _write_array)."""
    with Path(path).open("w") as out:
        _write_array(out, {"M": A.M, "N": A.N, "entries": []}, A.entries)


def load_matrix(path: str | Path) -> CoefficientMatrix:
    """Read the matrix file at `path`; a malformed one raises ValueError (see _load_array)."""
    return CoefficientMatrix(*_load_array(path, ("M", "N"), "entries", "matrix"))


# np.fromstring parses by strtod, looser than JSON.  With "[" a space and "]",
# "}" and "\n" tabs, no number runs into the next and a space precedes each: -?,
# 0 or [1-9][0-9]*, and a fraction or exponent with a digit or sign after its
# "." or "e".  So +1, .5, 5., 01, 1.e5, "[, ]" (strtod reads -1.0) and integers
# (json.loads reads -0 as +0) take the general path.  A literal start scans fast.
_NOT_A_FLOAT = re.compile(rb" (?! |-?(?:0|[1-9][0-9]*)[.eE][0-9+-])")
_NUMBER_GAPS = bytes.maketrans(b"[]}\n", b" \t\t\t")
# The canonical reader takes the body in reads of _CHUNK_BYTES, which stay in
# cache; a read allocates its whole size even at the end of a small file.
_CHUNK_BYTES = 2**18
_HEAD_BYTES = 128  # more than a header with two 18-digit sizes
# More than the longest canonical run without a pair separator, ' [[' re
# ', ' im ']]}\n' with reprs of at most 24 characters: 57 bytes.
_PAIR_BYTES = 64


def _canonical_array(path: str | Path, size_keys: tuple[str, str], data_key: str):
    """(rows, cols, complex array) of a file in the savers' exact layout, else None: the general path decides.

    The body ' [[re, im], [re, im], ..., [re, im]]}\n' is read in chunks,
    each cut after the "]" of its last "], [" and the rest carried to the
    next, so that each piece holds whole pairs (_piece_values).  Their
    numbers fill one array, sized once the file is seen to be large enough.
    """
    path = Path(path)
    if not path.is_file():  # a pipe is read once, by the general path
        return None
    size = "([1-9][0-9]{0,17})"  # int() takes at most 4300 digits
    with path.open("rb") as handle:
        head = re.match(rf'\{{"{size_keys[0]}": {size}, "{size_keys[1]}": {size}, "{data_key}":'.encode(),
                        handle.read(_HEAD_BYTES))
        if head is None:
            return None
        rows, cols = int(head[1]), int(head[2])
        # Each pair takes 6 bytes of layout and two numbers of 3 or more, so
        # nothing is sized from the header before the file is.
        if os.fstat(handle.fileno()).st_size - head.end() < 12 * rows * cols + 3:
            return None
        handle.seek(head.end())
        values = np.empty(2 * rows * cols)
        filled, lead, carry = 0, b" [", b""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            while True:
                chunk = handle.read(_CHUNK_BYTES)
                text = carry + chunk
                cut = text.rfind(b"], [") + 1 if chunk else len(text)
                if chunk and not cut:
                    if len(text) > _PAIR_BYTES:  # no canonical pair is this long: do not gather the file
                        return None
                    carry = text
                    continue
                parsed = _piece_values(text[:cut], lead, b"" if chunk else b"]}\n")
                if parsed is None or filled + parsed.size > values.size:
                    return None
                values[filled:filled + parsed.size] = parsed
                filled += parsed.size
                if not chunk:
                    break
                carry, lead = text[cut + 1:], b" "  # the "," of the separator dropped
    return (rows, cols, values.view(np.complex128).reshape(rows, cols)) if filled == values.size else None


def _piece_values(piece: bytes, lead: bytes, tail: bytes) -> "np.ndarray | None":
    """The numbers of a piece of whole pairs, else None.

    Between its numbers the piece must read `lead` (' [' for the first piece,
    ' ' for the others), '[, ]', ', [, ]' for each further pair, then `tail`
    (']}\n' for the last piece).  Parses under warnings raised as errors.
    """
    layout = piece.translate(None, b"0123456789.eE+-")
    pairs = (len(layout) - len(lead) - len(tail) + 2) // 6
    if layout != lead + b"[, ]" + b", [, ]" * (pairs - 1) + tail:
        return None
    numbers = piece.translate(_NUMBER_GAPS)  # '   re, im\t,  re, im\t'
    if _NOT_A_FLOAT.search(numbers):
        return None
    try:
        parsed = np.fromstring(numbers, sep=",")
    except (ValueError, Warning):
        return None
    return parsed if parsed.size == 2 * pairs else None


def _write_array(out: TextIO, header: dict, array: np.ndarray) -> None:
    """Write json.dumps(header) + "\\n" to `out`, its empty list filled with the [re, im] pairs of `array`.

    Row by row, so only one row's floats exist as Python objects at once.  Each row is one `%r`
    template: json writes a finite float as float.__repr__, and matrices and grids are finite.
    """
    out.write(json.dumps(header)[:-2])  # up to and including "["
    template = ", ".join(["[%r, %r]"] * array.shape[1])
    for j, row in enumerate(array):
        if j:
            out.write(", ")
        out.write(template % tuple(np.ascontiguousarray(row).view(np.float64).tolist()))
    out.write("]}\n")


def write_grid(out: TextIO, f: GridFunction) -> None:
    """Write json.dumps(grid_to_json(f)) + "\\n" to `out`, byte for byte, one grid row at a time."""
    _write_array(out, {"Kx": f.Kx, "Ky": f.Ky, "samples": []}, f.samples)


def save_grid(path: str | Path, f: GridFunction) -> None:
    """Write the grid's JSON document (see write_grid) to the file at `path`."""
    with Path(path).open("w") as out:
        write_grid(out, f)


def load_grid(path: str | Path) -> GridFunction:
    """Read the grid file at `path`; a malformed one raises ValueError (see _load_array)."""
    return GridFunction(*_load_array(path, ("Kx", "Ky"), "samples", "grid"))
