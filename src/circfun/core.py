"""Arithmetic in the commutative ring of d x d complex circulant matrices.

A circulant matrix is determined by its first row; every row below is the
previous one shifted cyclically to the right.  The ring element is therefore
stored as a length-d complex vector, and the matrix product reduces to the
cyclic convolution of first rows.  Multiplication dispatches on the order
alone: a direct O(d^2) convolution below ``FFT_THRESHOLD`` and an FFT-based
O(d log d) path at or above it; both paths accept arbitrary d.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionError

#: Orders at or above this multiply and transform by FFT.  Stacks of rows,
#: as the solver and the limit scan transform them, favour the FFT from here.
FFT_THRESHOLD = 32


def _as_row(entries: Sequence[complex] | np.ndarray) -> np.ndarray:
    row = np.asarray(entries, dtype=np.complex128)
    if row.ndim != 1:
        raise DimensionError(f"row must be one-dimensional, got shape {row.shape}")
    return row


@dataclass(frozen=True, eq=False, slots=True)
class Circulant:
    """A d x d complex circulant matrix, stored as its first row.

    Instances are immutable: the row array is copied on construction and
    marked read-only, so values are safe to share between threads.  The
    class has slots and no instance dictionary, since a solve can hold
    millions of roots.
    """

    row: np.ndarray = field(repr=False)

    def __init__(self, entries: Sequence[complex] | np.ndarray):
        row = _as_row(entries).copy()
        if row.size < 2:
            raise DimensionError(f"order must be >= 2, got {row.size}")
        row.flags.writeable = False
        object.__setattr__(self, "row", row)

    def __reduce__(self):
        # Unpickle through the constructor: a restored row would otherwise
        # come back writeable.
        return Circulant, (self.row,)

    @property
    def d(self) -> int:
        """Matrix order."""
        return self.row.size

    def isclose(self, other: "Circulant", tol: float = 1e-9) -> bool:
        """Tolerance-based equality: max entrywise modulus difference <= tol."""
        if self.d != other.d:
            return False
        return bool(np.max(np.abs(self.row - other.row)) <= tol)

    def __repr__(self) -> str:
        entries = np.array2string(self.row, precision=6, separator=", ", suppress_small=True)
        return f"Circulant(d={self.d}, row={entries})"

    def __add__(self, other: "Circulant") -> "Circulant":
        if not isinstance(other, Circulant):
            return NotImplemented
        return add(self, other)

    def __sub__(self, other: "Circulant") -> "Circulant":
        if not isinstance(other, Circulant):
            return NotImplemented
        return add(self, neg(other))

    def __neg__(self) -> "Circulant":
        return neg(self)

    def __mul__(self, other):
        if isinstance(other, Circulant):
            return mul(self, other)
        if isinstance(other, (int, float, complex, np.number)):
            return scale(other, self)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex, np.number)):
            return scale(other, self)
        return NotImplemented

    def __pow__(self, k: int) -> "Circulant":
        return power(self, k)


def from_row(entries: Sequence[complex] | np.ndarray) -> Circulant:
    """Build a circulant from its first row (length d >= 2)."""
    return Circulant(entries)


def elementary(d: int) -> Circulant:
    """The cyclic-shift generator circ(0, 1, 0, ..., 0); its d-th power is the identity."""
    if d < 2:
        raise DimensionError(f"order must be >= 2, got {d}")
    row = np.zeros(d, dtype=np.complex128)
    row[1] = 1.0
    return Circulant(row)


def identity(d: int) -> Circulant:
    """circ(1, 0, ..., 0), the multiplicative unit."""
    if d < 2:
        raise DimensionError(f"order must be >= 2, got {d}")
    row = np.zeros(d, dtype=np.complex128)
    row[0] = 1.0
    return Circulant(row)


def ones(d: int) -> Circulant:
    """circ(1, 1, ..., 1), the matrix of units."""
    if d < 2:
        raise DimensionError(f"order must be >= 2, got {d}")
    return Circulant(np.ones(d, dtype=np.complex128))


def zero(d: int) -> Circulant:
    """The additive unit circ(0, ..., 0)."""
    if d < 2:
        raise DimensionError(f"order must be >= 2, got {d}")
    return Circulant(np.zeros(d, dtype=np.complex128))


def _check_same_order(x: Circulant, y: Circulant) -> None:
    if x.d != y.d:
        raise DimensionError(f"order mismatch: {x.d} vs {y.d}")


def add(x: Circulant, y: Circulant) -> Circulant:
    _check_same_order(x, y)
    return Circulant(x.row + y.row)


def neg(x: Circulant) -> Circulant:
    return Circulant(-x.row)


def scale(a: complex, x: Circulant) -> Circulant:
    return Circulant(complex(a) * x.row)


def mul_naive(x: Circulant, y: Circulant) -> Circulant:
    """Direct O(d^2) cyclic convolution of the first rows."""
    _check_same_order(x, y)
    return Circulant(_mul_rows(x.row, y.row, fft=False))


def mul_fft(x: Circulant, y: Circulant) -> Circulant:
    """O(d log d) cyclic convolution via forward/inverse FFT."""
    _check_same_order(x, y)
    return Circulant(_mul_rows(x.row, y.row, fft=True))


def mul(x: Circulant, y: Circulant) -> Circulant:
    """Ring product: cyclic convolution of rows, equal to the dense matrix product.

    Dispatches to the direct path below ``FFT_THRESHOLD`` and to the FFT
    path at or above it.
    """
    _check_same_order(x, y)
    if x.d >= FFT_THRESHOLD:
        return mul_fft(x, y)
    return mul_naive(x, y)


def _mul_rows(a: np.ndarray, b: np.ndarray, fft: bool) -> np.ndarray:
    """Cyclic convolution of two first rows, by FFT or directly."""
    a, b = _canonical_pair(a, b)
    if fft:
        return np.fft.ifft(np.fft.fft(a) * np.fft.fft(b))
    full = np.convolve(a, b)
    out = full[: a.size].copy()
    out[: a.size - 1] += full[a.size :]
    return out


def _canonical_pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Fix an operand order so mul(X, Y) and mul(Y, X) run the identical
    # float computation; summation order is not commutative in IEEE.
    if a.tobytes() <= b.tobytes():
        return a, b
    return b, a


def power(x: Circulant, k: int) -> Circulant:
    """k-th ring power by binary exponentiation; power(x, 0) is the identity."""
    if k < 0:
        raise ValueError(f"exponent must be >= 0, got {k}")
    result = identity(x.d)
    base = x
    while k:
        if k & 1:
            result = mul(result, base)
        base_needed = k >> 1
        if base_needed:
            base = mul(base, base)
        k = base_needed
    return result


def to_dense(x: Circulant) -> np.ndarray:
    """Expand to the full d x d matrix: entry (i, j) is row[(j - i) mod d]."""
    d = x.d
    idx = (np.arange(d)[None, :] - np.arange(d)[:, None]) % d
    return x.row[idx]


def frobenius_norm(x: Circulant) -> float:
    """Frobenius norm of the dense expansion, sqrt(d * sum |row_j|^2)."""
    return float(np.sqrt(x.d * np.sum(np.abs(x.row) ** 2)))


def horner(coeff_rows: Sequence[np.ndarray], z_row: np.ndarray) -> np.ndarray:
    """First row of C_0 Z^n + ... + C_n by ring Horner: each step is the product
    of :func:`mul` plus the next coefficient, on rows, without a Circulant."""
    fft = z_row.size >= FFT_THRESHOLD
    acc = coeff_rows[0]
    for c in coeff_rows[1:]:
        acc = _mul_rows(acc, z_row, fft) + c
    return acc
