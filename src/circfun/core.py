"""Arithmetic in the commutative ring of d x d complex circulant matrices.

A circulant matrix is determined by its first row; every row below is the
previous one shifted cyclically to the right.  The ring element is therefore
stored as a length-d complex vector, and the matrix product reduces to the
cyclic convolution of first rows.  Multiplication dispatches on the order
alone: a direct O(d^2) convolution below ``FFT_THRESHOLD`` and an FFT-based
O(d log d) path at or above it; both paths accept arbitrary d.  The scalar
Horner loop :func:`_horner` is shared by ring Horner at FFT orders
(:meth:`circfun.functions.CircPoly.evaluate`), the channel calculus and the
solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionError
from .tolerances import ISCLOSE_TOL, NORM_SAFE_MIN

#: Orders at or above this multiply and transform by FFT.  Below it, for one
#: row or an 11-row stack, as points and the limit scan take them, an FFT
#: call through the batched transforms took 1.1-2.6x the direct sums' time
#: at d = 2..31 (5.7-17.3 us against 2.2-10.9 us; 2 vCPUs, numpy 2.4.6).
#: The solver's stacks of recombined roots take the FFT at every order
#: (``inverse_rows(..., fft=True)`` and ``np.fft.fft``): for a (1024, d)
#: stack one pocketfft call took 0.20-0.62x the stacked sums' time at
#: d = 2..31, except at the primes from 13, where the forward call took
#: 0.90-1.16x and the inverse 0.54-0.82x (median of 11).  Per solve at
#: d = 13..31 it took 0.92-0.96x with 4096 roots, and 0.96-1.04x with 64
#: roots or fewer.
FFT_THRESHOLD = 32


def _as_row(entries: Sequence[complex] | np.ndarray) -> np.ndarray:
    row = np.asarray(entries, dtype=np.complex128)
    if row.ndim != 1:
        raise DimensionError(f"row must be one-dimensional, got shape {row.shape}")
    return row


@dataclass(frozen=True, eq=False, slots=True)
class Circulant:
    """A d x d complex circulant matrix, stored as its first row.

    Instances are immutable: the constructor copies and checks the row and
    marks it read-only, so values are safe to share between threads.  The
    class has slots and no instance dictionary, since a solve can hold
    millions of roots.

    Roots recombined by the solver skip that copy: each is a read-only view
    (see :meth:`_of_rows`) of its own sum of two half-table rows, or, once
    the set's (count, d) rows are built on first read, of one of them.  Such
    a view cannot be made writeable again; a root read by index keeps only
    its own d entries alive.  Unpickling goes through the constructor, so it
    copies the row.
    """

    row: np.ndarray = field(repr=False)

    def __init__(self, entries: Sequence[complex] | np.ndarray):
        row = _as_row(entries).copy()
        if row.size < 2:
            raise DimensionError(f"order must be >= 2, got {row.size}")
        row.flags.writeable = False
        object.__setattr__(self, "row", row)

    @classmethod
    def _of_rows(cls, rows: np.ndarray) -> list["Circulant"]:
        """One instance per row of ``rows``, an (N, d >= 2) complex128 array or
        slice allocated by the library, never caller input, made read-only
        once: each instance views its row, with no copy or check per row."""
        rows.flags.writeable = False
        new, set_row = object.__new__, object.__setattr__
        out = []
        for row in rows:
            c = new(cls)
            set_row(c, "row", row)
            out.append(c)
        return out

    def __reduce__(self):
        # Unpickle through the constructor: a restored row would otherwise
        # come back writeable.
        return Circulant, (self.row,)

    @property
    def d(self) -> int:
        """Matrix order."""
        return self.row.size

    def isclose(self, other: "Circulant", tol: float = ISCLOSE_TOL) -> bool:
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


def _zero_row(d: int) -> np.ndarray:
    """The zero first row of order ``d``, which must be at least 2."""
    if d < 2:
        raise DimensionError(f"order must be >= 2, got {d}")
    return np.zeros(d, dtype=np.complex128)


def elementary(d: int) -> Circulant:
    """The cyclic-shift generator circ(0, 1, 0, ..., 0); its d-th power is the identity."""
    row = _zero_row(d)
    row[1] = 1.0
    return Circulant(row)


def identity(d: int) -> Circulant:
    """circ(1, 0, ..., 0), the multiplicative unit."""
    row = _zero_row(d)
    row[0] = 1.0
    return Circulant(row)


def ones(d: int) -> Circulant:
    """circ(1, 1, ..., 1), the matrix of units."""
    return Circulant(_zero_row(d) + 1.0)


def zero(d: int) -> Circulant:
    """The additive unit circ(0, ..., 0)."""
    return Circulant(_zero_row(d))


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
    path at or above it; each checks the orders.
    """
    if x.d >= FFT_THRESHOLD:
        return mul_fft(x, y)
    return mul_naive(x, y)


def _mul_rows(a: np.ndarray, b: np.ndarray, fft: bool) -> np.ndarray:
    """Cyclic convolution of two first rows, by FFT or directly.  An FFT
    product that overflows is taken again from operands rescaled by
    :func:`_rescale_pow2`; every other product keeps its bits.  A product
    of an operand that is not finite warns nothing, as the sums do."""
    a, b = _canonical_pair(a, b)
    if fft:
        try:
            with np.errstate(over="raise", invalid="ignore"):  # the flag costs no pass over the rows
                return np.fft.ifft(np.fft.fft(a) * np.fft.fft(b))
        except FloatingPointError:
            pass
        (a, ea), (b, eb) = _rescale_pow2(a), _rescale_pow2(b)
        with np.errstate(over="ignore", invalid="ignore"):  # a product out of range stays infinite
            product = np.fft.ifft(np.fft.fft(a) * np.fft.fft(b))
            return np.ldexp(product.view(np.float64), ea + eb).view(np.complex128)
    full = np.convolve(a, b)
    out = full[: a.size].copy()
    out[: a.size - 1] += full[a.size :]
    return out


def _rescale_pow2(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x`` (float64 or complex128) scaled exactly by 2^-e over the last
    axis, and e (that axis kept): 2^e is the power of two at each row's
    largest real or imaginary part, as dnrm2 scales (Higham 2002, 27.5)."""
    parts = x.view(np.float64)  # a complex row's real and imaginary parts
    e = np.frexp(np.max(np.abs(parts), axis=-1, keepdims=True))[1]
    return np.ldexp(parts, -e).view(x.dtype), e


def _canonical_pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Fix an operand order so mul(X, Y) and mul(Y, X) run the identical
    # float computation: summation order is not commutative in IEEE, and nor
    # is numpy's complex product, which the FFT path takes of the spectra
    # (18 of 64 random a * b differ from b * a in the last bit).
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
    return float(_norm2(np.abs(x.row), x.d))


def _norm2(magnitudes: np.ndarray, weight: float = 1.0) -> np.ndarray:
    """sqrt(weight * sum of squares) of nonnegative ``magnitudes`` over the
    last axis.  A result that overflowed or fell below ``NORM_SAFE_MIN`` is
    taken again from its row rescaled by :func:`_rescale_pow2`, and scaled
    back.  Every other result is the plain one."""
    with np.errstate(over="ignore"):
        norms = np.sqrt(weight * np.sum(np.square(magnitudes), axis=-1))
        redo = (norms < NORM_SAFE_MIN) | (norms == np.inf)
        if np.any(redo):
            norms, (rows, e) = np.array(norms), _rescale_pow2(magnitudes[redo])
            norms[redo] = np.ldexp(np.sqrt(weight * np.sum(np.square(rows), axis=-1)), e[:, 0])
    return norms


def _horner(coeffs, u: np.ndarray) -> np.ndarray:
    """Horner value of scalar polynomials, the one loop over coefficient rows:
    the coefficient axis comes first and the trailing axes broadcast against
    ``u``; the value keeps the inputs' dtype.  Each product goes to a spare
    buffer, the row is added there and the buffers swap: numpy rounds a
    one-entry complex product differently when it multiplies in place."""
    value = np.zeros(np.broadcast(u, coeffs[0]).shape, dtype=np.result_type(coeffs, u))
    spare = np.empty_like(value)
    for row in coeffs:
        value, spare = np.add(np.multiply(value, u, out=spare), row, out=spare), value
    return value
