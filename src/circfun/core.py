"""Arithmetic in the commutative ring of d x d complex circulant matrices.

A circulant matrix is determined by its first row; every row below is the
previous one shifted cyclically to the right.  The ring element is therefore
stored as a length-d complex vector, and the matrix product reduces to the
cyclic convolution of first rows.  Multiplication dispatches on the order
alone: a direct O(d^2) convolution below ``FFT_THRESHOLD`` and an FFT-based
O(d log d) path at or above it; both paths accept arbitrary d.  So does ring
Horner, which at FFT orders transforms once and runs the scalar loop
:func:`_horner`, shared with the channel calculus, over the channels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionError
from .tolerances import ISCLOSE_TOL, NORM_SAFE_MIN

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

    Instances are immutable: the constructor copies and checks the row and
    marks it read-only, so values are safe to share between threads.  The
    class has slots and no instance dictionary, since a solve can hold
    millions of roots.

    Roots recombined by the solver skip that copy: each is a read-only view
    of one row of its solution set's verified (count, d) array (see
    :meth:`_of_rows`).  Such a view cannot be made writeable again, but a
    root kept alone keeps that whole array alive, 786 KB for 4096 roots at
    d = 12.  Unpickling goes through the constructor, so it copies the row.
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
    return float(_norm2(np.abs(x.row), x.d))


def _norm2(magnitudes: np.ndarray, weight: float = 1.0) -> np.ndarray:
    """sqrt(weight * sum of squares) of nonnegative ``magnitudes`` over the
    last axis.  A result that overflowed or fell below ``NORM_SAFE_MIN`` is
    taken again from its row scaled by the power of two at its largest entry,
    which keeps every bit (as dnrm2 scales; Higham, Accuracy and Stability of
    Numerical Algorithms, 27.5).  Every other result is the plain one."""
    with np.errstate(over="ignore"):
        norms = np.sqrt(weight * np.sum(np.square(magnitudes), axis=-1))
        redo = (norms < NORM_SAFE_MIN) | (norms == np.inf)
        if np.any(redo):
            norms, rows = np.array(norms), magnitudes[redo]
            exponents = np.frexp(np.max(rows, axis=-1))[1]
            sums = np.sum(np.square(np.ldexp(rows, -exponents[:, None])), axis=-1)
            norms[redo] = np.ldexp(np.sqrt(weight * sums), exponents)
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


def horner(coeff_rows: Sequence[np.ndarray], z_row: np.ndarray) -> np.ndarray:
    """First row of C_0 Z^n + ... + C_n by ring Horner on rows.  At FFT orders:
    one batched FFT of the rows, then :func:`_horner_spectra`.  Below them
    each step is the direct product plus the next row.  A degree-0
    polynomial returns its row unchanged."""
    if z_row.size >= FFT_THRESHOLD and len(coeff_rows) > 1:
        return _horner_spectra(np.fft.fft(np.array(coeff_rows), axis=-1), z_row)
    acc = coeff_rows[0]
    for c in coeff_rows[1:]:
        acc = _mul_rows(acc, z_row, fft=False) + c
    return acc


def _horner_spectra(spectra: np.ndarray, z_row: np.ndarray) -> np.ndarray:
    """Ring Horner at FFT orders from the coefficient rows' FFTs ``spectra``
    (shape (n + 1, d)): the FFT of the point, :func:`_horner` over the d
    channels and one inverse FFT.  Each FFT row is bit for bit the one-row
    transform, so cached spectra give what one stacked transform gives."""
    return np.fft.ifft(_horner(spectra, np.fft.fft(z_row)))
