"""Spectral decomposition of circulants.

All circulants of one order share the same eigenvectors, the columns of the
symmetric Vandermonde matrix S built from the d-th roots of unity.  The
eigenvalues u_1..u_d (the "spectrum", indexed by channel) are the conjugate
discrete Fourier transform of the first row, so the transform pair is exactly
the standard DFT/inverse-DFT.  Every ring operation acts channel-wise on the
spectrum, which is what the rest of the package exploits.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import FFT_THRESHOLD, Circulant
from .errors import DimensionError
from .tolerances import RANK_REL_TOL


@dataclass(frozen=True)
class FourierContext:
    """Cached root-of-unity tables for one order d."""

    d: int
    omega: complex

    @functools.cached_property
    def power_table(self) -> np.ndarray:
        """omega^k for k = 0..d-1, with exact values on the quadrant axes."""
        k = np.arange(self.d)
        table = np.exp(2j * np.pi * k / self.d)
        on_axis = (4 * k) % self.d == 0
        quadrant = np.array([1.0, 1j, -1.0, -1j])
        table[on_axis] = quadrant[(4 * k[on_axis] // self.d) % 4]
        return table

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """The full d x d matrix S with entries omega^(i*j), 0-based."""
        d = self.d
        exponents = np.outer(np.arange(d), np.arange(d)) % d
        return self.power_table[exponents]

    @functools.cached_property
    def conj_matrix(self) -> np.ndarray:
        """conj(S), the forward transform matrix."""
        return np.conj(self.matrix)


@functools.lru_cache(maxsize=64)
def fourier_context(d: int) -> FourierContext:
    if d < 2:
        raise DimensionError(f"order must be >= 2, got {d}")
    return FourierContext(d=d, omega=complex(np.exp(2j * np.pi / d)))


def fourier_matrix(d: int) -> np.ndarray:
    """The symmetric Vandermonde matrix S; (sqrt(d)/d) * S is unitary."""
    return fourier_context(d).matrix.copy()


def spectrum(x: Circulant) -> np.ndarray:
    """Eigenvalues u_i = sum_j row_j * conj(omega)^((i-1)(j-1)), channel order i = 1..d.

    This is the forward DFT of the first row, the one-row case of
    :func:`forward_rows`.
    """
    return forward_rows(x.row)


def forward_rows(rows: np.ndarray) -> np.ndarray:
    """Forward transform of one row (shape (d,)) or of each row of a stack
    (shape (N, d)): the FFT kernel at or above ``FFT_THRESHOLD``, the exact
    summation below it.  Below the threshold a stack runs stacked
    matrix-vector products, as :func:`inverse_rows` does, so each row is
    bit-identical to a one-row call."""
    d = rows.shape[-1]
    if d >= FFT_THRESHOLD:
        return np.fft.fft(rows, axis=-1)
    matrix = fourier_context(d).conj_matrix
    if rows.ndim == 1:
        return matrix @ rows
    return np.matmul(matrix, rows[:, :, None])[:, :, 0]


def from_spectrum(values: np.ndarray) -> Circulant:
    """Inverse of :func:`spectrum`: rebuild the circulant whose eigenvalues are given."""
    values = np.asarray(values, dtype=np.complex128)
    if values.ndim != 1 or values.size < 2:
        raise DimensionError(f"spectrum must be a vector of length >= 2, got shape {values.shape}")
    return Circulant(inverse_rows(values[None])[0])


def inverse_rows(spectra: np.ndarray) -> np.ndarray:
    """Batched inverse transform of the rows of ``spectra`` (shape (N, d)).
    Below the FFT threshold it runs stacked matrix-vector products, not
    ``spectra @ S.T`` (another summation order for d >= 3), so each row is
    bit-identical to a one-row call."""
    d = spectra.shape[1]
    if d >= FFT_THRESHOLD:
        return np.fft.ifft(spectra, axis=1)
    return np.matmul(fourier_context(d).matrix, spectra[:, :, None])[:, :, 0] / d


def _rank_threshold(magnitudes: np.ndarray, rel_tol: float | None = None):
    """``rel_tol * max(magnitudes)`` per point (the last axis), at or below
    which an eigenvalue modulus counts as zero (all of them when all vanish;
    with a NaN, none either way); ``rel_tol`` defaults to the table's
    ``RANK_REL_TOL * d`` (:mod:`circfun.tolerances`)."""
    if rel_tol is None:
        rel_tol = RANK_REL_TOL * magnitudes.shape[-1]
    return rel_tol * magnitudes.max(axis=-1, keepdims=True)


def _scaled_spectrum(x: Circulant, rel_tol: float | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """(u, |u|, rank threshold, factor) for the circulant ``x``: its
    spectrum u, with factor 1.0, unless the threshold is not finite (the
    largest eigenvalue modulus overflowed).  Such a row is taken again scaled
    by factor = 2^-e, with 2^e the power of two at its largest real or
    imaginary part, as :func:`core._norm2` scales; its spectrum is then at
    most d * sqrt(2) in modulus.  An in-range row takes one pass and keeps
    its bits."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed spectrum is taken again below
        u = spectrum(x)
        magnitudes = np.abs(u)
        threshold = _rank_threshold(magnitudes, rel_tol)
    if threshold[0] < np.inf:
        return u, magnitudes, threshold, 1.0
    factor = 2.0 ** -int(np.frexp(np.max(np.abs(x.row.view(np.float64))))[1])
    u = forward_rows(factor * x.row)
    magnitudes = np.abs(u)
    return u, magnitudes, _rank_threshold(magnitudes, rel_tol), factor


def _pinv_row(x: Circulant, rel_tol: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """First row of the pseudoinverse of ``x`` and the mask of the channels
    it zeroes, those at or below the rank threshold (all of them when every
    eigenvalue vanishes; none at a NaN threshold), from
    :func:`_scaled_spectrum`: pinv(2^e Y) = 2^-e pinv(Y)."""
    u, magnitudes, threshold, factor = _scaled_spectrum(x, rel_tol)
    keep = magnitudes > threshold
    inverted = np.zeros_like(u)
    inverted[keep] = 1.0 / u[keep]
    row = inverse_rows(inverted[None])[0]
    return (row if factor == 1.0 else factor * row), magnitudes <= threshold


def pseudoinverse(x: Circulant, rel_tol: float | None = None) -> Circulant:
    """Moore-Penrose pseudoinverse, computed spectrally.

    Channels whose eigenvalue modulus is at most ``rel_tol * max_j |u_j|``
    are treated as rank-deficient and zeroed; the rest are inverted.
    ``rel_tol`` defaults to the table's ``RANK_REL_TOL * d``
    (:mod:`circfun.tolerances`); a given one must be finite and >= 0.  The
    zero matrix maps to itself.  A row whose largest eigenvalue modulus
    overflows is inverted scaled by a power of two (:func:`_scaled_spectrum`),
    and every other row keeps the plain result and its bits.
    """
    if rel_tol is not None and not 0 <= rel_tol < np.inf:
        raise ValueError(f"rel_tol must be finite and >= 0, got {rel_tol}")
    return Circulant(_pinv_row(x, rel_tol)[0])


def is_invertible(x: Circulant) -> bool:
    """True when every eigenvalue clears the rank threshold of the table's
    ``RANK_REL_TOL`` (:mod:`circfun.tolerances`), taken scaled by a power of
    two when the largest eigenvalue modulus overflows (:func:`_scaled_spectrum`)."""
    _, magnitudes, threshold, _ = _scaled_spectrum(x)
    return bool((magnitudes > threshold).all())
