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

#: Rank tolerance per unit of order: an eigenvalue counts as zero when its
#: modulus is at most ``(RANK_REL_TOL * d) * max_j |u_j|``.
RANK_REL_TOL = 1e-12


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


def pseudoinverse(x: Circulant, rel_tol: float | None = None) -> Circulant:
    """Moore-Penrose pseudoinverse, computed spectrally.

    Channels whose eigenvalue modulus is at most ``rel_tol * max_j |u_j|``
    are treated as rank-deficient and zeroed; the rest are inverted.  The
    default tolerance is ``RANK_REL_TOL * d``.  The zero matrix maps to itself.
    """
    if rel_tol is None:
        rel_tol = RANK_REL_TOL * x.d
    if rel_tol < 0:
        raise ValueError(f"rel_tol must be >= 0, got {rel_tol}")
    u = spectrum(x)
    largest = np.max(np.abs(u))
    if largest == 0.0:
        return from_spectrum(np.zeros_like(u))
    keep = np.abs(u) > rel_tol * largest
    inverted = np.zeros_like(u)
    inverted[keep] = 1.0 / u[keep]
    return from_spectrum(inverted)


def is_invertible(x: Circulant) -> bool:
    """True when every eigenvalue clears the rank threshold
    ``(RANK_REL_TOL * d) * max_j |u_j|``."""
    u = np.abs(spectrum(x))
    largest = np.max(u)
    return bool(largest > 0.0 and np.min(u) > RANK_REL_TOL * x.d * largest)
