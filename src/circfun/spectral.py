"""Spectral decomposition of circulants.

All circulants of one order share the same eigenvectors, the columns of the
symmetric Vandermonde matrix S built from the d-th roots of unity.  The
eigenvalues u_1..u_d (the "spectrum", indexed by channel) are the conjugate
discrete Fourier transform of the first row, so the transform pair is exactly
the standard DFT/inverse-DFT.  Every ring operation acts channel-wise on the
spectrum, which is what the rest of the package exploits.

Below ``FFT_THRESHOLD`` the kernels sum with the one cache of tables,
:func:`fourier_context`, the read-only pair (S, conj S) per order;
:func:`fourier_matrix` builds S afresh for the dense oracles.  A stack of
many rows, as the solver rebuilds its roots, asks :func:`inverse_rows` for
the FFT at every order (``fft=True``), and verifies them with ``np.fft.fft``.
"""

from __future__ import annotations

import functools

import numpy as np

from .core import FFT_THRESHOLD, Circulant, _rescale_pow2
from .errors import DimensionError
from .tolerances import RANK_REL_TOL


def fourier_matrix(d: int) -> np.ndarray:
    """The symmetric Vandermonde matrix S with entries omega^(i*j), 0-based,
    omega = exp(2 pi i / d), exact on the quadrant axes; (sqrt(d)/d) * S is
    unitary.  Built afresh on each call."""
    if d < 2:
        raise DimensionError(f"order must be >= 2, got {d}")
    k = np.arange(d)
    powers = np.exp(2j * np.pi * k / d)
    on_axis = (4 * k) % d == 0
    powers[on_axis] = np.array([1.0, 1j, -1.0, -1j])[4 * k[on_axis] // d]
    return powers[np.outer(k, k) % d]


@functools.lru_cache(maxsize=64)
def fourier_context(d: int) -> tuple[np.ndarray, np.ndarray]:
    """(S, conj S) of :func:`fourier_matrix`, read-only and cached: the
    tables the direct kernels read below ``FFT_THRESHOLD``."""
    s = fourier_matrix(d)
    pair = s, np.conj(s)
    for table in pair:
        table.flags.writeable = False
    return pair


def spectrum(x: Circulant) -> np.ndarray:
    """Eigenvalues u_i = sum_j row_j * conj(omega)^((i-1)(j-1)), channel order i = 1..d.

    This is the forward DFT of the first row, the one-row case of
    :func:`forward_rows`.
    """
    return forward_rows(x.row)


def forward_rows(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Forward transform of one row (shape (d,)) or of each row of a stack (shape (N, d)):
    the FFT kernel at or above ``FFT_THRESHOLD``, the exact summation below it.  Below the
    threshold a stack runs stacked matrix-vector products, as :func:`inverse_rows` does, so
    each row is bit-identical to a one-row call.  The FFT kernel writes to ``out``, which may
    be ``rows`` itself, with the same bits; the sums ignore it and return a new array."""
    d = rows.shape[-1]
    if d >= FFT_THRESHOLD:
        return np.fft.fft(rows, axis=-1, out=out)
    matrix = fourier_context(d)[1]
    if rows.ndim == 1:
        return matrix @ rows
    return np.matmul(matrix, rows[:, :, None])[:, :, 0]


def from_spectrum(values: np.ndarray) -> Circulant:
    """Inverse of :func:`spectrum`: rebuild the circulant whose eigenvalues are given."""
    values = np.asarray(values, dtype=np.complex128)
    if values.ndim != 1 or values.size < 2:
        raise DimensionError(f"spectrum must be a vector of length >= 2, got shape {values.shape}")
    return Circulant(inverse_rows(values[None])[0])


def inverse_rows(spectra: np.ndarray, fft: bool = False) -> np.ndarray:
    """Batched inverse transform of the rows of ``spectra`` (shape (N, d)):
    the FFT kernel at or above ``FFT_THRESHOLD``, or at every order with
    ``fft``.  The direct kernel runs stacked matrix-vector products, not
    ``spectra @ S.T`` (another summation order for d >= 3), so on either
    kernel each row is bit-identical to a one-row call.  On either kernel a
    finite row whose sums overflow is taken again rescaled by
    :func:`circfun.core._rescale_pow2`, and scaled back, with no warning;
    every other row keeps its bits."""
    try:
        with np.errstate(over="raise"):  # the flag costs no pass over the rows
            return _inverse_kernel(spectra, fft)
    except FloatingPointError:
        pass
    with np.errstate(over="ignore", invalid="ignore"):  # a result out of range stays infinite
        rows = _inverse_kernel(spectra, fft)
        redo = np.isfinite(spectra).all(axis=1) & ~np.isfinite(rows).all(axis=1)
        scaled, e = _rescale_pow2(spectra[redo].astype(np.complex128))
        rows[redo] = np.ldexp(_inverse_kernel(scaled, fft).view(np.float64), e).view(np.complex128)
    return rows


def _inverse_kernel(spectra: np.ndarray, fft: bool) -> np.ndarray:
    d = spectra.shape[1]
    if fft or d >= FFT_THRESHOLD:
        return np.fft.ifft(spectra, axis=1)
    return np.matmul(fourier_context(d)[0], spectra[:, :, None])[:, :, 0] / d


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
    largest eigenvalue modulus overflowed).  Such a row is taken again
    rescaled by :func:`circfun.core._rescale_pow2`, with factor = 2^-e; its
    spectrum is then at most d * sqrt(2) in modulus.  An in-range row takes
    one pass and keeps its bits."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed spectrum is taken again; inf or NaN stays
        u = spectrum(x)
        magnitudes = np.abs(u)
        threshold = _rank_threshold(magnitudes, rel_tol)
        if threshold[0] < np.inf:
            return u, magnitudes, threshold, 1.0
        row, e = _rescale_pow2(x.row)
        u = forward_rows(row)
        magnitudes = np.abs(u)
        return u, magnitudes, _rank_threshold(magnitudes, rel_tol), 2.0 ** -int(e[0])


def _rank_quotient(numerator, denominator: np.ndarray, magnitudes: np.ndarray, threshold: np.ndarray, rel_tol=None):
    """The one rank rule of the pseudoinverse: (``numerator / denominator``,
    zeroed), the quotient taken where the modulus in ``magnitudes`` clears
    its point's :func:`_rank_threshold` ``threshold``, 0 on the channels
    ``zeroed``, at or below it, and NaN where the denominator is not finite.
    Such a value takes no part in its point's threshold: only where a
    threshold is not finite is it taken again over the finite moduli."""
    if not threshold.max() < np.inf:  # NaN fails too
        magnitudes = np.where(np.isfinite(magnitudes), magnitudes, np.nan)  # in neither mask
        threshold = _rank_threshold(np.nan_to_num(magnitudes), rel_tol)
    zeroed = magnitudes <= threshold
    return np.divide(numerator, denominator, out=np.where(zeroed, 0j, np.nan), where=magnitudes > threshold), zeroed


def _pinv_row(x: Circulant, rel_tol: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """First row of the pseudoinverse of ``x`` and the mask of the channels
    it zeroes, by :func:`_rank_quotient` (all of them when every eigenvalue
    vanishes; a row NaN where one is not finite), from
    :func:`_scaled_spectrum`: pinv(2^e Y) = 2^-e pinv(Y)."""
    u, magnitudes, threshold, factor = _scaled_spectrum(x, rel_tol)
    inverted, zeroed = _rank_quotient(1.0, u, magnitudes, threshold, rel_tol)
    row = inverse_rows(inverted[None])[0]
    return (row if factor == 1.0 else factor * row), zeroed


def pseudoinverse(x: Circulant, rel_tol: float | None = None) -> Circulant:
    """Moore-Penrose pseudoinverse, computed spectrally.

    Channels whose eigenvalue modulus is at most ``rel_tol * max_j |u_j|``
    are treated as rank-deficient and zeroed; the rest are inverted.
    ``rel_tol`` defaults to the table's ``RANK_REL_TOL * d``
    (:mod:`circfun.tolerances`); a given one must lie in [0, 1): at 1 the
    threshold reaches the largest modulus, and every channel would be zeroed.
    The zero matrix maps to itself.  A row whose largest eigenvalue modulus
    overflows is inverted scaled by a power of two (:func:`_scaled_spectrum`),
    and every other row keeps the plain result and its bits.  Entries that
    are not finite raise ValueError: they leave every channel NaN, which
    the in-range path reads from one entry of the result.
    """
    if rel_tol is not None and not 0 <= rel_tol < 1:  # NaN fails too
        raise ValueError(f"rel_tol must be in [0, 1), got {rel_tol}")
    row = _pinv_row(x, rel_tol)[0]
    if np.isnan(row[0]) and not np.isfinite(x.row).all():  # the mean of the inverted channels, NaN if one is
        raise ValueError("entries must be finite")
    return Circulant(row)


def is_invertible(x: Circulant) -> bool:
    """True when every eigenvalue clears the rank threshold of the table's
    ``RANK_REL_TOL`` (:mod:`circfun.tolerances`), taken scaled by a power of
    two when the largest eigenvalue modulus overflows (:func:`_scaled_spectrum`)."""
    _, magnitudes, threshold, _ = _scaled_spectrum(x)
    return bool((magnitudes > threshold).all())
