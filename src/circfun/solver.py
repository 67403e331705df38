"""Solving P(Z) = 0 over the circulant ring.

The equation splits into d independent scalar polynomial equations, one per
eigenchannel.  Channels fall into three classes once coefficients below the
relative tolerance are discarded:

* effective degree >= 1: finitely many scalar roots,
* a nonzero constant: no value of the channel variable works, so the ring
  equation has no solution at all,
* identically zero: any value works, giving a free complex parameter.

The root-bearing channels are grouped by effective degree n, and each group
is solved as one (m, n + 1) matrix of monic rows: Ehrlich-Aberth on the
(m, n) iterate with an (m, n, n) repulsion tensor, rows leaving the active
set as they converge, then Newton polishing, clustering into multiplicities
by inclusion discs and the residual check, all row-wise, with each row's
value and derivative from one pass of the scalar Horner loop of
:mod:`circfun.core`.  Each row starts from Bini's Newton-polygon radii: the
slopes of the upper concave hull of the points (k, log|a_k|) give one radius
per root near its modulus, so rows whose roots spread over many decades
converge in a few iterations instead of creeping in from the Cauchy bound.
Rows run in blocks whose tensors hold at most ``BLOCK_ENTRIES`` = 2**16
entries of 16 bytes: the smallest bound of a sweep over 2**15 to 2**18 that
solves each degree group of the benchmark in one block, which took its
heaviest cases from about 20 to 16 ms for 0.5 MB more peak RSS (40.8 MB).
The P and P' passes of Aberth and polishing take their points as one
contiguous (2, rows, n) stack, not the iterate broadcast twice.  Each step
does on a row exactly what it would do on that row alone, so a channel's
roots depend neither on the rest of the polynomial nor on the blocks, and
:func:`solve_scalar_poly` is the one-row case.

When every channel has roots, the solutions are all combinations of one root
per channel, recombined through the inverse transform; a degree-n equation
with invertible leading coefficient therefore has between 1 and n^d roots.

No duplicate check is needed: clustering leaves each channel one root per
component of disjoint discs, so distinct combinations are distinct spectra,
which the bijective inverse transform maps to distinct circulants.

Recombined roots are verified a chunk at a time in the spectral domain.  The
forward transform of the chunk's rows gives the spectra u_k, the channel
matrix is evaluated at them with its scales, and by Parseval the residual
||P(Z_k)||_F is sqrt(sum_i |p_i(u_ki)|^2).  Each channel value must pass the
backward-error gate |p_i(u_ki)| <= tol * max(scale_ki, max(1, S)), with
scale_ki = sum_j |c_ji| |u_ki|^(n-j) and S the largest spectral coefficient
modulus.  Since that check reads the same channel matrix the solve used, the
root of each chunk with the worst ratio to its bound is also evaluated by
ring Horner on the raw coefficient rows, not the snapped channel matrix (at
FFT orders on their own transforms), and its Frobenius norm must stay within
the finite 2-norm of its channel bounds (norms by :func:`core._norm2`).

The verified rows are the storage of the roots: one (count, d) array, kept
with the residuals in ``verified`` (:class:`RootTable`), whose rows ``roots``
wraps as read-only Circulant views on access; a root keeps it all alive.

A solution set keeps its channels as arrays in ``table``
(:class:`ChannelRoots`): the effective degrees, which give the kinds, and
the distinct roots in CSR form.  Recombination and ``sample_members`` read
numbered root combinations from them (:meth:`ChannelRoots._values_at`);
``channel_reports`` builds a ChannelReport per channel on access.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import core
from .core import Circulant, _horner
from .errors import (
    DegeneratePolynomialError,
    DimensionError,
    RecombinationLimitError,
    SolverError,
)
from .functions import (
    ChannelView, CircPoly, _column_table, _with_derivative, polyval_with_scale,
)
from .spectral import forward_rows, inverse_rows
from .tolerances import ABERTH_STOP_REL_TOL, CIRC_RESIDUAL_TOL, DIVISION_GUARD, POLYGON_FLOOR, SCALAR_RESIDUAL_TOL

#: Default cap on the number of root combinations materialized.
DEFAULT_RECOMBINATION_LIMIT = 10**6

#: Root combinations rebuilt per batched inverse transform.
RECOMBINE_CHUNK = 1024

#: Entries of the (rows, n, n) Aberth temporaries per block of channels:
#: each complex tensor takes BLOCK_ENTRIES * 16 bytes, 1 MB.  Chosen from a
#: sweep of 2**15 to 2**18 on the heaviest solve-channels cases (median ms
#: per solve on 2 vCPUs, numpy 2.4.6; d16n60 / d32n40 / d64n30): 20.3 /
#: 17.1 / 18.5 at 2**15, which splits each into two blocks, and 16.9 /
#: 14.8 / 16.2 at 2**16, the smallest bound that makes every degree group of
#: the benchmark one block (the largest hold 15 * 60**2, 31 * 40**2 and
#: 63 * 30**2 entries).  2**17 and 2**18 make the same blocks there and timed
#: the same within host drift.  Peak RSS was 40.3 MB at 2**15, 40.8 MB above.
BLOCK_ENTRIES = 2**16

#: Aberth iterations before the companion-matrix fallback.
ABERTH_MAX_ITER = 100


class SolutionStatus(Enum):
    FINITE = "finite"
    NO_SOLUTION = "no-solution"
    INFINITE_FAMILY = "infinite-family"


@dataclass(frozen=True)
class ScalarRoots:
    """Distinct roots of one channel polynomial with multiplicities."""

    roots: np.ndarray
    multiplicities: np.ndarray
    iterations: int
    max_residual: float


@dataclass(frozen=True)
class ChannelReport:
    """Per-channel outcome; ``channel`` is 1-based."""

    channel: int
    kind: str  # "roots" | "identically-zero" | "nonzero-constant"
    effective_degree: int | None = None
    roots: tuple[complex, ...] = ()
    multiplicities: tuple[int, ...] = ()


#: Channel kind by effective degree: -1 (identically zero), 0, or above.
KINDS = ("identically-zero", "nonzero-constant", "roots")


@_column_table
class ChannelRoots(NamedTuple):
    """Per-channel outcome of a solve as arrays over the d channels.

    ``degrees`` holds each channel's effective degree, -1 where it is
    identically zero; it also gives the kind, ``KINDS[min(degree, 1) + 1]``.
    The distinct roots are in CSR form: those of channel i are
    ``roots[offsets[i]:offsets[i + 1]]`` with the multiplicities in the same
    slice of ``multiplicities``.  Every array is read-only.
    """

    degrees: np.ndarray
    offsets: np.ndarray
    roots: np.ndarray
    multiplicities: np.ndarray

    def channel(self, i: int) -> ChannelReport:
        """The report of 0-based channel ``i``."""
        degree, lo, hi = int(self.degrees[i]), self.offsets[i], self.offsets[i + 1]
        roots, mults = tuple(self.roots[lo:hi].tolist()), tuple(self.multiplicities[lo:hi].tolist())
        return ChannelReport(i + 1, KINDS[min(degree, 1) + 1], None if degree < 0 else degree, roots, mults)

    def _values_at(self, index: np.ndarray, channels: np.ndarray) -> np.ndarray:
        """Values (N, len(channels)) of the 0-based ``channels`` in the root combinations numbered
        ``index`` (N,): a number's digits in the mixed radix of the channels' root counts, last
        fastest, pick one root per channel, so the numbers follow ``itertools.product`` order."""
        sizes, digits = np.diff(self.offsets)[channels], np.empty((index.size, channels.size), dtype=np.intp)
        for j in reversed(range(channels.size)):
            index, digits[:, j] = divmod(index, sizes[j])
        return self.roots[self.offsets[channels] + digits]


@_column_table
class RootTable(NamedTuple):
    """Row k of ``rows`` (count, d) is root k, ``residuals[k]`` its ||P(Z_k)||_F; empty unless finite."""

    rows: np.ndarray
    residuals: np.ndarray


class RootView(ChannelView):
    """Read-only Circulant views of the rows of ``rows``, made on access or, by iteration, in one batch."""

    def __init__(self, rows: np.ndarray):
        super().__init__(lambda k: Circulant._of_rows(rows[k : k + 1])[0], rows.shape[0])
        self._rows = rows

    def __iter__(self):
        return iter(Circulant._of_rows(self._rows))

    def __eq__(self, other):
        return np.array_equal(self._rows, other._rows) if isinstance(other, RootView) else NotImplemented


@dataclass(frozen=True)
class SolutionSet:
    status: SolutionStatus
    verified: RootTable
    table: ChannelRoots
    free_channels: tuple[int, ...] = ()  # 1-based, infinite families only

    @property
    def roots(self) -> RootView:
        """The roots, in ``itertools.product`` order of the channel roots."""
        return RootView(self.verified.rows)

    @property
    def residuals(self) -> ChannelView:  # ||P(Z_k)||_F of each root, as Python floats
        return ChannelView(self.verified.residuals.item, self.verified.residuals.size)

    @property
    def channel_reports(self) -> ChannelView:
        """The table as ChannelReport records, built on access."""
        return ChannelView(self.table.channel, self.table.degrees.size)

    def sample_members(self, count: int, seed: int = 0, magnitude: float = 1.0) -> list[Circulant]:
        """Materialize concrete members of an infinite family.

        Fixed channels cycle deterministically through their root
        combinations in ``itertools.product`` order; free channels draw
        complex values from a seeded generator, real part first, member by
        member and channel by channel.  All members go through one batched
        inverse transform and are read-only views of its rows.  Only
        meaningful when status is INFINITE_FAMILY.
        """
        if self.status is not SolutionStatus.INFINITE_FAMILY:
            raise ValueError("sampling applies to infinite families only")
        t = self.table
        free = np.flatnonzero(t.degrees < 0)
        fixed = np.flatnonzero(t.degrees > 0)
        total = math.prod(np.diff(t.offsets)[fixed].tolist())  # a Python int: it may exceed int64
        index = np.arange(count)
        grid = np.empty((count, t.degrees.size), dtype=np.complex128)
        grid[:, fixed] = t._values_at(index if total > count else index % total, fixed)
        draws = np.random.default_rng(seed).standard_normal((count, free.size, 2))
        grid[:, free] = magnitude * draws.view(np.complex128)[:, :, 0]
        return Circulant._of_rows(inverse_rows(grid))


def solve_scalar_poly(
    coeffs,
    tol: float = SCALAR_RESIDUAL_TOL,
    max_iter: int = ABERTH_MAX_ITER,
) -> ScalarRoots:
    """All complex roots of a scalar polynomial (leading coefficient first).

    Runs the Ehrlich-Aberth iteration from the radii of the Newton polygon of
    the coefficients (see :func:`_polygon_radii`) at evenly spaced angles,
    falls back to companion-matrix eigenvalues if it stalls, polishes with
    one Newton step per root and merges roots whose inclusion discs touch
    (:func:`_cluster_roots`) into multiplicities.  Only exactly zero leading
    coefficients are stripped.

    Residuals pass the row gate of :mod:`circfun.tolerances` against the
    scale sum |c_k| |r|^(n-k).  This is the one-row case of the batched
    solve that :func:`solve_circ_poly` runs over its channels.
    NaN or infinite coefficients, or a ``tol`` that is not positive and
    finite, raise ValueError.
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coefficients must be a nonempty vector")
    if not np.all(np.isfinite(c)):
        raise ValueError("coefficients must be finite")
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    nonzero = np.flatnonzero(c)
    if nonzero.size == 0:
        raise DegeneratePolynomialError("identically zero polynomial")
    c = c[nonzero[0] :]
    if c.size == 1:
        raise DegeneratePolynomialError("constant polynomial has no roots")
    roots, mults, iterations, residuals, errors = _solve_monic_rows((c / c[0])[None], tol, max_iter)
    if errors:
        raise errors[0]
    count = np.count_nonzero(mults[0])
    return ScalarRoots(roots[0, :count], mults[0, :count], int(iterations[0]), float(residuals[0]))


def _solve_monic_rows(monic: np.ndarray, tol: float, max_iter: int):
    """Roots of each row of ``monic``, shape (m, n + 1) with n >= 1.

    Returns arrays over the rows: the distinct roots (m, n), each row's k
    distinct roots first, then copies of its first; their multiplicities
    (m, n), zero past the k-th; the iteration counts; the largest residuals;
    and a dict of the SolverError of each row that failed.  Rows run in
    blocks whose (rows, n, n) temporaries hold about ``BLOCK_ENTRIES``
    entries.  Every step acts on a row exactly as it would on that row
    alone, so the results do not depend on the grouping.
    """
    n = monic.shape[1] - 1
    step = max(1, BLOCK_ENTRIES // (n * n))
    blocks, errors = [], {}
    for start in range(0, monic.shape[0], step):
        block = monic[start : start + step]
        roots, iterations, failures = _aberth(block, max_iter)
        values, scales = polyval_with_scale(block.T[:, :, None], roots)
        polished, residuals = _newton_polish(block, roots)
        distinct, mults, radii = _cluster_roots(block, roots, values, scales, polished)
        for i in np.flatnonzero(~np.all(np.isfinite(radii), axis=1)).tolist():
            errors[start + i] = SolverError("inclusion disc radii are not finite")
        # The gate reuses the scales of the unpolished roots; only merged centers are new points.
        merged = np.flatnonzero(mults[:, -1] == 0)  # rows with fewer than n distinct roots
        if merged.size:
            at_centers, scales[merged] = polyval_with_scale(block[merged].T[:, :, None], distinct[merged])
            residuals[merged] = np.abs(at_centers)
        max_residuals = np.max(residuals, axis=1)
        rejected = ~np.all(residuals <= tol * np.maximum(scales, 1.0), axis=1)  # NaN fails
        for i in np.flatnonzero(rejected).tolist():
            errors[start + i] = SolverError(
                f"root residual {max_residuals[i]:.3e} exceeds tolerance {tol:.1e} after polishing"
            )
        errors.update((start + i, error) for i, error in failures.items())
        blocks.append((distinct, mults, iterations, max_residuals))
    return (*(np.concatenate(parts) for parts in zip(*blocks)), errors)


def _polygon_radii(monic: np.ndarray) -> np.ndarray:
    """Starting radii from the Newton polygon of each row, shape (m, n).

    With y_k = log|a_k| for the coefficient a_k of u^k, slot t gets
    exp(-s_t), where s_t = min_{i <= t} max_{j > t} (y_j - y_i) / (j - i) is
    the slope of the upper concave hull of the points (k, y_k) on [t, t + 1]
    (Bini, Numer. Algorithms 13, 1996).  A zero root gives radius 0, which is
    raised to ``POLYGON_FLOOR`` times the row's smallest positive radius (1
    if it has none) so that the starting points stay distinct.
    """
    n = monic.shape[1] - 1
    k = np.arange(n + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        # A contiguous copy: np.log of a strided view can round differently,
        # and a channel's start must not depend on its block.
        y = np.log(np.abs(np.ascontiguousarray(monic[:, ::-1])))
        slopes = (y[:, None, :] - y[:, :, None]) / (k - k[:, None])  # [row, i, j]
    slopes[np.isnan(slopes)] = -np.inf  # both coefficients zero
    beyond = np.maximum.accumulate(slopes[:, :, :0:-1], axis=2)[:, :, ::-1]  # [row, i, t]: max over j > t
    hull = np.min(np.where(k[:, None] <= k[None, :-1], beyond, np.inf), axis=1)  # min over i <= t
    radius = np.exp(-hull)
    smallest = np.min(np.where(radius > 0, radius, np.inf), axis=1, keepdims=True)
    return np.maximum(radius, np.where(np.isfinite(smallest), POLYGON_FLOOR * smallest, 1.0))


def _aberth(monic: np.ndarray, max_iter: int) -> tuple[np.ndarray, np.ndarray, dict]:
    """Ehrlich-Aberth on every row; a row leaves the active set once its
    corrections are negligible.  Slot t of every row starts at its
    Newton-polygon radius and the angle 2 pi t / n + 0.7.  Returns the roots,
    the iteration counts and the SolverError of each row whose
    companion-matrix fallback failed."""
    m, n = monic.shape[0], monic.shape[1] - 1
    if n == 1:
        return -monic[:, 1:], np.zeros(m, dtype=np.intp), {}
    rows = _with_derivative(monic.T[:, :, None])  # against (z, z): P and P' of row i at row i of z
    angles = 2 * np.pi * np.arange(n) / n + 0.7  # offset breaks axis symmetry
    z = _polygon_radii(monic) * np.exp(1j * angles)
    roots = np.empty_like(z)
    iterations = np.full(m, max_iter, dtype=np.intp)
    active = np.arange(m)
    diagonal = np.arange(n)
    buffer = np.empty((m, n, n), dtype=np.complex128)  # reused: one tensor alive per block
    for iteration in range(1, max_iter + 1):
        p, dp = _horner(rows[:, :, active], np.stack((z, z)))
        dp = np.where(dp == 0, DIVISION_GUARD, dp)
        w = p / dp
        diff = np.subtract(z[:, :, None], z[:, None, :], out=buffer[: z.shape[0]])
        diff[:, diagonal, diagonal] = 1.0
        repulsion = np.sum(np.divide(1.0, diff, out=diff), axis=2) - 1.0  # remove the diagonal's 1/1
        denom = 1.0 - w * repulsion
        denom = np.where(denom == 0, DIVISION_GUARD, denom)
        correction = w / denom
        z = z - correction
        done = np.all(np.abs(correction) <= ABERTH_STOP_REL_TOL * (1.0 + np.abs(z)), axis=1)
        roots[active[done]] = z[done]
        iterations[active[done]] = iteration
        active, z = active[~done], z[~done]
        if active.size == 0:
            break
    # Stalled (typically root clusters): companion-matrix eigenvalues.
    failures = {}
    for i in active.tolist():
        try:
            roots[i] = np.roots(monic[i])
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            failures[i] = SolverError("companion-matrix fallback failed to converge")
            failures[i].__cause__ = exc
            roots[i] = np.nan
    return roots, iterations, failures


def _newton_polish(monic: np.ndarray, roots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One Newton step per root, kept only where it lowers |p|; row i of
    ``roots`` belongs to row i of ``monic``.  Returns the roots and |p| there."""
    coeffs = monic.T[:, :, None]
    p, dp = _horner(_with_derivative(coeffs), np.stack((roots, roots)))
    safe = dp != 0
    stepped = roots.copy()
    stepped[safe] = roots[safe] - p[safe] / dp[safe]
    before, after = np.abs(p), np.abs(_horner(coeffs, stepped))
    better = after < before
    return np.where(better, stepped, roots), np.where(better, after, before)


def _cluster_roots(monic: np.ndarray, roots: np.ndarray, values: np.ndarray, scales: np.ndarray, polished):
    """Distinct roots of each row in lexicographic order, with multiplicities.

    Approximation z_i in a row of ``roots`` (m, n), with ``values`` and
    ``scales`` the :func:`polyval_with_scale` of the row of ``monic``, gets
    the disc of radius n (|p(z_i)| + 4 n eps s(z_i)) / prod_{j != i} |z_i - z_j|
    (Bini & Fiorentino, Numer. Algorithms 23, 2000), or {0} if it is one of
    the k exact zeros the companion-matrix fallback gives for k trailing zero
    coefficients: the z_i^k cancel from the other discs.  A component of k
    touching discs holds k roots and becomes one root of multiplicity k: the
    mean of its members, or the ``polished`` root plus 0.0 if k = 1.  Discs
    come before polishing, which can blow them up at a multiple root.  Returns
    the distinct roots (each row's k_i, then copies of its first), their
    multiplicities (zero past the k_i-th) and the radii.
    """
    m, n = roots.shape
    diagonal = np.arange(n)
    gap = np.abs(roots[:, None, :] - roots[:, :, None])
    gap[:, diagonal, diagonal] = 1.0  # out of the product, which is a sum of logs
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        slack = n * (np.abs(values) + 4 * n * np.finfo(np.float64).eps * scales)
        radii = np.exp(np.log(slack) - np.sum(np.log(gap), axis=2))
    zero = roots == 0  # exact roots if no more than the trailing zero coefficients: the disc {0}
    radii[zero & (np.count_nonzero(zero, axis=1) <= np.argmax(monic[:, ::-1] != 0, axis=1))[:, None]] = 0.0
    touch = gap <= radii[:, :, None] + radii[:, None, :]
    # Min-label propagation: each root ends with the smallest index in its component.
    labels, spread = None, np.broadcast_to(diagonal, (m, n))
    while not np.array_equal(labels, spread):
        labels, spread = spread, np.minimum(spread, np.min(np.where(touch, spread[:, None, :], n), axis=2))
    # A center is its first member plus the members' mean offset from it.
    flat = (labels + n * np.arange(m)[:, None]).ravel()
    sizes = np.bincount(flat, minlength=m * n).reshape(m, n)
    offsets = (roots - np.take_along_axis(roots, labels, 1)).ravel()
    mean = (np.bincount(flat, offsets.real, m * n) + 1j * np.bincount(flat, offsets.imag, m * n)).reshape(m, n)
    centers = np.where(sizes == 1, polished, roots) + mean / np.maximum(sizes, 1)
    order = np.lexsort((centers.imag, centers.real, sizes == 0))
    distinct, mults = np.take_along_axis(centers, order, 1), np.take_along_axis(sizes, order, 1)
    return np.where(mults > 0, distinct, distinct[:, :1]), mults, radii


def residual(p: CircPoly, z: Circulant) -> float:
    """Frobenius norm of P(Z), by Parseval from the channel values at the
    spectrum of Z: sqrt(sum_i |p_i(u_i)|^2).  This is the one-row case of the
    check :func:`solve_circ_poly` runs on its roots, so it reproduces their
    residuals exactly."""
    if z.d != p.d:
        raise DimensionError(f"order mismatch: point has {z.d}, coefficients have {p.d}")
    return float(_channel_residuals(p.channel_matrix(), z.row[None])[2][0])


def _channel_residuals(cm: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Moduli |p_i(u_ki)| of the channel values and their scales, shape
    (N, d), at the spectra u_k of ``rows`` (N, d), with the Frobenius norm of
    P(Z_k) for each row."""
    values, scales = polyval_with_scale(cm[:, None, :], forward_rows(rows))
    magnitudes = np.abs(values)
    return magnitudes, scales, core._norm2(magnitudes)


def solve_circ_poly(
    p: CircPoly,
    tol: float = CIRC_RESIDUAL_TOL,
    recombination_limit: int = DEFAULT_RECOMBINATION_LIMIT,
) -> SolutionSet:
    """Classify and solve P(Z) = 0.

    The root-bearing channels are grouped by effective degree, and each group
    goes through one batched scalar solve; if channels fail, the error names
    the lowest-numbered one.  The finite case returns every combination of
    one root per channel, without dedup, in ``itertools.product`` order, read
    from the mixed-radix digits of its index and rebuilt and verified a chunk
    of ``RECOMBINE_CHUNK`` at a time (see the module docstring).  A root
    failing a check raises SolverError.  A channel matrix with NaN or
    infinite entries, or a ``tol`` that is not positive and finite, raises
    ValueError.
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if p.degree < 1:
        raise ValueError("polynomial degree must be >= 1")

    with np.errstate(over="ignore", invalid="ignore"):  # such input is rejected next
        cm = p.channel_matrix()
    if not np.all(np.isfinite(cm)):
        raise ValueError("polynomial coefficients must be finite")
    degrees = p.channel_degrees()
    width = max(int(degrees.max()), 0)
    distinct = np.zeros((p.d, width), dtype=np.complex128)  # row i: channel i's roots, padded
    mults = np.zeros((p.d, width), dtype=np.intp)  # zero past each channel's distinct roots
    errors = {}
    for k in sorted(set(degrees[degrees > 0].tolist())):
        channels = np.flatnonzero(degrees == k)
        coeffs = cm[cm.shape[0] - 1 - k :, channels].T
        distinct[channels, :k], mults[channels, :k], _, _, failed = _solve_monic_rows(
            coeffs / coeffs[:, :1], tol, ABERTH_MAX_ITER
        )
        errors.update((int(channels[i]), error) for i, error in failed.items())
    if errors:
        first = min(errors)
        raise SolverError(f"channel {first + 1}: {errors[first]}") from errors[first]

    # Row by row, the kept entries are the distinct roots in CSR form.
    kept = mults > 0
    counts = np.count_nonzero(kept, axis=1)
    table = ChannelRoots._make((degrees, np.concatenate([[0], np.cumsum(counts)]), distinct[kept], mults[kept]))

    # Only a finite set recombines; the others keep an empty root table.
    count = math.prod(counts.tolist()) if np.all(degrees > 0) else 0
    if count > recombination_limit:
        raise RecombinationLimitError(f"root combinations exceed the cap of {recombination_limit}")

    coeff_rows = [c.row for c in p.coeffs]
    floor = max(1.0, p._scale)  # the largest spectral coefficient modulus
    roots = np.empty((count, p.d), dtype=np.complex128)
    residuals = np.empty(count)
    for start in range(0, count, RECOMBINE_CHUNK):
        stop = min(start + RECOMBINE_CHUNK, count)
        rows = roots[start:stop]  # the chunk is rebuilt and verified in place
        rows[:] = inverse_rows(table._values_at(np.arange(start, stop), np.arange(p.d)))
        magnitudes, scales, residuals[start:stop] = _channel_residuals(cm, rows)
        bounds = tol * np.maximum(scales, floor)
        passed = (magnitudes <= bounds) & np.isfinite(bounds)  # NaN fails; an overflowed scale bounds nothing
        # A failing entry ranks first; otherwise the worst ratio to its bound.
        ratios = np.divide(magnitudes, bounds, out=np.full(bounds.shape, np.inf), where=passed)
        k, i = np.unravel_index(np.argmax(ratios), ratios.shape)
        if not passed[k, i]:
            raise SolverError(
                f"reconstructed root residual {magnitudes[k, i]:.3e} exceeds {bounds[k, i]:.1e}"
                f" in channel {i + 1} of root {start + k + 1}"
            )
        ring = core.frobenius_norm(Circulant(core.horner(coeff_rows, rows[k])))
        allowed = float(core._norm2(bounds[k]))
        if not ring <= allowed < np.inf:  # an overflowed bound bounds nothing
            raise SolverError(
                f"reconstructed root residual {ring:.3e} exceeds {allowed:.1e}"
                f" in the ring check of root {start + k + 1}"
            )
    free = () if np.any(degrees == 0) else tuple((np.flatnonzero(degrees < 0) + 1).tolist())
    status = SolutionStatus.INFINITE_FAMILY if free else SolutionStatus.NO_SOLUTION
    return SolutionSet(SolutionStatus.FINITE if count else status, RootTable._make((roots, residuals)), table, free)
