"""Solving P(Z) = 0 over the circulant ring.

The equation splits into d independent scalar polynomial equations, one per
eigenchannel.  Channels fall into three classes once coefficients below the
relative tolerance are discarded:

* effective degree >= 1: finitely many scalar roots,
* a nonzero constant: no value of the channel variable works, so the ring
  equation has no solution at all,
* identically zero: any value works, giving a free complex parameter.

The root-bearing channels are grouped by effective degree n, and each group
is solved as one (m, n + 1) matrix of monic rows, a block at a time, all
row-wise (:func:`_solve_monic_rows`): a direct root step up to n = 3, kept
where the inclusion discs allow, Ehrlich-Aberth (:func:`_aberth`) on the
other rows (P and P' by :func:`_split_horner`), then Newton polishing,
clustering into multiplicities by the discs and the residual check (P and P'
by Horner).  Each step does on a row exactly what it would do on that row
alone, so a channel's roots depend neither on the rest of the polynomial nor
on the blocks, and :func:`solve_scalar_poly` is the one-row case.

When every channel has roots, the solutions are all combinations of one root
per channel, recombined through the inverse transform; a degree-n equation
with invertible leading coefficient therefore has between 1 and n^d roots.

No duplicate check is needed: clustering leaves each channel one root per
component of disjoint discs, so distinct combinations are distinct spectra,
which the bijective inverse transform maps to distinct circulants.

The transform is linear, so recombination (:func:`_rebuild`) writes the set
as outer sums of two half tables.  The head channels are the leading ones
whose root counts first multiply to at least sqrt(count), leaving a tail
channel; head row a, the a-th combination of their roots, and tail row b,
the b-th of the rest, are zero elsewhere.  One inverse FFT, at every order,
takes the heads + tails half rows, and root a tails + b is head row a plus
tail row b (at d = 2, bit for bit the inverse FFT of the combination).
Each part of a half row's round-trip gap must stay within the round-off
radius delta of ``ROUND_TRIP_FACTOR``, and each part of a root's gap, taken
by no transform, is within rho: the tables' largest parts, the sum's
rounding and 3 delta / 2.  Each distinct channel root r is then certified
once for all v within sqrt(2) rho: with s_i(x) = sum_j |c_ji| x^(n-j), S the
largest spectral coefficient modulus and g = s_i(|r| + sqrt(2) rho) -
s_i(|r|) >= |p_i(v) - p_i(r)|, |p_i(r)| + g <= tol * max(s_i(|r|) - g,
max(1, S)) gives, s_i being convex, the per-root gate |p_i(v)| <= tol *
max(s_i(|v|), max(1, S)).  If it misses a root, the set is rebuilt whole,
``RECOMBINE_CHUNK`` rows at a time, by inverse FFTs of the combinations;
sqrt(2) times the largest part of the gaps measured there certifies it
again, or the rows holding it take that gate, at their forward FFT.  The
row combining each channel's first root of least modulus is evaluated by ring
Horner (:meth:`CircPoly.evaluate`) on the raw, not snapped, coefficient
rows: its Frobenius norm must stay within the finite 2-norm of its channel
bounds plus the snap's and its own round-off.

A solution set keeps one channel table and one root table.  ``table``
(:class:`ChannelRoots`) holds the channels as arrays: the effective degrees,
which give the kinds, and the distinct roots in CSR form.  Recombination
reads all root combinations from it, each half row's roots gathered by its
digits from the flat roots, and certifies the flat roots in one pass;
``sample_members`` reads numbered combinations (:meth:`ChannelRoots._values_at`)
and ``channel_reports`` builds a ChannelReport per channel on access.
``roots`` (:class:`RootView`) keeps the two half tables and reads a root
by index as its own head row plus tail row; its (count, d) ``rows`` are
built on first read, the same sums bit for bit.  ``residuals`` holds
sqrt(sum_i |p_i(u_ki)|^2) = ||P(Z_k)||_F at the forward FFT u_k of row k,
taken on first access by the pass :func:`residual` runs on one root.  Both
arrays are read-only, also in an unpickled set.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import core
from .core import Circulant, _horner
from .errors import DegeneratePolynomialError, DimensionError, RecombinationLimitError, SolverError
from .functions import ChannelView, CircPoly, _column_table, _with_derivative, polyval_with_scale
from .spectral import inverse_rows
from .tolerances import ABERTH_STOP_REL_TOL, CIRC_RESIDUAL_TOL, DIVISION_GUARD, POLYGON_FLOOR
from .tolerances import ROUND_TRIP_FACTOR, SCALAR_RESIDUAL_TOL, SPECTRAL_SNAP_REL_TOL

#: Cap on the number of root combinations that a solve accepts, read at each solve.
RECOMBINATION_LIMIT = 10**6

#: Rows of a finite set per transform where it is rebuilt whole, and per residual pass.
RECOMBINE_CHUNK = 1024

#: Entries of the (rows, n, n) Aberth temporaries per block of channels:
#: each complex tensor takes BLOCK_ENTRIES * 16 bytes, 1 MB; the split's
#: powers (b, rows, n), block sums and table are smaller.  The smallest
#: bound that makes every degree group of the benchmark one block, and the
#: fastest of 2**15 to 2**18 on them (measured in CHANGES.md).
BLOCK_ENTRIES = 2**16

#: Aberth iterations before the companion-matrix fallback.
ABERTH_MAX_ITER = 100

#: Smallest degree whose Aberth iterations take P and P' in blocks of b = round(sqrt(2 (n + 1)))
#: coefficients (:func:`_split_horner`); below it b = 1, Horner (both measured in CHANGES.md).
SPLIT_MIN_DEGREE = 10


class SolutionStatus(Enum):
    FINITE = "finite"
    NO_SOLUTION = "no-solution"
    INFINITE_FAMILY = "infinite-family"


@dataclass(frozen=True)
class ScalarRoots:
    """Distinct roots of a channel polynomial with multiplicities, and Aberth's iterations (0 if it did not run)."""

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


class RootView(ChannelView):
    """Read-only Circulant views of the roots, root a tails + b being row a of ``head`` (heads, d) plus
    row b of ``tail`` (tails, d), which it makes read-only: made on access, each from its own sum, or,
    by iteration, in one batch over ``rows`` (heads tails, d), the read-only sums, built on first read
    and kept.  A set rebuilt whole is its own head beside a tail row of -0.0, which adds exactly."""

    def __init__(self, head: np.ndarray, tail: np.ndarray):
        head.flags.writeable = tail.flags.writeable = False  # also once unpickled
        tails = tail.shape[0]

        def root(k):  # a closure, not a method: the view holds no cycle that would keep its rows alive
            a, b = divmod(k, tails)
            return Circulant._of_rows(np.add(head[a : a + 1], tail[b : b + 1]))[0]

        super().__init__(root, head.shape[0] * tails)
        self._head, self._tail = head, tail

    @functools.cached_property
    def rows(self) -> np.ndarray:
        """The (count, d) table: row k is root k, read-only."""
        sums = np.add(self._head[:, None], self._tail)
        sums.flags.writeable = False
        return sums.reshape(-1, self._tail.shape[1])

    def __iter__(self):
        return iter(Circulant._of_rows(self.rows))

    def __eq__(self, other):
        return np.array_equal(self.rows, other.rows) if isinstance(other, RootView) else NotImplemented

    def __reduce__(self):
        return RootView, (self._head, self._tail)


@dataclass(frozen=True)
class SolutionSet:
    """The outcome of :func:`solve_circ_poly`: the channel table ``table``, the root table ``roots.rows`` and,
    taken on first access, the residual array ``residuals``; every array is read-only (module docstring)."""

    status: SolutionStatus
    roots: RootView  # in ``itertools.product`` order of the channel roots
    table: ChannelRoots
    free_channels: tuple[int, ...] = ()  # 1-based, infinite families only
    _poly: CircPoly | None = field(default=None, compare=False, repr=False)  # the equation, if finite

    @functools.cached_property
    def residuals(self) -> np.ndarray:
        """||P(Z_k)||_F of each root k, read-only, taken on first access (module docstring); empty unless finite."""
        rows = self.roots.rows
        spectra = (np.fft.fft(rows[k : k + RECOMBINE_CHUNK], axis=-1) for k in range(0, rows.shape[0], RECOMBINE_CHUNK))
        with np.errstate(over="ignore", invalid="ignore"):  # a value that overflows is inf or NaN
            residuals = [_channel_residuals(self._poly.channel_matrix(), chunk) for chunk in spectra]
        residuals = np.concatenate([np.empty(0), *residuals])
        residuals.flags.writeable = False
        return residuals

    def __getstate__(self):  # the residuals are taken again, read-only, after unpickling
        return {name: value for name, value in vars(self).items() if name != "residuals"}

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
        inverse FFT, at every order, and are read-only views of its rows.
        Only meaningful when status is INFINITE_FAMILY.  A negative ``count``
        or ``seed``, or a ``magnitude`` that is not finite, raises ValueError.
        """
        if self.status is not SolutionStatus.INFINITE_FAMILY:
            raise ValueError("sampling applies to infinite families only")
        for name, value in (("count", count), ("seed", seed)):
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if not np.isfinite(magnitude):
            raise ValueError(f"magnitude must be finite, got {magnitude}")
        t = self.table
        free = np.flatnonzero(t.degrees < 0)
        fixed = np.flatnonzero(t.degrees > 0)
        total = math.prod(np.diff(t.offsets)[fixed].tolist())  # a Python int: it may exceed int64
        index = np.arange(count)
        grid = np.empty((count, t.degrees.size), dtype=np.complex128)
        grid[:, fixed] = t._values_at(index if total > count else index % total, fixed)
        draws = np.random.default_rng(seed).standard_normal((count, free.size, 2))
        grid[:, free] = magnitude * draws.view(np.complex128)[:, :, 0]
        return Circulant._of_rows(inverse_rows(grid, fft=True))


def solve_scalar_poly(
    coeffs,
    tol: float = SCALAR_RESIDUAL_TOL,
    max_iter: int = ABERTH_MAX_ITER,
) -> ScalarRoots:
    """All complex roots of a scalar polynomial (leading coefficient first),
    with multiplicities: the one-row case of the batched solve that
    :func:`solve_circ_poly` runs over its channels (:func:`_solve_monic_rows`),
    whose residuals pass the row gate of :mod:`circfun.tolerances` against
    the scale sum |c_k| |r|^(n-k).  Only exactly zero leading coefficients
    are stripped.  ``max_iter`` caps the Aberth iterations; at 0 a row that
    the direct root step does not settle takes companion eigenvalues at once.
    NaN or infinite coefficients, a ``tol`` outside (0, 1), or a ``max_iter``
    that is not an integer >= 0 raise ValueError.
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coefficients must be a nonempty vector")
    if not np.all(np.isfinite(c)):
        raise ValueError("coefficients must be finite")
    if not 0 < tol < 1:  # at tol >= 1 every gate passes every point: |p(u)| <= s(u)
        raise ValueError(f"tol must be in (0, 1), got {tol}")
    if not isinstance(max_iter, (int, np.integer)) or max_iter < 0:
        raise ValueError(f"max_iter must be an integer >= 0, got {max_iter!r}")
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
    entries, each under one floating-point scope: a value that is not finite
    fails the discs or the gate.  At n <= 3 a block first takes one direct
    root step, with no LAPACK call: the exact root at n = 1,
    :func:`_quadratic_roots` at n = 2 and :func:`_cubic_roots` at n = 3.  A
    row keeps them where :func:`_check_roots` finds its discs finite, as are
    those of two bit-equal quadratic roots, which merge into a double root;
    Cardano's roots are not backward stable, so a cubic row also needs discs
    that stay disjoint, each then holding one root, and Newton corrections
    that pass Aberth's stop test.  Only the other rows run :func:`_aberth`
    and are checked again.  P and P' of each row come from the
    :func:`_with_derivative` rows, built once per block: by one Horner pass,
    and in Aberth by :func:`_split_horner` over their :func:`_block_table`.
    Every step acts on a row exactly as it would on that row alone, so the
    results do not depend on the grouping.
    """
    n = monic.shape[1] - 1
    step = max(1, BLOCK_ENTRIES // (n * n))
    blocks, errors = [], {}
    for start in range(0, monic.shape[0], step):
        block = monic[start : start + step]
        rows = _with_derivative(block.T[:, :, None])  # P and P' of row i at row i of the points
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # not finite: fails the discs or the gate
            if n > 3:
                arrays, found = _check_roots(block, rows, *_aberth(block, rows, max_iter), tol)[:2]
            else:
                if n == 1:
                    roots = -block[:, 1:]
                elif n == 2:
                    roots = _quadratic_roots(block)
                else:
                    roots = _cubic_roots(block)
                unrun = np.zeros(block.shape[0], dtype=np.intp)  # no iterations
                arrays, found, stepped, kept = _check_roots(block, rows, roots, unrun, {}, tol)
                if n == 3:  # no merged discs, and Newton corrections that would stop Aberth
                    settled = np.abs(stepped - roots) <= ABERTH_STOP_REL_TOL * (1.0 + np.abs(roots))  # NaN fails
                    kept &= (arrays[1][:, -1] != 0) & np.all(settled, axis=1)
                again = np.flatnonzero(~kept)
                if again.size:
                    part, rows = block[again], rows[:, :, again]
                    redone, refound = _check_roots(part, rows, *_aberth(part, rows, max_iter), tol)[:2]
                    for whole, fresh in zip(arrays, redone):
                        whole[again] = fresh
                    found = {i: e for i, e in found.items() if kept[i]}
                    found.update((int(again[i]), error) for i, error in refound.items())
        errors.update((start + i, error) for i, error in found.items())
        blocks.append(arrays)
    return (*(np.concatenate(parts) for parts in zip(*blocks)), errors)


def _check_roots(monic: np.ndarray, rows: np.ndarray, roots: np.ndarray, iterations, failures: dict, tol: float):
    """Polishing, clustering and the row gate for the root step's ``roots``,
    ``iterations`` and ``failures`` of the rows of ``monic`` (see
    :func:`_aberth`), with ``rows`` their :func:`_with_derivative` rows, in
    the floating-point scope of :func:`_solve_monic_rows`.  P and P' at the
    roots, cast to complex, come from one Horner pass over ``rows``, bit for
    bit as :func:`polyval_with_scale` gives P and the scales.  Returns the
    distinct roots, multiplicities, iteration counts and largest residuals;
    the SolverError of each row that failed; the Newton points of
    :func:`_newton_polish`; and whether each row's inclusion discs are finite."""
    roots = roots.astype(np.complex128, copy=False)
    values, dp = _horner(rows, roots)
    scales = _horner(np.abs(monic.T[:, :, None]), np.abs(roots))
    polished, residuals, stepped = _newton_polish(rows, roots, values, dp)
    distinct, mults, radii = _cluster_roots(monic, roots, values, scales, polished)
    finite = np.all(np.isfinite(radii), axis=1)
    errors = {i: SolverError("inclusion disc radii are not finite") for i in np.flatnonzero(~finite).tolist()}
    # The gate reuses the scales of the unpolished roots; only merged centers are new points.
    merged = np.flatnonzero(mults[:, -1] == 0)  # rows with fewer than n distinct roots
    if merged.size:
        at_centers, scales[merged] = polyval_with_scale(monic[merged].T[:, :, None], distinct[merged])
        residuals[merged] = np.abs(at_centers)
    max_residuals = np.max(residuals, axis=1)
    rejected = ~np.all(residuals <= tol * np.maximum(scales, 1.0), axis=1)  # NaN fails
    for i in np.flatnonzero(rejected).tolist():
        errors[i] = SolverError(f"root residual {max_residuals[i]:.3e} exceeds tolerance {tol:.1e} after polishing")
    errors.update(failures)
    return (distinct, mults, iterations, max_residuals), errors, stepped, finite


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


def _aberth(monic: np.ndarray, rows: np.ndarray, max_iter: int) -> tuple[np.ndarray, np.ndarray, dict]:
    """Ehrlich-Aberth on the rows of ``monic``, each row leaving once its
    corrections are negligible, and :func:`_companion_roots` for those left
    after ``max_iter``.  ``rows`` holds the :func:`_with_derivative` rows of
    ``monic``, shape (n + 1, 2, m, 1), whose :func:`_block_table` gives P and
    P' each iteration; slot t starts at its Newton-polygon radius and the
    angle 2 pi t / n + 0.7.  Returns the roots, the iteration counts and the
    SolverError of each row whose eigenvalues failed."""
    m, n = monic.shape[0], monic.shape[1] - 1
    roots, active = np.empty((m, n), dtype=np.complex128), np.arange(m)
    iterations = np.full(m, max_iter, dtype=np.intp)
    angles = 2 * np.pi * np.arange(n) / n + 0.7  # offset breaks axis symmetry
    z = _polygon_radii(monic) * np.exp(1j * angles)
    buffer = np.empty((m, n, n), dtype=np.complex128)  # reused: one tensor alive per block
    table = _block_table(rows, round(math.sqrt(2 * (n + 1))) if n >= SPLIT_MIN_DEGREE else 1)
    for iteration in range(1, max_iter + 1):
        p, dp = _split_horner(table, z)
        dp = np.where(dp == 0, DIVISION_GUARD, dp)
        w = p / dp
        diff = np.subtract(z[:, :, None], z[:, None, :], out=buffer[: z.shape[0]])
        diff.reshape(-1, n * n)[:, :: n + 1] = 1.0  # the diagonal, through a strided view
        repulsion = np.sum(np.divide(1.0, diff, out=diff), axis=2) - 1.0  # remove the diagonal's 1/1
        denom = 1.0 - w * repulsion
        denom = np.where(denom == 0, DIVISION_GUARD, denom)
        correction = w / denom
        z = z - correction
        done = np.all(np.abs(correction) <= ABERTH_STOP_REL_TOL * (1.0 + np.abs(z)), axis=1)
        if done.any():  # the active rows' coefficients are regathered only when a row leaves
            roots[active[done]] = z[done]
            iterations[active[done]] = iteration
            active, z, table = active[~done], z[~done], table[~done]
            if active.size == 0:
                return roots, iterations, {}
    # Stalled (typically root clusters): companion-matrix eigenvalues.
    roots[active], stalled = _companion_roots(monic[active])
    return roots, iterations, {int(active[i]): error for i, error in stalled.items()}


def _block_table(rows: np.ndarray, b: int) -> np.ndarray:
    """The :func:`_with_derivative` ``rows`` (n + 1, 2, m, 1) in K = ceil((n + 1) / b) blocks, shape (m, 2 K, b):
    [i, 2 (K - 1 - q) + c, r] holds the coefficient of u^(q b + r) in P (c = 0) or P' (c = 1) of row i."""
    k, m = -(-rows.shape[0] // b), rows.shape[2]
    padded = np.pad(rows[..., 0], ((k * b - rows.shape[0], 0), (0, 0), (0, 0)))
    return np.ascontiguousarray(padded.reshape(k, b, 2, m)[:, ::-1].transpose(3, 0, 2, 1)).reshape(m, 2 * k, b)


def _split_horner(table: np.ndarray, z: np.ndarray) -> np.ndarray:
    """P and P' (2, m, n) at ``z`` (m, n) for the rows of the :func:`_block_table` ``table``: the baby steps
    z^0 ... z^(b - 1), one batched ``np.matmul`` for the block sums and :func:`_horner` over them at z^b
    (Paterson & Stockmeyer, SIAM J. Comput. 2, 1973).  A term c_k z^k takes k products, as in Horner, but
    b + K sums, not n + 1.  At b = 1 the blocks are the coefficients: Horner's pass, bit for bit."""
    m, k, b = table.shape[0], table.shape[1] // 2, table.shape[2]
    if b == 1:
        return _horner(table.reshape(m, k, 2).transpose(1, 2, 0)[..., None], z)
    powers = np.empty((b,) + z.shape, dtype=np.complex128)
    powers[0], powers[1] = 1.0, z
    for r in range(2, b):
        np.multiply(powers[r - 1], z, out=powers[r])
    sums = np.matmul(table, powers.transpose(1, 0, 2)).reshape(m, k, 2, -1)
    return _horner(sums.transpose(1, 2, 0, 3), powers[-1] * z)


def _companion_roots(monic: np.ndarray) -> tuple[np.ndarray, dict]:
    """Eigenvalues (m, n) of the companion matrices of the rows of ``monic``
    from one batched ``np.linalg.eigvals`` call, and the SolverError of each
    row whose matrix failed.  A matrix is the one ``np.roots`` builds but
    keeps trailing zero coefficients, which come back as exact zeros.  A
    batch that raises is retried row by row, so rows stay independent."""
    m, n = monic.shape[0], monic.shape[1] - 1
    companion = np.zeros((m, n, n), dtype=np.complex128)
    companion[:, 0] = -monic[:, 1:] / monic[:, :1]
    companion.reshape(m, n * n)[:, n :: n + 1] = 1.0  # the subdiagonal
    try:
        return np.linalg.eigvals(companion), {}
    except np.linalg.LinAlgError:
        roots, failures = np.full((m, n), np.nan, dtype=np.complex128), {}
    for i in range(m):
        try:
            roots[i] = np.linalg.eigvals(companion[i])
        except np.linalg.LinAlgError as exc:
            failures[i] = SolverError("companion-matrix fallback failed to converge")
            failures[i].__cause__ = exc
    return roots, failures


def _quadratic_roots(monic: np.ndarray) -> np.ndarray:
    """The roots (m, 2) of the rows u^2 + b u + c of ``monic``: the one of
    larger modulus, -b / 2 +- sqrt(b^2 / 4 - c) with the sign that does not
    cancel, then c over it, or two exact zeros where both vanish.  Away from
    overflow and underflow each step is exact under u -> 2^k u, so the roots
    of 2^k b and 4^k c are 2^k times those of b and c.  A double root that
    comes out as two bit-equal roots shares one disc (:func:`_cluster_roots`)
    and merges into one root of multiplicity 2; an overflow leaves discs that
    are not finite, so the row goes on to Aberth.  0 / 0 at a double zero is
    dropped, in the caller's scope."""
    b, c = monic[:, 1:].T.astype(np.complex128)
    half = b / 2
    root = np.sqrt(half * half - c)
    plus, minus = root - half, -root - half
    larger = np.where(np.abs(plus) >= np.abs(minus), plus, minus)
    return np.stack([larger, np.where(larger == 0, 0.0, c / larger)], axis=1)


def _cubic_roots(monic: np.ndarray) -> np.ndarray:
    """Cardano's roots (m, 3) of the rows u^3 + a u^2 + b u + c of ``monic``:
    with u = t - a / 3 the row is t^3 + p t + q, and C is the principal cube
    root of whichever of -q / 2 +- sqrt(q^2 / 4 + p^3 / 27) has the larger
    modulus (the sum that does not cancel; it is 0 only at a triple root),
    so that t = w C - p / (3 w C) over the cube roots of unity w.  A triple
    root, an overflow or an underflow leaves NaN, infinite or inaccurate
    roots, which :func:`_solve_monic_rows` does not keep."""
    a, b, c = monic[:, 1:].T.astype(np.complex128)
    shift = a / 3
    p = b - a * shift
    half = shift * (shift * shift - b / 2) + c / 2  # q / 2
    root = np.sqrt(half * half + p * p * p / 27)
    plus, minus = root - half, -root - half
    larger = np.where(np.abs(plus) >= np.abs(minus), plus, minus)
    cube = (larger ** (1 / 3))[:, None] * np.array([1, complex(-0.5, 0.75**0.5), complex(-0.5, -(0.75**0.5))])
    return cube - (p / 3)[:, None] / cube - shift[:, None]


def _newton_polish(rows: np.ndarray, roots: np.ndarray, p: np.ndarray, dp: np.ndarray):
    """One Newton step per root, kept only where it lowers |p|.  ``rows``
    holds the :func:`_with_derivative` rows of the monic polynomials, shape
    (n + 1, 2, m, 1), whose row i owns row i of the complex ``roots``, and
    ``p`` and ``dp`` are P and P' there; only P is evaluated, at the Newton
    points.  Returns the roots and |p| there, and the Newton points, kept or
    not (the roots where P' = 0)."""
    stepped = np.where(dp != 0, roots - p / dp, roots)  # p / dp at P' = 0 is dropped, in the caller's scope
    before, after = np.abs(p), np.abs(_horner(rows[:, 0], stepped))
    better = after < before
    return np.where(better, stepped, roots), np.where(better, after, before), stepped


def _cluster_roots(monic: np.ndarray, roots: np.ndarray, values: np.ndarray, scales: np.ndarray, polished):
    """Distinct roots of each row in lexicographic order, with multiplicities.

    Approximation z_i in a row of ``roots`` (m, n), with ``values`` and
    ``scales`` the :func:`polyval_with_scale` of the row of ``monic``, gets
    the disc of radius n (|p(z_i)| + 4 n eps s(z_i)) / prod_{j != i} |z_i - z_j|
    (Bini & Fiorentino, Numer. Algorithms 23, 2000), or {0} if it is one of
    the k exact zeros the quadratic formula or the companion-matrix fallback
    gives for k trailing zero coefficients: the z_i^k cancel from the other
    discs.  At n = 2 two bit-equal roots r, whose discs are not finite,
    share the pair disc of :mod:`circfun.tolerances`: with h = u - r the row
    is h^2 + p'(r) h + p(r), whose roots it holds (at n >= 3 the other roots
    break its bound).  A component of k touching discs holds k roots and
    becomes one root of multiplicity k: the mean of its members, or the
    ``polished`` root plus 0.0 if k = 1.  Only rows where two discs touch
    run the component pass; in every other row each root is its own
    component.  Discs come before polishing, which can blow them up at a
    multiple root.  Returns the distinct roots (each row's k_i, then copies
    of its first), their multiplicities (zero past the k_i-th) and the radii.
    """
    m, n = roots.shape
    diagonal = np.arange(n)
    gap = np.abs(roots[:, None, :] - roots[:, :, None])
    gap[:, diagonal, diagonal] = 1.0  # out of the product, which is a sum of logs
    slack = n * (np.abs(values) + 4 * n * np.finfo(np.float64).eps * scales)
    radii = np.exp(np.log(slack) - np.sum(np.log(gap), axis=2))
    pair = roots[:, 0] == roots[:, 1] if n == 2 else False  # a bit-equal pair r, r: one disc about r holds both
    if np.any(pair):
        slope = np.abs(2 * roots[pair, 0] + monic[pair, 1])  # |p'(r)| = |2 r + b|
        radii[pair] = ((slope + np.sqrt(slope * slope + 2 * slack[pair, 0])) / 2)[:, None]
    zero = roots == 0  # exact roots if no more than the trailing zero coefficients: the disc {0}
    if zero.any():
        radii[zero & (np.count_nonzero(zero, axis=1) <= np.argmax(monic[:, ::-1] != 0, axis=1))[:, None]] = 0.0
    touch = gap <= radii[:, :, None] + radii[:, None, :]
    touch[:, diagonal, diagonal] = False
    distinct, mults = np.sort(polished + 0.0, axis=1), np.ones((m, n), dtype=np.intp)  # complex order is lexicographic
    merged = np.flatnonzero(touch.any(axis=(1, 2)))
    if merged.size:
        roots, touch, polished, m = roots[merged], touch[merged], polished[merged], merged.size
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
        centers, mults[merged] = np.take_along_axis(centers, order, 1), np.take_along_axis(sizes, order, 1)
        distinct[merged] = np.where(mults[merged] > 0, centers, centers[:, :1])
    return distinct, mults, radii


def residual(p: CircPoly, z: Circulant) -> float:
    """Frobenius norm of P(Z), by Parseval from the channel values at the
    spectrum of Z: sqrt(sum_i |p_i(u_i)|^2).  This is the one-row case of the
    pass that gives a solution set's residuals, on the same FFT kernel, so
    it reproduces them exactly; where channel values overflow it is inf, with no
    warning, also where the overflow made the norm NaN (nothing else can at an admitted point).
    Entries or eigenvalues of Z, or coefficient eigenvalues, that are not finite raise ValueError."""
    if z.d != p.d:
        raise DimensionError(f"order mismatch: point has {z.d}, coefficients have {p.d}")
    if not np.isfinite(z.row).all():
        raise ValueError("point entries must be finite")
    with np.errstate(over="ignore", invalid="ignore"):  # a spectrum that overflows is refused, a value is inf or NaN
        u = np.fft.fft(z.row)
        if not np.isfinite(u).all():
            raise ValueError("point eigenvalues must be finite")
        norm = float(_channel_residuals(p.channel_matrix(), u[None])[0])
    return np.inf if norm != norm else norm


def _channel_residuals(cm: np.ndarray, spectra: np.ndarray) -> np.ndarray:
    """The Frobenius norms of P(Z_k) for the ``spectra`` (N, d) u_k of the points, their forward FFTs at
    every order: the 2-norms of the channel values |p_i(u_ki)|, in the caller's floating-point scope."""
    return core._norm2(np.abs(_horner(cm[:, None, :], spectra)))


def _transform_gaps(rebuilt: np.ndarray, spectra: np.ndarray) -> np.ndarray:
    """|Re| and |Im|, (N, 2 d), of the gaps between the forward FFT of ``rebuilt`` (N, d) and ``spectra``."""
    gaps = np.fft.fft(rebuilt, axis=-1)
    parts = np.subtract(gaps, spectra, out=gaps).view(np.float64)
    return np.abs(parts, out=parts)


def _gate_failure(residual: float, bound: float, where: str) -> str:
    """The message of a root that fails a gate.  An infinite bound comes of
    a scale sum that overflows, so it names the overflow, whatever the
    residual reads: inf, or NaN where Horner met inf * 0."""
    if bound == np.inf:
        return f"reconstructed root channel values overflow in {where}"
    return f"reconstructed root residual {residual:.3e} exceeds {bound:.1e} in {where}"


def _rebuild(p: CircPoly, table: ChannelRoots, tol: float) -> RootView:
    """The verified combinations of the roots of each channel in ``table``, one or more each, as a
    RootView of two half tables (see the module docstring).

    Root k = a tails + b is fl(H_a + T_b) = H_a + T_b + e, with H_a and T_b the inverse FFTs of the
    half rows.  With f_x = fl_fft(x) - fft(x) and g the half rows' measured gaps, linearity gives
    fl_fft(root k) - combination k = g_a + g_b + fft(e) + f_k - f_a - f_b.  The sum rounds each part
    by at most eps / 2 of itself, so |fft(e)_i| <= sqrt(d) ||e||_2 <= eps ||u||_2 / 2 <= ``rounding``
    (Parseval), and each f is at most half a round trip, delta / 2: rho = the tables' largest parts
    + ``rounding`` + 3 delta / 2 bounds every part of a root's gap.  Where this certificate misses a
    root, the set is rebuilt whole and certified over the gaps it measures (see the module docstring).
    The certificate runs over the flat roots, each against its channel's coefficient column."""
    cm, moduli, counts, starts = p.channel_matrix(), np.abs(table.roots), np.diff(table.offsets), table.offsets[:-1]
    floats, channel, count = np.finfo(np.float64), np.repeat(np.arange(p.d), counts), math.prod(counts.tolist())
    rounding = floats.eps * math.hypot(*np.maximum.reduceat(moduli, starts).tolist()) + p.d * floats.smallest_subnormal
    delta = ROUND_TRIP_FACTOR * (p.d - 1).bit_length() * rounding
    floor, strides = max(1.0, p._scale), count // np.cumprod(counts)
    split = min(sum(s * s > count for s in strides.tolist()), p.d - 2) + 1  # the head channels
    heads, tails = count // int(strides[split - 1]), int(strides[split - 1])
    # The digits of the first root holding each half row, in the mixed radix of the root counts, pick its roots.
    first = np.concatenate([np.arange(heads) * tails, np.arange(tails)])
    halves = table.roots[starts + first[:, None] // strides % counts]
    halves[:heads, split:] = halves[heads:, :split] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # not finite: fails the radius or the gate
        rebuilt = inverse_rows(halves, fft=True)
        parts = _transform_gaps(rebuilt, halves)
        if not parts.max() <= delta:  # NaN fails
            k, i = divmod(int(np.argmin(parts <= delta)) // 2, p.d)
            gap, where = np.hypot(parts[k, 2 * i], parts[k, 2 * i + 1]), f"channel {i + 1} of root {first[k] + 1}"
            raise SolverError(f"reconstructed root spectrum is off by {gap:.3e}, beyond {delta:.1e}, in {where}")
        roots = RootView(rebuilt[:heads], rebuilt[heads:])
        # The certificate over sqrt(2) rho.  P at r and the scales at |r| and |r| + sqrt(2) rho take one
        # complex Horner pass: a complex product of reals is the real product.
        rho = parts[:heads].max() + parts[heads:].max() + rounding + 1.5 * delta
        points, coeffs = np.array([table.roots, moduli, moduli + 2**0.5 * rho]), np.array([cm, p._moduli, p._moduli])
        values, scales, wider = _horner(coeffs[:, :, channel].swapaxes(0, 1), points)
        def missing(grown):  # the roots the certificate misses over the radius at which the scales are ``grown``
            growth = (grown - scales).real
            return ~(np.abs(values) + growth <= tol * np.maximum(scales.real - growth, floor))  # NaN misses
        missed = missing(wider)
        # The ring check's row combines each channel's first root of least modulus (its number is in the mixed
        # radix of the root counts).  Its bound allows for the snap and ring Horner's round-off, as for n + 1
        # products of inner dimension d: (snap + (n + 1)(d + 1) eps) sum_k ||A_k||_F ||Z||_F^(n-k), norms by Parseval.
        least = np.lexsort((moduli, channel))[starts]  # a stable sort: the first of equal moduli
        ring, size, slack = int((least - starts) @ strides), math.hypot(*moduli[least].tolist()), 0.0
        for row in p._moduli.tolist():  # the channel matrix's moduli, snapped entries zero
            slack = slack * size + (SPECTRAL_SNAP_REL_TOL + cm.shape[0] * (p.d + 1) * floats.eps) * math.hypot(*row)
        allowed = math.hypot(*(tol * np.maximum(scales.real[least], floor)).tolist()) + slack
        if missed.any():  # rebuilt whole, by inverse FFTs of the combinations, and certified over their gaps
            rows = np.empty((count, p.d), dtype=np.complex128)  # owns its data: read-only, so are its views
            np.add(halves[:heads, None], halves[heads:], out=rows.reshape(heads, tails, p.d))  # the combinations
            largest = 0.0
            for spectra in np.split(rows, range(RECOMBINE_CHUNK, count, RECOMBINE_CHUNK)):
                rebuilt = inverse_rows(spectra, fft=True)
                largest, spectra[...] = np.maximum(largest, _transform_gaps(rebuilt, spectra).max()), rebuilt
            missed &= missing(_horner(p._moduli[:, channel], moduli + 2**0.5 * largest))
            roots = RootView(rows, np.full((1, p.d), -0.0, dtype=np.complex128))  # x + -0.0 is x, also at -0.0
            roots.rows = rows  # already the sums: the first read builds no copy
        for r, i in zip(np.flatnonzero(missed), channel[missed]):  # rows holding flat root r of channel i: the gate
            index = np.arange(count).reshape(-1, counts[i], strides[i])[:, r - starts[i]].ravel()
            values, scales = polyval_with_scale(cm[:, None, :], np.fft.fft(rows[index], axis=-1))
            magnitudes, bounds = np.abs(values), tol * np.maximum(scales, floor)
            passed = (magnitudes <= bounds) & (bounds < np.inf)  # NaN fails; an overflowed scale bounds nothing
            if not passed.all():
                k, c = np.argwhere(~passed)[0]
                where = f"channel {c + 1} of root {index[k] + 1}"
                raise SolverError(_gate_failure(magnitudes[k, c], bounds[k, c], where))
    residual = core.frobenius_norm(p.evaluate(roots[ring]))
    if not residual <= allowed < np.inf:  # an overflowed bound bounds nothing
        raise SolverError(_gate_failure(residual, allowed, f"the ring check of root {ring + 1}"))
    return roots


def solve_circ_poly(p: CircPoly, tol: float = CIRC_RESIDUAL_TOL) -> SolutionSet:
    """Classify and solve P(Z) = 0.

    The root-bearing channels are grouped by effective degree, and each group
    goes through one batched scalar solve; if channels fail, the error names
    the lowest-numbered one.  The finite case returns every combination of
    one root per channel, without dedup, in ``itertools.product`` order, as
    outer sums of two half tables, each root built when it is read and all
    rows on their first read, with the residuals taken on access a
    ``RECOMBINE_CHUNK`` of rows at a time (see the module docstring); more than
    ``RECOMBINATION_LIMIT`` raise RecombinationLimitError before any is
    built.  A root failing a check raises SolverError.  Coefficient
    eigenvalues that are not finite, or a ``tol`` outside (0, 1), raise
    ValueError.
    """
    if not 0 < tol < 1:  # at tol >= 1 every gate passes every point: |p(u)| <= s(u)
        raise ValueError(f"tol must be in (0, 1), got {tol}")

    cm = p.channel_matrix()
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
    if count > RECOMBINATION_LIMIT:
        raise RecombinationLimitError(f"root combinations exceed the cap of {RECOMBINATION_LIMIT}")

    roots = _rebuild(p, table, tol) if count else RootView(np.empty((0, p.d), complex), np.empty((0, p.d), complex))
    free = () if np.any(degrees == 0) else tuple((np.flatnonzero(degrees < 0) + 1).tolist())
    status = SolutionStatus.INFINITE_FAMILY if free else SolutionStatus.NO_SOLUTION
    return SolutionSet(SolutionStatus.FINITE if count else status, roots, table, free, p if count else None)
