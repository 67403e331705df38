"""Numeric estimation of divisor and degree from log-derivative limits.

The diagonal of S (Z F'(Z) F(Z)^+) S^-1 has i-th entry u_i F_i'(u_i)/F_i(u_i),
a quantity that tends to a per-channel integer exactly when the channel
function is rational: the difference of numerator and denominator degrees.
Driving the argument to infinity means sending min_i |u_i| to infinity, which
we realize by scaling a fixed unit-modulus spectrum direction through a
geometric ladder of magnitudes.  The tail of the estimate behaves like c/t,
so one level of Richardson extrapolation removes it before rounding to the
nearest integer.

For entire functions, subtracting a caller-supplied entire witness Q inside
the limit (u_i (F_i'/F_i - q_i)) isolates the zero count n, bounding the
solution count of F(Z) = 0 by n^d.

A report is a table with one row per channel, stored as arrays over the
channels in its ``table`` field (:class:`ChannelTable`); status, k and the
checks are reduced from those arrays.  ``report.channels`` is a read-only
view that builds a :class:`ChannelEstimate` per channel on access.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import Circulant
from .errors import ChannelSingularityError, DimensionError
from .functions import (
    ChannelView,
    CircFunction,
    _column_table,
    _same_columns,
    _with_derivative,
    classify,
)
from .spectral import forward_rows, inverse_rows, spectrum
from .tolerances import CONTRACTION_FACTOR, NOISE_FLOOR, ROUND_TOL, UNIT_MODULUS_TOL, WITNESS_MATCH_REL_TOL

_GOLDEN_FRACTION = (math.sqrt(5.0) - 1.0) / 2.0

#: Most scan-point entries, points * d, a default path may take: 64 MB of complex128.
MAX_SCAN_ENTRIES = 2**22

#: Seeded phase retries a scan makes after a channel singularity before it gives up.
RETRY_BUDGET = 5


@dataclass(frozen=True, eq=False)  # it writes its own __eq__, so hash() raises naming PathSpec
class PathSpec:
    """A path to infinity: unit-modulus direction times increasing scales.

    ``direction`` and ``scales`` are copied on construction and made
    read-only, so neither a path nor its cached scan points can change
    through an array the caller still holds.
    """

    direction: np.ndarray
    scales: np.ndarray
    seed: int = 0

    def __post_init__(self):
        direction = np.array(self.direction, dtype=np.complex128)
        scales = np.array(self.scales, dtype=np.float64)
        if direction.ndim != 1 or direction.size < 2:
            raise ValueError("direction must be a complex vector of length >= 2")
        if not np.all(np.isfinite(direction)):
            raise ValueError("direction entries must be finite")
        if np.any(np.abs(np.abs(direction) - 1.0) > UNIT_MODULUS_TOL):
            raise ValueError("direction entries must have unit modulus")
        if scales.ndim != 1 or scales.size < 4:
            raise ValueError(f"scales must be a vector of at least 4 points, got shape {scales.shape}")
        if not (np.all(np.isfinite(scales)) and math.isfinite(float(scales[-1]) * direction.size)):
            raise ValueError("scales must be finite, and so must the largest times d")
        if np.any(scales <= 0) or np.any(np.diff(scales) <= 0):
            raise ValueError("scales must be positive and strictly increasing")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        direction.flags.writeable = False
        scales.flags.writeable = False
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "scales", scales)

    def __reduce__(self):  # through the constructor: read-only arrays, no cached scan points
        return PathSpec, (self.direction, self.scales, self.seed)

    def __eq__(self, other):  # the generated one would ask numpy for the truth of an array
        return isinstance(other, PathSpec) and _same_columns(self.__reduce__()[1], other.__reduce__()[1])

    @property
    def d(self) -> int:
        return self.direction.size

    @functools.cached_property
    def _points(self) -> np.ndarray:
        """The scan points u = spectrum(from_spectrum(t * direction)) at the
        scales t, shape (n_scales, d), read-only.  The round trip makes u the
        exact spectrum of a representable circulant Z on the path, so each
        estimate of :func:`_scan` is a channel value of Z F'(Z) F(Z)^+ at a
        matrix argument; the golden CLI output depends on those bits."""
        points = forward_rows(inverse_rows(self.scales[:, None] * self.direction))
        points.flags.writeable = False
        return points

    @classmethod
    @functools.lru_cache(maxsize=16)
    def default(
        cls,
        d: int,
        t_min: float = 1e3,
        t_max: float = 1e8,
        points: int = 11,
        seed: int = 0,
    ) -> "PathSpec":
        """Golden-ratio phase spread over a geometric scale ladder.

        The irrational phase step keeps channels away from coincidental
        alignment with real-axis zeros or poles.  Requires finite scales
        with 0 < t_min < t_max, a finite t_max * d, the largest modulus a
        scan point's transform can take, and points >= 4 with points * d at
        most ``MAX_SCAN_ENTRIES`` (2**22 entries, 64 MB of scan points),
        checked before anything is allocated.

        Memoized on the argument tuple, 16 paths at most: a call with the
        same arguments returns the same read-only path, and its scan points
        are computed once.  The points of one path take points * d * 16
        bytes, about 1.4 MB at the default 11 points and d = 8192.
        """
        if not (math.isfinite(t_min) and t_min > 0):
            raise ValueError(f"t_min must be finite and positive, got {t_min}")
        if not (math.isfinite(float(t_max) * d) and t_max > t_min):
            raise ValueError(f"t_max must be finite and greater than t_min, with t_max * d finite, got {t_max}")
        if points < 4:
            raise ValueError(f"points must be >= 4, got {points}")
        if points * d > MAX_SCAN_ENTRIES:
            raise ValueError(f"points must be <= {MAX_SCAN_ENTRIES // d} at d = {d}, got {points}")
        phases = 2 * np.pi * _GOLDEN_FRACTION * np.arange(d)
        direction = np.exp(1j * phases)
        scales = np.geomspace(t_min, t_max, points)
        return cls(direction=direction, scales=scales, seed=seed)


@dataclass(frozen=True)
class ChannelEstimate:
    """Convergence record for one channel; ``channel`` is 1-based."""

    channel: int
    flag: str  # "converged" | "diverged" | "indeterminate"
    k: int | None
    estimates: tuple[complex, ...]
    refined: tuple[complex, ...]
    final_error: float | None


#: Channel flags; a table stores each as its index here.
FLAGS = ("converged", "diverged", "indeterminate")
CONVERGED, DIVERGED, INDETERMINATE = range(3)


@_column_table
class ChannelTable(NamedTuple):
    """Per-channel results of a limit estimate as arrays over the d channels.

    ``flag`` holds indices into ``FLAGS``.  ``k`` holds the rounded limits,
    NaN where k is None: wherever the flag is not converged.  ``estimates``
    (S, d) and ``refined`` (S - 1, d) hold each channel's estimate and
    Richardson-extrapolated sequences, NaN on indeterminate channels.
    ``final_error`` is NaN where it is None: on indeterminate channels and
    where an estimate or the final extrapolated estimate is not finite, and
    there the refined sequence a channel reports is its raw one.  Every
    array is read-only.
    """

    flag: np.ndarray
    k: np.ndarray
    estimates: np.ndarray
    refined: np.ndarray
    final_error: np.ndarray

    def channel(self, i: int) -> ChannelEstimate:
        """The record of 0-based channel ``i``."""
        flag, error = int(self.flag[i]), float(self.final_error[i])
        if flag == INDETERMINATE:
            return ChannelEstimate(i + 1, FLAGS[flag], None, (), (), None)
        estimates = tuple(self.estimates[:, i].tolist())
        refined = estimates if math.isnan(error) else tuple(self.refined[:, i].tolist())
        k = int(self.k[i]) if flag == CONVERGED else None
        return ChannelEstimate(i + 1, FLAGS[flag], k, estimates, refined, None if math.isnan(error) else error)


class _ChannelRecords:
    """``channels``: the report's table as ChannelEstimate records, built on
    access (see :class:`ChannelView`)."""

    @property
    def channels(self) -> ChannelView:
        return ChannelView(self.table.channel, self.table.flag.size)


@dataclass(frozen=True)
class DivisorReport(_ChannelRecords):
    status: str  # "rational" | "not-rational"
    k: int | None
    table: ChannelTable
    numerator_degree: int
    denominator_degree: int
    expected_k: int | None  # n - m when both polynomials are regular and G is constant
    matches_expected: bool | None  # global k against expected_k, when both exist
    bounds_ok: bool | None
    retries_used: int
    scales: tuple[float, ...]

    @property
    def converged(self) -> bool:
        return self.status == "rational"


@dataclass(frozen=True)
class ZeroBoundReport(_ChannelRecords):
    matched: bool
    n: int | None
    bound: int | None
    table: ChannelTable
    degree_check: bool | None
    retries_used: int


@dataclass(frozen=True)
class DegreeReport(_ChannelRecords):
    is_polynomial: bool
    degree: int | None
    table: ChannelTable
    retries_used: int


def logderiv_diag(f: CircFunction, z: Circulant) -> np.ndarray:
    """Channel values u_i F_i'(u_i) / F_i(u_i) at the eigenvalues of z.

    Equals the diagonal of S (Z F'(Z) F(Z)^+) S^-1; raises
    ChannelSingularityError where a channel sits on a zero or pole.  The point
    is admitted as evaluation admits it, its order F's and its entries finite,
    and as :func:`circfun.solver.residual` admits it: its eigenvalues finite.
    A part whose coefficient eigenvalues are not finite is refused by its
    letter.  Where u F'/F overflows it is not finite (inf where only the
    product with u overflows), with no warning, as along the scan.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a spectrum that overflows is refused next
        u = spectrum(f._admit(z))
    if not np.isfinite(u).all():
        raise ValueError("point eigenvalues must be finite")
    return _times_u(u, f.channel_logderiv(u))


def _times_u(u: np.ndarray, dlog: np.ndarray) -> np.ndarray:
    """u F'/F from ``dlog``, the values of F'/F at ``u``: a value that
    overflows is not finite, with no warning."""
    with np.errstate(over="ignore", invalid="ignore"):  # a value that overflows diverges
        return u * dlog


def _richardson(scales: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Eliminate the c/t tail: combine adjacent scale points pairwise."""
    t1, t2 = scales[:-1], scales[1:]
    return (t2 * values[1:] - t1 * values[:-1]) / (t2 - t1)


def _analyze_sequence(scales: np.ndarray, values: np.ndarray):
    """Decide convergence of the estimate sequences in the columns of
    ``values`` (shape (n_scales, C)), one per channel; n_scales >= 4, as
    PathSpec requires.

    Converged means: the last three Richardson-extrapolated estimates sit
    within ``ROUND_TOL`` of one integer and the error contracts, or sits
    below ``NOISE_FLOOR`` (:mod:`circfun.tolerances`).  A column whose
    estimates or final extrapolated estimate are not finite diverges with no
    k and no error.

    Returns arrays over the columns: k (the rounded limit, NaN where the
    column did not converge), converged (bool), the refined sequences
    (n_scales - 1, C) and the final error (NaN for a column that is not
    finite, which reports its raw estimates as its refined sequence).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        refined = _richardson(scales[:, None], values)
        final = refined[-1]
        usable = np.isfinite(values).all(axis=0) & np.isfinite(final)
        k = np.where(usable, final.real, 0.0).round()
        tail = np.abs(refined[-3:] - k)
        within = (tail <= ROUND_TOL).all(axis=0) & (np.abs(final.imag) <= ROUND_TOL)
        shrinking = ((tail[1:] <= tail[:-1] * CONTRACTION_FACTOR) | (tail[1:] <= NOISE_FLOOR)).all(axis=0)
    converged = usable & within & shrinking
    return np.where(converged, k, np.nan), converged, refined, np.where(usable, tail[2], np.nan)


def _estimate_channels(f: CircFunction, path: PathSpec | None, witness=None) -> tuple[ChannelTable, int, PathSpec]:
    """(table, retries, path) of the scan along ``path``, by default
    :meth:`PathSpec.default`, with the ``witness``'s values taken off G'.
    Coefficient eigenvalues of F or the witness that are not finite are refused."""
    if path is None:
        path = PathSpec.default(f.d)
    if path.d != f.d:
        raise DimensionError(f"order mismatch: path has {path.d}, function has {f.d}")
    f._admit_coefficients()
    if witness is not None:
        witness._admit_coefficients("witness ")
    indeterminate = f.degenerate_channels()
    if indeterminate.all():
        raise ChannelSingularityError(range(1, f.d + 1), "every channel is degenerate")
    estimates, retries = _scan(f, path, None if witness is None else witness.channel_values, indeterminate)
    estimates = np.where(indeterminate, np.nan, estimates)  # analysed as not finite: no k, no error
    k, converged, refined, errors = _analyze_sequence(path.scales, estimates)
    flag = np.where(indeterminate, INDETERMINATE, np.where(converged, CONVERGED, DIVERGED))
    return ChannelTable._make([flag, k, estimates, refined, errors]), retries, path


def _scan(f, path: PathSpec, qfun, skip) -> tuple[np.ndarray, int]:
    """Estimate sequences u F'/F, shape (n_scales, d), over the path's
    scales, all scales in one batch: one :meth:`CircFunction._logderiv`
    call, which takes the values of the witness function ``qfun`` (None for
    none) off G', times u (:func:`_times_u`).  The columns of the
    channels that the mask ``skip`` sets, the degenerate ones, which would
    raise on every direction, go unchecked and are meaningless.  On any
    other channel singularity the direction is re-randomized (seeded)
    ``RETRY_BUDGET`` times at most, after which the error propagates,
    naming the channels of the first scale where the singularity sits.

    Attempt 0 reads the path's cached points (:attr:`PathSpec._points`);
    each retry reads those of a path of its own direction.  The seeded
    generator is made on the first retry, so its draws are those of a
    generator made up front.
    """
    u = path._points
    for attempt in range(RETRY_BUDGET + 1):
        if attempt:
            if attempt == 1:
                rng = np.random.default_rng(path.seed)
            u = PathSpec(np.exp(2j * np.pi * rng.uniform(size=path.d)), path.scales)._points
        try:
            return _times_u(u, f._logderiv(u, skip, qfun)), attempt
        except ChannelSingularityError as exc:
            last_error = exc
    raise ChannelSingularityError(
        last_error.channels, f"path singularity persisted across {RETRY_BUDGET} phase retries"
    )


def estimate_divisor(
    f: CircFunction,
    path: PathSpec | None = None,
) -> DivisorReport:
    """Estimate the per-channel divisors k_i of F = P Q^+ exp(G) and the
    global divisor when they agree.

    The limit exists exactly where F is rational: a channel where G_i is
    not constant diverges, and the report is not rational.  Each converged
    k_i must land in [-m, n] for the degrees n of P and m of Q (0 without
    Q); when both polynomials are regular and G is constant, the global
    value equals n - m and is cross-checked against that expectation.
    """
    num, den = f.P, f.Q
    table, retries, path = _estimate_channels(f, path)

    n = num.degree
    m = den.degree if den is not None else 0
    ks = table.k[table.flag == CONVERGED]
    # The scan raised unless some channel is defined: with none diverged, every defined one converged.
    rational = not np.any(table.flag == DIVERGED)
    global_k = int(ks[0]) if rational and np.all(ks == ks[0]) else None

    regular = classify(num).regular and (den is None or classify(den).regular)
    # n - m is the divisor only of a rational F: G, where present, is constant on every channel.
    expected = n - m if regular and (f.G is None or np.all(f.G.channel_degrees() <= 0)) else None
    matches = (global_k == expected) if (expected is not None and global_k is not None) else None
    bounds_ok = bool(np.all((-m <= ks) & (ks <= n))) if ks.size else None

    return DivisorReport(
        status="rational" if rational else "not-rational",
        k=global_k,
        table=table,
        numerator_degree=n,
        denominator_degree=m,
        expected_k=expected,
        matches_expected=matches,
        bounds_ok=bounds_ok,
        retries_used=retries,
        scales=tuple(path.scales.tolist()),
    )


def _common_limit(table: ChannelTable) -> int | None:
    """The k every channel converged to, when it is one nonnegative integer."""
    k = table.k
    if np.all(table.flag == CONVERGED) and np.all(k == k[0]) and k[0] >= 0:
        return int(k[0])
    return None


def entire_zero_bound(
    f: CircFunction,
    q_entire: CircFunction,
    path: PathSpec | None = None,
) -> ZeroBoundReport:
    """Zero-count bound for an entire function from a witnessing entire Q.

    Estimates u_i (P_i'/P_i + (G_i' - q_i(u_i))) along the path, that is
    u_i (F_i'/F_i - q_i(u_i)) with the witness taken off G' first, so that
    a large G' cannot swamp P'/P.  If every channel
    converges to one nonnegative integer n, the number of solutions of
    F(Z) = 0 is at most n^d; otherwise the witness does not match.  Nor
    does it match when it equals G' channel-wise and n differs from deg P,
    which the report shows as ``degree_check=False``.
    """
    if f.Q is not None:
        raise TypeError("zero-count bounds apply to entire functions only")
    if q_entire.Q is not None:
        raise TypeError("the witness must be entire")
    if q_entire.d != f.d:
        raise DimensionError(f"order mismatch: witness has {q_entire.d}, function has {f.d}")

    table, retries, _ = _estimate_channels(f, path, q_entire)

    n = _common_limit(table)
    degree_check = None if n is None else _degree_cross_check(f, q_entire, n)
    matched = n is not None and degree_check is not False
    return ZeroBoundReport(
        matched=matched,
        n=n if matched else None,
        bound=n**f.d if matched else None,
        table=table,
        degree_check=degree_check,
        retries_used=retries,
    )


def _degree_cross_check(f: CircFunction, q_entire: CircFunction, n: int) -> bool | None:
    """When the witness equals G' channel-wise, n should be deg P."""
    if q_entire.G is not None:
        return None
    gm = f.G.channel_matrix() if f.G is not None else np.zeros((1, f.d))  # without G, F is P exp(0)
    qm = q_entire.P.channel_matrix()
    rows = max(qm.shape[0], gm.shape[0])
    pads = np.zeros((2, rows, f.d), dtype=np.complex128)  # the witness and G', below leading zeros
    pads[0, rows - qm.shape[0] :] = qm
    pads[1, rows - gm.shape[0] :] = _with_derivative(gm)[:, 1]
    if np.max(np.abs(pads[0] - pads[1])) > WITNESS_MATCH_REL_TOL * max(float(np.max(np.abs(pads))), 1.0):
        return None
    return n == f.P.degree


def detect_poly_degree(
    f: CircFunction,
    path: PathSpec | None = None,
) -> DegreeReport:
    """Recover the degree of a regular polynomial function from its
    log-derivative limit; anything without a common nonnegative integer
    limit is reported as not polynomial."""
    table, retries, _ = _estimate_channels(f, path)
    degree = _common_limit(table)
    return DegreeReport(
        is_polynomial=degree is not None, degree=degree, table=table, retries_used=retries
    )
