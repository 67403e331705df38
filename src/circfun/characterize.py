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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Circulant
from .errors import ChannelSingularityError
from .functions import (
    CircFunction,
    PolyFunction,
    RationalFunction,
    _derivative_rows,
    classify,
)
from .spectral import forward_rows, inverse_rows, spectrum

#: |estimate - nearest integer| accepted as converged, after extrapolation.
ROUND_TOL = 1e-3

#: Below this absolute error the contraction test is waived: estimates at
#: the floating-point noise floor jitter instead of shrinking.
NOISE_FLOOR = 1e-6

_GOLDEN_FRACTION = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class PathSpec:
    """A path to infinity: unit-modulus direction times increasing scales."""

    direction: np.ndarray
    scales: np.ndarray
    retry_budget: int = 5
    seed: int = 0

    def __post_init__(self):
        direction = np.asarray(self.direction, dtype=np.complex128)
        scales = np.asarray(self.scales, dtype=np.float64)
        if direction.ndim != 1 or direction.size < 2:
            raise ValueError("direction must be a complex vector of length >= 2")
        if np.any(np.abs(np.abs(direction) - 1.0) > 1e-9):
            raise ValueError("direction entries must have unit modulus")
        if scales.ndim != 1 or scales.size < 4:
            raise ValueError("need at least 4 scale points")
        if np.any(scales <= 0) or np.any(np.diff(scales) <= 0):
            raise ValueError("scales must be positive and strictly increasing")
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "scales", scales)

    @property
    def d(self) -> int:
        return self.direction.size

    @classmethod
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
        alignment with real-axis zeros or poles.
        """
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


@dataclass(frozen=True)
class DivisorReport:
    status: str  # "rational" | "not-rational"
    k: int | None
    channels: tuple[ChannelEstimate, ...]
    numerator_degree: int
    denominator_degree: int
    expected_k: int | None  # n - m when both polynomials are regular
    matches_expected: bool | None  # global k against expected_k, when both exist
    bounds_ok: bool | None
    retries_used: int
    scales: tuple[float, ...]

    @property
    def converged(self) -> bool:
        return self.status == "rational"


@dataclass(frozen=True)
class ZeroBoundReport:
    matched: bool
    n: int | None
    bound: int | None
    channels: tuple[ChannelEstimate, ...]
    degree_check: bool | None
    retries_used: int


@dataclass(frozen=True)
class DegreeReport:
    is_polynomial: bool
    degree: int | None
    channels: tuple[ChannelEstimate, ...]
    retries_used: int


def logderiv_diag(f: CircFunction, z: Circulant) -> np.ndarray:
    """Channel values u_i F_i'(u_i) / F_i(u_i) at the eigenvalues of z.

    Equals the diagonal of S (Z F'(Z) F(Z)^+) S^-1; raises
    ChannelSingularityError where a channel sits on a zero or pole.
    """
    u = spectrum(z)
    return u * f.channel_logderiv(u)


def _richardson(scales: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Eliminate the c/t tail: combine adjacent scale points pairwise."""
    t1, t2 = scales[:-1], scales[1:]
    return (t2 * values[1:] - t1 * values[:-1]) / (t2 - t1)


def _analyze_sequence(scales: np.ndarray, values: np.ndarray):
    """Decide convergence of the estimate sequences in the columns of
    ``values`` (shape (n_scales, C)), one per channel; n_scales >= 4, as
    PathSpec requires.

    Converged means: the last three Richardson-extrapolated estimates sit
    within ``ROUND_TOL`` of one integer and the error does not grow, allowing
    floating-point jitter once the tail is at machine level.  A column whose
    estimates or final extrapolated estimate are not finite diverges with no
    k and no error, and keeps its raw estimates as its refined sequence.

    Returns per-column lists: k (int or None), converged (bool), refined
    sequence and final error (float or None).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        refined = _richardson(scales[:, None], values)
        final = refined[-1]
        usable = np.all(np.isfinite(values), axis=0) & np.isfinite(final)
        k = np.rint(np.where(usable, final.real, 0.0))
        tail = np.abs(refined[-3:] - k)
        within = np.all(tail <= ROUND_TOL, axis=0) & (np.abs(final.imag) <= ROUND_TOL)
        shrinking = ((tail[1] <= tail[0] * 1.5) | (tail[1] <= NOISE_FLOOR)) & (
            (tail[2] <= tail[1] * 1.5) | (tail[2] <= NOISE_FLOOR)
        )
    columns = refined.T.tolist()
    for j in np.flatnonzero(~usable):
        columns[j] = values[:, j].tolist()
    ok = (usable & within & shrinking).tolist()
    ks = [int(v) if c else None for v, c in zip(k.tolist(), ok)]
    errors = [e if c else None for e, c in zip(tail[2].tolist(), usable.tolist())]
    return ks, ok, columns, errors


def _estimate_channels(f: CircFunction, path: PathSpec, qfun) -> tuple[list[ChannelEstimate], int]:
    indeterminate = f.degenerate_channels()
    if np.all(indeterminate):
        raise ChannelSingularityError(range(1, f.d + 1), "every channel is degenerate")

    # Degenerate channels would raise on every direction; scan only the rest.
    live = np.flatnonzero(~indeterminate)
    estimates, retries = _scan(f, path, qfun, live)
    ks, ok, refined, errors = _analyze_sequence(path.scales, estimates)

    channels = [
        ChannelEstimate(
            channel=i + 1, flag="indeterminate", k=None, estimates=(), refined=(), final_error=None
        )
        for i in range(f.d)
    ]
    for j, (i, seq) in enumerate(zip(live.tolist(), estimates.T.tolist())):
        channels[i] = ChannelEstimate(
            channel=i + 1,
            flag="converged" if ok[j] else "diverged",
            k=ks[j],
            estimates=tuple(seq),
            refined=tuple(refined[j]),
            final_error=errors[j],
        )
    return channels, retries


def _scan(f, path: PathSpec, qfun, live: np.ndarray) -> tuple[np.ndarray, int]:
    """Estimate sequences for the ``live`` channels over the path's scales,
    all scales in one batch.

    Returns an array of shape (n_scales, len(live)), one column per live
    channel.  On a channel singularity the direction is re-randomized
    (seeded) up to the retry budget, after which the error propagates,
    naming the channels of the first scale where the singularity sits.

    The points are u = spectrum(from_spectrum(t * direction)), computed for
    all scales by one inverse_rows and one forward_rows call, not
    t * direction itself: the round trip makes u the exact spectrum of a
    representable circulant Z on the path, so each estimate is a channel
    value of the diagonal of Z F'(Z) F(Z)^+ at a matrix argument, and the
    CLI output pinned by the golden files depends on those bits.
    """
    rng = np.random.default_rng(path.seed)
    direction = path.direction
    last_error: ChannelSingularityError | None = None
    for attempt in range(path.retry_budget + 1):
        u = forward_rows(inverse_rows(path.scales[:, None] * direction))
        try:
            values = u[:, live] * f.channel_logderiv(u, live)
        except ChannelSingularityError as exc:
            last_error = exc
            direction = np.exp(2j * np.pi * rng.uniform(size=path.d))
            continue
        if qfun is not None:
            values = values - u[:, live] * qfun(u)[:, live]
        return values, attempt
    raise ChannelSingularityError(
        last_error.channels if last_error else (),
        f"path singularity persisted across {path.retry_budget} phase retries",
    )


def estimate_divisor(
    f: CircFunction,
    path: PathSpec | None = None,
) -> DivisorReport:
    """Estimate the per-channel divisors k_i of a polynomial or rational
    function and the global divisor when they agree.

    Each converged k_i must land in [-m, n] for numerator/denominator
    degrees n and m; when both polynomials are regular the global value
    equals n - m and is cross-checked against that expectation.
    """
    if not isinstance(f, (PolyFunction, RationalFunction)):
        raise TypeError("divisor estimation applies to polynomial and rational functions")
    parts = f.parts()
    num, den = parts["P"], parts.get("Q")

    if path is None:
        path = PathSpec.default(f.d)
    channels, retries = _estimate_channels(f, path, None)

    n = num.degree
    m = den.degree if den is not None else 0
    defined = [c for c in channels if c.flag != "indeterminate"]
    converged = [c for c in defined if c.flag == "converged"]
    status = "rational" if defined and len(converged) == len(defined) else "not-rational"

    ks = {c.k for c in converged}
    global_k = ks.pop() if status == "rational" and len(ks) == 1 else None

    regular = classify(num).regular and (den is None or classify(den).regular)
    expected = n - m if regular else None
    matches = (global_k == expected) if (expected is not None and global_k is not None) else None
    bounds_ok = all(-m <= c.k <= n for c in converged) if converged else None

    return DivisorReport(
        status=status,
        k=global_k,
        channels=tuple(channels),
        numerator_degree=n,
        denominator_degree=m,
        expected_k=expected,
        matches_expected=matches,
        bounds_ok=bounds_ok,
        retries_used=retries,
        scales=tuple(float(t) for t in path.scales),
    )


def entire_zero_bound(
    f: CircFunction,
    q_entire: CircFunction,
    path: PathSpec | None = None,
) -> ZeroBoundReport:
    """Zero-count bound for an entire function from a witnessing entire Q.

    Estimates u_i (F_i'/F_i - q_i(u_i)) along the path.  If every channel
    converges to one nonnegative integer n, the number of solutions of
    F(Z) = 0 is at most n^d; otherwise the witness does not match.  Nor
    does it match when it equals G' channel-wise and n differs from deg P,
    which the report shows as ``degree_check=False``.
    """
    if isinstance(f, RationalFunction):
        raise TypeError("zero-count bounds apply to entire functions only")
    if isinstance(q_entire, RationalFunction):
        raise TypeError("the witness must be entire")
    if q_entire.d != f.d:
        raise ValueError(f"order mismatch: witness has {q_entire.d}, function has {f.d}")

    if path is None:
        path = PathSpec.default(f.d)
    channels, retries = _estimate_channels(f, path, q_entire.channel_values)

    converged = [c for c in channels if c.flag == "converged"]
    ks = {c.k for c in converged}
    common = len(converged) == len(channels) and len(ks) == 1 and min(ks) >= 0
    n = ks.pop() if common else None
    degree_check = None if n is None else _degree_cross_check(f, q_entire, n)
    if n is None or degree_check is False:
        return ZeroBoundReport(
            matched=False, n=None, bound=None, channels=tuple(channels),
            degree_check=degree_check, retries_used=retries,
        )
    return ZeroBoundReport(
        matched=True,
        n=n,
        bound=n**f.d,
        channels=tuple(channels),
        degree_check=degree_check,
        retries_used=retries,
    )


def _degree_cross_check(f: CircFunction, q_entire: CircFunction, n: int) -> bool | None:
    """When the witness equals G' channel-wise, n should be deg P."""
    if not isinstance(q_entire, PolyFunction):
        return None
    g = f.parts().get("G")  # a polynomial is P exp(0)
    g_prime = (
        _derivative_rows(g.channel_matrix()) if g is not None else np.zeros((1, f.d), dtype=np.complex128)
    )
    q_cm = q_entire.poly.channel_matrix()
    rows = max(q_cm.shape[0], g_prime.shape[0])
    q_pad = np.vstack([np.zeros((rows - q_cm.shape[0], f.d)), q_cm])
    g_pad = np.vstack([np.zeros((rows - g_prime.shape[0], f.d)), g_prime])
    scale = max(float(np.max(np.abs(q_pad))), float(np.max(np.abs(g_pad))), 1.0)
    if np.max(np.abs(q_pad - g_pad)) > 1e-9 * scale:
        return None
    return n == f.parts()["P"].degree


def detect_poly_degree(
    f: CircFunction,
    path: PathSpec | None = None,
) -> DegreeReport:
    """Recover the degree of a regular polynomial function from its
    log-derivative limit; anything without a common nonnegative integer
    limit is reported as not polynomial."""
    if path is None:
        path = PathSpec.default(f.d)
    channels, retries = _estimate_channels(f, path, None)
    converged = [c for c in channels if c.flag == "converged"]
    ks = {c.k for c in converged}
    if len(converged) == len(channels) and len(ks) == 1:
        candidate = ks.pop()
        if candidate is not None and candidate >= 0:
            return DegreeReport(
                is_polynomial=True, degree=candidate, channels=tuple(channels),
                retries_used=retries,
            )
    return DegreeReport(
        is_polynomial=False, degree=None, channels=tuple(channels), retries_used=retries
    )
