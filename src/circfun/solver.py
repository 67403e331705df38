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
and the residual check, all row-wise.  Rows run in blocks that bound the
tensor's size.  Each step does on a row exactly what it would do on that row
alone, so a channel's roots do not depend on the rest of the polynomial, and
:func:`solve_scalar_poly` is the one-row case.

When every channel has roots, the solutions are all combinations of one root
per channel, recombined through the inverse transform; a degree-n equation
with invertible leading coefficient therefore has between 1 and n^d roots.

No duplicate check is needed: each channel's roots are distinct after
clustering, so distinct combinations are distinct spectra, which the
bijective inverse transform maps to distinct circulants.

Recombined roots are verified a chunk at a time in the spectral domain.  The
forward transform of the chunk's rows gives the spectra u_k, the channel
matrix is evaluated at them with its scales, and by Parseval the residual
||P(Z_k)||_F is sqrt(sum_i |p_i(u_ki)|^2).  Each channel value must pass the
backward-error gate |p_i(u_ki)| <= tol * max(scale_ki, max(1, S)), with
scale_ki = sum_j |c_ji| |u_ki|^(n-j) and S the largest spectral coefficient
modulus.  Since that check reads the same channel matrix the solve used, the
root of each chunk with the worst ratio to its bound is also evaluated by
ring Horner on the coefficient rows, and its Frobenius norm must stay within
the 2-norm of its channel bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import core
from .core import Circulant
from .errors import (
    DegeneratePolynomialError,
    DimensionError,
    RecombinationLimitError,
    SolverError,
)
from .functions import COEFFICIENT_REL_TOL, CircPoly, polyval_with_scale
from .spectral import forward_rows, inverse_rows

#: Default cap on the number of root combinations materialized.
DEFAULT_RECOMBINATION_LIMIT = 10**6

#: Relative clustering width for assigning multiplicities to scalar roots.
CLUSTER_REL_TOL = 1e-7

#: Root combinations rebuilt per batched inverse transform.
RECOMBINE_CHUNK = 1024

#: Entries of the (rows, n, n) Aberth temporaries per block of channels.
BLOCK_ENTRIES = 2**15

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


@dataclass(frozen=True)
class SolutionSet:
    status: SolutionStatus
    roots: tuple[Circulant, ...]
    residuals: tuple[float, ...]
    channel_reports: tuple[ChannelReport, ...]
    free_channels: tuple[int, ...] = ()  # 1-based, infinite families only
    _fixed_spectra: tuple[tuple[complex, ...], ...] = field(default=(), repr=False)

    def sample_members(self, count: int, seed: int = 0, magnitude: float = 1.0) -> list[Circulant]:
        """Materialize concrete members of an infinite family.

        Fixed channels cycle deterministically through their root
        combinations in ``itertools.product`` order; free channels draw
        complex values from a seeded generator, real part first, member by
        member and channel by channel.  All members go through one batched
        inverse transform.  Only meaningful when status is INFINITE_FAMILY.
        """
        if self.status is not SolutionStatus.INFINITE_FAMILY:
            raise ValueError("sampling applies to infinite families only")
        free = np.array(self.free_channels, dtype=np.intp) - 1
        fixed = np.setdiff1d(np.arange(free.size + len(self._fixed_spectra)), free)
        sizes = [len(s) for s in self._fixed_spectra]
        total = math.prod(sizes)  # a Python int: it may exceed int64
        index = np.arange(count)
        digits = _mixed_radix_digits(index if total > count else index % total, sizes)
        grid = np.empty((count, free.size + fixed.size), dtype=np.complex128)
        for channel, values, k in zip(fixed, self._fixed_spectra, digits):
            grid[:, channel] = np.array(values)[k]
        draws = np.random.default_rng(seed).standard_normal((count, free.size, 2))
        grid[:, free] = magnitude * draws.view(np.complex128)[:, :, 0]
        return [Circulant(row) for row in inverse_rows(grid)]


def _mixed_radix_digits(index, radices: list[int]) -> list:
    """Digits of ``index`` (a Python int or an integer array) in the mixed
    radix ``radices``, last digit fastest: index k names the k-th tuple of
    ``itertools.product`` over sequences of those lengths."""
    digits = []
    for radix in reversed(radices):
        index, digit = divmod(index, radix)
        digits.append(digit)
    return digits[::-1]


def solve_scalar_poly(
    coeffs,
    tol: float = 1e-10,
    max_iter: int = ABERTH_MAX_ITER,
) -> ScalarRoots:
    """All complex roots of a scalar polynomial (leading coefficient first).

    Runs the Ehrlich-Aberth simultaneous iteration, which updates every root
    approximation at once using the Newton correction damped by the repulsion
    from the other approximations.  Falls back to companion-matrix
    eigenvalues if the iteration stalls, then polishes with one Newton step
    per root and merges near-coincident roots into multiplicities.

    Residuals are accepted when ``|p(r)| <= tol * scale(r)`` with the
    condition-aware scale sum |c_k| |r|^(n-k).  This is the one-row case of
    the batched solve that :func:`solve_circ_poly` runs over its channels.
    NaN or infinite coefficients raise ValueError.
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coefficients must be a nonempty vector")
    if not np.all(np.isfinite(c)):
        raise ValueError("coefficients must be finite")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    scale = np.max(np.abs(c))
    if scale == 0.0:
        raise DegeneratePolynomialError("identically zero polynomial")
    lead = int(np.argmax(np.abs(c) > COEFFICIENT_REL_TOL * scale))
    c = c[lead:]
    if c.size == 1:
        raise DegeneratePolynomialError("constant polynomial has no roots")
    result = _solve_monic_rows((c / c[0])[None], tol, max_iter)[0]
    if isinstance(result, SolverError):
        raise result
    return result


def _solve_monic_rows(monic: np.ndarray, tol: float, max_iter: int) -> list[ScalarRoots | SolverError]:
    """Roots of each row of ``monic``, shape (m, n + 1) with n >= 1, or the
    row's SolverError.

    Rows run in blocks whose (rows, n, n) temporaries hold about
    ``BLOCK_ENTRIES`` entries.  Every step acts on a row exactly as it would
    on that row alone, so the results do not depend on the grouping.
    """
    n = monic.shape[1] - 1
    step = max(1, BLOCK_ENTRIES // (n * n))
    results: list[ScalarRoots | SolverError] = []
    for start in range(0, monic.shape[0], step):
        block = monic[start : start + step]
        roots, iterations, failures = _aberth(block, max_iter)
        roots = _newton_polish(block, roots)
        distinct, mults = _cluster_roots(roots)
        values, scales = polyval_with_scale(block.T[:, :, None], distinct)
        max_residuals = np.max(np.abs(values), axis=1)
        rejected = ~np.all(np.abs(values) <= tol * np.maximum(scales, 1.0), axis=1)  # NaN fails
        for i, mult in enumerate(mults):
            if i in failures:
                results.append(failures[i])
            elif rejected[i]:
                results.append(
                    SolverError(
                        f"root residual {max_residuals[i]:.3e} exceeds tolerance {tol:.1e} after polishing"
                    )
                )
            else:
                results.append(
                    ScalarRoots(
                        roots=distinct[i, : mult.size],
                        multiplicities=mult,
                        iterations=int(iterations[i]),
                        max_residual=float(max_residuals[i]),
                    )
                )
    return results


def _horner(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Row-wise ``np.polyval``: row i of ``coeffs`` evaluated at row i of ``z``."""
    value = np.zeros_like(z)
    for k in range(coeffs.shape[1]):
        value = value * z + coeffs[:, k : k + 1]
    return value


def _aberth(monic: np.ndarray, max_iter: int) -> tuple[np.ndarray, np.ndarray, dict]:
    """Ehrlich-Aberth on every row; a row leaves the active set once its
    corrections are negligible.  Returns the roots, the iteration counts and
    the SolverError of each row whose companion-matrix fallback failed."""
    m, n = monic.shape[0], monic.shape[1] - 1
    if n == 1:
        return -monic[:, 1:], np.zeros(m, dtype=np.intp), {}
    dcoef = monic[:, :-1] * np.arange(n, 0, -1)
    radius = 1.0 + np.max(np.abs(monic[:, 1:]), axis=1, keepdims=True)
    angles = 2 * np.pi * np.arange(n) / n + 0.7  # offset breaks axis symmetry
    z = radius * np.exp(1j * angles)
    roots = np.empty_like(z)
    iterations = np.full(m, max_iter, dtype=np.intp)
    active = np.arange(m)
    diagonal = np.arange(n)
    buffer = np.empty((m, n, n), dtype=np.complex128)  # reused: one tensor alive per block
    for iteration in range(1, max_iter + 1):
        p = _horner(monic[active], z)
        dp = _horner(dcoef[active], z)
        dp = np.where(dp == 0, 1e-300, dp)
        w = p / dp
        diff = np.subtract(z[:, :, None], z[:, None, :], out=buffer[: z.shape[0]])
        diff[:, diagonal, diagonal] = 1.0
        repulsion = np.sum(np.divide(1.0, diff, out=diff), axis=2) - 1.0  # remove the diagonal's 1/1
        denom = 1.0 - w * repulsion
        denom = np.where(denom == 0, 1e-300, denom)
        correction = w / denom
        z = z - correction
        done = np.all(np.abs(correction) <= 1e-14 * (1.0 + np.abs(z)), axis=1)
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


def _newton_polish(monic: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """One Newton step per root, kept only where it lowers |p|; row i of
    ``roots`` belongs to row i of ``monic``."""
    n = monic.shape[1] - 1
    dcoef = monic[:, :-1] * np.arange(n, 0, -1)
    p = _horner(monic, roots)
    dp = _horner(dcoef, roots)
    safe = dp != 0
    stepped = roots.copy()
    stepped[safe] = roots[safe] - p[safe] / dp[safe]
    better = np.abs(_horner(monic, stepped)) < np.abs(p)
    return np.where(better, stepped, roots)


def _cluster_roots(roots: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Distinct roots of each row in lexicographic order, with multiplicities.

    Row i of the returned matrix starts with the row's k_i distinct roots and
    is padded with copies of the first; entry i of the list holds their k_i
    multiplicities.  If no sorted root lies within twice the clustering width
    of an earlier one, the greedy running-mean loop keeps every root as its
    own group, whose mean is the root itself, so only rows with a close pair
    run the loop.  The factor 2 covers rounding differences between this
    distance and the loop's scalar ``abs``.
    """
    rows = np.arange(roots.shape[0])[:, None]
    roots = roots[rows, np.lexsort((roots.imag, roots.real))]
    gap = roots.real[:, :, None] - roots.real[:, None, :]
    gap = np.hypot(gap, roots.imag[:, :, None] - roots.imag[:, None, :], out=gap)  # |r_i - r_j|
    width = 2 * CLUSTER_REL_TOL * np.maximum(1.0, np.abs(roots))
    close = np.any(np.tril(gap <= width[:, None, :], -1), axis=(1, 2))
    distinct = (roots + 0.0) / 1  # np.mean of a one-root group, bit for bit
    distinct = distinct[rows, np.lexsort((distinct.imag, distinct.real))]
    mults = list(np.ones(roots.shape, dtype=np.intp))
    for i in np.flatnonzero(close):
        centers, mult = _greedy_clusters(roots[i])
        order = np.lexsort((centers.imag, centers.real))
        distinct[i, : centers.size] = centers[order]
        distinct[i, centers.size :] = centers[order[0]]
        mults[i] = mult[order]
    return distinct, mults


def _greedy_clusters(sorted_roots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    groups: list[list[complex]] = []
    for r in sorted_roots:
        placed = False
        for g in groups:
            center = np.mean(g)
            if abs(r - center) <= CLUSTER_REL_TOL * max(1.0, abs(center)):
                g.append(r)
                placed = True
                break
        if not placed:
            groups.append([r])
    distinct = np.array([np.mean(g) for g in groups])
    mult = np.array([len(g) for g in groups], dtype=np.intp)
    return distinct, mult


def newton_polish(coeffs, roots) -> np.ndarray:
    """Public polishing pass: one Newton step per root where it improves."""
    c = np.asarray(coeffs, dtype=np.complex128)
    return _newton_polish((c / c[0])[None], np.asarray(roots, dtype=np.complex128)[None])[0]


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
    return magnitudes, scales, np.sqrt(np.sum(np.square(magnitudes), axis=1))


def solve_circ_poly(
    p: CircPoly,
    tol: float = 1e-8,
    recombination_limit: int = DEFAULT_RECOMBINATION_LIMIT,
) -> SolutionSet:
    """Classify and solve P(Z) = 0.

    The root-bearing channels are grouped by effective degree, and each group
    goes through one batched scalar solve; if channels fail, the error names
    the lowest-numbered one.  The finite case returns every combination of
    one root per channel, without dedup, in ``itertools.product`` order; each
    chunk of ``RECOMBINE_CHUNK`` takes its spectra from the mixed-radix
    digits of the combination index, goes through one batched inverse
    transform, and is verified in one spectral pass: Parseval residuals, the
    per-channel backward-error gate, and ring Horner on the chunk's worst
    root (see the module docstring).  A root failing a check raises
    SolverError.  A channel matrix with NaN or infinite entries raises
    ValueError.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if p.degree < 1:
        raise ValueError("polynomial degree must be >= 1")

    with np.errstate(over="ignore", invalid="ignore"):  # such input is rejected next
        cm = p.channel_matrix()
    if not np.all(np.isfinite(cm)):
        raise ValueError("polynomial coefficients must be finite")
    scale = float(np.max(np.abs(cm)))
    degrees = p.channel_degrees()
    scalars: dict[int, ScalarRoots | SolverError] = {}
    for k in sorted(set(degrees[degrees > 0].tolist())):
        channels = np.flatnonzero(degrees == k)
        coeffs = cm[cm.shape[0] - 1 - k :, channels].T
        solved = _solve_monic_rows(coeffs / coeffs[:, :1], tol, ABERTH_MAX_ITER)
        scalars.update(zip(channels.tolist(), solved))
    failed = [i for i, r in scalars.items() if isinstance(r, SolverError)]
    if failed:
        first = min(failed)
        raise SolverError(f"channel {first + 1}: {scalars[first]}") from scalars[first]

    reports: list[ChannelReport] = []
    per_channel_roots: list[np.ndarray] = []
    zero_channels: list[int] = []
    constant_channels: list[int] = []
    for i, degree in enumerate(degrees.tolist()):
        if degree < 0:
            reports.append(ChannelReport(channel=i + 1, kind="identically-zero"))
            zero_channels.append(i + 1)
        elif degree == 0:
            reports.append(ChannelReport(channel=i + 1, kind="nonzero-constant", effective_degree=0))
            constant_channels.append(i + 1)
        else:
            scalar = scalars[i]
            reports.append(
                ChannelReport(
                    channel=i + 1,
                    kind="roots",
                    effective_degree=degree,
                    roots=tuple(complex(r) for r in scalar.roots),
                    multiplicities=tuple(int(m) for m in scalar.multiplicities),
                )
            )
            per_channel_roots.append(scalar.roots)

    if constant_channels:
        return SolutionSet(
            status=SolutionStatus.NO_SOLUTION,
            roots=(),
            residuals=(),
            channel_reports=tuple(reports),
        )

    if zero_channels:
        fixed = tuple(tuple(r.roots) for r in reports if r.kind == "roots")
        return SolutionSet(
            status=SolutionStatus.INFINITE_FAMILY,
            roots=(),
            residuals=(),
            channel_reports=tuple(reports),
            free_channels=tuple(zero_channels),
            _fixed_spectra=fixed,
        )

    sizes = [r.size for r in per_channel_roots]
    count = math.prod(sizes)
    if count > recombination_limit:
        raise RecombinationLimitError(f"root combinations exceed the cap of {recombination_limit}")

    coeff_rows = [c.row for c in p.coeffs]
    floor = max(1.0, scale)
    roots: list[Circulant] = []
    residuals: list[float] = []
    for start in range(0, count, RECOMBINE_CHUNK):
        digits = _mixed_radix_digits(np.arange(start, min(start + RECOMBINE_CHUNK, count)), sizes)
        grid = np.column_stack([r[k] for r, k in zip(per_channel_roots, digits)])
        rows = inverse_rows(grid)
        magnitudes, scales, norms = _channel_residuals(cm, rows)
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
        allowed = float(np.sqrt(np.sum(np.square(bounds[k]))))
        if not ring <= allowed:
            raise SolverError(
                f"reconstructed root residual {ring:.3e} exceeds {allowed:.1e}"
                f" in the ring check of root {start + k + 1}"
            )
        roots.extend(Circulant(row) for row in rows)
        residuals.extend(norms.tolist())
    return SolutionSet(
        status=SolutionStatus.FINITE,
        roots=tuple(roots),
        residuals=tuple(residuals),
        channel_reports=tuple(reports),
    )
