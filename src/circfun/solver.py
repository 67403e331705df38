"""Solving P(Z) = 0 over the circulant ring.

The equation splits into d independent scalar polynomial equations, one per
eigenchannel.  Channels fall into three classes once coefficients below the
relative tolerance are discarded:

* effective degree >= 1: finitely many scalar roots,
* a nonzero constant: no value of the channel variable works, so the ring
  equation has no solution at all,
* identically zero: any value works, giving a free complex parameter.

When every channel has roots, the solutions are all combinations of one root
per channel, recombined through the inverse transform; a degree-n equation
with invertible leading coefficient therefore has between 1 and n^d roots.

No duplicate check is needed: each channel's roots are distinct after
clustering, so distinct combinations are distinct spectra, which the
bijective inverse transform maps to distinct circulants.
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
    RecombinationLimitError,
    SolverError,
)
from .functions import COEFFICIENT_REL_TOL, CircPoly, polyval_with_scale
from .spectral import from_spectrum, inverse_rows

#: Default cap on the number of root combinations materialized.
DEFAULT_RECOMBINATION_LIMIT = 10**6

#: Relative clustering width for assigning multiplicities to scalar roots.
CLUSTER_REL_TOL = 1e-7

#: Root combinations rebuilt per batched inverse transform.
RECOMBINE_CHUNK = 1024


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
        combinations; free channels draw complex values from a seeded
        generator.  Only meaningful when status is INFINITE_FAMILY.
        """
        if self.status is not SolutionStatus.INFINITE_FAMILY:
            raise ValueError("sampling applies to infinite families only")
        rng = np.random.default_rng(seed)
        free = set(self.free_channels)
        sizes = [len(s) for s in self._fixed_spectra]
        total = math.prod(sizes)
        d = len(self.free_channels) + len(self._fixed_spectra)
        members = []
        for k in range(count):
            digits = _mixed_radix_digits(k % total, sizes)
            chosen = iter(s[j] for s, j in zip(self._fixed_spectra, digits))
            values = np.empty(d, dtype=np.complex128)
            for i in range(d):
                if i + 1 in free:
                    values[i] = magnitude * complex(rng.standard_normal(), rng.standard_normal())
                else:
                    values[i] = next(chosen)
            members.append(from_spectrum(values))
        return members


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
    cluster_tol: float = CLUSTER_REL_TOL,
    max_iter: int = 100,
) -> ScalarRoots:
    """All complex roots of a scalar polynomial (leading coefficient first).

    Runs the Ehrlich-Aberth simultaneous iteration, which updates every root
    approximation at once using the Newton correction damped by the repulsion
    from the other approximations.  Falls back to companion-matrix
    eigenvalues if the iteration stalls, then polishes with one Newton step
    per root and merges near-coincident roots into multiplicities.

    Residuals are accepted when ``|p(r)| <= tol * scale(r)`` with the
    condition-aware scale sum |c_k| |r|^(n-k).
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coefficients must be a nonempty vector")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    scale = np.max(np.abs(c))
    if scale == 0.0:
        raise DegeneratePolynomialError("identically zero polynomial")
    lead = int(np.argmax(np.abs(c) > COEFFICIENT_REL_TOL * scale))
    c = c[lead:]
    n = c.size - 1
    if n == 0:
        raise DegeneratePolynomialError("constant polynomial has no roots")

    monic = c / c[0]
    roots, iterations = _aberth(monic, max_iter)
    roots = _newton_polish(monic, roots)
    distinct, mult = _cluster_roots(roots, cluster_tol)

    values, scales = polyval_with_scale(monic, distinct)
    max_residual = float(np.max(np.abs(values)))
    if np.any(np.abs(values) > tol * np.maximum(scales, 1.0)):
        raise SolverError(
            f"root residual {max_residual:.3e} exceeds tolerance {tol:.1e} after polishing"
        )
    order = np.lexsort((distinct.imag, distinct.real))
    return ScalarRoots(
        roots=distinct[order],
        multiplicities=mult[order],
        iterations=iterations,
        max_residual=max_residual,
    )


def _aberth(monic: np.ndarray, max_iter: int) -> tuple[np.ndarray, int]:
    n = monic.size - 1
    if n == 1:
        return np.array([-monic[1]]), 0
    dcoef = monic[:-1] * np.arange(n, 0, -1)
    radius = 1.0 + np.max(np.abs(monic[1:]))
    angles = 2 * np.pi * np.arange(n) / n + 0.7  # offset breaks axis symmetry
    z = radius * np.exp(1j * angles)
    for iteration in range(1, max_iter + 1):
        p = np.polyval(monic, z)
        dp = np.polyval(dcoef, z)
        dp = np.where(dp == 0, 1e-300, dp)
        w = p / dp
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        repulsion = np.sum(1.0 / diff, axis=1) - 1.0  # remove the diagonal's 1/1
        denom = 1.0 - w * repulsion
        denom = np.where(denom == 0, 1e-300, denom)
        correction = w / denom
        z = z - correction
        if np.all(np.abs(correction) <= 1e-14 * (1.0 + np.abs(z))):
            return z, iteration
    # Stalled (typically root clusters): companion-matrix eigenvalues.
    try:
        return np.roots(monic), max_iter
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise SolverError("companion-matrix fallback failed to converge") from exc


def _newton_polish(monic: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """One Newton step per root, kept only where it lowers |p|."""
    n = monic.size - 1
    dcoef = monic[:-1] * np.arange(n, 0, -1)
    p = np.polyval(monic, roots)
    dp = np.polyval(dcoef, roots)
    safe = dp != 0
    stepped = roots.copy()
    stepped[safe] = roots[safe] - p[safe] / dp[safe]
    better = np.abs(np.polyval(monic, stepped)) < np.abs(p)
    return np.where(better, stepped, roots)


def _cluster_roots(roots: np.ndarray, cluster_tol: float) -> tuple[np.ndarray, np.ndarray]:
    order = np.lexsort((roots.imag, roots.real))
    sorted_roots = roots[order]
    groups: list[list[complex]] = []
    for r in sorted_roots:
        placed = False
        for g in groups:
            center = np.mean(g)
            if abs(r - center) <= cluster_tol * max(1.0, abs(center)):
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
    return _newton_polish(c / c[0], np.asarray(roots, dtype=np.complex128))


def residual(p: CircPoly, z: Circulant) -> float:
    """Frobenius norm of P(Z)."""
    return core.frobenius_norm(p.evaluate(z))


def solve_circ_poly(
    p: CircPoly,
    tol: float = 1e-8,
    recombination_limit: int = DEFAULT_RECOMBINATION_LIMIT,
) -> SolutionSet:
    """Classify and solve P(Z) = 0.

    Channels are solved independently at their effective degree.  The finite
    case returns every combination of one root per channel, without dedup, in
    ``itertools.product`` order; each chunk of ``RECOMBINE_CHUNK`` takes its
    spectra from the mixed-radix digits of the combination index, goes through
    one batched inverse transform, and has every residual verified directly.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if p.degree < 1:
        raise ValueError("polynomial degree must be >= 1")

    cm = p.channel_matrix()
    scale = float(np.max(np.abs(cm)))
    reports: list[ChannelReport] = []
    per_channel_roots: list[np.ndarray] = []
    zero_channels: list[int] = []
    constant_channels: list[int] = []

    for i in range(p.d):
        col = cm[:, i]
        if scale == 0.0 or np.all(np.abs(col) <= COEFFICIENT_REL_TOL * scale):
            reports.append(ChannelReport(channel=i + 1, kind="identically-zero"))
            zero_channels.append(i + 1)
            continue
        nonzero = np.abs(col) > COEFFICIENT_REL_TOL * scale
        eff_degree = col.size - 1 - int(np.argmax(nonzero))
        if eff_degree == 0:
            reports.append(ChannelReport(channel=i + 1, kind="nonzero-constant", effective_degree=0))
            constant_channels.append(i + 1)
            continue
        try:
            scalar = solve_scalar_poly(col[col.size - 1 - eff_degree :], tol=tol)
        except SolverError as exc:
            raise SolverError(f"channel {i + 1}: {exc}") from exc
        reports.append(
            ChannelReport(
                channel=i + 1,
                kind="roots",
                effective_degree=eff_degree,
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

    roots: list[Circulant] = []
    for start in range(0, count, RECOMBINE_CHUNK):
        digits = _mixed_radix_digits(np.arange(start, min(start + RECOMBINE_CHUNK, count)), sizes)
        grid = np.column_stack([r[k] for r, k in zip(per_channel_roots, digits)])
        roots.extend(Circulant(row) for row in inverse_rows(grid))
    residuals = tuple(residual(p, r) for r in roots)
    allowed = tol * max(1.0, scale)
    worst = max(residuals, default=0.0)
    if worst > allowed:
        raise SolverError(f"reconstructed root residual {worst:.3e} exceeds {allowed:.1e}")
    return SolutionSet(
        status=SolutionStatus.FINITE,
        roots=tuple(roots),
        residuals=residuals,
        channel_reports=tuple(reports),
    )
