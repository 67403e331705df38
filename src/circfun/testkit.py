"""Independent oracles and seeded instance generators for verification.

Everything here deliberately goes through dense d x d matrices rather than
the fast circulant paths, so discrepancies point at real defects: textbook
matrix products, explicit Fourier conjugation, the four defining conditions
of the pseudoinverse, and an exhaustive lattice scan for small root sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Circulant, to_dense
from .errors import DimensionError
from .functions import CircPoly
from .spectral import fourier_matrix, from_spectrum
from .tolerances import LATTICE_TOL


def dense_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Plain matrix product of two square dense matrices."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"incompatible dense shapes {a.shape} and {b.shape}")
    return a @ b


def dense_conjugate(x: Circulant) -> np.ndarray:
    """S @ dense(x) @ S^-1 with the explicit inverse conj(S)/d; diagonal
    equals the spectrum of x."""
    s = fourier_matrix(x.d)
    s_inv = np.conj(s) / x.d
    return s @ to_dense(x) @ s_inv


@dataclass(frozen=True)
class PenroseReport:
    """Frobenius deviations from the four pseudoinverse conditions."""

    reproduce_a: float  # ||A X A - A||
    reproduce_x: float  # ||X A X - X||
    hermitian_ax: float  # ||(A X)* - A X||
    hermitian_xa: float  # ||(X A)* - X A||

    @property
    def max_deviation(self) -> float:
        return max(self.reproduce_a, self.reproduce_x, self.hermitian_ax, self.hermitian_xa)


def penrose_check(a: Circulant, x: Circulant) -> PenroseReport:
    """Measure how far x is from being the pseudoinverse of a."""
    if a.d != x.d:
        raise DimensionError(f"order mismatch: {a.d} vs {x.d}")
    da, dx = to_dense(a), to_dense(x)
    ax, xa = da @ dx, dx @ da
    return PenroseReport(
        reproduce_a=float(np.linalg.norm(da @ dx @ da - da)),
        reproduce_x=float(np.linalg.norm(dx @ da @ dx - dx)),
        hermitian_ax=float(np.linalg.norm(ax.conj().T - ax)),
        hermitian_xa=float(np.linalg.norm(xa.conj().T - xa)),
    )


@dataclass(frozen=True)
class LatticeSpec:
    """Brute-force search box for order-2 row entries.

    Each of the two row entries ranges over the complex grid
    [re_min, re_max] x [im_min, im_max] with the given step.  Candidates
    whose residual is at most ``tol`` are clustered into roots.
    """

    re_min: float = -3.0
    re_max: float = 3.0
    im_min: float = -3.0
    im_max: float = 3.0
    step: float = 0.25
    tol: float = LATTICE_TOL


def brute_force_roots(p: CircPoly, grid: LatticeSpec = LatticeSpec()) -> list[Circulant]:
    """Exhaustively scan candidate order-2 circulants for roots of P.

    Supports d = 2 and degree <= 2 with roots expected on the lattice.
    Evaluation runs through dense Horner only, independent of every fast
    path.  An empty result simply means no lattice point passed.
    """
    if p.d != 2:
        raise ValueError("the lattice oracle supports order 2 only")
    if p.degree > 2:
        raise ValueError("the lattice oracle supports degree <= 2 only")

    res = np.arange(grid.re_min, grid.re_max + grid.step / 2, grid.step)
    ims = np.arange(grid.im_min, grid.im_max + grid.step / 2, grid.step)
    entry = (res[:, None] + 1j * ims[None, :]).ravel()
    z0, z1 = np.meshgrid(entry, entry, indexing="ij")
    z0, z1 = z0.ravel(), z1.ravel()

    # Dense Horner acc <- acc @ [[z0, z1], [z1, z0]] + C, written entry by
    # entry over all lattice points at once.
    a00, a01, a10, a11 = (np.full(z0.shape, c) for c in to_dense(p.coeffs[0]).ravel())
    for coeff in p.coeffs[1:]:
        c00, c01, c10, c11 = to_dense(coeff).ravel()
        a00, a01, a10, a11 = (
            a00 * z0 + a01 * z1 + c00,
            a00 * z1 + a01 * z0 + c01,
            a10 * z0 + a11 * z1 + c10,
            a10 * z1 + a11 * z0 + c11,
        )
    residuals = np.sqrt(sum(np.abs(a) ** 2 for a in (a00, a01, a10, a11)))

    passing = np.nonzero(residuals <= grid.tol)[0]
    clusters: list[list[int]] = []
    for idx in passing:
        point = np.array([z0[idx], z1[idx]])
        for members in clusters:
            center = np.mean([[z0[m], z1[m]] for m in members], axis=0)
            if np.linalg.norm(point - center) <= 1.5 * grid.step:
                members.append(int(idx))
                break
        else:
            clusters.append([int(idx)])
    roots = []
    for members in clusters:
        center = np.mean([[z0[m], z1[m]] for m in members], axis=0)
        roots.append(Circulant(center))
    return roots


def random_circulant(rng: np.random.Generator, d: int, scale: float = 1.0) -> Circulant:
    """Gaussian complex row, component std ``scale / sqrt(2)``."""
    row = (rng.standard_normal(d) + 1j * rng.standard_normal(d)) * (scale / np.sqrt(2.0))
    return Circulant(row)


def random_invertible_circulant(
    rng: np.random.Generator, d: int, lo: float = 0.5, hi: float = 1.5
) -> Circulant:
    """Eigenvalue moduli drawn from [lo, hi] with uniform phases."""
    moduli = rng.uniform(lo, hi, size=d)
    phases = rng.uniform(0.0, 2 * np.pi, size=d)
    return from_spectrum(moduli * np.exp(1j * phases))


def random_singular_circulant(rng: np.random.Generator, d: int, n_zero: int) -> Circulant:
    """Exactly ``n_zero`` eigenvalues forced to zero (1 <= n_zero <= d - 1)."""
    if not 1 <= n_zero <= d - 1:
        raise ValueError(f"n_zero must be in [1, {d - 1}], got {n_zero}")
    values = rng.uniform(0.5, 1.5, size=d) * np.exp(1j * rng.uniform(0, 2 * np.pi, size=d))
    zero_at = rng.choice(d, size=n_zero, replace=False)
    values[zero_at] = 0.0
    return from_spectrum(values)


def random_regular_poly(
    rng: np.random.Generator, d: int, degree: int, scale: float = 1.0
) -> CircPoly:
    """Random polynomial with an invertible leading coefficient."""
    coeffs = [random_invertible_circulant(rng, d)]
    coeffs += [random_circulant(rng, d, scale) for _ in range(degree)]
    return CircPoly(coeffs)


def integer_rooted_poly(
    rng: np.random.Generator, d: int, degree: int, box: int = 2
) -> tuple[CircPoly, list[np.ndarray]]:
    """Monic polynomial built from distinct Gaussian-integer channel roots.

    Returns the polynomial and the per-channel root arrays.  Row entries of
    every solution land on the half-integer lattice, which is what the
    brute-force oracle scans.
    """
    lattice = np.array(
        [complex(re, im) for re in range(-box, box + 1) for im in range(-box, box + 1)]
    )
    channel_roots = []
    coeff_rows = np.zeros((degree + 1, d), dtype=np.complex128)
    for i in range(d):
        picks = rng.choice(lattice.size, size=degree, replace=False)
        roots = lattice[picks]
        channel_roots.append(roots)
        coeff_rows[:, i] = np.atleast_1d(np.poly(roots))
    coeffs = [from_spectrum(coeff_rows[k]) for k in range(degree + 1)]
    return CircPoly(coeffs), channel_roots
