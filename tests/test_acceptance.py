"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance and runtime budget is asserted, not just reported.
"""

import statistics
import time
from contextlib import contextmanager

import numpy as np

import circfun as cf
from circfun import (
    CircPoly,
    ExpPolyFunction,
    IncrementSpec,
    PolyFunction,
    RationalFunction,
    SolutionStatus,
)
from circfun.testkit import (
    dense_mul,
    integer_rooted_poly,
    brute_force_roots,
    penrose_check,
    random_circulant,
    random_invertible_circulant,
    random_regular_poly,
    random_singular_circulant,
)

SEED = 987654321


@contextmanager
def criterion(number: int, title: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_seconds, (
            f"runtime {elapsed:.2f}s exceeded the {budget_seconds:.0f}s budget"
        )
    except BaseException:
        print(f"\n[criterion {number:2d}] FAIL  {title}")
        raise
    print(f"\n[criterion {number:2d}] PASS  {title}  ({elapsed:.2f}s)")


def test_criterion_01_spectrum_of_all_ones():
    with criterion(1, "spectrum of the all-ones matrix at prime orders", 1.0):
        for p in (2, 3, 5, 7, 11):
            u = cf.spectrum(cf.ones(p))
            expected = np.zeros(p, dtype=complex)
            expected[0] = p
            assert np.max(np.abs(u - expected)) <= 1e-12


def test_criterion_02_cyclic_group_law():
    with criterion(2, "d-th power of the shift generator is the identity", 1.0):
        for d in range(2, 65):
            result = cf.power(cf.elementary(d), d)
            assert result.isclose(cf.identity(d), 1e-12)


def test_criterion_03_dense_oracle_and_path_agreement():
    with criterion(3, "multiplication vs dense oracle; FFT vs naive paths", 30.0):
        rng = np.random.default_rng(SEED)
        for d in (2, 4, 8, 16, 32):
            for _ in range(200):
                x, y = random_circulant(rng, d), random_circulant(rng, d)
                fast = cf.to_dense(cf.mul(x, y))
                dense = dense_mul(cf.to_dense(x), cf.to_dense(y))
                rel = np.linalg.norm(fast - dense) / np.linalg.norm(dense)
                assert rel <= 1e-10
        for d in (64, 257, 1000, 2048, 4096):
            x, y = random_circulant(rng, d), random_circulant(rng, d)
            a, b = cf.mul_naive(x, y), cf.mul_fft(x, y)
            rel = np.max(np.abs(a.row - b.row)) / np.max(np.abs(b.row))
            assert rel <= 1e-10


def test_criterion_04_pseudoinverse():
    with criterion(4, "pseudoinverse satisfies the four defining conditions", 30.0):
        rng = np.random.default_rng(SEED)
        worst = 0.0
        for _ in range(1000):
            d = int(rng.integers(2, 9))
            if rng.uniform() < 0.5:
                x = random_singular_circulant(rng, d, int(rng.integers(1, d)))
            else:
                x = random_circulant(rng, d)
            worst = max(worst, penrose_check(x, cf.pseudoinverse(x)).max_deviation)
        assert worst <= 1e-9
        assert cf.pseudoinverse(cf.ones(2)).isclose(cf.Circulant([0.25, 0.25]), 1e-12)


def test_criterion_05_derivative_consistency():
    with criterion(5, "monomial derivative rule and finite-difference check", 10.0):
        rng = np.random.default_rng(SEED)
        d = 4
        for n in range(1, 7):
            z = random_circulant(rng, d)
            f = PolyFunction(CircPoly.from_scalars([1] + [0] * n, d))
            expected = cf.scale(n, cf.power(z, n - 1))
            err = cf.frobenius_norm(f.derivative(z) - expected)
            assert err <= 1e-10 * max(1.0, cf.frobenius_norm(expected))

        p = random_regular_poly(rng, d, 3)
        q = random_regular_poly(rng, d, 2)
        g = random_regular_poly(rng, d, 1)
        instances = [PolyFunction(p), RationalFunction(p, q), ExpPolyFunction(p, g)]
        z = random_invertible_circulant(rng, d, lo=2.5, hi=3.5)
        inc = IncrementSpec(direction=cf.identity(d), delta=1e-6)
        for f in instances:
            exact = f.derivative(z)
            approx = cf.numeric_derivative(f, z, inc)
            rel = cf.frobenius_norm(approx - exact) / max(1e-12, cf.frobenius_norm(exact))
            assert rel <= 1e-5, f"{f.kind}: relative error {rel:.2e}"


def test_criterion_06_fta_variant():
    with criterion(6, "root counts n^d with residual and brute-force checks", 60.0):
        d = 2
        p = CircPoly.from_scalars([1, 0, -1], d)
        sol = cf.solve_circ_poly(p)
        assert sol.status is SolutionStatus.FINITE
        expected = [cf.identity(d), cf.elementary(d), cf.neg(cf.identity(d)), cf.neg(cf.elementary(d))]
        assert len(sol.roots) == 4
        for e in expected:
            assert any(e.isclose(r, 1e-10) for r in sol.roots)
        assert max(sol.residuals) <= 1e-10

        rng = np.random.default_rng(SEED)
        instances = []
        for _ in range(40):
            dd = int(rng.integers(2, 4))
            n = int(rng.integers(1, 4))
            instances.append((random_regular_poly(rng, dd, n), n, dd, None))
        for _ in range(10):  # the order-2 integer subset, checked against brute force
            n = int(rng.integers(1, 3))
            poly, _ = integer_rooted_poly(rng, 2, n)
            instances.append((poly, n, 2, brute_force_roots(poly)))
        assert len(instances) == 50

        for poly, n, dd, brute in instances:
            sol = cf.solve_circ_poly(poly)
            assert sol.status is SolutionStatus.FINITE
            assert len(sol.roots) == n**dd
            assert max(sol.residuals) <= 1e-8
            if brute is not None:
                assert len(brute) == len(sol.roots)
                for b in brute:
                    assert any(b.isclose(r, 1e-8) for r in sol.roots)


def test_criterion_07_singular_cases():
    with criterion(7, "singular equations: no solution and infinite family", 5.0):
        for d in (2, 3):
            no_sol = cf.solve_circ_poly(CircPoly([cf.ones(d), cf.identity(d)]))
            assert no_sol.status is SolutionStatus.NO_SOLUTION

            family_poly = CircPoly([cf.ones(d), cf.ones(d)])
            family = cf.solve_circ_poly(family_poly)
            assert family.status is SolutionStatus.INFINITE_FAMILY
            ch1 = family.channel_reports[0]
            assert ch1.kind == "roots"
            np.testing.assert_allclose(ch1.roots, [-1.0], atol=1e-12)
            members = family.sample_members(10, seed=SEED)
            assert max(cf.residual(family_poly, m) for m in members) <= 1e-10


def test_criterion_08_divisor_limits():
    with criterion(8, "divisor estimates converge to degree differences", 30.0):
        rng = np.random.default_rng(SEED)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(1, 5))
            m = int(rng.integers(0, 5))
            f = RationalFunction(random_regular_poly(rng, d, n), random_regular_poly(rng, d, m))
            report = cf.estimate_divisor(f)
            assert report.status == "rational"
            assert all(c.flag == "converged" and c.k == n - m for c in report.channels)
            assert all(c.final_error <= 1e-3 for c in report.channels)
            assert report.k == n - m

        d = 2
        e, i, o = cf.ones(d), cf.identity(d), cf.zero(d)
        mixed = RationalFunction(CircPoly([e, o, i, o]), CircPoly([i, o, i]))
        report = cf.estimate_divisor(mixed)
        assert report.status == "rational"
        assert [c.k for c in report.channels] == [1, -1]
        n, m = report.numerator_degree, report.denominator_degree
        assert all(-m <= c.k <= n for c in report.channels)


def test_criterion_09_entire_zero_bound():
    with criterion(9, "zero-count bound for exponential-polynomial functions", 10.0):
        for d in (2, 3):
            i, o = cf.identity(d), cf.zero(d)
            f = ExpPolyFunction(CircPoly.from_scalars([1, -3, 2], d), CircPoly([i, o]))
            witness = PolyFunction(CircPoly([i]))
            report = cf.entire_zero_bound(f, witness)
            assert report.matched and report.n == 2 and report.bound == 2**d

        d = 2
        pure_exp = ExpPolyFunction(
            CircPoly([cf.identity(d)]), CircPoly([cf.identity(d), cf.zero(d)])
        )
        report = cf.entire_zero_bound(pure_exp, PolyFunction(CircPoly([cf.zero(d)])))
        assert not report.matched


def test_criterion_10_polynomial_degree_detection():
    with criterion(10, "degree detection from the log-derivative limit", 20.0):
        rng = np.random.default_rng(SEED)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(1, 6))
            report = cf.detect_poly_degree(PolyFunction(random_regular_poly(rng, d, n)))
            assert report.is_polynomial and report.degree == n

        d = 2
        pure_exp = ExpPolyFunction(
            CircPoly([cf.identity(d)]), CircPoly([cf.identity(d), cf.zero(d)])
        )
        assert not cf.detect_poly_degree(pure_exp).is_polynomial


def test_criterion_11_fft_speedup():
    with criterion(11, "FFT multiplication is at least 10x the naive path at d=8192", 60.0):
        rng = np.random.default_rng(SEED)
        d = 8192
        x, y = random_circulant(rng, d), random_circulant(rng, d)
        cf.mul_naive(x, y)  # warm both paths before timing
        cf.mul_fft(x, y)
        naive_times, fft_times = [], []
        for _ in range(5):
            t0 = time.perf_counter()
            cf.mul_naive(x, y)
            naive_times.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            cf.mul_fft(x, y)
            fft_times.append(time.perf_counter() - t0)
        naive_median = statistics.median(naive_times)
        fft_median = statistics.median(fft_times)
        speedup = naive_median / fft_median
        print(
            f"\n    d={d}: naive median {naive_median * 1e3:.2f} ms, "
            f"fft median {fft_median * 1e3:.2f} ms, speedup {speedup:.1f}x"
        )
        assert speedup >= 10.0
