import itertools
import json
import math
import pickle
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circfun as cf
from circfun import (
    CircPoly,
    DegeneratePolynomialError,
    RecombinationLimitError,
    SolutionStatus,
    SolverError,
)
from circfun import solver
from circfun.core import _horner
from circfun.functions import _with_derivative, polyval_with_scale
from circfun.serialize import circulant_to_obj, solution_set_to_obj
from circfun.spectral import inverse_rows
from circfun.testkit import dense_mul, integer_rooted_poly, random_circulant, random_regular_poly
from circfun.tolerances import CIRC_RESIDUAL_TOL, ROUND_TRIP_FACTOR


def poly_from_channels(channel_coeffs, degree):
    """CircPoly whose channel i has the scalar coefficients ``channel_coeffs[i]``
    (leading first), padded with leading zeros up to ``degree``."""
    cm = np.zeros((degree + 1, len(channel_coeffs)), dtype=np.complex128)
    for i, c in enumerate(channel_coeffs):
        cm[degree + 1 - len(c) :, i] = c
    return CircPoly([cf.from_spectrum(row) for row in cm])


def polish(coeffs, roots):
    """One Newton polishing pass on the roots of one scalar polynomial, as
    the batched solve runs it on a row of monic coefficients: from the
    block's P/P' rows and P and P' at the roots, from one Horner pass."""
    c = np.asarray(coeffs, dtype=np.complex128)
    coeffs, roots = (c / c[0])[None].T[:, :, None], np.asarray(roots, dtype=np.complex128)[None]
    rows = _with_derivative(coeffs)
    values, dp = _horner(rows, roots)
    return solver._newton_polish(rows, roots, values, dp)[0][0]


def half_tables(channel_roots):
    """(spectra, numpy's inverse FFTs) of the head and tail half tables of a finite set whose
    channels have the distinct roots ``channel_roots``.  The head channels are the leading ones
    whose root counts first multiply to at least sqrt(count), leaving a tail channel; each half
    row is a combination of its channels' roots, in ``itertools.product`` order, zero elsewhere."""
    d, sizes = len(channel_roots), np.cumprod([len(r) for r in channel_roots])
    split = min(int(np.argmax(sizes**2 >= sizes[-1])), d - 2) + 1
    head = [list(c) + [0] * (d - split) for c in itertools.product(*channel_roots[:split])]
    tail = [[0] * split + list(c) for c in itertools.product(*channel_roots[split:])]
    spectra = [np.array(table, dtype=np.complex128) for table in (head, tail)]
    return [(table, np.fft.ifft(table, axis=1)) for table in spectra]


def gap_parts(spectra, rows):
    """|Re| and |Im| of the gaps between the forward FFTs of ``rows`` and ``spectra``."""
    return np.abs((np.fft.fft(rows, axis=1) - spectra).view(np.float64))


def rebuild_radii(channel_roots, halves):
    """delta, the round-off radius each half row's gaps must keep within, and rho, the radius
    within which the recombination derives each part of a root's gap: the half tables' largest
    parts, the rounding of their sum and 3 delta / 2 of forward rounding."""
    floats, d = np.finfo(np.float64), len(channel_roots)
    rounding = floats.eps * math.hypot(*(np.max(np.abs(r)) for r in channel_roots)) + d * floats.smallest_subnormal
    delta = ROUND_TRIP_FACTOR * (d - 1).bit_length() * rounding
    return delta, sum(gap_parts(*half).max() for half in halves) + rounding + 1.5 * delta


def random_monic(rng, n):
    return np.poly(rng.standard_normal(n) + 1j * rng.standard_normal(n))


def dense_backward_errors(p, roots):
    """||P(Z)||_F by dense Horner with ``dense_mul`` for each root Z, over
    the backward-error scale sqrt(d) * sum_k ||C_k||_2 ||Z||_2^(n-k)."""
    coeffs = [cf.to_dense(c) for c in p.coeffs]
    norms = [np.linalg.norm(c, 2) for c in coeffs]
    errors = []
    for z in roots:
        zd = cf.to_dense(z)
        acc = coeffs[0]
        for c in coeffs[1:]:
            acc = dense_mul(acc, zd) + c
        znorm, scale = np.linalg.norm(zd, 2), 0.0
        for norm in norms:
            scale = scale * znorm + norm
        errors.append(np.linalg.norm(acc) / (np.sqrt(p.d) * scale))
    return errors


def fail_lapack_on_rows_ending_in(monkeypatch, constant):
    """Patch np.linalg.eigvals to fail on the companion matrix of a row
    whose constant coefficient is ``constant``, and on every batch that holds one."""
    eigvals = np.linalg.eigvals

    def failing(a):
        if np.any(a[..., 0, -1] == -constant):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", failing)


def random_rows_with_a_7(rng, n):
    """Five random monic rows of degree n, row 2 with the constant coefficient 7."""
    monic = np.ones((5, n + 1), dtype=np.complex128)
    monic[:, 1:] = rng.standard_normal((5, n))
    monic[2, -1] = 7.0
    return monic


class TestScalarRoots:
    def test_difference_of_squares(self):
        r = cf.solve_scalar_poly([1, 0, -1])
        np.testing.assert_allclose(sorted(r.roots, key=lambda z: z.real), [-1, 1], atol=1e-12)

    def test_sum_of_squares(self):
        r = cf.solve_scalar_poly([1, 0, 1])
        np.testing.assert_allclose(sorted(r.roots, key=lambda z: z.imag), [-1j, 1j], atol=1e-12)

    def test_multiplicities(self):
        # (u - 2)^2 (u + 1) = u^3 - 3u^2 + 0u + 4
        r = cf.solve_scalar_poly([1, -3, 0, 4])
        order = np.argsort(r.roots.real)
        np.testing.assert_allclose(r.roots[order], [-1, 2], atol=1e-6)
        np.testing.assert_array_equal(r.multiplicities[order], [1, 2])

    @pytest.mark.parametrize("roots, mults", [([-1, 2], [2, 3]), ([-1, 2], [1, 4])])
    def test_multiple_roots_form_one_cluster(self, roots, mults):
        # Aberth stalls on these into the companion-matrix fallback, which
        # spreads the multiple root 2 over 1e-5 and more.
        r = cf.solve_scalar_poly(np.poly(np.repeat(roots, mults)))
        np.testing.assert_allclose(r.roots, roots, atol=1e-4)
        np.testing.assert_array_equal(r.multiplicities, mults)

    @pytest.mark.parametrize(
        "roots, mults",
        [
            ([-0.0077 + 0.0302j, -0.029 - 0.0188j, -0.0128 - 0.0117j], [4, 4, 4]),
            ([-0.0129, 0.0155 + 0.0302j, -0.0265 + 0.0032j], [4, 2, 4]),
            ([-0.0118 - 0.0186j, -0.0115 + 0.0015j, -0.0015 - 0.0123j], [4, 4, 4]),
        ],
    )
    def test_companion_fallback_separates_stalled_clusters(self, roots, mults):
        # Aberth stalls on these rows of the multiplicity-4 sweep.  Its last
        # iterates merge into the counts [8, 4], [10] and [12]; the
        # companion-matrix eigenvalues give every root its multiplicity.
        roots = np.array(roots)
        r = cf.solve_scalar_poly(np.poly(np.repeat(roots, mults)))
        nearest = np.argmin(np.abs(r.roots[:, None] - roots[None, :]), axis=1)
        assert sorted(nearest.tolist()) == list(range(len(roots)))
        np.testing.assert_array_equal(r.multiplicities, np.array(mults)[nearest])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_seeded_sweep_gives_exact_multiplicities(self):
        # 1 to 3 distinct roots of multiplicity 1 to 3, with moduli in
        # [0.3, 3] * 10^e for e in [-3, 3], pairwise at least a quarter of the
        # largest modulus apart, and the coefficients scaled by 10^[-100, 100].
        # Each solve gives every root with its exact multiplicity or raises.
        rng = np.random.default_rng(16)
        wrong, failed = [], 0
        for case in range(500):
            e, k = rng.uniform(-3, 3), int(rng.integers(1, 4))
            while True:
                roots = rng.uniform(0.3, 3, k) * 10**e * np.exp(2j * np.pi * rng.uniform(size=k))
                gaps = np.abs(roots[:, None] - roots[None, :])
                np.fill_diagonal(gaps, np.inf)
                if np.all(gaps >= 0.25 * np.max(np.abs(roots))):
                    break
            mults = rng.integers(1, 4, k)
            coeffs = np.poly(np.repeat(roots, mults)) * 10 ** rng.uniform(-100, 100)
            try:
                r = cf.solve_scalar_poly(coeffs)
            except SolverError:
                failed += 1
                continue
            nearest = np.argmin(np.abs(r.roots[:, None] - roots[None, :]), axis=1)
            if sorted(nearest.tolist()) != list(range(k)) or not np.array_equal(r.multiplicities, mults[nearest]):
                wrong.append((case, mults.tolist(), r.multiplicities.tolist()))
        assert wrong == []
        assert failed <= 5  # raising is no answer either

    @pytest.mark.parametrize(
        "coeffs, roots", [(np.poly([1e4, 2e4, 3e4]), [1e4, 2e4, 3e4]), ([1e-20, 1, 1], [-1e20, -1])]
    )
    def test_small_leading_coefficient_is_kept(self, coeffs, roots):
        # The leading coefficients are 1e-12 and 1e-20 of the largest; only
        # exactly zero ones are stripped.
        r = cf.solve_scalar_poly(coeffs)
        np.testing.assert_allclose(np.sort_complex(r.roots), roots, rtol=1e-8)
        np.testing.assert_array_equal(r.multiplicities, 1)

    def test_total_multiplicity_equals_degree(self, rng):
        for _ in range(30):
            deg = int(rng.integers(1, 9))
            coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            r = cf.solve_scalar_poly(coeffs)
            assert int(np.sum(r.multiplicities)) == deg

    def test_matches_companion_oracle(self, rng):
        for _ in range(25):
            deg = int(rng.integers(2, 8))
            coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            mine = np.sort_complex(np.repeat(cf.solve_scalar_poly(coeffs).roots,
                                             cf.solve_scalar_poly(coeffs).multiplicities))
            ref = np.sort_complex(np.roots(coeffs))
            assert np.max(np.abs(mine - ref)) <= 1e-6 * max(1.0, np.max(np.abs(ref)))

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(DegeneratePolynomialError):
            cf.solve_scalar_poly([3.0])
        with pytest.raises(DegeneratePolynomialError):
            cf.solve_scalar_poly([0.0, 0.0])

    @pytest.mark.parametrize("coeffs", [[], [[1.0, 2.0], [3.0, 4.0]]], ids=["empty", "2-D"])
    def test_coefficients_must_be_a_nonempty_vector(self, coeffs):
        with pytest.raises(ValueError, match="^coefficients must be a nonempty vector$"):
            cf.solve_scalar_poly(coeffs)

    @pytest.mark.parametrize("coeffs", [[np.nan, 1.0], [1.0, np.inf], [1.0, 2.0, complex(0, -np.inf)]])
    def test_non_finite_coefficients_rejected(self, coeffs):
        with pytest.raises(ValueError, match="finite"):
            cf.solve_scalar_poly(coeffs)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_residual_fails_the_row_gate(self, monkeypatch):
        # A NaN root has a NaN residual, which compares False with any bound.
        roots = np.array([[1, 2, 3, np.nan]], dtype=np.complex128)
        monkeypatch.setattr(solver, "_aberth", lambda monic, rows, max_iter: (roots, np.ones(1, dtype=np.intp), {}))
        *_, errors = solver._solve_monic_rows(np.poly([1, 2, 3, 4])[None], 1e-10, 100)
        assert list(errors) == [0] and isinstance(errors[0], SolverError)
        assert "root residual nan" in str(errors[0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_linear_row_goes_on_to_aberth_and_fails_in_the_fallback(self):
        # The direct root of u + NaN has no finite disc, and Aberth never
        # settles on it; LAPACK refuses its companion matrix.
        *_, errors = solver._solve_monic_rows(np.array([[1.0, np.nan]]), 1e-10, 100)
        assert list(errors) == [0] and str(errors[0]) == "companion-matrix fallback failed to converge"

    @pytest.mark.parametrize(
        "roots, mults", [([0, 1], [2, 2]), ([0], [7]), ([0], [12]), ([-1, 0, 2], [2, 2, 3])]
    )
    def test_exact_zero_roots_cluster(self, roots, mults):
        # Aberth stalls on all but the first into the companion-matrix
        # fallback, which returns one exact zero per trailing zero coefficient.
        r = cf.solve_scalar_poly(np.poly(np.repeat(roots, mults)))
        np.testing.assert_allclose(r.roots, roots, atol=1e-4)
        np.testing.assert_array_equal(r.multiplicities, mults)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_coincident_approximations_fail_the_row(self, monkeypatch):
        # All four approximations of (u - 1)^4 exactly at 1: the residuals
        # vanish, but the inclusion discs have no finite radius.
        fake = (np.ones((1, 4), dtype=np.complex128), np.ones(1, dtype=np.intp), {})
        monkeypatch.setattr(solver, "_aberth", lambda monic, rows, max_iter: fake)
        *_, errors = solver._solve_monic_rows(np.poly([1, 1, 1, 1])[None], 1e-10, 100)
        assert list(errors) == [0] and "inclusion disc radii are not finite" in str(errors[0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_root_whose_cube_overflows_fails_without_warnings(self):
        # u^3 + 1e120 u^2 + u + 1 has the roots about -1e120 and +-1e-60 i.
        # Cardano's roots and Aberth's iterates overflow, which printed numpy
        # warnings; every value that is not finite now fails the discs.
        with pytest.raises(SolverError, match="^inclusion disc radii are not finite$"):
            cf.solve_scalar_poly([1, 1e120, 1, 1])
        with pytest.raises(SolverError, match="^channel 1: inclusion disc radii are not finite$"):
            cf.solve_circ_poly(CircPoly.from_scalars([1, 1e120, 1, 1], 2))

    def test_kept_closed_form_roots_take_no_iteration(self, rng):
        # Degree 2 takes no Aberth iteration, nor does a degree-3 row that
        # keeps its closed-form roots; degree 4 still does.
        assert cf.solve_scalar_poly(rng.standard_normal(3)).iterations == 0
        assert cf.solve_scalar_poly([1.0, -1.0, 1.0, 0.5]).iterations == 0
        assert cf.solve_scalar_poly([1.0, -1.0, 1.0, 0.5, 2.0]).iterations > 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_scaled_cubics_keep_their_closed_form_roots(self):
        # Roots times 2^k multiply coefficient j by 2^(k j).  Every row's
        # discs stay disjoint, and up to roots of modulus about 1 every
        # Newton correction passes Aberth's stop test 1e-14 (1 + |z|), so no
        # row iterates.  Above, that test is relative, and a row whose
        # closed-form roots are off by more than 1e-14 relative goes on to
        # Aberth.  Either way the roots are those of np.roots.
        rng = np.random.default_rng(38)
        monic = np.ones((20, 4), dtype=np.complex128)
        monic[:, 1:] = rng.standard_normal((20, 3)) + 1j * rng.standard_normal((20, 3))
        for k in range(-60, 61):
            rows = monic * 2.0 ** (k * np.arange(4))
            roots, mults, iterations, _, errors = solver._solve_monic_rows(
                rows, solver.SCALAR_RESIDUAL_TOL, solver.ABERTH_MAX_ITER
            )
            assert errors == {} and np.all(mults == 1), k
            assert k > 0 or np.all(iterations == 0), k
            for row, got in zip(rows, roots):
                expected = np.roots(row)
                nearest = np.argmin(np.abs(got[:, None] - expected[None, :]), axis=1)
                assert sorted(nearest.tolist()) == [0, 1, 2], (k, row)
                np.testing.assert_allclose(got, expected[nearest], rtol=1e-12, err_msg=str(k))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("coeffs", [np.poly([1e5, 1, 1e-5]), [1, 1e5, 1, 1]])
    def test_spread_cubics_with_inaccurate_closed_form_roots_go_on_to_aberth(self, coeffs):
        # Depressing the cubic loses the small roots beside one of modulus
        # 1e5: they come out 6e-8 to 1e-2 relative off, inside discs that
        # are still disjoint, and one Newton step would leave residuals over
        # the gate.  Their Newton corrections fail Aberth's stop test, so
        # the rows iterate.
        r = cf.solve_scalar_poly(coeffs)
        assert r.iterations > 0 and np.array_equal(r.multiplicities, np.ones(3))
        expected = polish(coeffs, np.roots(coeffs))
        nearest = np.argmin(np.abs(r.roots[:, None] - expected[None, :]), axis=1)
        assert sorted(nearest.tolist()) == [0, 1, 2]
        np.testing.assert_allclose(r.roots, expected[nearest], rtol=1e-12)

    @pytest.mark.parametrize(
        "roots, mults", [([-1, 2], [1, 2]), ([1.5], [3]), ([-2, 1 + 1j], [1, 2]), ([0, 3], [2, 1])]
    )
    def test_cubics_with_a_multiple_root_go_on_to_aberth(self, roots, mults):
        # A double or triple root leaves the closed-form roots discs that
        # touch or are not finite.  Clustered as they are, the roots of
        # (u - 2)^2 (u + 1) would merge into one root of multiplicity 3.
        r = cf.solve_scalar_poly(np.poly(np.repeat(roots, mults)))
        assert r.iterations > 0
        nearest = np.argmin(np.abs(r.roots[:, None] - np.array(roots)[None, :]), axis=1)
        assert sorted(nearest.tolist()) == list(range(len(roots)))
        np.testing.assert_array_equal(r.multiplicities, np.array(mults)[nearest])
        np.testing.assert_allclose(r.roots, np.array(roots)[nearest], atol=1e-4)

    def test_companion_roots_of_double_root_quadratics_are_those_of_np_roots(self, rng):
        # (u - r)^2: the companion matrix is the one np.roots builds.
        r = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        monic = np.stack([np.ones_like(r), -2 * r, r * r], axis=1)
        roots, failures = solver._companion_roots(monic)
        assert failures == {}
        assert roots.tobytes() == np.array([np.roots(row) for row in monic]).tobytes()

    @pytest.mark.parametrize("z", [1.5, 0.5 + 1j])
    def test_equal_quadratic_roots_merge_into_a_double_root(self, z):
        # Both closed-form roots of (u - z)^2 ([1, -3, 2.25] at z = 1.5) come
        # out bit for bit equal.  The pair's disc holds both roots of the row,
        # so they merge into one root of multiplicity 2, with no Aberth iteration.
        row = np.array([1, -2 * z, z * z], dtype=np.complex128)
        roots = solver._quadratic_roots(row[None])[0]
        assert roots[0] == roots[1] != 0
        r = cf.solve_scalar_poly(row)
        assert r.iterations == 0 and r.multiplicities.tolist() == [2]
        assert r.roots.tolist() == [z]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_small_double_root_whose_aberth_run_raised_solves(self):
        # Row 3512 of the sweep below: sent on to Aberth, it ended on roots
        # whose discs were not finite, and raised.
        b = complex(-0.0006842044683054919, 0.0006842044683054919)
        c = complex(1.1744851685584537e-24, -2.3406787722460045e-07)
        r = cf.solve_scalar_poly([1, b, c])
        assert r.iterations == 0 and r.multiplicities.tolist() == [2]
        assert abs(r.roots[0] - (-b / 2)) <= 4 * np.finfo(np.float64).eps * abs(b / 2)

    def test_planted_double_roots_keep_the_closed_form_in_any_block(self, monkeypatch):
        # (u - r)^2 with r a nonzero Gaussian integer of [-3, 3]^2 times
        # 10^[-5, 5]: 400 rows of a 4000-row sweep.  Sent on to Aberth, about
        # half its rows converge only linearly, and a quarter of those stall
        # into the fallback; merged, every row keeps its closed-form roots.
        rng = np.random.default_rng(0)
        grid = np.array([complex(a, b) for a in range(-3, 4) for b in range(-3, 4) if a or b])
        planted = (rng.choice(grid, 4000) * 10 ** rng.uniform(-5, 5, 4000))[3200:3600]
        monic = np.stack([np.ones_like(planted), -2 * planted, planted * planted], axis=1)
        monkeypatch.setattr(solver, "_aberth", lambda *args: pytest.fail("a row ran Aberth"))
        arrays, errors = TestCircSolve.outcome_in_any_block(monkeypatch, monic, solver.SCALAR_RESIDUAL_TOL)
        assert errors == {}
        roots, mults = (np.frombuffer(a, dtype=t).reshape(400, 2) for a, t in zip(arrays, (np.complex128, np.intp)))
        assert np.all(mults == [2, 0])
        assert np.all(np.abs(roots[:, 0] - planted) <= 4 * np.finfo(np.float64).eps * np.abs(planted))

    def test_stalled_rows_give_one_exact_zero_per_trailing_zero(self, rng):
        # With no Aberth iteration every row stalls into the batched fallback.
        for n in (4, 6, 9):
            zeros = rng.integers(1, n, 200)
            monic = np.ones((200, n + 1), dtype=np.complex128)
            monic[:, 1:] = rng.standard_normal((200, n)) + 1j * rng.standard_normal((200, n))
            monic[np.arange(n + 1) > n - zeros[:, None]] = 0.0
            roots, iterations, failures = solver._aberth(monic, _with_derivative(monic.T[:, :, None]), 0)
            assert failures == {} and np.all(iterations == 0)
            assert np.array_equal(np.count_nonzero(roots == 0, axis=1), zeros)

    @pytest.mark.parametrize("n", [2, 5])
    def test_only_the_row_whose_eigenvalues_fail_is_named(self, monkeypatch, rng, n):
        # LAPACK fails on row 2's companion matrix alone, and with no Aberth
        # iteration every row stalls into the fallback.  The batch raises,
        # and the retry row by row names only row 2 and keeps the others.
        # At n = 2 the solve's direct step makes no LAPACK call, so every
        # row keeps its closed-form roots.
        monic = random_rows_with_a_7(rng, n)
        rows = _with_derivative(monic.T[:, :, None])
        clean, _, _ = solver._aberth(monic, rows, 0)
        fail_lapack_on_rows_ending_in(monkeypatch, 7.0)
        roots, _, failures = solver._aberth(monic, rows, 0)
        assert list(failures) == [2] and str(failures[2]) == "companion-matrix fallback failed to converge"
        assert isinstance(failures[2].__cause__, np.linalg.LinAlgError)
        assert np.isnan(roots[2]).all()
        others = [0, 1, 3, 4]
        assert roots[others].tobytes() == clean[others].tobytes()
        *_, errors = solver._solve_monic_rows(monic, solver.SCALAR_RESIDUAL_TOL, 0)
        assert list(errors) == ([] if n == 2 else [2])

    def test_quadratic_row_the_direct_step_leaves_is_named_in_the_fallback(self, monkeypatch, rng):
        # Row 2, u^2 + 1e200 u + 2.25, has a root near -1e200 whose scale sum
        # overflows, so its discs are not finite: it goes on to Aberth, which
        # stalls on it into the fallback, and is refused.  Where LAPACK fails
        # on its companion matrix alone, the fallback names it, with or
        # without Aberth iterations.  The other rows keep their bits.
        monic = random_rows_with_a_7(rng, 2)
        monic[2] = [1, 1e200, 2.25]
        *clean, errors = solver._solve_monic_rows(monic, solver.SCALAR_RESIDUAL_TOL, 100)
        assert clean[2].tolist() == [0, 0, 100, 0, 0]  # iterations
        assert {i: str(e) for i, e in errors.items()} == {2: "inclusion disc radii are not finite"}
        fail_lapack_on_rows_ending_in(monkeypatch, 2.25)
        for max_iter in (100, 0):
            *arrays, errors = solver._solve_monic_rows(monic, solver.SCALAR_RESIDUAL_TOL, max_iter)
            assert list(errors) == [2] and str(errors[2]) == "companion-matrix fallback failed to converge"
            for got, want in zip(arrays, clean):
                assert got[[0, 1, 3, 4]].tobytes() == want[[0, 1, 3, 4]].tobytes()

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            cf.solve_scalar_poly([1, 1], tol=0.0)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf])
    def test_non_finite_tolerance(self, tol):
        with pytest.raises(ValueError, match="tol"):
            cf.solve_scalar_poly([1, 1], tol=tol)
        with pytest.raises(ValueError, match="tol"):
            cf.solve_circ_poly(CircPoly.from_scalars([1, 0], 2), tol=tol)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("tol", [1e308, 6e307, 1.0])
    def test_tolerance_of_one_or_more_is_refused(self, tol):
        # At tol >= 1 every gate passes every point, as |p(u)| <= s(u).  At
        # d = 4, P = Z^2 - I, tol = 1e308 overflowed the gate's bounds with a
        # warning, and 6e307 failed the exact roots +-1 in the ring check.
        message = re.escape(f"tol must be in (0, 1), got {tol}")
        with pytest.raises(ValueError, match=message):
            cf.solve_scalar_poly([1, 0, -1], tol=tol)
        with pytest.raises(ValueError, match=message):
            cf.solve_circ_poly(CircPoly.from_scalars([1, 0, -1], 4), tol=tol)

    @pytest.mark.parametrize("max_iter", [-1, 2.5])
    def test_max_iter_that_is_not_a_count_is_refused(self, max_iter):
        # -1 skipped Aberth and reported -1 iterations; 2.5 raised a bare
        # TypeError from range.
        message = re.escape(f"max_iter must be an integer >= 0, got {max_iter!r}")
        with pytest.raises(ValueError, match=message):
            cf.solve_scalar_poly([1, 2, 3, 4, 5], max_iter=max_iter)

    def test_max_iter_of_zero_takes_companion_eigenvalues_at_once(self):
        r = cf.solve_scalar_poly([1, 2, 3, 4, 5], max_iter=0)
        assert r.iterations == 0
        assert r.multiplicities.tolist() == [1, 1, 1, 1]
        np.testing.assert_allclose(np.sort_complex(r.roots), np.sort_complex(np.roots([1, 2, 3, 4, 5])), rtol=1e-12)

    def test_polygon_radii_follow_root_moduli(self):
        radii = solver._polygon_radii(np.poly([1e-3, 1e3])[None])
        np.testing.assert_allclose(radii, [[1e-3, 1e3]], rtol=1e-2)

    def test_zero_roots_converge_from_floored_radii(self):
        # u^3 (u - 1)(u - 2): the three zero roots start on a circle of radius
        # 1e-3 times the smallest positive radius, not at the origin.
        r = cf.solve_scalar_poly(np.poly([0, 0, 0, 1, 2]))
        order = np.argsort(r.roots.real)
        np.testing.assert_allclose(r.roots[order], [0, 1, 2], atol=1e-12)
        np.testing.assert_array_equal(r.multiplicities[order], [3, 1, 1])
        assert r.iterations < solver.ABERTH_MAX_ITER

    def test_root_moduli_over_six_decades_need_no_fallback(self):
        # From one circle of radius 1 + max|c_k| this stalls into np.roots.
        rng = np.random.default_rng(3)
        roots = 10.0 ** rng.uniform(-3, 3, 16) * np.exp(2j * np.pi * rng.uniform(size=16))
        r = cf.solve_scalar_poly(np.poly(roots))
        assert r.iterations < solver.ABERTH_MAX_ITER
        assert np.array_equal(r.multiplicities, np.ones(16))
        np.testing.assert_allclose(np.sort_complex(r.roots), np.sort_complex(roots), rtol=1e-10)

    @pytest.mark.parametrize("kind", ["separated", "spread", "doubled"])
    def test_planted_roots_above_the_split_crossover(self, kind):
        # Degrees 13 to 80, where Aberth's P and P' take the split: one root
        # near each of k angles, moduli in [0.5, 2] or, spread, in 10^[-3, 3].
        # Doubled rows hold k = n // 2 such roots twice, one of them three
        # times at odd n, up to n = 24: at higher degrees np.poly's rounding
        # splits them into simple roots of the float polynomial.  Each solve
        # gives every root with its exact multiplicity, and separated rows
        # need no companion-matrix fallback.
        rng = np.random.default_rng(45)
        wrong = []
        for n in range(13, 25) if kind == "doubled" else range(13, 81, 3):
            k = n // 2 if kind == "doubled" else n
            moduli = 10 ** rng.uniform(-3, 3, k) if kind == "spread" else rng.uniform(0.5, 2, k)
            roots = moduli * np.exp(2j * np.pi * (np.arange(k) + rng.uniform(-0.25, 0.25, k)) / k)
            mults = np.ones(k, dtype=np.intp) if kind != "doubled" else np.array([2 + n % 2] + [2] * (k - 1))
            r = cf.solve_scalar_poly(np.poly(np.repeat(roots, mults)))
            nearest = np.argmin(np.abs(r.roots[:, None] - roots[None, :]), axis=1)
            counts = np.array_equal(r.multiplicities, mults[nearest]) and sorted(nearest.tolist()) == list(range(k))
            if not counts or kind == "separated" and r.iterations == solver.ABERTH_MAX_ITER:
                wrong.append(n)
        assert wrong == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_split_evaluation_is_within_its_bound_of_horner(self, data):
        # Degree 1 to 80, coefficients and points scaled by 2^[-60, 60], some
        # coefficients exactly zero and some trailing ones.  At b = 1, which
        # Aberth takes below SPLIT_MIN_DEGREE, the split is Horner's pass bit
        # for bit.  At b >= 2 a term c_k z^k takes k complex products, as in
        # Horner, and b + K sums where Horner takes n; a product errs by at
        # most sqrt(2) eps, a sum by eps / 2 (Higham, 2nd ed., 3.6), so P and
        # P' are within (4 (n + 1) + 2 (b + K)) eps s of Horner's, with s the
        # scale sum at |z|, plus underflow's absolute error.  Where s
        # overflows nothing is bounded.
        n, m = data.draw(st.integers(1, 80)), data.draw(st.integers(1, 3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        coeffs = rng.standard_normal((m, n + 1, 2)).view(np.complex128)[..., 0] * 2.0 ** data.draw(st.integers(-60, 60))
        coeffs[rng.uniform(size=coeffs.shape) < data.draw(st.sampled_from([0.0, 0.3]))] = 0.0
        coeffs[:, n + 1 - data.draw(st.integers(0, n)) :] = 0.0
        z = rng.standard_normal((m, n, 2)).view(np.complex128)[..., 0] * 2.0 ** data.draw(st.integers(-60, 60))
        rows, floats = _with_derivative(coeffs.T[:, :, None]), np.finfo(np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            expected, scales = _horner(rows, z), _horner(np.abs(rows), np.abs(z))
            assert solver._split_horner(solver._block_table(rows, 1), z).tobytes() == expected.tobytes()
            for b in {round(math.sqrt(2 * (n + 1))), data.draw(st.integers(2, 16))} - {1}:
                got = solver._split_horner(solver._block_table(rows, b), z)
                k, finite = -(-(n + 1) // b), np.isfinite(scales)
                underflow = 4 * (n + 1) ** 2 * max(1.0, np.abs(coeffs).max()) * floats.smallest_subnormal
                bound = (4 * (n + 1) + 2 * (b + k)) * floats.eps * scales + underflow
                assert np.isfinite(got[finite]).all()
                assert np.all(np.abs(got - expected)[finite] <= bound[finite])

    def test_newton_polish_drives_residual_down(self, rng):
        coeffs = np.poly([1.5, -0.25 + 1j, 3.0])
        rough = np.array([1.5 + 1e-6, -0.25 + 1j + 1e-6, 3.0 - 1e-6])
        polished = polish(coeffs, rough)
        residuals = np.abs(np.polyval(coeffs, polished))
        assert np.max(residuals) <= 1e-12 * np.max(np.abs(coeffs))

    def test_newton_polish_keeps_already_good_roots(self):
        coeffs = np.poly([2.0, -1.0])
        exact = np.array([2.0 + 0j, -1.0 + 0j])
        polished = polish(coeffs, exact)
        np.testing.assert_allclose(polished, exact, atol=1e-15)

    @pytest.mark.parametrize("n", [2, 3])
    def test_kept_closed_form_roots_match_a_200_bit_reference(self, n):
        # Every root a row keeps from the direct step, polished, is within
        # 4 eps relative of mpmath's roots of the row as stored, at 200 bits:
        # 300 seeded rows with coefficient moduli in 10^[-6, 6], and at n = 2
        # u^2 - 10^k u + 1, whose small root the unstable formula cancels.
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(46 + n)
        monic = np.ones((300, n + 1), dtype=np.complex128)
        monic[:, 1:] = 10 ** rng.uniform(-6, 6, (300, n)) * np.exp(2j * np.pi * rng.uniform(size=(300, n)))
        if n == 2:
            monic = np.concatenate([monic, [[1, -(10.0**k), 1] for k in (4, 8, 12)]])
        roots, mults, iterations, _, errors = solver._solve_monic_rows(monic, solver.SCALAR_RESIDUAL_TOL, 100)
        kept = np.flatnonzero(iterations == 0)
        assert errors == {} and np.all(mults[kept] == 1) and kept.size >= (monic.shape[0] if n == 2 else 100)
        worst = 0.0
        for row, got in zip(monic[kept], roots[kept]):
            with mpmath.workprec(200):
                reference = mpmath.polyroots([mpmath.mpc(complex(c)) for c in row], maxsteps=200, extraprec=200)
                expected = np.array([complex(r) for r in reference])
            nearest = np.argmin(np.abs(got[:, None] - expected[None, :]), axis=1)
            assert sorted(nearest.tolist()) == list(range(n)), row
            worst = max(worst, np.max(np.abs(got - expected[nearest]) / np.abs(expected[nearest])))
        assert worst <= 4 * np.finfo(np.float64).eps

    def test_rows_whose_discs_do_not_touch_keep_their_polished_roots(self):
        # Each root is its own component: multiplicity 1, the polished roots
        # in lexicographic order, and a -0.0 part comes back +0.0, as the
        # component pass returns it (the root plus its zero offset).
        roots = np.array([[2, complex(0, -1), -1, 1j], [3, 1, -2, -1]], dtype=np.complex128)
        monic = np.array([np.poly(r) for r in roots])
        values, scales = polyval_with_scale(monic.T[:, :, None], roots)
        polished = roots.copy()
        polished[0, 2], polished[0, 3], polished[1, 3] = complex(-1, -0.0), complex(-0.0, 1), complex(-1, -0.0)
        distinct, mults, radii = solver._cluster_roots(monic, roots, values, scales, polished)
        gap = np.where(np.eye(4, dtype=bool), np.inf, np.abs(roots[:, None, :] - roots[:, :, None]))
        assert np.all(gap > radii[:, :, None] + radii[:, None, :])  # no two discs touch
        assert mults.tolist() == [[1, 1, 1, 1], [1, 1, 1, 1]]
        expected = [[complex(-1, 0), complex(0, -1), complex(0, 1), complex(2, 0)], [-2, -1, 1, 3]]
        np.testing.assert_array_equal(distinct, np.array(expected, dtype=np.complex128))
        zeros = np.concatenate([distinct.real[distinct.real == 0], distinct.imag[distinct.imag == 0]])
        assert zeros.size == 8 and not np.signbit(zeros).any()


class TestCircSolve:
    def test_square_roots_of_identity_d2(self):
        d = 2
        p = CircPoly.from_scalars([1, 0, -1], d)
        sol = cf.solve_circ_poly(p)
        assert sol.status is SolutionStatus.FINITE
        expected = [cf.identity(d), cf.elementary(d), cf.neg(cf.identity(d)), cf.neg(cf.elementary(d))]
        assert len(sol.roots) == 4
        for e in expected:
            assert any(e.isclose(r, 1e-10) for r in sol.roots)
        assert max(sol.residuals) <= 1e-10

    def test_exact_zero_roots_cluster_d2(self):
        # Z^2 (Z - 2I)^3 (Z + I)^2: every channel takes the companion-matrix
        # fallback, whose two exact zeros form one root of multiplicity 2.
        sol = cf.solve_circ_poly(CircPoly.from_scalars(np.poly([0, 0, 2, 2, 2, -1, -1]), 2))
        assert sol.status is SolutionStatus.FINITE and len(sol.roots) == 9
        for report in sol.channel_reports:
            np.testing.assert_allclose(report.roots, [-1, 0, 2], atol=1e-4)
            assert report.multiplicities == (2, 2, 3)

    @pytest.mark.parametrize("d", [2, 3])
    def test_units_z_plus_identity_has_no_solution(self, d):
        p = CircPoly([cf.ones(d), cf.identity(d)])
        sol = cf.solve_circ_poly(p)
        assert sol.status is SolutionStatus.NO_SOLUTION
        kinds = {r.channel: r.kind for r in sol.channel_reports}
        assert kinds[1] == "roots"
        assert all(kinds[i] == "nonzero-constant" for i in range(2, d + 1))

    @pytest.mark.parametrize("d", [2, 3])
    def test_units_times_shifted_is_infinite_family(self, d):
        p = CircPoly([cf.ones(d), cf.ones(d)])  # E(Z + I)
        sol = cf.solve_circ_poly(p)
        assert sol.status is SolutionStatus.INFINITE_FAMILY
        assert sol.free_channels == tuple(range(2, d + 1))
        ch1 = sol.channel_reports[0]
        np.testing.assert_allclose(ch1.roots, [-1], atol=1e-12)
        members = sol.sample_members(10, seed=3)
        assert max(cf.residual(p, m) for m in members) <= 1e-10

    @pytest.mark.parametrize("d, n, count", [(4, 2, 19), (16, 8, 3), (24, 8, 3)])
    def test_sample_members_follow_product_order(self, rng, d, n, count):
        # Channel d is identically zero and every other channel has n roots,
        # so the d=16 family has 8^15 fixed-channel combinations, far too
        # many to list, and the d=24 family's 8^23 exceed int64.
        p = poly_from_channels([random_monic(rng, n) for _ in range(d - 1)] + [[0.0]], n)
        sol = cf.solve_circ_poly(p)
        assert sol.status is SolutionStatus.INFINITE_FAMILY
        assert sol.free_channels == (d,)
        fixed = [r.roots for r in sol.channel_reports[: d - 1]]
        expected = itertools.islice(itertools.cycle(itertools.product(*fixed)), count)
        members = sol.sample_members(count, seed=5)
        assert len(members) == count
        for member, combo in zip(members, expected):
            np.testing.assert_allclose(cf.spectrum(member)[: d - 1], combo, rtol=0, atol=1e-12)
            assert cf.residual(p, member) <= 1e-8

    def test_free_channels_draw_member_by_member(self, rng):
        # Channels 2 and 4 are free; each member draws its free values in
        # channel order, real part first.
        p = poly_from_channels([random_monic(rng, 2), [0.0], random_monic(rng, 2), [0.0]], 2)
        sol = cf.solve_circ_poly(p)
        assert sol.free_channels == (2, 4)
        draws = np.random.default_rng(9)
        for member in sol.sample_members(5, seed=9, magnitude=2.0):
            expected = [2.0 * complex(draws.standard_normal(), draws.standard_normal()) for _ in range(2)]
            np.testing.assert_allclose(cf.spectrum(member)[[1, 3]], expected, rtol=0, atol=1e-12)

    def test_random_regular_counts(self, rng):
        for _ in range(12):
            d = int(rng.integers(2, 4))
            n = int(rng.integers(1, 4))
            p = random_regular_poly(rng, d, n)
            sol = cf.solve_circ_poly(p)
            assert sol.status is SolutionStatus.FINITE
            distinct = 1
            for r in sol.channel_reports:
                distinct *= len(r.roots)
            assert len(sol.roots) == distinct == n**d
            assert max(sol.residuals) <= 1e-8

    def test_close_channel_roots_give_distinct_solutions(self):
        # Channel 1 is u(u - 5e-7); every other channel is u - 0.01 i. The two
        # solutions then differ by only 5e-7 / 64 in each row entry.
        d = 64
        channels = [[1.0, -5e-7, 0.0]] + [[1.0, -0.01 * i] for i in range(2, d + 1)]
        sol = cf.solve_circ_poly(poly_from_channels(channels, 2))
        assert sol.status is SolutionStatus.FINITE
        assert len(sol.channel_reports[0].roots) == 2
        assert len(sol.roots) == 2
        assert max(sol.residuals) <= 1e-8

    @pytest.mark.parametrize("d", [2, 5, 12, 31, 32, 40])
    def test_roots_are_inverse_transforms_of_root_combinations(self, monkeypatch, rng, d):
        # 20 to 3125 roots; d >= 32 takes the FFT path, and d = 40 has more
        # channels than numpy 1.x has array dimensions, so a grid built by
        # np.meshgrid would fail there.
        degrees = {2: [5, 4], 5: [5] * 5}.get(d, [2] * 11 + [1] * (d - 11))
        p = poly_from_channels([random_monic(rng, k) for k in degrees], max(degrees))
        # The certificate's one Horner pass takes the points (r, |r|, |r| + sqrt(2) rho).
        certified, horner = [], solver._horner
        monkeypatch.setattr(solver, "_horner", lambda rows, x: (x.ndim == 3 and certified.append(x)) or horner(rows, x))
        sol = cf.solve_circ_poly(p)
        assert sol.status is SolutionStatus.FINITE
        roots = [r.roots for r in sol.channel_reports]
        combos = np.array(list(itertools.product(*roots)))
        assert len(sol.roots) == len(sol.residuals) == len(combos)
        # Each view holds the bits of its head row plus its tail row, each
        # numpy's inverse FFT of its half combination alone (no entry is near
        # overflow), and its forward FFT is within rho of its combination,
        # the radius the certificate covers (up to the rounding of its point).
        # At d = 2 the sum is the inverse FFT of the whole combination.
        (_, head), (_, tail) = halves = half_tables(roots)
        rows = (head[:, None] + tail[None]).reshape(-1, d)
        rho = rebuild_radii(roots, halves)[1]
        assert np.all(gap_parts(combos, rows) <= rho)
        (_, moduli, wider), = certified
        assert np.all(wider.real - moduli.real >= 2**0.5 * rho - np.spacing(moduli.real))
        for root, res, row, combo in zip(sol.roots, sol.residuals, rows, combos):
            assert root.row.tobytes() == row.tobytes()
            assert d > 2 or root.row.tobytes() == np.fft.ifft(combo).tobytes()
            assert res == cf.residual(p, root)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_rebuilt_roots_are_half_row_sums_within_the_radius(self, data):
        # 1 to 4 roots per channel, at most 1024 roots in all (channels drawn
        # later in a random order keep one root past that), each channel's
        # roots scaled by 10^[-3, 3].  Every root is the sum of its head and
        # tail half rows, bit for bit, in itertools.product order, and each
        # part of its forward FFT's gap to its combination is within rho.
        d = data.draw(st.integers(2, 40))
        counts = data.draw(st.lists(st.integers(1, 4), min_size=d, max_size=d))
        total = 1
        for i in data.draw(st.permutations(range(d))):
            counts[i] = counts[i] if total * counts[i] <= 1024 else 1
            total *= counts[i]
        scales = data.draw(st.lists(st.floats(-3, 3), min_size=d, max_size=d))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        self.assert_rebuilt_within_the_radius(rng, scales, counts)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("d", [257, 1021, 4099])
    def test_the_radius_holds_at_large_prime_orders(self, d):
        # pocketfft transforms prime orders such as these by Bluestein's
        # algorithm, not by the radix-2 passes whose error bound the radius
        # assumes.  Three channels hold 3, 2 and 4 roots and the rest one
        # each, scaled by 10^[-3, 3]: the same sums and the same radius hold.
        rng = np.random.default_rng(d)
        counts = [1] * d
        counts[0], counts[d // 2], counts[-1] = 3, 2, 4
        self.assert_rebuilt_within_the_radius(rng, rng.uniform(-3, 3, d), counts)

    @staticmethod
    def assert_rebuilt_within_the_radius(rng, scales, counts):
        """Rebuild the roots of random channels, ``counts`` roots each at the magnitudes
        10^``scales``: each root is its head row plus its tail row, bit for bit, in
        itertools.product order, and each part of its forward FFT's gap is within rho."""
        roots = [10**e * (1 + rng.random(k)) * np.exp(2j * np.pi * rng.random(k)) for e, k in zip(scales, counts)]
        distinct = np.array([np.concatenate([r, np.repeat(r[:1], 4 - r.size)]) for r in roots])
        p = poly_from_channels([np.poly(r) for r in roots], max(counts))
        rows = solver._rebuild(p, distinct, np.array(counts), CIRC_RESIDUAL_TOL)._rows
        (_, head), (_, tail) = halves = half_tables(roots)
        assert rows.tobytes() == (head[:, None] + tail[None]).tobytes()
        delta, rho = rebuild_radii(roots, halves)
        assert all(gap_parts(*half).max() <= delta for half in halves)
        assert gap_parts(np.array(list(itertools.product(*roots))), rows).max() <= rho

    @staticmethod
    def assert_reports_match_scalar_solves(p, sol, reports=None):
        cm = p.channel_matrix()
        for report in sol.channel_reports if reports is None else reports:
            if report.kind != "roots":
                continue
            col = cm[cm.shape[0] - 1 - report.effective_degree :, report.channel - 1]
            alone = cf.solve_scalar_poly(col, tol=1e-8)
            assert report.roots == tuple(complex(r) for r in alone.roots)
            assert report.multiplicities == tuple(int(m) for m in alone.multiplicities)

    def test_batched_channels_match_scalar_solves(self, rng):
        # Degrees 1, 3 and 5 in one polynomial: (u - 2)^2 (u + 1) has a double
        # root, and (u - 2)^3 (u + 1)^2 stalls Aberth into the companion-matrix
        # fallback, which spreads its triple root over about 1e-5.
        channels = [
            [1.0, -3.0, 0.0, 4.0],
            np.poly([2, 2, 2, -1, -1]),
            [2.0, 1.0 - 1.0j],
            random_monic(rng, 5),
            random_monic(rng, 3),
            [1.0, 0.5],
        ]
        p = poly_from_channels(channels, 5)
        sol = cf.solve_circ_poly(p)
        assert sol.status is SolutionStatus.FINITE
        assert [r.effective_degree for r in sol.channel_reports] == [3, 5, 1, 5, 3, 1]
        assert sol.channel_reports[0].multiplicities == (1, 2)
        assert sol.channel_reports[1].multiplicities == (2, 3)
        col = p.channel_matrix()[:, 1]
        assert cf.solve_scalar_poly(col, tol=1e-8).iterations == solver.ABERTH_MAX_ITER
        self.assert_reports_match_scalar_solves(p, sol)

    def test_lowest_failing_channel_is_reported(self):
        # At tol 1e-30 only exactly representable roots pass the residual
        # check. Channels 3 (degree 3) and 5 (degree 2) both fail; channel 5's
        # degree group is solved first, but the error names channel 3.
        channels = [[1.0, -1.0], [1.0, -2.0], [1.0, 0.0, 0.0, -5.0], [1.0, -3.0], [1.0, 0.0, -2.0]]
        p = poly_from_channels(channels, 3)
        for i in (2, 4):
            with pytest.raises(SolverError):
                cf.solve_scalar_poly(channels[i], tol=1e-30)
        with pytest.raises(SolverError, match=r"^channel 3: root residual"):
            cf.solve_circ_poly(p, tol=1e-30)

    def test_infinite_family_spanning_several_blocks(self, rng, monkeypatch):
        # A small bound (64 rows of degree 8 per block), whatever the tuned default.
        monkeypatch.setattr(solver, "BLOCK_ENTRIES", 2**12)
        d, n = 1024, 8
        p = poly_from_channels([random_monic(rng, n) for _ in range(d - 1)] + [[0.0]], n)
        assert d - 1 > solver.BLOCK_ENTRIES // n**2
        sol = cf.solve_circ_poly(p)
        assert sol.status is SolutionStatus.INFINITE_FAMILY
        assert sol.free_channels == (d,)
        assert all(sum(r.multiplicities) == n for r in sol.channel_reports[:-1])
        # Every 31st channel, and the channels on both sides of each block edge.
        step = solver.BLOCK_ENTRIES // n**2
        sample = set(range(0, d, 31)) | {k * step + j for k in range(1, d // step) for j in (-1, 0)}
        self.assert_reports_match_scalar_solves(p, sol, [sol.channel_reports[i] for i in sorted(sample)])

    @pytest.mark.parametrize("n", [5, 16, 40])
    @pytest.mark.parametrize("tol", [solver.SCALAR_RESIDUAL_TOL, 1e-30])
    def test_rows_do_not_depend_on_the_block_bound(self, rng, monkeypatch, tol, n):
        # Random rows, clusters, a companion-matrix fallback and exact zeros;
        # at n = 5 and tol 1e-30 every row fails but that of the roots 0, 0,
        # 1, 2, 3.  From SPLIT_MIN_DEGREE on, where Aberth's block sums are
        # one batched np.matmul, the rest of each planted row's roots lie on a
        # circle: beside a triple and a double root and a double root alone,
        # which stall into the fallback, a cluster 1e-3 wide, three exact
        # zeros and roots 1e-3 and 1e3; at tol 1e-30 every row fails.
        assert (n >= solver.SPLIT_MIN_DEGREE) == (n > 5)
        rows = [random_monic(rng, n) for _ in range(8)]
        if n == 5:
            rows += [
                np.poly([2, 2, 2, -1, -1]), np.poly([1, 1, 0.5, 0.5, 3]), np.poly([0, 0, 1, 2, 3]),
                np.poly([1e-3, 1e3, 1, 2, -5]), np.poly([1, 2, 3, 4, 5]),
            ]  # fmt: skip
        else:
            circle = 1.5 * np.exp(2j * np.pi * (np.arange(n) + 0.3) / n)
            planted = [[2, 2, 2, -1, -1], [2, 2], 1 + 1e-3 * np.arange(4), [0, 0, 0], [1e-3, 1e3]]
            rows += [np.poly(np.concatenate([roots, circle[len(roots) :]])) for roots in planted]
        arrays, errors = self.outcome_in_any_block(monkeypatch, np.array(rows, dtype=np.complex128), tol)
        if n > 5:
            assert np.frombuffer(arrays[2], dtype=np.intp)[[8, 9]].tolist() == [solver.ABERTH_MAX_ITER] * 2
        exact = {10} if n == 5 else set()
        assert set(errors) == (set() if tol > 1e-30 else set(range(len(rows))) - exact)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_linear_rows_do_not_depend_on_the_block_bound(self, rng, monkeypatch):
        # The exact root: random rows, u and u + 1e-300 keep it.  u + 1e308,
        # whose scale sum overflows, and u + NaN have no finite disc, go on
        # to Aberth and fail there.
        rows = [random_monic(rng, 1) for _ in range(6)] + [[1, 0], [1, 1e-300], [1, 1e308], [1, np.nan]]
        monic = np.array(rows, dtype=np.complex128)
        arrays, errors = self.outcome_in_any_block(monkeypatch, monic, solver.SCALAR_RESIDUAL_TOL)
        iterations = np.frombuffer(arrays[2], dtype=np.intp)
        assert not iterations[:8].any() and iterations[8:].all()
        assert errors == {8: "inclusion disc radii are not finite", 9: "companion-matrix fallback failed to converge"}

    @pytest.mark.parametrize("tol", [solver.SCALAR_RESIDUAL_TOL, 1e-30])
    def test_quadratic_rows_do_not_depend_on_the_block_bound(self, rng, monkeypatch, tol):
        # The closed form: random quadratics, a double root whose two roots
        # come out 3e-8 apart, u^2, u(u - 1), a row on whose companion matrix
        # LAPACK fails, and double roots whose two roots come out equal,
        # which merge (rows 13 and 14), keep it.  A row whose scale sum
        # overflows goes on to Aberth and is refused.  At tol 1e-30 only
        # exactly representable roots pass.
        rows = [random_monic(rng, 2) for _ in range(9)] + [
            np.poly([-2.1 + 2j] * 2), [1, 0, 0], [1, -1, 0], [1, 0.5, 7], np.poly([0.5 + 1j] * 2), [1, -3, 2.25],
            [1, 1e200, 1],
        ]  # fmt: skip
        fail_lapack_on_rows_ending_in(monkeypatch, 7.0)
        arrays, errors = self.outcome_in_any_block(monkeypatch, np.array(rows, dtype=np.complex128), tol)
        mults, iterations = (np.frombuffer(a, dtype=np.intp) for a in arrays[1:3])
        assert not iterations[:15].any() and iterations[15]
        assert mults.reshape(-1, 2)[13:15].tolist() == [[2, 0], [2, 0]]
        if tol > 1e-30:
            assert errors == {15: "inclusion disc radii are not finite"}

    @pytest.mark.parametrize("tol", [solver.SCALAR_RESIDUAL_TOL, 1e-30])
    def test_cubic_rows_do_not_depend_on_the_block_bound(self, rng, monkeypatch, tol):
        # The closed form: random cubics and u (u - 1)(u - 2) keep it; u^3,
        # a cluster 1e-9 wide, a double zero, a double and a triple root,
        # and roots 1e5, 1 and 1e-5, whose closed form is inaccurate, go on
        # to Aberth.
        rows = [random_monic(rng, 3) for _ in range(9)] + [
            [1, 0, 0, 0], np.poly([0, 1, 2]), np.poly([1, 1 + 1e-9, 3]), np.poly([0, 0, 2]),
            np.poly([2, 2, -1]), np.poly([1.5] * 3), np.poly([1e5, 1, 1e-5]),
        ]  # fmt: skip
        arrays, errors = self.outcome_in_any_block(monkeypatch, np.array(rows, dtype=np.complex128), tol)
        iterations = np.frombuffer(arrays[2], dtype=np.intp)
        assert not iterations[[*range(9), 10]].any() and iterations[[9, 11, 12, 13, 14, 15]].all()
        if tol > 1e-30:
            assert errors == {}

    @staticmethod
    def outcome_in_any_block(monkeypatch, monic, tol):
        """The bytes of every array and the errors of ``_solve_monic_rows``,
        the same with 1 row, 4 rows, two blocks and all rows per block."""
        n, outcomes = monic.shape[1] - 1, []
        for entries in (n * n, 4 * n * n, -(-monic.shape[0] // 2) * n * n, solver.BLOCK_ENTRIES):
            monkeypatch.setattr(solver, "BLOCK_ENTRIES", entries)
            *arrays, errors = solver._solve_monic_rows(monic, tol, solver.ABERTH_MAX_ITER)
            outcomes.append(([a.tobytes() for a in arrays], {i: str(e) for i, e in errors.items()}))
        assert all(outcome == outcomes[0] for outcome in outcomes)
        return outcomes[0]

    def test_quadratic_solves_make_no_lapack_call(self, monkeypatch):
        # Integer-rooted quadratics at d = 2 to 12 give the same bytes with
        # np.linalg.eigvals made to raise.
        rng = np.random.default_rng(46)
        cases = [integer_rooted_poly(rng, d, 2)[0] for d in range(2, 13)]
        clean = [json.dumps(solution_set_to_obj(cf.solve_circ_poly(p))) for p in cases]

        def refuse(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        assert [json.dumps(solution_set_to_obj(cf.solve_circ_poly(p))) for p in cases] == clean

    def test_degree_drop_reduces_count(self):
        # leading E drops channel 2 to degree 1: 2 * 1 = 2 roots instead of 4
        d = 2
        p = CircPoly([cf.ones(d), cf.identity(d), cf.Circulant([0.5, 0.25])])
        sol = cf.solve_circ_poly(p)
        assert sol.status is SolutionStatus.FINITE
        degrees = {r.channel: r.effective_degree for r in sol.channel_reports}
        assert degrees == {1: 2, 2: 1}
        assert len(sol.roots) == 2
        assert max(sol.residuals) <= 1e-9

    def test_roots_diagonalize(self, rng):
        from circfun.testkit import dense_conjugate

        p = random_regular_poly(rng, 3, 2)
        for root in cf.solve_circ_poly(p).roots:
            conj = dense_conjugate(root)
            off = conj - np.diag(np.diagonal(conj))
            assert np.max(np.abs(off)) <= 1e-9

    def test_recombination_cap(self, rng, monkeypatch):
        p = random_regular_poly(rng, 3, 3)  # 27 combination roots
        monkeypatch.setattr(solver, "RECOMBINATION_LIMIT", 10)
        with pytest.raises(RecombinationLimitError, match="exceed the cap of 10$"):
            cf.solve_circ_poly(p)

    def test_deterministic_ordering(self, rng):
        p = random_regular_poly(rng, 2, 3)
        a = cf.solve_circ_poly(p)
        b = cf.solve_circ_poly(p)
        for r1, r2 in zip(a.roots, b.roots):
            assert np.array_equal(r1.row, r2.row)

    @pytest.mark.parametrize(
        "channels, degrees",
        [
            ([[0.0, 0.0, 0.0], [1.0, 0.0, -1.0], [2.0, 1.0]], [-1, 2, 1]),  # zero and degree drop
            ([[0.0, 0.0, 3.0], [1.0, 0.5, 0.0], [0.0]], [0, 2, -1]),  # constant, zero, drop
            ([[0.0, 0.0], [0.0]], [-1, -1]),  # all zero
        ],
    )
    def test_channel_degrees_match_solver_reports(self, channels, degrees):
        p = poly_from_channels(channels, max(len(c) for c in channels) - 1)
        assert p.channel_degrees().tolist() == degrees
        for report, degree in zip(cf.solve_circ_poly(p).channel_reports, degrees):
            kind = {-1: "identically-zero", 0: "nonzero-constant"}.get(degree, "roots")
            assert report.kind == kind
            assert report.effective_degree == (None if degree < 0 else degree)

    @pytest.mark.parametrize(
        "rows",
        [
            [[1.0, 0.0], [np.nan, 0.0]],  # every channel reads u + NaN
            [[1.0, 0.0], [0.0, np.inf]],
            [[1.0, 0.0], [1e308, 1e308]],  # finite, but its spectrum overflows
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_non_finite_coefficients_rejected(self, rows):
        p = CircPoly([cf.Circulant(r) for r in rows])
        with pytest.raises(ValueError, match="finite"):
            cf.solve_circ_poly(p)

    @pytest.mark.filterwarnings("error")
    def test_coefficient_eigenvalues_that_overflow_are_named(self):
        # circ(1e308, 1e308) Z + I: every coefficient is finite, but the
        # leading one's eigenvalue 2e308 is not, where the message said the
        # coefficients were not finite.
        p = CircPoly([cf.Circulant([1e308, 1e308]), cf.identity(2)])
        with pytest.raises(ValueError, match=r"^polynomial: coefficient eigenvalues must be finite$"):
            cf.solve_circ_poly(p)

    @staticmethod
    def corrupt_rows(monkeypatch, change):
        """Route recombination through ``change(rows)``, the stacked head and
        tail half rows and each chunk of a set rebuilt whole; returns the
        list that collects copies of them before the change."""
        clean = []

        def corrupted(spectra, **kwargs):
            rows = inverse_rows(spectra, **kwargs)
            clean.append(rows.copy())
            change(rows)
            return rows

        monkeypatch.setattr(solver, "inverse_rows", corrupted)
        return clean

    def test_nan_residual_fails_the_reconstruction_gate(self, monkeypatch):
        # One NaN half row after a finite one; NaN compares False with any
        # radius.  Z^2 - I at d = 2 has two head rows and two tail rows, and
        # head row 1 first takes part in root 1 * 2 + 1.
        self.corrupt_rows(monkeypatch, lambda rows: rows.__setitem__(1, np.nan))
        message = r"^reconstructed root spectrum is off by nan, .* in channel 1 of root 3$"
        with pytest.raises(SolverError, match=message):
            cf.solve_circ_poly(CircPoly.from_scalars([1, 0, -1], 2))

    @pytest.mark.parametrize("d", [2, 5])
    def test_perturbed_root_fails_the_gate(self, monkeypatch, d):
        # Moving one half row entry by 1e-6 moves every channel of its
        # spectrum by 1e-6, about 1e9 times the transform radius of roots of
        # modulus 1.  Z^2 - I has 2^d roots: at d = 2, row 3 is tail row 1 of
        # 2 and first takes part in root 2; at d = 5, head row 3 of 8, and
        # each head row in 4 roots from root 3 * 4 + 1.
        self.corrupt_rows(monkeypatch, lambda rows: rows.__setitem__((3, 0), rows[3, 0] + 1e-6))
        message = rf"^reconstructed root spectrum is off by 1\.000e-06, .* in channel 1 of root {2 if d == 2 else 13}$"
        with pytest.raises(SolverError, match=message):
            cf.solve_circ_poly(CircPoly.from_scalars([1, 0, -1], d))

    @pytest.mark.parametrize("d", [5, 33])
    def test_ring_check_rejects_a_row_the_spectral_check_misses(self, monkeypatch, rng, d):
        # Z - A has the one root A. The transform check is handed the
        # uncorrupted row, so only the ring Horner check sees the corrupted
        # one, below the FFT threshold and at an FFT order.
        a = random_circulant(rng, d)
        p = CircPoly([cf.identity(d), cf.neg(a)])
        assert len(cf.solve_circ_poly(p).roots) == 1
        clean = self.corrupt_rows(monkeypatch, lambda rows: rows.__setitem__((0, 2), rows[0, 2] + 1e-6))
        gaps = solver._transform_gaps
        monkeypatch.setattr(solver, "_transform_gaps", lambda rebuilt, spectra: gaps(clean[-1], spectra))
        with pytest.raises(SolverError, match=r"^reconstructed root residual .* in the ring check of root 1$"):
            cf.solve_circ_poly(p)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("c", [1e-200, 1e-100, 1.0, 1e100, 1e200])
    def test_a_wrong_transform_fails_at_every_coefficient_scale(self, monkeypatch, c):
        # Every rebuilt root is off by 0.5 in entry 0, so its spectrum is off
        # by 0.5 in every channel.  Scaled by 1e-200, the channel-value gate's
        # absolute floor max(1, S) accepted these rows; the transform radius
        # does not move under P -> cP.
        p = random_regular_poly(np.random.default_rng(0), 3, 2)
        scaled = CircPoly([cf.scale(c, x) for x in p.coeffs])
        assert len(cf.solve_circ_poly(scaled).roots) == 8
        self.corrupt_rows(monkeypatch, lambda rows: rows.__setitem__((slice(None), 0), rows[:, 0] + 0.5))
        with pytest.raises(SolverError, match=r"^reconstructed root spectrum is off by .* in channel 1 of root 1$"):
            cf.solve_circ_poly(scaled)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k", [-60, 0, 60])
    def test_a_wrong_transform_fails_at_every_unit_of_the_variable(self, monkeypatch, k):
        # Z = 2^k W scales the roots, and the corruption with them: 0.5 alone
        # is below one unit in the last place of entries near 2^60.
        p, _ = integer_rooted_poly(np.random.default_rng(0), 3, 2)
        w = TestUnitsOfTheVariable.substituted(p, -k)
        assert len(cf.solve_circ_poly(w).roots) == 8
        self.corrupt_rows(monkeypatch, lambda rows: rows.__setitem__((slice(None), 0), rows[:, 0] + 0.5 * 2.0**k))
        with pytest.raises(SolverError, match=r"^reconstructed root spectrum is off by .* in channel 1 of root 1$"):
            cf.solve_circ_poly(w)

    def test_an_inaccurate_channel_root_fails_the_per_root_gate(self, monkeypatch):
        # The scalar solve is made to return every root 1e-6 off: the rows
        # rebuild exactly, so only the certificate of the channel roots sees
        # it, and the rows that hold such a root fail the per-root gate,
        # 2e-6 against a bound of 1e-8 * max(scale, 1) = 2e-8.
        solve = solver._solve_monic_rows

        def off(monic, tol, max_iter):
            roots, *rest = solve(monic, tol, max_iter)
            return (roots + 1e-6, *rest)

        monkeypatch.setattr(solver, "_solve_monic_rows", off)
        message = r"^reconstructed root residual 2\.000e-06 exceeds 2\.0e-08 in channel 1 of root 1$"
        with pytest.raises(SolverError, match=message):
            cf.solve_circ_poly(CircPoly.from_scalars([1, 0, -1], 2))

    def test_the_certificate_covers_the_gaps_the_transform_left(self, monkeypatch):
        # 1e-12 Z^2 + Z has the channel roots -1e12 and 0, so gaps up to the
        # transform radius 2.5e-3 pass.  Every half row, and then every root
        # rebuilt whole, is made 1e-4 off in every channel (1.2e-4 after
        # rounding beside 5e11), which moves p_i from 0 at the root 0 as far:
        # the certificate, over either radius, misses the root 0, and root 3,
        # the first row holding it in channel 1, fails the per-root gate.
        clean = self.corrupt_rows(monkeypatch, lambda rows: rows.__setitem__((slice(None), 0), rows[:, 0] + 1e-4))
        message = r"^reconstructed root residual 1\.\d+e-04 exceeds 1\.0e-08 in channel 1 of root 3$"
        with pytest.raises(SolverError, match=message):
            cf.solve_circ_poly(CircPoly.from_scalars([1e-12, 1, 0], 2))
        assert [rows.shape for rows in clean] == [(4, 2), (4, 2)]

    def test_a_set_the_certificate_misses_is_rebuilt_whole(self, monkeypatch):
        # As above, but only head row 1 is off: the radius the half tables
        # leave misses the root 0 of channels 1 and 2, so the set is rebuilt
        # whole from its combinations.  The gaps measured there certify every
        # root, with no per-root gate, and at d = 2 those inverse transforms
        # have the bits of the clean half rows' sums.
        p = CircPoly.from_scalars([1e-12, 1, 0], 2)
        expected = cf.solve_circ_poly(p).verified.rows
        spectra, gated = [], []

        def corrupted(rows, **kwargs):
            spectra.append(rows)
            rows = inverse_rows(rows, **kwargs)
            if len(spectra) == 1:
                rows[1, 0] += 1e-4
            return rows

        monkeypatch.setattr(solver, "inverse_rows", corrupted)
        monkeypatch.setattr(solver, "polyval_with_scale", lambda *args: gated.append(1) or polyval_with_scale(*args))
        sol = cf.solve_circ_poly(p)
        assert [rows.shape for rows in spectra] == [(4, 2), (4, 2)] and not gated
        assert sol.verified.rows.tobytes() == expected.tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_gate_that_overflows_names_the_overflow(self):
        # 1e10 Z^2 - 1e308 I: the monic rows u^2 - 1e298 pass the row gate,
        # but the scale sum of the channel at its roots 1e149 is 2e308, in
        # the certificate and in the per-root gate.
        p = CircPoly.from_scalars([1e10, 0, -1e308], 2)
        with pytest.raises(SolverError, match="^reconstructed root channel values overflow in channel 1 of root 1$"):
            cf.solve_circ_poly(p)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_root_the_certificate_misses_takes_the_per_root_gate(self, monkeypatch):
        # Channel roots of modulus near 3 beside roots near 1e7: the gaps
        # the transform leaves beside 1e7 widen the certificate's radius past
        # what the small roots' bounds allow, yet every row holding one
        # passes the per-root gate, as each did root by root.
        p = random_regular_poly(np.random.default_rng(0), 7, 3, 1e7)
        gated = []
        monkeypatch.setattr(solver, "polyval_with_scale", lambda *args: gated.append(1) or polyval_with_scale(*args))
        sol = cf.solve_circ_poly(p)
        assert len(sol.roots) == 3**7 and gated
        cm = p.channel_matrix()
        values, scales = polyval_with_scale(cm[:, None, :], np.fft.fft(sol.verified.rows, axis=1))
        assert np.all(np.abs(values) <= CIRC_RESIDUAL_TOL * np.maximum(scales, max(1.0, p._scale)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_the_rows_of_missed_roots_are_gated_as_whole_transforms(self, monkeypatch):
        # Channel roots from 0.28 to 7e7: the certificate misses the small
        # ones, whose values in a row are then mostly the forward FFT's
        # rounding.  As half-table sums, root 84 would read 0.69 in channel
        # 7, past its bound 0.66, and refuse the set.  Rebuilt whole, as the
        # inverse transforms of its combinations, the rows holding each of
        # the 14 roots that their measured gaps still miss pass the gate.
        rng = np.random.default_rng(165636438)
        p = random_regular_poly(rng, 8, 3, 10 ** rng.uniform(0, 8))
        gated = []
        monkeypatch.setattr(solver, "polyval_with_scale", lambda c, u: gated.append(len(u)) or polyval_with_scale(c, u))
        sol = cf.solve_circ_poly(p)
        assert len(sol.roots) == 3**8 and gated == [3**7] * 14
        combos = np.array(list(itertools.product(*(r.roots for r in sol.channel_reports))))
        assert sol.verified.rows[83].tobytes() == np.fft.ifft(combos[83]).tobytes()
        values, scales = polyval_with_scale(p.channel_matrix()[:, None, :], np.fft.fft(sol.verified.rows, axis=1))
        assert np.all(np.abs(values) <= CIRC_RESIDUAL_TOL * np.maximum(scales, max(1.0, p._scale)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_the_ring_check_allows_for_its_own_round_off(self):
        # Channels scaled 4e-25 and 2.5e10: ring Horner on the raw rows mixes
        # them, and its round-off at the ring check's row is above the 2-norm
        # of the row's channel bounds, which alone refused this set.
        roots = np.repeat([682.234217987794 + 229.2413089254975j, 155.3250180472055 - 108.01720167264382j], [4, 3])
        cm = np.zeros((8, 2), dtype=np.complex128)
        cm[:, 0] = np.poly(roots) * 4.062817958188713e-25
        cm[3:, 1] = np.poly(np.repeat(0.008784741781655345 + 0.028392961496764808j, 4)) * 25305237445.01119
        p = CircPoly([cf.from_spectrum(row) for row in cm])
        sol = cf.solve_circ_poly(p)
        assert len(sol.roots) == 7 and [r.multiplicities for r in sol.channel_reports] == [(1,) * 7, (4,)]
        _, scales = polyval_with_scale(p.channel_matrix()[:, None, :], np.fft.fft(sol.verified.rows[:1], axis=1))
        bound = CIRC_RESIDUAL_TOL * np.linalg.norm(np.maximum(scales, max(1.0, p._scale)))
        assert cf.frobenius_norm(p.evaluate(sol.roots[0])) > bound

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("d", [3, 8, 33])
    @pytest.mark.parametrize("a", [1e-310, 1e-315])
    def test_subnormal_roots_pass_the_transform_check(self, rng, d, a):
        # Z - A with subnormal entries: the round trip's gaps are a few
        # subnormal units, which a radius relative to the roots alone
        # (0 or 5e-324 here) refused.
        p = CircPoly([cf.identity(d), cf.neg(cf.scale(a, random_circulant(rng, d)))])
        assert len(cf.solve_circ_poly(p).roots) == 1

    @pytest.mark.parametrize(
        "d, n, kind",
        [(5, 3, "int"), (6, 2, "int"), (7, 3, "int"), (8, 2, "int"), (10, 2, "int"), (12, 2, "int"),
         (2, 10, "random"), (2, 30, "random")],
    )
    def test_every_root_passes_the_channel_value_gate(self, d, n, kind):
        # The certificate covers every point the forward FFT of a rebuilt
        # root can land on, so each reported root passes the gate the
        # channel values were checked against root by root:
        # |p_i(u_i)| <= tol * max(s_i(u_i), max(1, S)).
        for seed in range(3):
            rng = np.random.default_rng(seed)
            p = integer_rooted_poly(rng, d, n)[0] if kind == "int" else random_regular_poly(rng, d, n)
            sol = cf.solve_circ_poly(p)
            assert len(sol.roots) == n**d
            cm = p.channel_matrix()
            values, scales = polyval_with_scale(cm[:, None, :], np.fft.fft(sol.verified.rows, axis=1))
            floor = max(1.0, float(np.max(np.abs(cm))))
            assert np.all(np.abs(values) <= CIRC_RESIDUAL_TOL * np.maximum(scales, floor))

    def test_deep_order_two_equations_pass_a_dense_backward_error_check(self, rng):
        # Degree 30 at d = 2: the per-channel gate scales with each root's
        # own |p_i| yardstick, where one bound tol * max(1, S) rejected most.
        for _ in range(5):
            p = random_regular_poly(rng, 2, 30)
            sol = cf.solve_circ_poly(p)
            assert sol.status is SolutionStatus.FINITE
            assert len(sol.roots) == 900
            assert max(dense_backward_errors(p, sol.roots)) <= 1e-9

    @pytest.mark.parametrize("c", [1e-200, 1e200])
    def test_scaled_coefficients_keep_roots_and_finite_residuals(self, c):
        # At 1e200 the squared channel values overflowed: every residual was
        # inf, and the ring check passed as inf <= inf.  At 1e-200 they
        # underflowed to 0.
        p = random_regular_poly(np.random.default_rng(0), 3, 2)
        base = cf.solve_circ_poly(p)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sol = cf.solve_circ_poly(CircPoly([cf.scale(c, x) for x in p.coeffs]))
        assert sol.status is SolutionStatus.FINITE and len(sol.roots) == 8
        rows = base.verified.rows
        assert np.max(np.abs(sol.verified.rows - rows)) <= 1e-12 * np.max(np.abs(rows))
        residuals = sol.verified.residuals / c
        assert np.all(np.isfinite(residuals)) and np.all((0 < residuals) & (residuals < 1e-12))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            cf.solve_circ_poly(CircPoly.from_scalars([1, 0], 2), tol=-1.0)

    @pytest.mark.parametrize("d", [2, 3])
    def test_degree_zero_solves_as_the_same_equation_of_degree_one(self, d):
        # P = C was refused as degree 0, while 0 Z + C solved.  A nonzero
        # constant has no solution, and 0 = 0 leaves every channel free.
        zero = cf.Circulant(np.zeros(d))
        for c, status, free in ((cf.identity(d), SolutionStatus.NO_SOLUTION, ()),
                                (zero, SolutionStatus.INFINITE_FAMILY, tuple(range(1, d + 1)))):
            sol, padded = cf.solve_circ_poly(CircPoly([c])), cf.solve_circ_poly(CircPoly([zero, c]))
            assert (sol.status, sol.free_channels, len(sol.roots)) == (status, free, 0)
            assert sol.table.degrees.tolist() == padded.table.degrees.tolist()
            assert solution_set_to_obj(sol) == solution_set_to_obj(padded)

    @pytest.mark.parametrize(
        "kwargs, name", [({"count": -1}, "count"), ({"seed": -1}, "seed"), ({"magnitude": np.nan}, "magnitude")]
    )
    def test_sampling_arguments_are_checked(self, kwargs, name):
        # numpy rejected the first two in its own words, and a NaN magnitude
        # gave NaN members.
        sol = cf.solve_circ_poly(CircPoly([cf.ones(3), cf.ones(3)]))
        assert sol.status is SolutionStatus.INFINITE_FAMILY
        with pytest.raises(ValueError, match=f"^{name} must be "):
            sol.sample_members(**{"count": 2, **kwargs})

    def test_sampling_finite_set_rejected(self):
        sol = cf.solve_circ_poly(CircPoly.from_scalars([1, 0], 2))
        assert sol.status is SolutionStatus.FINITE
        with pytest.raises(ValueError):
            sol.sample_members(3)


def planted_degree_poly(rng, d, n, regular):
    """P of degree n at order d with a random effective degree per channel:
    n on every channel if ``regular``, else at least one channel below n, and
    a degree 0 or identically zero channel wherever the finite set would
    exceed 256 roots.  Channel coefficients above a channel's degree are
    exactly zero, so their transforms leave only round-off."""
    degrees = np.full(d, n) if regular else rng.integers(-1, n + 1, size=d)
    if not regular and (degrees == n).all():
        degrees[rng.integers(d)] = rng.integers(-1, n)
    if (degrees > 0).all() and math.prod(degrees.tolist()) > 256:
        degrees[rng.integers(d)] = rng.integers(-1, 1)
    return poly_from_channels([rng.standard_normal(k + 1) + 1j * rng.standard_normal(k + 1) for k in degrees], n)


class TestUnitsOfTheVariable:
    """Z = 2^k W scales coefficient row j (leading first) of P exactly by
    2^(k (n - j)), transform included.  Every coefficient is snapped and
    tested against its own row's largest modulus, so the verdicts keep."""

    ORDERS = [(2, 3), (3, 3), (4, 3), (8, 2), (16, 1), (64, 1)]

    @staticmethod
    def cases():
        rng = np.random.default_rng(16)
        for d, n in TestUnitsOfTheVariable.ORDERS:
            yield planted_degree_poly(rng, d, n, True)
            for _ in range(3):
                yield planted_degree_poly(rng, d, n, False)

    @staticmethod
    def substituted(p, k):
        return CircPoly([cf.Circulant(c.row * 2.0 ** (k * (p.degree - j))) for j, c in enumerate(p.coeffs)])

    def test_verdicts_keep_under_z_to_2k_w(self):
        for p in self.cases():
            sol = cf.solve_circ_poly(p)
            expected = cf.classify(p), p.channel_degrees().tolist()
            outcome = sol.status, len(sol.roots), sol.free_channels
            for k in range(-60, 61):
                w = self.substituted(p, k)
                assert (cf.classify(w), w.channel_degrees().tolist()) == expected, (p, k)
                if k % 4 == 0:  # every fourth k keeps the solves near a second
                    sol = cf.solve_circ_poly(w)
                    assert (sol.status, len(sol.roots), sol.free_channels) == outcome, (p, k)

    def test_quadratic_roots_scale_bit_for_bit(self):
        # u -> 2^k u multiplies b by 2^k and c by 4^k.  The closed form, its
        # polishing and the merge of a double root whose two roots come out
        # apart all scale exactly, so the roots of [1, 2^k b, 4^k c] are 2^k
        # times those of [1, b, c], bit for bit, with the same multiplicities.
        rng = np.random.default_rng(46)
        rows = [*rng.standard_normal((20, 2, 2)).view(np.complex128)[..., 0], np.poly([-2.1 + 2j] * 2)[1:], [0, 0]]
        for b, c in rows:
            base = cf.solve_scalar_poly([1, b, c])
            for k in range(-60, 61):
                r = cf.solve_scalar_poly([1, 2.0**k * b, 4.0**k * c])
                assert r.roots.tobytes() == (2.0**k * base.roots).tobytes(), (b, c, k)
                assert r.multiplicities.tolist() == base.multiplicities.tolist(), (b, c, k)

    def test_regular_with_a_small_but_invertible_leading_coefficient(self):
        # 1e-12 Z^2 + Z and Z^2 + 1e-15 I at d = 2: each row is measured
        # against itself, so 1e-12 I is an invertible leading coefficient
        # and 1e-15 I a constant that splits the double root Z = 0.
        for scalars, roots in (([1e-12, 1, 0], [-1e12, 0]), ([1, 0, 1e-15], [-1j * 10**-7.5, 1j * 10**-7.5])):
            p = CircPoly.from_scalars(scalars, 2)
            sol = cf.solve_circ_poly(p)
            assert cf.classify(p).regular and sol.status is SolutionStatus.FINITE and len(sol.roots) == 4
            for report in sol.channel_reports:
                np.testing.assert_allclose(sorted(report.roots, key=lambda r: (r.real, r.imag)), roots, rtol=1e-12)


class TestResidual:
    def test_zero_at_root(self):
        p = CircPoly.from_scalars([1, 0, -1], 2)
        assert cf.residual(p, cf.identity(2)) <= 1e-12

    def test_value_at_twice_identity(self):
        # P(2I) = 4I - I = 3I, Frobenius norm 3 sqrt(d)
        for d in (2, 5):
            p = CircPoly.from_scalars([1, 0, -1], d)
            assert cf.residual(p, cf.scale(2, cf.identity(d))) == pytest.approx(3 * np.sqrt(d))

    def test_order_mismatch(self):
        with pytest.raises(cf.DimensionError):
            cf.residual(CircPoly.from_scalars([1, 0, -1], 2), cf.identity(3))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "row, message",
        [
            ([np.nan] + [0.0] * 63, "point entries must be finite"),
            ([np.inf] + [0.0] * 63, "point entries must be finite"),
            ([1e308] * 64, "point eigenvalues must be finite"),
        ],
        ids=["nan", "inf", "overflowing-spectrum"],
    )
    def test_point_that_is_not_finite_is_refused(self, row, message):
        # Each printed fft or multiply warnings and returned NaN.
        with pytest.raises(ValueError, match=f"^{message}$"):
            cf.residual(CircPoly.from_scalars([1, 0, -1], 64), cf.Circulant(row))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("d", [4, 64])
    @pytest.mark.parametrize("n", range(2, 8))
    @pytest.mark.parametrize(
        "head", [[1e200], [1e200, 1e200j], [1e100, -1e100]], ids=["real", "complex", "cancelling"]
    )
    def test_channel_values_that_overflow_give_an_infinite_residual(self, head, n, d):
        # Z^n - I at a finite point whose eigenvalues' n-th powers pass the
        # float range: the norm is infinite.  It was, with two overflow
        # warnings; where Horner's complex product met inf * 0 (n = 5 at
        # circ(1e200, 0, ...)), it was NaN, with an invalid-value warning.
        # The eigenvalues at the cancelling point reach 2e100, whose cube
        # 8e300 is in range.
        z = cf.Circulant(head + [0.0] * (d - len(head)))
        norm = cf.residual(CircPoly.from_scalars([1] + [0] * (n - 1) + [-1], d), z)
        assert norm == np.inf if 1e200 in head or n > 3 else np.isfinite(norm)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_rebuilt_root_whose_values_overflow_fails_the_gate(self, monkeypatch):
        # Half rows rebuilt far from the roots would give roots whose channel
        # values overflow, to inf (Z^2 - I) or NaN (Z^5 - I, where Horner
        # meets inf * 0); their spectra fail the transform radius first, with
        # no warning, and no channel value is taken.
        monkeypatch.setattr(solver, "inverse_rows", lambda rows, fft: inverse_rows(rows, fft=fft) * 1e200)
        for scalars in ([1, 0, -1], [1, 0, 0, 0, 0, -1]):
            message = r"^reconstructed root spectrum is off by 1\.000e\+200, .* in channel 1 of root 1$"
            with pytest.raises(SolverError, match=message):
                cf.solve_circ_poly(CircPoly.from_scalars(scalars, 4))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_coefficient_eigenvalues_are_refused(self):
        p = CircPoly([cf.Circulant([1e308] * 64), cf.identity(64)])
        with pytest.raises(ValueError, match="^polynomial: coefficient eigenvalues must be finite$"):
            cf.residual(p, cf.identity(64))

    @pytest.mark.parametrize("d", [2, 5, 12, 31, 32, 40, 64])
    def test_spectral_residuals_match_ring_horner(self, rng, d):
        # Parseval: sqrt(sum_i |p_i(u_i)|^2) is ||P(Z)||_F evaluated in the ring.
        for _ in range(3):
            degrees = [2] * min(d, 6) + [1] * (d - min(d, 6))
            p = poly_from_channels([random_monic(rng, k) for k in degrees], 2)
            sol = cf.solve_circ_poly(p)
            allowed = 1e-12 * max(1.0, float(np.max(np.abs(p.channel_matrix()))))
            for root, res in zip(sol.roots, sol.residuals):
                assert abs(res - cf.frobenius_norm(p.evaluate(root))) <= allowed

    def test_solver_outputs_replay(self, rng):
        p = random_regular_poly(rng, 2, 2)
        sol = cf.solve_circ_poly(p, tol=1e-8)
        for root, res in zip(sol.roots, sol.residuals):
            assert cf.residual(p, root) == res
            assert res <= 1e-8


class TestZeroCopyRoots:
    """Recombined roots and sampled members are read-only views of the array
    their batch was rebuilt in, bit for bit the rows a copy would hold."""

    def test_roots_are_read_only_for_good(self, rng):
        p, _ = integer_rooted_poly(rng, 5, 3)
        sol = cf.solve_circ_poly(p)
        assert len(sol.roots) == 3**5
        for k, root in enumerate(sol.roots):
            assert not root.row.flags.writeable
            with pytest.raises(ValueError):
                root.row.flags.writeable = True
            assert sol.residuals[k] == cf.residual(p, root)

    def test_unpickled_root_owns_a_read_only_copy(self, rng):
        p, _ = integer_rooted_poly(rng, 5, 3)
        root = cf.solve_circ_poly(p).roots[7]
        restored = pickle.loads(pickle.dumps(root))
        assert np.array_equal(restored.row, root.row)
        assert restored.row.flags.owndata
        assert not restored.row.flags.writeable

    def test_sampled_members_are_read_only(self, rng):
        p = poly_from_channels([random_monic(rng, 2), [0.0], random_monic(rng, 3)], 3)
        members = cf.solve_circ_poly(p).sample_members(6, seed=2)
        for member in members:
            assert not member.row.flags.writeable
            with pytest.raises(ValueError):
                member.row.flags.writeable = True


class TestRootViews:
    """A finite set keeps its verified roots as two read-only half tables,
    whose (count, d) sums are built on first read, and its residuals as one
    (count,) array; ``roots`` and ``residuals`` are sequences read from them."""

    def test_all_combinations_follow_the_numbered_ones(self):
        # Channels with 3, 1 and 2 distinct roots: channel 1 alone reaches
        # sqrt(6) roots and is the head, channels 2 and 3 the tail.  Root
        # 2 a + b is head row a plus tail row b, whose spectra are the
        # combinations that sample_members numbers, zero off their channels,
        # so the roots follow itertools.product order.
        p = poly_from_channels([np.poly([1, 2, 3]), [1, -4j], np.poly([5, 6])], 3)
        sol = cf.solve_circ_poly(p)
        table, channels = sol.table, np.arange(3)
        combos = table._values_at(np.arange(6), channels)
        np.testing.assert_allclose(combos, list(itertools.product([1, 2, 3], [4j], [5, 6])), rtol=1e-12)
        head = np.where(channels < 1, table._values_at(np.arange(3) * 2, channels), 0)
        tail = np.where(channels >= 1, table._values_at(np.arange(2), channels), 0)
        rows = np.fft.ifft(head, axis=1)[:, None] + np.fft.ifft(tail, axis=1)[None]
        assert sol.verified.rows.tobytes() == rows.reshape(6, 3).tobytes()
        np.testing.assert_allclose(np.fft.fft(sol.verified.rows, axis=1), combos, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("d", [11, 12])
    def test_views_equal_the_eager_reference(self, rng, d):
        # 2048 and 4096 roots: 32 head rows beside 64 tail rows, and 64
        # beside 64; the residuals take two and four passes.
        p, _ = integer_rooted_poly(rng, d, 2)
        sol = cf.solve_circ_poly(p)
        (_, head), (_, tail) = half_tables([r.roots for r in sol.channel_reports])
        rows = (head[:, None] + tail[None]).reshape(-1, d)  # no entry is near overflow
        norms = solver._channel_residuals(p.channel_matrix(), np.fft.fft(rows, axis=-1))
        assert len(sol.roots) == len(sol.residuals) == 2**d
        for k in range(2**d):
            assert sol.roots[k].row.tobytes() == rows[k].tobytes()
            assert sol.residuals[k] == norms[k] and type(sol.residuals[k]) is float
        assert sol.verified.rows.tobytes() == rows.tobytes()
        assert list(sol.residuals) == norms.tolist()

    @pytest.mark.parametrize("d", range(2, 13))
    def test_a_root_read_by_index_is_its_row_of_the_table(self, rng, d):
        # Read before the table is built, each root is its own head row plus
        # tail row, byte for byte the row of the table built on first read,
        # in itertools.product order of the channel roots.
        p, _ = integer_rooted_poly(rng, d, 2)
        sol = cf.solve_circ_poly(p)
        by_index = [sol.roots[k].row.tobytes() for k in range(2**d)]
        assert "_rows" not in vars(sol.roots)
        rows = sol.verified.rows
        assert by_index == [row.tobytes() for row in rows] and not rows.flags.writeable
        combos = list(itertools.product(*(r.roots for r in sol.channel_reports)))
        np.testing.assert_allclose(np.fft.fft(rows, axis=1), combos, rtol=0, atol=1e-13)

    def test_a_root_read_by_index_holds_only_its_own_entries(self, rng):
        # A root kept alone pins its d entries, not the (16, 4) table, before
        # the table is built and after.
        p, _ = integer_rooted_poly(rng, 4, 2)
        sol = cf.solve_circ_poly(p)
        early = sol.roots[5]
        rows = sol.verified.rows
        for root in (early, sol.roots[5]):
            assert root.row.base.shape == (1, 4) and root.row.base is not rows.base
            assert root.row.tobytes() == rows[5].tobytes() and not root.row.flags.writeable

    def test_a_set_pickled_before_and_after_its_table_is_built(self, rng):
        p, _ = integer_rooted_poly(rng, 6, 2)
        sol = cf.solve_circ_poly(p)
        early = pickle.dumps(sol)
        rows = sol.verified.rows
        for restored in (pickle.loads(early), pickle.loads(pickle.dumps(sol))):
            assert restored.roots[37].row.tobytes() == rows[37].tobytes()
            assert restored.verified.rows.tobytes() == rows.tobytes() and restored == sol
            assert not restored.verified.rows.flags.writeable
            assert all(not r.row.flags.writeable for r in restored.roots)

    def test_a_set_rebuilt_whole_reads_its_rows_through_the_view(self):
        # The inputs of test_the_rows_of_missed_roots_are_gated_as_whole_transforms:
        # the set is rebuilt whole, and each root read by index, beside a
        # tail row of -0.0, has the bytes of its inverse transform.
        rng = np.random.default_rng(165636438)
        p = random_regular_poly(rng, 8, 3, 10 ** rng.uniform(0, 8))
        sol = cf.solve_circ_poly(p)
        assert sol.roots._head.shape == (3**8, 8) and np.array_equal(sol.roots._tail, np.full((1, 8), -0.0))
        by_index = [sol.roots[k].row.tobytes() for k in range(3**8)]
        combos = np.array(list(itertools.product(*(r.roots for r in sol.channel_reports))))
        assert by_index[83] == np.fft.ifft(combos[83]).tobytes()
        assert by_index == [row.tobytes() for row in sol.verified.rows]
        restored = pickle.loads(pickle.dumps(sol))
        assert [r.row.tobytes() for r in restored.roots] == by_index
        for root in (sol.roots[5], next(iter(sol.roots)), next(iter(restored.roots))):
            with pytest.raises(ValueError):
                root.row.flags.writeable = True

    def test_indexing_slicing_and_truthiness(self, rng):
        p, _ = integer_rooted_poly(rng, 4, 3)
        sol = cf.solve_circ_poly(p)
        roots = list(sol.roots)
        assert len(roots) == 81 and bool(sol.roots)
        assert [r.row.tobytes() for r in roots] == [sol.roots[k].row.tobytes() for k in range(81)]
        assert sol.roots[-1].row.tobytes() == roots[80].row.tobytes()
        window = sol.roots[3:7]
        assert isinstance(window, tuple) and [r.row.tobytes() for r in window] == [
            r.row.tobytes() for r in roots[3:7]
        ]
        assert sol.residuals[3:7] == tuple(sol.residuals)[3:7]
        assert all(not r.row.flags.writeable for r in (*roots, sol.roots[5]))
        with pytest.raises(IndexError):
            sol.roots[81]
        with pytest.raises(IndexError):
            sol.roots[-82]
        empty = cf.solve_circ_poly(plant_channel(p, 1, keep_constant=False))
        assert not empty.roots and not empty.residuals and list(empty.roots) == []
        assert empty.verified.rows.shape == (0, 4) and empty.verified.residuals.shape == (0,)

    def test_json_roots_match_per_root_serialization(self, rng):
        p, _ = integer_rooted_poly(rng, 6, 2)
        sol = cf.solve_circ_poly(p)
        obj = solution_set_to_obj(sol)
        assert json.dumps(obj["roots"]) == json.dumps([circulant_to_obj(r) for r in sol.roots])
        assert json.dumps(obj["residuals"]) == json.dumps([float(r) for r in sol.residuals])

    def test_two_solves_are_equal(self, rng):
        p, _ = integer_rooted_poly(rng, 5, 2)
        sol, again = cf.solve_circ_poly(p), cf.solve_circ_poly(p)
        assert sol == again and not (sol != again)
        assert sol.roots == again.roots and sol.residuals == again.residuals
        assert not any(isinstance(v, np.ndarray) for v in vars(sol).values())
        other = cf.solve_circ_poly(integer_rooted_poly(rng, 5, 2)[0])
        assert sol != other and sol.roots != other.roots

    def test_residuals_are_taken_on_first_access_and_kept(self, rng):
        # The solve takes no residual; the first access takes them all, in
        # chunks, bit for bit what residual() gives, and a pickle taken
        # before or after keeps them read-only.
        p, _ = integer_rooted_poly(rng, 11, 2)
        sol = cf.solve_circ_poly(p)
        early = pickle.dumps(sol)
        assert "verified" not in vars(sol)
        residuals = sol.verified.residuals
        assert sol.verified.residuals is residuals and not residuals.flags.writeable
        assert [residuals[k] for k in (0, 1024, 2047)] == [cf.residual(p, sol.roots[k]) for k in (0, 1024, 2047)]
        for restored in (pickle.loads(early), pickle.loads(pickle.dumps(sol))):
            assert restored.verified.residuals.tobytes() == residuals.tobytes()
            assert all(not a.flags.writeable for a in restored.verified)

    @pytest.mark.parametrize("status", ["finite", "infinite-family"])
    def test_pickled_set_keeps_read_only_arrays(self, rng, status):
        p, _ = integer_rooted_poly(rng, 5, 2)
        if status == "infinite-family":
            p = plant_channel(p, 2, keep_constant=False)
        sol = cf.solve_circ_poly(p)
        restored = pickle.loads(pickle.dumps(sol))
        assert restored == sol and not (restored != sol)
        assert (type(restored.verified), type(restored.table)) == (solver.RootTable, solver.ChannelRoots)
        assert all(not a.flags.writeable for a in (*restored.verified, *restored.table))
        assert restored.status.value == status and restored.free_channels == sol.free_channels


def plant_channel(p: CircPoly, channel: int, keep_constant: bool) -> CircPoly:
    """``p`` with one eigenchannel zeroed in every coefficient, or in all but
    the constant one."""
    cm = np.array(p.channel_matrix())
    cm[: -1 if keep_constant else None, channel] = 0.0
    return CircPoly([cf.from_spectrum(row) for row in cm])


def eager_reports(p: CircPoly) -> list:
    """One ChannelReport per channel, each channel solved alone: the
    reference for the records a solution set's table builds on access."""
    cm, reports = p.channel_matrix(), []
    for i, degree in enumerate(p.channel_degrees().tolist()):
        if degree < 0:
            reports.append(solver.ChannelReport(channel=i + 1, kind="identically-zero"))
        elif degree == 0:
            reports.append(solver.ChannelReport(channel=i + 1, kind="nonzero-constant", effective_degree=0))
        else:
            alone = cf.solve_scalar_poly(cm[cm.shape[0] - 1 - degree :, i], tol=1e-8)
            reports.append(
                solver.ChannelReport(
                    channel=i + 1,
                    kind="roots",
                    effective_degree=degree,
                    roots=tuple(alone.roots.tolist()),
                    multiplicities=tuple(alone.multiplicities.tolist()),
                )
            )
    return reports


class TestChannelRecords:
    """A solution set stores its channels as arrays (degrees and CSR roots);
    its ``channel_reports``, built on access, equal eagerly built reports
    field by field, bit for bit, and so does the JSON written from the
    arrays."""

    @pytest.mark.parametrize("d, n", [(16, 8), (32, 8), (16, 20), (64, 8)])
    @pytest.mark.parametrize("keep_constant", [False, True])
    def test_reports_equal_eager_reports(self, rng, d, n, keep_constant):
        # The solve-channels benchmark's instances: an infinite family, or no
        # solution when the planted channel keeps its constant.
        channel = int(rng.integers(d))
        p = plant_channel(random_regular_poly(rng, d, n, 1.0 / np.sqrt(d)), channel, keep_constant)
        sol = cf.solve_circ_poly(p)
        expected = eager_reports(p)
        assert sol.channel_reports[channel].kind == ("nonzero-constant" if keep_constant else "identically-zero")
        assert [repr(r) for r in sol.channel_reports] == [repr(r) for r in expected]
        assert tuple(sol.channel_reports) == tuple(expected)
        assert json.dumps(solution_set_to_obj(sol)["channels"]) == json.dumps(
            [
                {
                    "channel": r.channel,
                    "kind": r.kind,
                    "effective_degree": r.effective_degree,
                    "roots": [[float(z.real), float(z.imag)] for z in r.roots],
                    "multiplicities": list(r.multiplicities),
                }
                for r in expected
            ]
        )

    def test_finite_roots_recombine_the_records(self, rng):
        p, _ = integer_rooted_poly(rng, 3, 2)
        sol = cf.solve_circ_poly(p)
        reports = tuple(sol.channel_reports)
        assert reports == tuple(eager_reports(p))
        combos = itertools.product(*(r.roots for r in reports))
        for root, combo in zip(sol.roots, combos):
            np.testing.assert_allclose(cf.spectrum(root), combo, rtol=0, atol=1e-12)

    def test_every_channel_free(self):
        sol = cf.solve_circ_poly(CircPoly([cf.zero(3), cf.zero(3)]))
        assert sol.status is SolutionStatus.INFINITE_FAMILY and sol.free_channels == (1, 2, 3)
        assert sol.table.offsets.tolist() == [0, 0, 0, 0]
        members = sol.sample_members(4, seed=2)
        draws = np.random.default_rng(2).standard_normal((4, 3, 2)).view(np.complex128)[:, :, 0]
        np.testing.assert_allclose([cf.spectrum(m) for m in members], draws, rtol=0, atol=1e-12)

    def test_vars_hold_no_array(self, rng):
        p = plant_channel(random_regular_poly(rng, 8, 3), 2, keep_constant=False)
        sol, again = cf.solve_circ_poly(p), cf.solve_circ_poly(p)
        assert not any(isinstance(v, np.ndarray) for v in vars(sol).values())
        assert all(isinstance(a, np.ndarray) and not a.flags.writeable for a in sol.table)
        assert sol == again and not (sol != again)
