import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circfun as cf
from circfun import (
    ChannelSingularityError,
    CircFunction,
    CircPoly,
    DimensionError,
    ExpPolyFunction,
    IncrementSpec,
    InvalidIncrementError,
    PolyFunction,
    RationalFunction,
)
from circfun.core import FFT_THRESHOLD
from circfun.functions import (
    COEFFICIENT_REL_TOL,
    SPECTRAL_SNAP_REL_TOL,
    _horner,
    _quotient_terms,
    _raise_on_zero,
    _with_derivative,
    polyval_with_scale,
)
from circfun.spectral import RANK_REL_TOL, _pinv_row, forward_rows
from circfun.testkit import dense_mul, random_circulant, random_invertible_circulant, random_regular_poly

from conftest import assert_circ_close


def monomial(n: int, d: int) -> PolyFunction:
    """Z^n as a polynomial function."""
    return PolyFunction(CircPoly.from_scalars([1] + [0] * n, d))


class TestPolyEval:
    def test_square_minus_identity_at_shift_d2(self):
        d = 2
        p = CircPoly.from_scalars([1, 0, -1], d)
        assert_circ_close(p.evaluate(cf.elementary(d)), cf.zero(d), 1e-14)

    def test_degree_zero_is_constant(self, rng):
        a0 = random_circulant(rng, 3)
        p = CircPoly([a0])
        assert_circ_close(p.evaluate(random_circulant(rng, 3)), a0, 0)

    def test_singular_leading_concentrates_channel_one(self, rng):
        d, n = 5, 3
        p = CircPoly([cf.ones(d)] + [cf.zero(d)] * n)  # E * Z^n
        z = random_circulant(rng, d)
        u1 = np.sum(z.row)
        u = cf.spectrum(p.evaluate(z))
        assert abs(u[0] - d * u1**n) <= 1e-9 * max(1.0, abs(u[0]))
        assert np.max(np.abs(u[1:])) <= 1e-9 * max(1.0, abs(u[0]))

    def test_horner_matches_dense_evaluation(self, rng):
        # Both sides of the FFT threshold, at orders with and without a fast
        # transform.  The oracle keeps the first row of the dense Horner value:
        # row 0 of A Z is row 0 of A times the dense Z.
        for d in (4, 31, 32, 33, 64, 255, 256, 1024):
            z = random_circulant(rng, d)
            dense_z = cf.to_dense(z)
            for degree in range(7):
                p = random_regular_poly(rng, d, degree)
                acc = p.coeffs[0].row
                for c in p.coeffs[1:]:
                    acc = acc @ dense_z + c.row
                fast = p.evaluate(z).row
                assert np.linalg.norm(fast - acc) <= 1e-12 * np.linalg.norm(acc), (d, degree)

    def test_order_mismatch(self, rng):
        p = CircPoly.from_scalars([1, 0], 2)
        with pytest.raises(DimensionError):
            p.evaluate(cf.identity(3))

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda f: CircPoly([]), ValueError, "a polynomial needs at least one coefficient"),
            (
                lambda f: CircPoly([cf.identity(2), cf.identity(3)]),
                DimensionError,
                "coefficient order mismatch: 3 vs 2",
            ),
            (lambda f: f.P * 2, TypeError, "unsupported operand type(s) for *: 'CircPoly' and 'int'"),
            (lambda f: f.evaluate(cf.identity(3)), DimensionError, "order mismatch: point has 3, function has 2"),
            (lambda f: f.derivative(cf.identity(3)), DimensionError, "order mismatch: point has 3, function has 2"),
            (
                lambda f: cf.numeric_derivative(f, cf.identity(2), IncrementSpec(cf.identity(3), 1e-6)),
                DimensionError,
                "order mismatch: direction has 3, point has 2",
            ),
        ],
        ids=["no-coefficient", "mixed-orders", "times-int", "evaluate", "derivative", "increment"],
    )
    def test_bad_operand_names_the_order(self, call, error, message):
        f = PolyFunction(CircPoly.from_scalars([1, 0], 2))
        assert repr(f.P) == "CircPoly(d=2, degree=1)"
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call(f)


class TestChannelDecomposition:
    def test_units_times_z_plus_identity_d2(self):
        p = CircPoly([cf.ones(2), cf.identity(2)])
        cm = p.channel_matrix()
        np.testing.assert_allclose(cm[:, 0], [2, 1], atol=1e-14)
        np.testing.assert_allclose(cm[:, 1], [0, 1], atol=1e-14)

    def test_linear_shifted(self, rng):
        d = 4
        a = random_circulant(rng, d)
        p = CircPoly([cf.identity(d), cf.neg(a)])
        spec_a = cf.spectrum(a)
        for i, column in enumerate(p.channel_matrix().T):
            np.testing.assert_allclose(column, [1, -spec_a[i]], atol=1e-12)

    @pytest.mark.parametrize("p_prime", [3, 5, 7])
    def test_units_coefficient_prime_order(self, p_prime):
        n = 2
        poly = CircPoly([cf.ones(p_prime)] + [cf.zero(p_prime)] * n)
        cm = poly.channel_matrix()
        np.testing.assert_allclose(cm[:, 0], [p_prime, 0, 0], atol=1e-12)
        assert np.max(np.abs(cm[:, 1:])) == 0.0

    @pytest.mark.parametrize("d", [FFT_THRESHOLD - 1, FFT_THRESHOLD])
    def test_channel_matrix_equals_per_coefficient_spectra(self, rng, d):
        # One batched forward transform gives each row bit for bit as
        # spectrum() of that coefficient, on both sides of the FFT dispatch.
        coeffs = [
            cf.Circulant(s * (rng.standard_normal(d) + 1j * rng.standard_normal(d)))
            for s in (1e4, 1.0, 1e-4, 3.0)
        ]
        expected = np.stack([cf.spectrum(c) for c in coeffs])
        top = np.max(np.abs(expected))
        expected[np.abs(expected) <= SPECTRAL_SNAP_REL_TOL * top] = 0.0
        assert CircPoly(coeffs).channel_matrix().tobytes() == expected.tobytes()

    def test_scalar_poly_call(self):
        p = CircPoly.from_scalars([1, 0, -1], 2)  # u^2 - 1 per channel
        column = p.channel_matrix()[:, 0]
        assert np.polyval(column, 3.0) == pytest.approx(8.0)


def spread_poly(rng, d: int) -> CircPoly:
    """Coefficients whose moduli spread over 1e-16..1: the smallest row's
    spectra fall below the snap threshold of the largest."""
    return CircPoly(
        [cf.Circulant(s * (rng.standard_normal(d) + 1j * rng.standard_normal(d))) for s in (1.0, 1e-4, 1e-10, 1e-16)]
    )


class TestSpectralCache:
    """The raw spectra and moduli a CircPoly caches give every consumer the
    bits of the uncached formulas."""

    @pytest.mark.parametrize("d", [32, 33, 64, 255, 256, 1000, 1024, 8192])
    def test_fft_rows_do_not_depend_on_the_batch(self, rng, d):
        rows = rng.standard_normal((5, d)) + 1j * rng.standard_normal((5, d))
        batch = forward_rows(rows)
        for k in range(rows.shape[0]):
            assert batch[k].tobytes() == np.fft.fft(rows[k]).tobytes()

    @pytest.mark.parametrize("d", [32, 33, 255, 1024])
    def test_ring_horner_reads_the_cached_spectra(self, rng, d):
        p = random_regular_poly(rng, d, 3)
        rows = [c.row for c in p.coeffs]
        for z in (random_circulant(rng, d), random_circulant(rng, d)):  # the second reads the cache
            stacked = np.fft.fft(np.stack(rows + [z.row]), axis=-1)
            expected = np.fft.ifft(_horner(stacked[:-1], stacked[-1]))
            assert p.evaluate(z).row.tobytes() == expected.tobytes()
        assert p._spectra is not None

    @pytest.mark.parametrize("d", [2, 7, 31, 32, 100])
    @pytest.mark.parametrize("spread", [False, True])
    def test_cached_arrays_equal_the_uncached_formulas(self, rng, d, spread):
        p = spread_poly(rng, d) if spread else random_regular_poly(rng, d, 3)
        raw = forward_rows(np.stack([c.row for c in p.coeffs]))
        top = np.max(np.abs(raw))
        cm = raw.copy()
        cm[np.abs(cm) <= SPECTRAL_SNAP_REL_TOL * top] = 0.0
        nonzero = np.abs(cm) > COEFFICIENT_REL_TOL * top
        degrees = cm.shape[0] - 1 - np.argmax(nonzero, axis=0)
        degrees[~np.any(nonzero, axis=0)] = -1
        assert p.channel_matrix().tobytes() == cm.tobytes() and p._scale == float(top)
        assert np.array_equal(p.channel_degrees(), degrees)
        u = rng.standard_normal((3, d)) + 1j * rng.standard_normal((3, d))
        dp, value, scale = _quotient_terms(p, u)
        assert scale.tobytes() == _horner(np.abs(cm), np.abs(u)).tobytes()
        assert value.tobytes() == _horner(cm, u).tobytes()
        # The channel matrix is the raw spectra unless an entry snaps; then a copy.
        snapped = not np.array_equal(raw, cm)
        assert snapped == spread
        assert (p.channel_matrix() is p._raw_spectra()) != snapped
        assert np.shares_memory(p.channel_matrix(), p._raw_spectra()) != snapped
        assert p._raw_spectra().tobytes() == raw.tobytes()

    def test_every_cached_array_is_read_only(self, rng):
        for p in (random_regular_poly(rng, 33, 3), spread_poly(rng, 8)):
            p.evaluate(random_circulant(rng, p.d))
            p.channel_degrees()
            for array in (p._raw_spectra(), p.channel_matrix(), p._moduli, p.channel_degrees()):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 0

    @pytest.mark.parametrize("spread", [False, True])
    def test_moduli_are_the_moduli_of_the_channel_matrix(self, rng, spread):
        # One modulus pass, with the snapped entries zeroed: the same bits as
        # a second pass over the channel matrix, snapped zeros included.
        p = spread_poly(rng, 8) if spread else random_regular_poly(rng, 8, 3)
        cm = p.channel_matrix()
        assert np.any(cm == 0) == spread
        assert p._moduli.tobytes() == np.abs(cm).tobytes()
        assert p._moduli is p._moduli


def allocating_polyval_with_scale(coeffs, u):
    """The Horner loop that allocates new value and scale arrays each step:
    the reference the in-place kernel must reproduce bit for bit."""
    u = np.asarray(u, dtype=np.complex128)
    absu = np.abs(u)
    value = np.zeros_like(u)
    scl = np.zeros(u.shape, dtype=np.float64)
    for row in coeffs:
        value = value * u + row
        scl = scl * absu + np.abs(row)
    return value, scl


def in_place_row_horner(coeffs, z):
    """The solver's former row-wise ``np.polyval``, multiplying in place:
    row i of ``coeffs`` evaluated at row i of ``z``."""
    value = np.zeros_like(z)
    for k in range(coeffs.shape[1]):
        np.multiply(value, z, out=value)
        np.add(value, coeffs[:, k : k + 1], out=value)
    return value


def assert_same_bits(actual, expected):
    for a, e in zip(actual, expected):
        assert a.shape == e.shape and a.dtype == e.dtype
        assert a.tobytes() == e.tobytes()


class TestPolyvalWithScale:
    """The in-place Horner kernel of the residual gate and the channel model
    gives the allocating loop's values and scales bit for bit."""

    # One entry matters: numpy multiplies a one-entry complex array into
    # itself by a loop that can round differently from ``value * u``.
    @pytest.mark.parametrize("u_shape", [(), (1,), (1, 1), (5,), (3, 4)])
    def test_one_polynomial(self, rng, u_shape):
        u = rng.standard_normal(u_shape) + 1j * rng.standard_normal(u_shape)
        for coeffs in (
            rng.standard_normal(6) + 1j * rng.standard_normal(6),
            np.array([1.0, 0.0, -2.0, 0.5]),
            [3, -1, 0, 2],
            [2.0 - 1.0j],
        ):
            assert_same_bits(polyval_with_scale(coeffs, u), allocating_polyval_with_scale(coeffs, u))

    @pytest.mark.parametrize("d", [2, 12, FFT_THRESHOLD - 1, FFT_THRESHOLD, 64])
    def test_channel_matrix_against_spectra(self, rng, d):
        cm = random_regular_poly(rng, d, 4).channel_matrix()
        rows = 10.0 ** rng.uniform(-3, 3, (40, d)) * np.exp(2j * np.pi * rng.uniform(size=(40, d)))
        spectra = forward_rows(rows)
        # As the residual gate reads it: one column per channel against (N, d).
        assert_same_bits(
            polyval_with_scale(cm[:, None, :], spectra),
            allocating_polyval_with_scale(cm[:, None, :], spectra),
        )
        # As the channel model reads it: against one spectrum, and (S, d).
        for u in (spectra[0], spectra[:7]):
            assert_same_bits(polyval_with_scale(cm, u), allocating_polyval_with_scale(cm, u))

    @pytest.mark.parametrize("m, n", [(9, 5), (1, 1), (1, 3)])
    def test_scalar_solver_blocks(self, rng, m, n):
        # Monic rows against their own root approximations, shape (m, n);
        # one linear row is the solver's one-entry case.
        block = np.hstack([np.ones((m, 1)), rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))])
        for _ in range(20):
            z = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
            assert_same_bits(
                polyval_with_scale(block.T[:, :, None], z),
                allocating_polyval_with_scale(block.T[:, :, None], z),
            )

    @pytest.mark.parametrize("m, n", [(1, 1), (1, 2), (1, 5), (9, 5), (128, 8)])
    @pytest.mark.parametrize("rows", ["real", "complex"])
    def test_solver_kernel_matches_the_in_place_loop(self, rng, m, n, rows):
        # One pass over P's rows beside P''s gives, bit for bit, what the
        # solver's row-wise in-place loop gave on monic and dcoef separately.
        for _ in range(20):
            c = rng.standard_normal((m, n + 1))
            if rows == "complex":
                c = c + 1j * rng.standard_normal((m, n + 1))
            monic = c / c[:, :1]
            dcoef = monic[:, :-1] * np.arange(n, 0, -1)
            points = [rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))]
            if rows == "real":  # real roots of real rows stay real, as a NaN row's do
                points.append(rng.standard_normal((m, n)))
            for z in points:
                p, dp = _horner(_with_derivative(monic.T[:, :, None]), z)
                assert_same_bits([p, dp], [in_place_row_horner(monic, z), in_place_row_horner(dcoef, z)])
                assert_same_bits([_horner(monic.T[:, :, None], z)], [in_place_row_horner(monic, z)])


class TestClassify:
    def test_identity_leading_is_regular(self):
        assert cf.classify(CircPoly([cf.identity(3), cf.ones(3)])).regular

    def test_units_leading_is_singular(self):
        for d in (2, 3, 5):
            verdict = cf.classify(CircPoly([cf.ones(d), cf.identity(d)]))
            assert not verdict.regular
            assert verdict.vanishing_channels == tuple(range(2, d + 1))

    def test_invertible_row_is_regular(self):
        verdict = cf.classify(CircPoly([cf.Circulant([2, 1]), cf.zero(2)]))
        assert verdict.regular
        assert verdict.vanishing_channels == ()


class TestFuncEval:
    def test_rational_reciprocal_is_pseudoinverse(self):
        d = 2
        f = RationalFunction(CircPoly([cf.identity(d)]), CircPoly.from_scalars([1, 0], d))
        z = cf.Circulant([2, 1])
        assert_circ_close(f.evaluate(z), cf.pseudoinverse(z), 1e-12)
        assert_circ_close(f.evaluate(z), cf.Circulant([2 / 3, -1 / 3]), 1e-12)

    def test_exppoly_with_zero_exponent_is_polynomial(self, rng):
        d = 3
        f = ExpPolyFunction(CircPoly([cf.identity(d)]), CircPoly([cf.zero(d)]))
        assert_circ_close(f.evaluate(random_circulant(rng, d)), cf.identity(d), 1e-12)

    def test_rational_flags_rank_deficient_channels(self):
        d = 2
        q = CircPoly([cf.identity(d), cf.ones(d)])  # Z + E
        f = RationalFunction(CircPoly([cf.identity(d)]), q)
        z = cf.scale(1.5, cf.ones(d))  # spectrum (3, 0): channel 2 of Q vanishes
        value, zeroed = f.evaluate_with_report(z)
        assert zeroed == (2,)
        assert abs(cf.spectrum(value)[1]) <= 1e-12

    @pytest.mark.parametrize("cls", [CircFunction, RationalFunction])
    def test_rank_threshold_at_zero_and_nan(self, cls):
        # Q = Z vanishes on every channel at Z = 0, which zeroes and reports
        # every one; at a NaN point the threshold is NaN, which reports none.
        d = 3
        f = cls(CircPoly([cf.identity(d)]), CircPoly.from_scalars([1, 0], d))
        value, zeroed = f.evaluate_with_report(cf.zero(d))
        assert zeroed == (1, 2, 3) and not np.any(value.row)
        assert f.evaluate_with_report(cf.Circulant([np.nan, 0.0, 0.0]))[1] == ()

    @pytest.mark.parametrize("d", [8, 31, 32, 64])
    def test_rational_is_the_ring_product_with_the_pseudoinverse(self, rng, d):
        # The value is the ring product P(Z) Q(Z)^+ to rounding, below
        # FFT_THRESHOLD as at it: the channel rule is the path at every
        # order.  The report is the pseudoinverse's.
        p, q = random_regular_poly(rng, d, 3), random_regular_poly(rng, d, 2)
        z = random_circulant(rng, d)
        value, zeroed = RationalFunction(p, q).evaluate_with_report(z)
        inverse, ring_zeroed = _pinv_row(q.evaluate(z))
        ring = cf.mul(p.evaluate(z), cf.Circulant(inverse))
        assert cf.frobenius_norm(value - ring) <= 1e-12 * cf.frobenius_norm(ring)
        assert zeroed == tuple((np.flatnonzero(ring_zeroed) + 1).tolist())

    @pytest.mark.parametrize("scale", [1.0, 1e-7])
    @pytest.mark.parametrize("spread", [False, True])
    @pytest.mark.parametrize("d", [2, 8, 31, 32, 64])
    def test_rational_channel_path_at_fft_orders(self, rng, d, spread, scale):
        # At every order, below FFT_THRESHOLD as at it, the value is
        # P_i(u_i) / Q_i(u_i), bit for bit, on the raw spectra that ring
        # Horner reads, not on the snapped channel matrices: with coefficients
        # spread over 1e-16..1 the smallest row snaps, yet near Z = 0 it is
        # the largest term.  Where nothing snaps that is the channel rule's
        # value.  The dense oracle: value Q(Z) = P(Z).  The report is the
        # pseudoinverse's.
        if spread:
            p, q = spread_poly(rng, d), spread_poly(rng, d)
        else:
            p, q = random_regular_poly(rng, d, 3), random_regular_poly(rng, d, 3)
        z = cf.scale(scale, random_circulant(rng, d))
        f = RationalFunction(p, q)
        value, zeroed = f.evaluate_with_report(z)
        u = cf.spectrum(z)
        quotient = _horner(p._raw_spectra(), u) / _horner(q._raw_spectra(), u)
        assert np.array_equal(value.row, cf.from_spectrum(quotient).row)
        if not spread:
            assert np.array_equal(value.row, cf.from_spectrum(f.channel_values(u)).row)
        assert zeroed == tuple((np.flatnonzero(_pinv_row(q.evaluate(z))[1]) + 1).tolist()) == ()
        dense_z = cf.to_dense(z)
        lhs = dense_mul(cf.to_dense(value), dense_horner(q, dense_z))
        rhs = dense_horner(p, dense_z)
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(rhs)

    @pytest.mark.parametrize("d", [16, 64])
    def test_rational_at_a_nan_point_is_nan_on_both_paths(self, d):
        # A NaN raises no floating-point flag, and at its NaN rank threshold
        # the channel rule would keep no channel and give 0; the ring product
        # gives NaN, below FFT_THRESHOLD and at FFT orders alike.
        f = RationalFunction(CircPoly.from_scalars([1, 2], d), CircPoly.from_scalars([1, 3], d))
        with np.errstate(all="ignore"):
            value, zeroed = f.evaluate_with_report(cf.Circulant(np.full(d, np.nan)))
        assert np.isnan(value.row).all() and zeroed == ()

    @pytest.mark.parametrize("d", [32, 64, 1024])
    def test_planted_vanishing_channel_is_zeroed_on_both_paths(self, rng, d):
        # Q = Z - u_8 I vanishes on channel 8 at Z.  The channel path zeroes
        # and reports it, as the ring product with the pseudoinverse does.
        z = random_circulant(rng, d)
        p = random_regular_poly(rng, d, 3)
        q = CircPoly([cf.identity(d), cf.scale(-cf.spectrum(z)[7], cf.identity(d))])
        value, zeroed = RationalFunction(p, q).evaluate_with_report(z)
        inverse, ring_zeroed = _pinv_row(q.evaluate(z))
        ring = cf.mul(p.evaluate(z), cf.Circulant(inverse))
        assert zeroed == tuple((np.flatnonzero(ring_zeroed) + 1).tolist()) == (8,)
        assert np.max(np.abs(value.row - ring.row)) <= 1e-13 * np.max(np.abs(ring.row))

    def test_rational_inverts_an_overflowing_spectrum_scaled(self):
        # Q(Z) = Z = circ(1e308, 1e308) has the spectrum (2e308, 0): channel 1
        # overflows, which zeroed both channels, and channel 2 is exactly 0.
        d = 2
        f = RationalFunction(CircPoly([cf.identity(d)]), CircPoly([cf.identity(d), cf.zero(d)]))
        z = cf.Circulant([1e308, 1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            value, zeroed = f.evaluate_with_report(z)
            expected = cf.pseudoinverse(z)
        assert value.row.tobytes() == expected.row.tobytes()
        assert zeroed == (2,)
        np.testing.assert_allclose(value.row, [2.5e-309, 2.5e-309], rtol=1e-12, atol=0)

    def test_report_evaluates_q_once(self, monkeypatch, rng):
        # One Horner pass per part: Q's values give both the quotient and
        # the report of zeroed channels.
        d = 4
        f = CircFunction(random_regular_poly(rng, d, 2), random_regular_poly(rng, d, 1), random_regular_poly(rng, d, 1))
        z = random_circulant(rng, d)
        expected = f.evaluate_with_report(z)
        calls = []
        monkeypatch.setattr(cf.functions, "_horner", lambda *args: calls.append(1) or _horner(*args))
        value, zeroed = f.evaluate_with_report(z)
        assert len(calls) == 3
        assert value.row.tobytes() == expected[0].row.tobytes() and zeroed == expected[1] == ()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("row, channels", [([2.0, 1.0], (1, 2)), ([0.5, -0.5], (2,))])
    def test_exp_overflow_names_the_channels(self, row, channels):
        # G = 1000 Z: exp(G_i(u_i)) overflows where Re u_i > 0.71.  The
        # spectrum of circ(2, 1) is (3, 1), that of circ(0.5, -0.5) is (0, 1).
        d = 2
        f = ExpPolyFunction(CircPoly([cf.identity(d)]), CircPoly.from_scalars([1000, 0], d))
        z = cf.Circulant(row)
        for call in (f.evaluate, f.derivative):
            with pytest.raises(ChannelSingularityError, match=r"^exp\(G\) overflows at channel\(s\) ") as info:
                call(z)
            assert info.value.channels == channels

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("row, channels", [([1.0, 0.0], (1, 2)), ([0.5, 0.5], (1,))])
    def test_product_overflow_names_the_channels(self, row, channels):
        # P = 1e300 I, G = 700 Z: exp(700) is finite, 1e300 exp(700) is not.
        # The spectrum of circ(1, 0) is (1, 1), that of circ(0.5, 0.5) is (1, 0).
        d = 2
        p, g = CircPoly([cf.scale(1e300, cf.identity(d))]), CircPoly.from_scalars([700, 0], d)
        z = cf.Circulant(row)
        with_q = CircFunction(p, CircPoly([cf.identity(d)]), g)
        for f, product in ((ExpPolyFunction(p, g), "P exp(G)"), (with_q, "P Q^+ exp(G)")):
            for call, what in ((f.evaluate, product), (f.derivative, "F'")):
                with pytest.raises(ChannelSingularityError) as info:
                    call(z)
                assert str(info.value) == f"{what} overflows at channel(s) {list(channels)}"
                assert info.value.channels == channels

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "u, message",
        [
            ([[0.0, 20.0], [800.0, 0.0]], "P exp(G) overflows at channel(s) [2]"),  # the first point wins
            ([[800.0, 20.0]], "exp(G) overflows at channel(s) [1]"),  # then the exponent, then the product
            ([[0.0, 0.0], [20.0, 800.0]], "exp(G) overflows at channel(s) [2]"),
        ],
        ids=["product-first-point", "exp-before-product", "exp-second-point"],
    )
    def test_exp_and_product_overflow_name_the_first_point_and_problem(self, u, message):
        # P = 1e300 I, G = Z: exp(u) overflows above 709.8, 1e300 exp(u) above 19.1.
        d = 2
        f = ExpPolyFunction(CircPoly([cf.scale(1e300, cf.identity(d))]), CircPoly.from_scalars([1, 0], d))
        with pytest.raises(ChannelSingularityError) as info:
            f.channel_values(np.array(u, dtype=complex))
        assert str(info.value) == message

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_exp_overflow_names_the_first_point_and_skips_non_finite_exponents(self):
        d = 2
        f = ExpPolyFunction(CircPoly([cf.identity(d)]), CircPoly.from_scalars([1000, 0], d))
        with pytest.raises(ChannelSingularityError) as info:
            f.channel_values(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0]], dtype=complex))
        assert info.value.channels == (2,)
        # A NaN exponent is no overflow: its channel is NaN, the other exp(0).
        value = f.channel_values(np.array([np.nan, 0.0], dtype=complex))
        assert np.isnan(value[0]) and value[1] == 1.0

    def test_rank_threshold_is_per_point(self, rng):
        # 1/Z at d = 2: a large second point must not zero the first one's channels.
        f = CircFunction(CircPoly.from_scalars([1], 2), CircPoly.from_scalars([1, 0], 2))
        u = np.array([[1e-3, 2e-3], [1e12, 1e12]], dtype=np.complex128)
        np.testing.assert_allclose(f.channel_values(u)[0], [1000, 500], rtol=1e-15)
        for d in (2, 7, 32):
            f = RationalFunction(random_regular_poly(rng, d, 2), random_regular_poly(rng, d, 2))
            u = rng.normal(size=(5, d)) + 1j * rng.normal(size=(5, d))
            u *= 10.0 ** rng.integers(-6, 7, size=(5, 1))
            batch = f.channel_values(u)
            for k in range(u.shape[0]):
                assert_same_bits([batch[k]], [f.channel_values(u[k])])

    def test_channel_consistency_all_kinds(self, rng):
        d = 4
        p = random_regular_poly(rng, d, 3)
        q = random_regular_poly(rng, d, 2)
        g = random_regular_poly(rng, d, 1)
        z = random_invertible_circulant(rng, d, lo=1.2, hi=2.0)
        u = cf.spectrum(z)
        for f in (PolyFunction(p), RationalFunction(p, q), ExpPolyFunction(p, g)):
            lhs = cf.spectrum(f.evaluate(z))
            rhs = f.channel_values(u)
            assert np.max(np.abs(lhs - rhs)) <= 1e-9 * max(1.0, np.max(np.abs(rhs)))

    def test_rational_requires_an_invertible_coefficient(self):
        d = 2
        meromorphic_denominator = CircPoly([cf.ones(d), cf.ones(d)])  # E(Z + I)
        with pytest.raises(ValueError):
            RationalFunction(CircPoly([cf.identity(d)]), meromorphic_denominator)


def channel_poly(cm) -> CircPoly:
    """CircPoly with the given channel matrix (rows leading first)."""
    return CircPoly([cf.from_spectrum(np.asarray(row, dtype=np.complex128)) for row in cm])


def one_of_each_kind(rng, d):
    p = random_regular_poly(rng, d, 3)
    return [
        PolyFunction(p),
        RationalFunction(p, random_regular_poly(rng, d, 2)),
        ExpPolyFunction(p, random_regular_poly(rng, d, 1)),
    ]


class TestChannelModel:
    @pytest.mark.parametrize("channels, message", [([3], "3"), (range(1, 3), "1, 2")])
    def test_singularity_default_message_names_the_channels(self, channels, message):
        error = ChannelSingularityError(channels)
        assert error.channels == tuple(channels)
        assert str(error) == f"singular at channel(s) {message}"

    @pytest.mark.parametrize("kind", [0, 1, 2], ids=["poly", "rational", "exppoly"])
    def test_restricted_logderiv_selects_columns(self, rng, kind):
        # A skip mask leaves every column's bits as they are without it.
        d = 7
        f = one_of_each_kind(rng, d)[kind]
        u = cf.spectrum(random_invertible_circulant(rng, d, lo=1.2, hi=2.0))
        full = f._logderiv(u)
        for skip in ([1, 0, 0, 0, 1, 0, 1], [1] * d, [0] * d):
            assert_same_bits([f._logderiv(u, np.array(skip, dtype=bool))], [full])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind", ["poly", "numerator", "denominator", "exppoly"])
    def test_restricted_singularity_names_original_channel(self, kind):
        # Z - A vanishes on channel index 3 at u; the call skips channels 0 and 2.
        d = 4
        u = np.array([2.0, 3.0 + 1.0j, -1.5j, 0.5 - 2.0j])
        a = np.array([7.0, 1.0, 1.0, u[3]])
        linear = channel_poly([np.ones(d), -a])
        one = CircPoly([cf.identity(d)])
        f = {
            "poly": PolyFunction(linear),
            "numerator": RationalFunction(linear, one),
            "denominator": RationalFunction(one, linear),
            "exppoly": ExpPolyFunction(linear, linear),
        }[kind]
        with pytest.raises(ChannelSingularityError) as err:
            f._logderiv(u, np.array([True, False, True, False]))
        assert err.value.channels == (4,)
        assert "channel(s) [4]" in str(err.value)
        assert f._logderiv(u, np.array([False, False, False, True])).shape == (d,)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind", ["poly", "rational", "exppoly"])
    def test_skipped_channels_are_not_checked(self, kind):
        # P is identically zero on channel index 1, where P'/P is 0/0, and
        # vanishes at u on channel index 3.  G = Z adds G' = 1.
        u = np.array([2.0, 3.0 + 1.0j, -1.5j, 0.5 - 2.0j])
        a = np.array([7.0, 0.0, 1.0, u[3]])
        p = channel_poly([[1.0, 0.0, 1.0, 1.0], -a])
        f = {
            "poly": PolyFunction(p),
            "rational": RationalFunction(p, CircPoly([cf.identity(4)])),
            "exppoly": ExpPolyFunction(p, channel_poly([np.ones(4), np.zeros(4)])),
        }[kind]
        for skip, named in (([0, 0, 0, 0], (2, 4)), ([0, 1, 0, 0], (4,)), ([0, 0, 0, 1], (2,))):
            with pytest.raises(ChannelSingularityError) as err:
                f._logderiv(u, np.array(skip, dtype=bool))
            assert err.value.channels == named
        dlog = f._logderiv(u, np.array([False, True, False, True]))
        dg = 1.0 if kind == "exppoly" else 0.0
        np.testing.assert_allclose(dlog[[0, 2]], 1 / (u[[0, 2]] - a[[0, 2]]) + dg, rtol=1e-15)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_logderiv_terms_leave_g_unevaluated(self):
        # G = 1e301 Z overflows at |u| = 1e8, and G' = 1e301 does not.
        d = 2
        g = CircPoly([cf.scale(1e301, cf.identity(d)), cf.zero(d)])
        f = ExpPolyFunction(CircPoly([cf.identity(d)]), g)
        assert np.array_equal(f._logderiv(np.array([[1e8, -1e8j]])), np.full((1, d), 1e301))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_g_prime_is_not_finite(self):
        # G = 1e308 Z^2: the P' rows of G' hold 2e308, so G' overflows quietly.
        d = 2
        g = CircPoly([cf.scale(1e308, cf.identity(d)), cf.zero(d), cf.zero(d)])
        f = ExpPolyFunction(CircPoly([cf.identity(d)]), g)
        assert not np.isfinite(f._logderiv(np.array([[1e3, -1e3j], [1e8, -1e8j]]))).any()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_witness_is_not_finite(self):
        # G = 1e308 Z^2 and the witness 1e308 Z: G' and the witness both
        # overflow at |u| = 1e3, and their difference is not finite, quietly.
        d = 2
        g = CircPoly([cf.scale(1e308, cf.identity(d)), cf.zero(d), cf.zero(d)])
        f = ExpPolyFunction(CircPoly([cf.identity(d)]), g)
        witness = PolyFunction(CircPoly([cf.scale(1e308, cf.identity(d)), cf.zero(d)]))
        u = np.array([[1e3, -1e3j]])
        assert not np.isfinite(f._logderiv(u, witness=witness.channel_values)).any()

    def test_degenerate_channels_ignore_the_exponent(self):
        # P vanishes identically on channel index 1, G on channel index 0.
        p = channel_poly([[1.0, 0.0, 2.0], [1.0, 0.0, 1.0]])
        g = channel_poly([[0.0, 1.0, 1.0]])
        assert ExpPolyFunction(p, g).degenerate_channels().tolist() == [False, True, False]
        assert PolyFunction(g).degenerate_channels().tolist() == [True, False, False]


def per_kind_values(f, u):
    """The per-kind channel values as PolyFunction, RationalFunction and
    ExpPolyFunction each wrote them before one class held the formulas."""
    p, _ = polyval_with_scale(f.P.channel_matrix(), u)
    if f.kind == "poly":
        return p
    if f.kind == "rational":
        q, _ = polyval_with_scale(f.Q.channel_matrix(), u)
        out = np.zeros_like(p)
        largest = np.max(np.abs(q), axis=-1, keepdims=True)  # each point on its own
        keep = np.abs(q) > RANK_REL_TOL * f.d * largest
        out[keep] = p[keep] / q[keep]
        return out
    g, _ = polyval_with_scale(f.G.channel_matrix(), u)
    return p * np.exp(g)


def per_kind_derivatives(f, u):
    dp, p, _ = _quotient_terms(f.P, u)
    if f.kind == "poly":
        return dp
    if f.kind == "rational":
        dq, q, q_scale = _quotient_terms(f.Q, u)
        _raise_on_zero([(q, q_scale, "denominator")])
        return (dp * q - dq * p) / (q * q)
    dg, g, _ = _quotient_terms(f.G, u)
    return (dp + p * dg) * np.exp(g)


def per_kind_logderiv(f, u, witness=None):
    """F'/F as each kind wrote it, with the witness values q taken off G'
    (a polynomial's G' is 0.0) before P'/P is added."""
    dp, p, p_scale = _quotient_terms(f.P, u)
    if f.kind == "rational":
        dq, q, q_scale = _quotient_terms(f.Q, u)
        _raise_on_zero([(p, p_scale, "numerator"), (q, q_scale, "denominator")])
        return dp / p - dq / q
    _raise_on_zero([(p, p_scale, "P")])
    dg = 0.0 if f.kind == "poly" else _quotient_terms(f.G, u)[0]
    if witness is not None:
        return dp / p + (dg - witness(u))
    return dp / p if f.kind == "poly" else dp / p + dg


class TestChannelFormulasBitwise:
    """The one general class gives each kind's channel values, derivatives
    and log-derivatives bit for bit as the per-kind formulas did: the same
    Horner passes, and no ``+ 0.0`` that would turn a -0.0 into 0.0."""

    @pytest.mark.parametrize("points", [None, 5], ids=["(d,)", "(S,d)"])
    @pytest.mark.parametrize("p_degree", [0, 3])
    @pytest.mark.parametrize("kind", ["poly", "rational", "exppoly"])
    @pytest.mark.parametrize("d", [2, 7, 32, 64])
    def test_matches_the_per_kind_formulas(self, rng, d, kind, p_degree, points):
        # A constant P gives P' = 0 exactly, so P'/P holds signed zeros.
        p = random_regular_poly(rng, d, p_degree)
        f = {
            "poly": lambda: PolyFunction(p),
            "rational": lambda: RationalFunction(p, random_regular_poly(rng, d, 2)),
            "exppoly": lambda: ExpPolyFunction(p, random_regular_poly(rng, d, 1, 0.5)),
        }[kind]()
        shape = (d,) if points is None else (points, d)
        u = rng.uniform(1.2, 2.0, shape) * np.exp(2j * np.pi * rng.uniform(size=shape))
        assert_same_bits([f.channel_values(u)], [per_kind_values(f, u)])
        assert_same_bits([f.channel_derivatives(u)], [per_kind_derivatives(f, u)])
        assert_same_bits([f.channel_logderiv(u)], [per_kind_logderiv(f, u)])
        witness = PolyFunction(random_regular_poly(rng, d, 0)).channel_values
        for skip in (False, rng.permutation(d) < max(1, d // 3)):
            assert_same_bits([f._logderiv(u, skip)], [per_kind_logderiv(f, u)])
            if kind != "rational":
                assert_same_bits([f._logderiv(u, skip, witness)], [per_kind_logderiv(f, u, witness)])


def dense_horner(poly: CircPoly, zd: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(zd)
    for c in poly.coeffs:
        acc = dense_mul(acc, zd) + cf.to_dense(c)
    return acc


def dense_expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring a 20-term Taylor sum."""
    halvings = max(0, int(np.ceil(np.log2(max(np.linalg.norm(a, 1), 1.0)))) + 1)
    a = a / 2.0**halvings
    term = total = np.eye(a.shape[0], dtype=np.complex128)
    for k in range(1, 21):
        term = dense_mul(term, a) / k
        total = total + term
    for _ in range(halvings):
        total = dense_mul(total, total)
    return total


def dense_value(f: CircFunction, z: cf.Circulant) -> np.ndarray:
    """P(Z) Q(Z)^+ exp(G(Z)) from d x d matrices: the oracle of evaluate."""
    zd = cf.to_dense(z)
    value = dense_horner(f.P, zd)
    if f.Q is not None:
        value = dense_mul(value, np.linalg.pinv(dense_horner(f.Q, zd)))
    if f.G is not None:
        value = dense_mul(value, dense_expm(dense_horner(f.G, zd)))
    return value


def rooted_poly(rng, d: int, degree: int, radius: float) -> CircPoly:
    """Monic polynomial whose channel roots lie within ``radius`` of 0."""
    roots = radius * np.sqrt(rng.uniform(size=(d, degree))) * np.exp(2j * np.pi * rng.uniform(size=(d, degree)))
    return channel_poly(np.array([np.poly(r) for r in roots]).T)


class TestGeneralFunctionProperty:
    """Random P, Q and G: the three kinds and the base class with all three
    parts agree with the dense oracle and with the difference quotient.
    Q's channel roots lie within 0.5 of 0 and the point's eigenvalues have
    moduli in [1.2, 2], so Q(Z) stays well conditioned."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(2, 6),
        degrees=st.tuples(st.integers(0, 3), st.integers(1, 2), st.integers(1, 2)),
    )
    def test_evaluate_and_derivative(self, seed, d, degrees):
        rng = np.random.default_rng(seed)
        p = random_regular_poly(rng, d, degrees[0])
        q = rooted_poly(rng, d, degrees[1], 0.5)
        g = CircPoly([cf.scale(0.4, c) for c in random_regular_poly(rng, d, degrees[2]).coeffs])
        z = random_invertible_circulant(rng, d, lo=1.2, hi=2.0)
        inc = IncrementSpec(direction=cf.identity(d), delta=1e-6)
        for f in (PolyFunction(p), RationalFunction(p, q), ExpPolyFunction(p, g), CircFunction(p, q, g)):
            expected = dense_value(f, z)
            value, zeroed = f.evaluate_with_report(z)
            assert zeroed == ()
            scale = max(1.0, np.linalg.norm(expected))
            assert np.linalg.norm(cf.to_dense(value) - expected) <= 1e-12 * scale
            exact = f.derivative(z)
            approx = cf.numeric_derivative(f, z, inc)
            scale = max(1.0, cf.frobenius_norm(exact), np.linalg.norm(expected))
            assert cf.frobenius_norm(approx - exact) <= 1e-4 * scale


class TestGeneralFunction:
    def test_parts_must_share_the_order(self):
        p2, p3 = CircPoly([cf.identity(2)]), CircPoly.from_scalars([1, 0], 3)
        with pytest.raises(DimensionError, match="Q has 3"):
            RationalFunction(p2, p3)
        with pytest.raises(DimensionError, match="G has 3"):
            CircFunction(p2, None, p3)

    def test_q_needs_an_invertible_coefficient(self):
        d = 2
        with pytest.raises(ValueError, match="Q needs"):
            CircFunction(CircPoly([cf.identity(d)]), CircPoly([cf.ones(d), cf.ones(d)]), CircPoly([cf.ones(d)]))

    def test_kinds_fix_their_parts(self, rng):
        p, q = random_regular_poly(rng, 3, 2), random_regular_poly(rng, 3, 1)
        assert (PolyFunction(p).Q, PolyFunction(p).G) == (None, None)
        assert (ExpPolyFunction(p, q).Q, ExpPolyFunction(p, q).G) == (None, q)
        assert [cls.LETTERS for cls in cf.functions.FUNCTION_KINDS.values()] == [("P",), ("P", "Q"), ("P", "G")]
        assert RationalFunction(p, q) == RationalFunction(p, q) != CircFunction(p, q)

    @pytest.mark.parametrize("part", ["P", "Q"])
    def test_singularity_names_the_part_by_letter(self, part):
        d = 2
        linear = CircPoly.from_scalars([1, -2], d)  # vanishes at u = 2
        one = CircPoly([cf.identity(d)])
        f = RationalFunction(linear, one) if part == "P" else RationalFunction(one, linear)
        with pytest.raises(ChannelSingularityError, match=f"^{part} vanishes at channel"):
            f.channel_logderiv(np.array([2.0, 3.0]))

    def test_base_reports_the_channels_q_zeroes(self):
        d = 2
        f = CircFunction(CircPoly([cf.identity(d)]), CircPoly([cf.identity(d), cf.ones(d)]), CircPoly([cf.zero(d)]))
        ring = RationalFunction(f.P, f.Q)
        z = cf.scale(1.5, cf.ones(d))  # spectrum (3, 0): Q = Z + E vanishes on channel 2
        (value, zeroed), (ring_value, ring_zeroed) = f.evaluate_with_report(z), ring.evaluate_with_report(z)
        assert zeroed == ring_zeroed == (2,)
        assert_circ_close(value, ring_value, 1e-12)


class TestDerivative:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_monomial_rule(self, n, rng):
        d = 4
        z = random_circulant(rng, d)
        expected = cf.scale(n, cf.power(z, n - 1))
        got = monomial(n, d).derivative(z)
        scale = max(1.0, cf.frobenius_norm(expected))
        assert cf.frobenius_norm(got - expected) / scale <= 1e-10

    def test_identity_function(self, rng):
        d = 3
        assert_circ_close(monomial(1, d).derivative(random_circulant(rng, d)), cf.identity(d), 1e-12)

    def test_rational_reciprocal_channels(self):
        # d/du (1/u) = -1/u^2 at u = (3, 1) gives channel values (-1/9, -1)
        d = 2
        f = RationalFunction(CircPoly([cf.identity(d)]), CircPoly.from_scalars([1, 0], d))
        got = f.derivative(cf.Circulant([2, 1]))
        np.testing.assert_allclose(cf.spectrum(got), [-1 / 9, -1], atol=1e-12)

    def test_rational_pole_raises_naming_channel(self):
        d = 2
        q = CircPoly([cf.identity(d), cf.ones(d)])
        f = RationalFunction(CircPoly([cf.identity(d)]), q)
        with pytest.raises(ChannelSingularityError) as err:
            f.derivative(cf.scale(2.0, cf.ones(d)))  # channel 2 of Q(Z) is zero
        assert err.value.channels == (2,)

    def test_exppoly_quotient(self, rng):
        d = 3
        p = random_regular_poly(rng, d, 2)
        g = random_regular_poly(rng, d, 1)
        f = ExpPolyFunction(p, g)
        z = random_circulant(rng, d)
        u = cf.spectrum(z)
        pm, gm = p.channel_matrix(), g.channel_matrix()
        by_hand = np.array([
            (np.polyval(np.polyder(pm[:, i]), u[i])
             + np.polyval(pm[:, i], u[i]) * np.polyval(np.polyder(gm[:, i]), u[i]))
            * np.exp(np.polyval(gm[:, i], u[i]))
            for i in range(d)
        ])
        got = cf.spectrum(f.derivative(z))
        assert np.max(np.abs(got - by_hand)) <= 1e-9 * max(1.0, np.max(np.abs(by_hand)))

    def test_product_rule_on_spectra(self, rng):
        d = 3
        p1 = random_regular_poly(rng, d, 2)
        p2 = random_regular_poly(rng, d, 2)
        z = random_circulant(rng, d)
        product = PolyFunction(p1 * p2)
        by_rule = cf.add(
            cf.mul(PolyFunction(p1).derivative(z), p2.evaluate(z)),
            cf.mul(p1.evaluate(z), PolyFunction(p2).derivative(z)),
        )
        got = product.derivative(z)
        scale = max(1.0, cf.frobenius_norm(by_rule))
        assert cf.frobenius_norm(got - by_rule) / scale <= 1e-8

    def test_leading_coefficient_by_interpolation(self, rng):
        # the derivative's channel i is a degree n-1 polynomial in u with
        # leading coefficient n * spectrum(A0)[i]
        d, n = 3, 4
        p = random_regular_poly(rng, d, n)
        f = PolyFunction(p)
        samples = 1.5 + np.arange(n, dtype=float)  # n nodes determine degree n-1
        lead = cf.spectrum(p.coeffs[0])
        for i in range(d):
            values = []
            for s in samples:
                u = np.ones(d, dtype=complex)
                u[i] = s
                values.append(cf.spectrum(f.derivative(cf.from_spectrum(u)))[i])
            fitted = np.polyfit(samples, np.array(values), n - 1)
            assert abs(fitted[0] - n * lead[i]) <= 1e-6 * max(1.0, abs(lead[i]))


def dense_derivative(poly: CircPoly, zd: np.ndarray) -> np.ndarray:
    """P'(Z) from d x d matrices: Horner over the rows (n - k) A_k."""
    n = poly.degree
    return dense_horner(CircPoly([cf.scale(n - k, c) for k, c in enumerate(poly.coeffs[:-1])]), zd)


class TestValuesReadTheRawSpectra:
    """A value or derivative at a matrix point reads the raw coefficient
    spectra, not the snapped channel matrices: a real coefficient at or below
    SPECTRAL_SNAP_REL_TOL times the largest one stays in the answer."""

    @pytest.mark.parametrize("d", [3, 64])
    def test_small_leading_coefficients_at_a_large_point(self, d):
        # P = 1e-15 Z^2 + Z at Z = 1e16 I, with Q = I or G = 0: the snapped
        # matrices drop 1e-15 and give I for F'(Z) = 21 I; likewise for
        # P = 1e-15 Z + I, I for P(Z) exp(0) = 11 I.
        eye, zero, z = cf.identity(d), cf.zero(d), cf.scale(1e16, cf.identity(d))
        p = CircPoly([cf.scale(1e-15, eye), eye, zero])
        for f in (PolyFunction(p), RationalFunction(p, CircPoly([eye])), ExpPolyFunction(p, CircPoly([zero]))):
            assert_circ_close(f.derivative(z), cf.scale(21.0, eye), 1e-13)
        exppoly = ExpPolyFunction(CircPoly([cf.scale(1e-15, eye), eye]), CircPoly([zero]))
        assert_circ_close(exppoly.evaluate(z), cf.scale(11.0, eye), 1e-13)

    @pytest.mark.parametrize("scale", [1.0, 1e-7])
    @pytest.mark.parametrize("d", [3, 64])
    def test_spread_coefficients_against_the_dense_oracles(self, rng, d, scale):
        # Coefficients spread over 1e-16..1 at a point near 0, where the
        # smallest row, which snaps, is the largest term of P and Q.
        p, q = spread_poly(rng, d), spread_poly(rng, d)
        g = CircPoly([cf.scale(0.01, c) for c in spread_poly(rng, d).coeffs])
        z = cf.scale(scale, random_invertible_circulant(rng, d, lo=0.5, hi=1.0))
        zd = cf.to_dense(z)
        pz, dpz, gz, dgz = dense_horner(p, zd), dense_derivative(p, zd), dense_horner(g, zd), dense_derivative(g, zd)
        q_inv = np.linalg.inv(dense_horner(q, zd))
        exp_g = dense_expm(gz)
        rational_derivative = dense_mul(dense_mul(dpz, dense_horner(q, zd)) - dense_mul(pz, dense_derivative(q, zd)), q_inv)
        expected = [
            (ExpPolyFunction(p, g).evaluate(z), dense_mul(pz, exp_g)),
            (PolyFunction(p).derivative(z), dpz),
            (RationalFunction(p, q).derivative(z), dense_mul(rational_derivative, q_inv)),
            (ExpPolyFunction(p, g).derivative(z), dense_mul(dpz + dense_mul(pz, dgz), exp_g)),
        ]
        for value, oracle in expected:
            assert np.linalg.norm(cf.to_dense(value) - oracle) <= 1e-9 * np.linalg.norm(oracle)


class TestNumericDerivative:
    def test_matches_channel_rule_for_square(self, rng):
        d = 4
        z = random_circulant(rng, d)
        f = monomial(2, d)
        inc = IncrementSpec(direction=cf.identity(d), delta=1e-6)
        exact = f.derivative(z)
        approx = cf.numeric_derivative(f, z, inc)
        rel = cf.frobenius_norm(approx - exact) / max(1.0, cf.frobenius_norm(exact))
        assert rel <= 1e-5

    def test_constant_function_is_exactly_zero(self, rng):
        d = 3
        f = PolyFunction(CircPoly([random_circulant(rng, d)]))
        inc = IncrementSpec(direction=cf.identity(d), delta=1e-4)
        got = cf.numeric_derivative(f, random_circulant(rng, d), inc)
        assert cf.frobenius_norm(got) == 0.0

    def test_error_scales_linearly_in_delta(self):
        d = 2
        f = monomial(3, d)
        z = cf.identity(d)
        exact = f.derivative(z)
        errors = []
        deltas = [1e-3, 1e-4, 1e-5, 1e-6]
        for delta in deltas:
            inc = IncrementSpec(direction=cf.identity(d), delta=delta)
            err = cf.frobenius_norm(cf.numeric_derivative(f, z, inc) - exact)
            errors.append(err)
        ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
        for r in ratios:  # first-order scheme: error drops ~10x per decade
            assert 5 <= r <= 20

    def test_non_invertible_direction_rejected(self):
        with pytest.raises(InvalidIncrementError):
            IncrementSpec(direction=cf.ones(2), delta=1e-6)

    def test_non_positive_delta_rejected(self):
        with pytest.raises(InvalidIncrementError):
            IncrementSpec(direction=cf.identity(2), delta=0.0)

    def test_random_direction_rational(self, rng):
        d = 3
        f = RationalFunction(random_regular_poly(rng, d, 2), random_regular_poly(rng, d, 1))
        z = random_invertible_circulant(rng, d, lo=2.0, hi=3.0)
        inc = IncrementSpec(direction=random_invertible_circulant(rng, d), delta=1e-6)
        exact = f.derivative(z)
        approx = cf.numeric_derivative(f, z, inc)
        rel = cf.frobenius_norm(approx - exact) / max(1e-12, cf.frobenius_norm(exact))
        assert rel <= 1e-4


class TestTransformCount:
    """FFT calls per evaluation, on fresh objects: no cache is warm."""

    @pytest.fixture
    def fft_calls(self, monkeypatch):
        calls = []

        def counted(kernel):
            return lambda *args, **kwargs: calls.append(1) or kernel(*args, **kwargs)

        for name in ("fft", "ifft"):
            monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
        return calls

    @pytest.mark.parametrize("d, expected", [(16, 0), (64, 4)])
    def test_rational_evaluation(self, fft_calls, rng, d, expected):
        # The spectrum of Z, P's and Q's stacked coefficient spectra, and one
        # inverse transform.
        f = RationalFunction(random_regular_poly(rng, d, 3), random_regular_poly(rng, d, 1))
        z = random_circulant(rng, d)
        fft_calls.clear()
        f.evaluate_with_report(z)
        assert len(fft_calls) == expected

    @pytest.mark.parametrize("d, expected", [(16, 0), (64, 10)])
    def test_difference_quotient(self, fft_calls, rng, d, expected):
        # Ring Horner at Z + dZ (P's spectra, Z + dZ, the inverse) and at Z
        # (Z, the inverse); the pseudoinverse of dZ (its spectrum, the
        # inverse); the ring product (both operands, the inverse).
        f = PolyFunction(random_regular_poly(rng, d, 3))
        z = random_circulant(rng, d)
        inc = IncrementSpec(direction=random_invertible_circulant(rng, d), delta=1e-6)
        fft_calls.clear()
        cf.numeric_derivative(f, z, inc)
        assert len(fft_calls) == expected
