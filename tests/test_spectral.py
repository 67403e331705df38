import warnings

import numpy as np
import pytest

import circfun as cf
from circfun.spectral import fourier_context
from circfun.testkit import (
    dense_conjugate,
    penrose_check,
    random_circulant,
    random_singular_circulant,
)

from conftest import assert_circ_close


class TestSpectrum:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_all_ones_concentrates_in_channel_one(self, p):
        u = cf.spectrum(cf.ones(p))
        expected = np.zeros(p, dtype=complex)
        expected[0] = p
        assert np.max(np.abs(u - expected)) <= 1e-12

    @pytest.mark.parametrize("d", [2, 4, 9, 33])
    def test_identity_spectrum_is_all_ones(self, d):
        assert np.max(np.abs(cf.spectrum(cf.identity(d)) - 1.0)) <= 1e-14

    def test_row_of_ones_d2(self):
        np.testing.assert_allclose(cf.spectrum(cf.Circulant([1, 1])), [2, 0], atol=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 8, 31, 32, 64])
    def test_shift_spectrum_is_conjugate_root_powers(self, d):
        omega_bar = np.exp(-2j * np.pi / d)
        expected = omega_bar ** np.arange(d)
        assert np.max(np.abs(cf.spectrum(cf.elementary(d)) - expected)) <= 1e-14

    def test_direct_and_fft_kernels_agree_across_threshold(self, rng):
        for d in (31, 32, 33):
            x = random_circulant(rng, d)
            u = cf.spectrum(x)
            fft = np.fft.fft(x.row)
            direct = fourier_context(d).conj_matrix @ x.row
            for other in (fft, direct):
                assert np.max(np.abs(u - other)) <= 1e-10 * max(1.0, np.max(np.abs(other)))

    def test_multiplicativity(self, rng):
        for d in (2, 5, 16, 40):
            x, y = random_circulant(rng, d), random_circulant(rng, d)
            lhs = cf.spectrum(cf.mul(x, y))
            rhs = cf.spectrum(x) * cf.spectrum(y)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))

    def test_dense_conjugation_is_diagonal_with_spectrum(self, rng):
        for d in (2, 3, 8, 17):
            x = random_circulant(rng, d)
            conj = dense_conjugate(x)
            off = conj - np.diag(np.diagonal(conj))
            assert np.max(np.abs(off)) <= 1e-9
            assert np.max(np.abs(np.diagonal(conj) - cf.spectrum(x))) <= 1e-9


class TestFromSpectrum:
    def test_all_ones_gives_identity(self):
        for d in (2, 6, 40):
            assert_circ_close(cf.from_spectrum(np.ones(d)), cf.identity(d), 1e-12)

    def test_hand_inverse_d2(self):
        assert_circ_close(cf.from_spectrum(np.array([2.0, 0.0])), cf.Circulant([1, 1]), 1e-14)

    def test_roundtrip(self, rng):
        for d in (2, 3, 17, 64):
            x = random_circulant(rng, d)
            assert_circ_close(cf.from_spectrum(cf.spectrum(x)), x, 1e-10)

    def test_spectrum_of_reconstruction(self, rng):
        u = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        back = cf.spectrum(cf.from_spectrum(u))
        assert np.max(np.abs(back - u)) <= 1e-10


class TestPseudoinverse:
    def test_identity(self):
        assert_circ_close(cf.pseudoinverse(cf.identity(5)), cf.identity(5), 1e-14)

    def test_ones_d2(self):
        assert_circ_close(cf.pseudoinverse(cf.ones(2)), cf.Circulant([0.25, 0.25]), 1e-12)

    def test_invertible_example(self):
        pinv = cf.pseudoinverse(cf.Circulant([2, 1]))
        assert_circ_close(pinv, cf.Circulant([2 / 3, -1 / 3]), 1e-12)
        assert_circ_close(cf.mul(cf.Circulant([2, 1]), pinv), cf.identity(2), 1e-12)

    def test_zero_maps_to_zero(self):
        assert_circ_close(cf.pseudoinverse(cf.zero(4)), cf.zero(4), 0)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            cf.pseudoinverse(cf.identity(2), rel_tol=-1.0)

    @pytest.mark.parametrize("rel_tol", [np.nan, np.inf, -np.inf])
    def test_non_finite_tolerance_rejected(self, rel_tol):
        # A NaN threshold would zero every channel of an invertible matrix.
        with pytest.raises(ValueError, match="rel_tol"):
            cf.pseudoinverse(cf.Circulant([2, 1]), rel_tol=rel_tol)

    def test_penrose_conditions_random(self, rng):
        worst = 0.0
        for _ in range(100):
            d = int(rng.integers(2, 9))
            if rng.uniform() < 0.5:
                x = random_singular_circulant(rng, d, int(rng.integers(1, d)))
            else:
                x = random_circulant(rng, d)
            worst = max(worst, penrose_check(x, cf.pseudoinverse(x)).max_deviation)
        assert worst <= 1e-9

    def test_is_invertible(self, rng):
        assert cf.is_invertible(cf.identity(4))
        assert not cf.is_invertible(cf.ones(4))
        assert not cf.is_invertible(cf.zero(3))

    @pytest.mark.parametrize("rel_tol", [None, 0.0])
    def test_overflowing_spectrum_is_taken_scaled(self, rel_tol):
        # Channel 1 holds 1/(2e308): the plain spectrum overflows, which
        # zeroed every channel.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            pinv = cf.pseudoinverse(cf.Circulant([1e308, 1e308]), rel_tol)
        np.testing.assert_allclose(pinv.row, [2.5e-309, 2.5e-309], rtol=1e-12, atol=0)

    def test_overflowing_spectrum_scales_back(self, rng):
        # pinv(2^1021 Y) = 2^-1021 pinv(Y); every entry of Y is at least 1, so channel 1 overflows.
        y = cf.Circulant(1.0 + 0.5 * rng.uniform(size=8) + 0.5j * rng.uniform(size=8))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            pinv = cf.pseudoinverse(cf.Circulant(2.0**1021 * y.row))
        np.testing.assert_allclose(pinv.row, 2.0**-1021 * cf.pseudoinverse(y).row, rtol=1e-9, atol=0)

    def test_overflowing_spectrum_is_invertible(self):
        # The largest eigenvalue, 2.9e308, overflows: the rank threshold is
        # inf and no modulus cleared it.  The row / 4 is in range.
        x = cf.Circulant([1e308, 1e308, 0.9e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cf.is_invertible(x)
            assert cf.is_invertible(cf.Circulant(x.row / 4))
            assert not cf.is_invertible(cf.Circulant([1e308, 1e308]))  # spectrum (2e308, 0)

    @pytest.mark.parametrize("d", [2, 8, 33])
    def test_in_range_rows_take_one_transform(self, rng, d, monkeypatch):
        calls = []
        forward = cf.spectral.forward_rows
        monkeypatch.setattr(cf.spectral, "forward_rows", lambda rows: calls.append(rows) or forward(rows))
        x = random_circulant(rng, d)
        for fn in (cf.is_invertible, cf.pseudoinverse):
            calls.clear()
            fn(x)
            assert len(calls) == 1
        calls.clear()
        cf.is_invertible(cf.Circulant(np.full(d, 1e308)))
        assert len(calls) == 2  # the overflowing row is taken again, scaled

    @pytest.mark.parametrize("rel_tol", [None, 0.0])
    def test_nan_spectrum_keeps_no_channel(self, rel_tol):
        # A NaN spectrum makes the rank threshold NaN, which no modulus clears.
        x = cf.Circulant([np.nan, 1.0, 0.0])
        assert not np.any(cf.pseudoinverse(x, rel_tol).row)
        assert not cf.is_invertible(x)


class TestFourierContext:
    @pytest.mark.parametrize("d", [2, 3, 7, 16, 64])
    def test_root_of_unity_closes(self, d):
        from circfun.spectral import fourier_context

        omega = fourier_context(d).omega
        assert abs(abs(omega) - 1.0) <= 1e-14
        assert abs(omega**d - 1.0) <= 1e-14

    def test_order_validated(self):
        from circfun.spectral import fourier_context

        with pytest.raises(cf.DimensionError):
            fourier_context(1)


class TestFourierMatrix:
    def test_d2(self):
        np.testing.assert_array_equal(cf.fourier_matrix(2), np.array([[1, 1], [1, -1]], dtype=complex))

    def test_first_row_all_ones(self):
        for d in (2, 5, 12):
            np.testing.assert_array_equal(cf.fourier_matrix(d)[0], np.ones(d, dtype=complex))

    def test_wraparound_entry_d4(self):
        # (0-based) entry (2, 2) carries omega^4 = 1 for d = 4
        assert cf.fourier_matrix(4)[2, 2] == 1.0 + 0.0j

    @pytest.mark.parametrize("d", [2, 3, 16, 64])
    def test_scaled_matrix_is_unitary(self, d):
        s = cf.fourier_matrix(d) / np.sqrt(d)
        assert np.max(np.abs(s @ s.conj().T - np.eye(d))) <= 1e-10

    @pytest.mark.parametrize("d", [2, 8, 64])
    def test_explicit_inverse(self, d):
        s = cf.fourier_matrix(d)
        s_inv = np.conj(s) / d
        assert np.max(np.abs(s @ s_inv - np.eye(d))) <= 1e-10
