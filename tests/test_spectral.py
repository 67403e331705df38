import re
import warnings

import numpy as np
import pytest

import circfun as cf
from circfun.spectral import fourier_context, inverse_rows
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
            direct = fourier_context(d)[1] @ x.row
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

    @pytest.mark.parametrize("shape", [(1,), (2, 2)])
    def test_spectrum_must_be_a_vector_of_length_two(self, shape):
        message = f"spectrum must be a vector of length >= 2, got shape {shape}"
        with pytest.raises(cf.DimensionError, match=f"^{re.escape(message)}$"):
            cf.from_spectrum(np.ones(shape))

    def test_spectrum_of_reconstruction(self, rng):
        u = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        back = cf.spectrum(cf.from_spectrum(u))
        assert np.max(np.abs(back - u)) <= 1e-10

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "spectra, expected",
        [
            # The matmul kernel summed 2.39e308 and gave NaN.
            (np.array([[1.196e308, 1.196e308]]), np.array([[1.196e308, 0.0]])),
            # The FFT kernel summed 6.4e308 and gave inf.
            (np.full((1, 64), 1e307), np.eye(1, 64) * 1e307),
            # Entries at the float limit on both parts.
            (np.array([[1.7e308 + 1.7e308j, 1.7e308 - 1.7e308j]]), np.array([[1.7e308, 1.7e308j]])),
        ],
        ids=["d2", "d64", "d2-both-parts"],
    )
    def test_inverse_of_finite_values_near_the_float_limit(self, spectra, expected):
        rows = inverse_rows(spectra.astype(complex))
        assert np.all(np.isfinite(rows))
        assert np.max(np.abs(rows - expected)) <= 1e-15 * np.max(np.abs(expected))

    @pytest.mark.parametrize("d", [2, 7, 64])
    def test_only_the_overflowing_rows_are_taken_again(self, rng, d):
        plain = rng.standard_normal((4, d)) + 1j * rng.standard_normal((4, d))
        spectra = plain.copy()
        spectra[1] = 1e308
        spectra[3, 0] = np.inf  # not finite: left as the kernel gives it
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rows = inverse_rows(spectra)
        for i in (0, 2):
            assert rows[i].tobytes() == inverse_rows(plain[i : i + 1])[0].tobytes()
        assert np.all(np.isfinite(rows[1])) and abs(rows[1, 0] - 1e308) <= 1e293
        assert not np.all(np.isfinite(rows[3]))


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

    @pytest.mark.parametrize("rel_tol", [1.0, 2.0, 1e300])
    def test_tolerance_of_one_or_more_rejected(self, rel_tol):
        # At rel_tol >= 1 the threshold reaches the largest modulus, and
        # circ(2, 1), with eigenvalues 3 and 1, came back as the zero matrix.
        with pytest.raises(ValueError, match=r"^rel_tol must be in \[0, 1\), got "):
            cf.pseudoinverse(cf.Circulant([2, 1]), rel_tol=rel_tol)

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("rel_tol", [None, 0.0])
    def test_nan_entry_is_refused(self, rel_tol):
        # A NaN entry makes every eigenvalue NaN.  The rank threshold was NaN,
        # which no modulus cleared, and the pseudoinverse read 0; such a
        # value is NaN, not inverted to 0, and the entry is refused.
        x = cf.Circulant([np.nan, 1.0, 0.0])
        with pytest.raises(ValueError, match="^entries must be finite$"):
            cf.pseudoinverse(x, rel_tol)
        assert not cf.is_invertible(x)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("rel_tol", [None, 0.0])
    @pytest.mark.parametrize("d", [2, 64])
    def test_infinite_entry_is_refused_quietly(self, d, rel_tol):
        # An infinite entry is taken again as an overflow would be: that pass
        # warned "invalid value encountered in multiply" (and, below
        # FFT_THRESHOLD, "in matmul") before it gave the zero matrix.  No
        # eigenvalue is finite, so none is inverted to 0: the entry is refused.
        x = cf.Circulant([np.inf] + [0.0] * (d - 1))
        with pytest.raises(ValueError, match="^entries must be finite$"):
            cf.pseudoinverse(x, rel_tol)
        assert not cf.is_invertible(x)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("d", [2, 3, 31, 32, 64])
    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_an_entry_that_is_not_finite_is_refused(self, d, entry):
        # pseudoinverse(circ(nan, 1)) and circ(inf, 1) read the zero matrix
        # at every order, on both kernels, with no warning.
        with pytest.raises(ValueError, match="^entries must be finite$"):
            cf.pseudoinverse(cf.Circulant([entry, 1.0] + [0.0] * (d - 2)))


class TestFourierContext:
    @pytest.mark.parametrize("d", [2, 3, 7, 16, 64])
    def test_root_of_unity_closes(self, d):
        powers = cf.fourier_matrix(d)[1]  # omega^k, k = 0..d-1
        assert np.max(np.abs(np.abs(powers) - 1.0)) <= 1e-14
        assert abs(powers[1] ** d - 1.0) <= 1e-14
        assert np.max(np.abs(powers - powers[1] ** np.arange(d))) <= 1e-13

    def test_order_validated(self):
        with pytest.raises(cf.DimensionError):
            fourier_context(1)
        with pytest.raises(cf.DimensionError):
            cf.fourier_matrix(1)

    @pytest.mark.parametrize("d", [2, 7, 31])
    def test_context_is_the_read_only_pair(self, d):
        s, conj_s = fourier_context(d)
        assert s.tobytes() == cf.fourier_matrix(d).tobytes()
        assert conj_s.tobytes() == np.conj(s).tobytes()
        assert not s.flags.writeable and not conj_s.flags.writeable
        assert fourier_context(d) is fourier_context(d)

    def test_fourier_matrix_fills_no_cache(self):
        fourier_context.cache_clear()
        s = cf.fourier_matrix(64)
        s[0, 0] = 2.0  # a fresh, writable copy
        assert fourier_context.cache_info().currsize == 0
        assert cf.fourier_matrix(64)[0, 0] == 1.0


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
