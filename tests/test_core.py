import dataclasses
import pickle
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circfun as cf
from circfun import Circulant, DimensionError
from circfun.core import _norm2, _rescale_pow2
from circfun.spectral import inverse_rows
from circfun.testkit import dense_mul, random_circulant

from conftest import assert_circ_close


class TestConstructors:
    def test_elementary(self):
        assert_circ_close(cf.elementary(4), cf.Circulant([0, 1, 0, 0]), 0)

    def test_identity(self):
        assert_circ_close(cf.identity(3), cf.Circulant([1, 0, 0]), 0)

    def test_ones(self):
        assert_circ_close(cf.ones(2), cf.Circulant([1, 1]), 0)

    def test_zero(self):
        assert cf.frobenius_norm(cf.zero(5)) == 0.0

    @pytest.mark.parametrize("d", [-1, 0, 1])
    def test_order_too_small(self, d):
        for ctor in (cf.elementary, cf.identity, cf.ones, cf.zero):
            with pytest.raises(DimensionError, match=f"^order must be >= 2, got {d}$"):
                ctor(d)

    def test_from_row_single_entry_rejected(self):
        with pytest.raises(DimensionError):
            cf.Circulant([1.0])

    def test_from_row_requires_vector(self):
        with pytest.raises(DimensionError):
            cf.Circulant([[1, 2], [3, 4]])

    def test_rows_are_immutable(self):
        x = cf.ones(3)
        with pytest.raises(ValueError):
            x.row[0] = 5.0

    def test_slotted_instances_stay_frozen_and_pickle(self):
        x = cf.Circulant([1.0, 2.0 - 1j, 0.5])
        assert not hasattr(x, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            x.row = np.zeros(3)
        y = pickle.loads(pickle.dumps(x))
        assert np.array_equal(y.row, x.row)
        assert not y.row.flags.writeable


class TestRingOps:
    def test_shift_squares_to_identity_d2(self):
        c = cf.elementary(2)
        assert_circ_close(cf.mul(c, c), cf.identity(2), 0)

    def test_mul_small_example(self):
        # dense oracle: [[1,2],[2,1]] @ [[3,4],[4,3]] = [[11,10],[10,11]]
        product = cf.mul(cf.Circulant([1, 2]), cf.Circulant([3, 4]))
        assert_circ_close(product, cf.Circulant([11, 10]), 1e-12)
        dense = dense_mul(cf.to_dense(cf.Circulant([1, 2])), cf.to_dense(cf.Circulant([3, 4])))
        np.testing.assert_allclose(cf.to_dense(product), dense, atol=1e-12)

    def test_mul_identity_is_neutral(self, rng):
        for d in (2, 5, 16, 40):
            x = random_circulant(rng, d)
            assert_circ_close(cf.mul(x, cf.identity(d)), x, 1e-12)

    def test_mul_order_mismatch(self):
        for d in (2, 32):  # the direct and the FFT path
            with pytest.raises(DimensionError, match=f"^order mismatch: {d} vs {d + 1}$"):
                cf.mul(cf.ones(d), cf.ones(d + 1))

    def test_add_entrywise(self):
        assert_circ_close(cf.add(cf.Circulant([1, 0]), cf.Circulant([0, 1])), cf.ones(2), 0)

    def test_scale(self):
        assert_circ_close(cf.scale(2, cf.identity(2)), cf.Circulant([2, 0]), 0)

    def test_additive_inverse(self, rng):
        x = random_circulant(rng, 6)
        assert_circ_close(cf.add(x, cf.neg(x)), cf.zero(6), 0)

    def test_operator_sugar(self, rng):
        x, y = random_circulant(rng, 4), random_circulant(rng, 4)
        assert_circ_close(x + y, cf.add(x, y), 0)
        assert_circ_close(x - y, cf.add(x, cf.neg(y)), 0)
        assert_circ_close(2.0 * x, cf.scale(2.0, x), 0)
        assert_circ_close(x * y, cf.mul(x, y), 0)
        assert_circ_close(x**3, cf.power(x, 3), 0)
        assert_circ_close(-x, cf.neg(x), 0)
        assert_circ_close(x * 2, cf.scale(2, x), 0)

    def test_isclose_across_orders_and_repr(self):
        x = cf.Circulant([1, 0.5j])
        assert not x.isclose(cf.identity(3))
        assert repr(x) == "Circulant(d=2, row=[1.+0.j , 0.+0.5j])"

    @pytest.mark.parametrize(
        "op, symbol",
        [
            (lambda x: x + None, "+: 'Circulant' and 'NoneType'"),
            (lambda x: x - None, "-: 'Circulant' and 'NoneType'"),
            (lambda x: x * None, "*: 'Circulant' and 'NoneType'"),
            (lambda x: None * x, "*: 'NoneType' and 'Circulant'"),
        ],
        ids=["add", "sub", "mul", "rmul"],
    )
    def test_unsupported_operand_raises_type_error(self, op, symbol):
        with pytest.raises(TypeError, match=re.escape(f"unsupported operand type(s) for {symbol}")):
            op(cf.identity(2))


class TestPower:
    def test_cyclic_group_law_d3(self):
        assert_circ_close(cf.power(cf.elementary(3), 3), cf.identity(3), 1e-14)

    def test_power_one(self, rng):
        x = random_circulant(rng, 5)
        assert_circ_close(cf.power(x, 1), x, 0)

    def test_power_zero(self, rng):
        x = random_circulant(rng, 5)
        assert_circ_close(cf.power(x, 0), cf.identity(5), 0)

    def test_square_of_ones_row(self):
        # dense oracle: [[1,1],[1,1]]^2 = [[2,2],[2,2]]
        assert_circ_close(cf.power(cf.Circulant([1, 1]), 2), cf.Circulant([2, 2]), 1e-14)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            cf.power(cf.identity(2), -1)

    @pytest.mark.parametrize("d,k", [(2, 3), (5, 7), (12, 30), (31, 64)])
    def test_shift_powers_exact_on_naive_path(self, d, k):
        # below the FFT threshold the 0/1 convolutions stay exact
        expected = np.zeros(d)
        expected[k % d] = 1.0
        result = cf.power(cf.elementary(d), k)
        assert np.array_equal(result.row, expected.astype(complex))

    @pytest.mark.parametrize("d", [32, 45, 64])
    def test_shift_powers_fft_path(self, d):
        expected = np.zeros(d)
        expected[5 % d] = 1.0
        assert_circ_close(cf.power(cf.elementary(d), 5), cf.Circulant(expected), 1e-12)


class TestDense:
    def test_to_dense_example(self):
        np.testing.assert_array_equal(
            cf.to_dense(cf.Circulant([1, 2])), np.array([[1, 2], [2, 1]], dtype=complex)
        )

    def test_to_dense_pattern(self, rng):
        x = random_circulant(rng, 5)
        dense = cf.to_dense(x)
        for i in range(5):
            for j in range(5):
                assert dense[i, (i + j) % 5] == x.row[j]

    def test_frobenius_identity(self):
        assert cf.frobenius_norm(cf.identity(4)) == pytest.approx(2.0)

    def test_frobenius_matches_dense(self, rng):
        x = random_circulant(rng, 7)
        assert cf.frobenius_norm(x) == pytest.approx(np.linalg.norm(cf.to_dense(x)))

    @pytest.mark.parametrize("c", [1e-200, 1e200])
    def test_frobenius_neither_overflows_nor_underflows(self, c):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm = cf.frobenius_norm(Circulant([3 * c, 4 * c]))
        assert norm == pytest.approx(5 * c * np.sqrt(2), rel=1e-15, abs=0)

    def test_norm2_rescales_only_the_rows_out_of_range(self, rng):
        # In range, the bits are those of the plain formula; out of range, a
        # power-of-two scaling gives the exact 5 c.
        rows = np.abs(rng.standard_normal((6, 12)))
        rows[1], rows[3], rows[4] = [3e-200, 4e-200] + [0] * 10, [3e200, 4e200] + [0] * 10, 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norms = _norm2(rows)
        plain = [0, 2, 5]
        assert np.array_equal(norms[plain], np.sqrt(np.sum(np.square(rows[plain]), axis=1)))
        assert norms[1] == 5e-200 and norms[3] == pytest.approx(5e200, rel=1e-15) and norms[4] == 0.0


class TestMulAgainstDenseOracle:
    @pytest.mark.parametrize("d", [2, 3, 5, 8, 16, 33, 64])
    def test_random_pairs(self, d, rng):
        for _ in range(20):
            x, y = random_circulant(rng, d), random_circulant(rng, d)
            fast = cf.to_dense(cf.mul(x, y))
            dense = dense_mul(cf.to_dense(x), cf.to_dense(y))
            rel = np.linalg.norm(fast - dense) / np.linalg.norm(dense)
            assert rel <= 1e-10

    def test_commutativity_exact_both_paths(self, rng):
        for d in (2, 7, 16, 31, 32, 100):
            x, y = random_circulant(rng, d), random_circulant(rng, d)
            assert np.array_equal(cf.mul(x, y).row, cf.mul(y, x).row)
            assert np.array_equal(cf.mul_naive(x, y).row, cf.mul_naive(y, x).row)
            assert np.array_equal(cf.mul_fft(x, y).row, cf.mul_fft(y, x).row)

    @pytest.mark.parametrize("d", [33, 100, 257, 1024, 4096])
    def test_naive_and_fft_agree(self, d, rng):
        x, y = random_circulant(rng, d), random_circulant(rng, d)
        a, b = cf.mul_naive(x, y), cf.mul_fft(x, y)
        rel = np.max(np.abs(a.row - b.row)) / np.max(np.abs(b.row))
        assert rel <= 1e-10

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case", ["square", "times_identity", "random"])
    def test_fft_product_near_the_float_limit(self, case, rng):
        # At d = 64 an eigenvalue of each operand, or of their product, is
        # beyond the float range, while every entry of the product is a
        # float: circ(2.3e152, ...) squared is circ(3.3856e306, ...).  The
        # FFT product gave inf; it is taken again scaled by powers of two.
        d = 64
        if case == "square":
            x = y = cf.Circulant(np.full(d, 2.3e152))
        elif case == "times_identity":
            x, y = cf.Circulant(np.full(d, 1e307)), cf.identity(d)
        else:
            x, y = (cf.Circulant(1e153 * random_circulant(rng, d).row) for _ in range(2))
        fast, naive = cf.mul(x, y).row, cf.mul_naive(x, y).row
        assert np.all(np.isfinite(naive))
        assert np.max(np.abs(fast - naive)) <= 1e-14 * np.max(np.abs(naive))

    @pytest.mark.parametrize("d", [cf.core.FFT_THRESHOLD - 1, cf.core.FFT_THRESHOLD])
    def test_dispatch_is_fixed_at_the_threshold(self, d, rng):
        x, y = random_circulant(rng, d), random_circulant(rng, d)
        kernel = cf.mul_fft if d >= cf.core.FFT_THRESHOLD else cf.mul_naive
        assert np.array_equal(cf.mul(x, y).row, kernel(x, y).row)
        coeffs = [random_circulant(rng, d) for _ in range(4)]
        if d >= cf.core.FFT_THRESHOLD:
            # Ring Horner at FFT orders: one forward transform of the rows and
            # the point, the scalar loop over the channels, one inverse.
            spectra = np.fft.fft(np.stack([c.row for c in coeffs] + [x.row]), axis=-1)
            expected = np.fft.ifft(cf.core._horner(spectra[:-1], spectra[-1]))
        else:
            acc = coeffs[0]
            for c in coeffs[1:]:
                acc = cf.add(cf.mul(acc, x), c)
            expected = acc.row
        assert np.array_equal(cf.CircPoly(coeffs).evaluate(x).row, expected)
        assert cf.CircPoly(coeffs[:1]).evaluate(x).row.tobytes() == coeffs[0].row.tobytes()  # degree 0


#: Powers 2^k from near the bottom of the normal range to near the top, where
#: the products, transforms and norms below leave the float range.
RESCALE_POWERS = [*range(-900, 1015, 40), 1015]


def _times_pow2(values, k):
    """2^k values, exact wherever the result is a normal float."""
    values = np.asarray(values)
    return np.ldexp(values.view(np.float64), k).view(values.dtype)


def _assert_same_where_normal(actual, expected):
    """Equal bits in every real and imaginary part that is a normal float in ``expected``."""
    actual, expected = (np.asarray(v).view(np.float64) for v in (actual, expected))
    normal = (np.finfo(np.float64).tiny <= np.abs(expected)) & (np.abs(expected) <= np.finfo(np.float64).max)
    assert actual[normal].tobytes() == expected[normal].tobytes()


class TestPowerOfTwoRescale:
    def test_rescale_is_exact_with_the_largest_part_in_half_to_one(self, rng):
        parts = np.ldexp(rng.standard_normal((4, 12)), np.array([[-1000], [-3], [0], [1020]]))
        for x in (parts, parts.view(np.complex128), parts[3]):
            scaled, e = _rescale_pow2(x)
            assert scaled.dtype == x.dtype and e.shape == x.shape[:-1] + (1,)
            assert np.ldexp(scaled.view(np.float64), e).tobytes() == x.tobytes()
            largest = np.max(np.abs(scaled.view(np.float64)), axis=-1)
            assert np.all((0.5 <= largest) & (largest < 1.0))
        scaled, e = _rescale_pow2(np.zeros(3, dtype=np.complex128))
        assert not np.any(scaled) and e.tolist() == [0]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("d", [2, 3, 8, 31, 32, 64, 100])
    def test_scaling_by_a_power_of_two_keeps_every_bit(self, rng, d):
        # Each site that rescales (the FFT product, both inverse kernels, the
        # pseudoinverse's spectrum and the norm) scales with its input by 2^k
        # exactly, 2^-k for the pseudoinverse, out of the float range too.
        a, b = (rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(2))
        spectra = rng.standard_normal((3, d)) + 1j * rng.standard_normal((3, d))
        x, y = Circulant(a), Circulant(b)
        product, pinv, norm = cf.mul_fft(x, y).row, cf.pseudoinverse(x).row, cf.frobenius_norm(x)
        inverses = {fft: inverse_rows(spectra, fft) for fft in (False, True)}
        for k in RESCALE_POWERS:
            xk = Circulant(_times_pow2(a, k))
            _assert_same_where_normal(cf.mul_fft(xk, y).row, _times_pow2(product, k))
            _assert_same_where_normal(cf.pseudoinverse(xk).row, _times_pow2(pinv, -k))
            _assert_same_where_normal(cf.frobenius_norm(xk), _times_pow2(norm, k))
            for fft, rows in inverses.items():
                _assert_same_where_normal(inverse_rows(_times_pow2(spectra, k), fft), _times_pow2(rows, k))


finite_complex = st.complex_numbers(
    max_magnitude=1e3, allow_nan=False, allow_infinity=False
)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8).flatmap(lambda d: st.tuples(
    st.lists(finite_complex, min_size=d, max_size=d),
    st.lists(finite_complex, min_size=d, max_size=d),
)))
def test_mul_matches_dense_product_property(rows):
    x, y = Circulant(rows[0]), Circulant(rows[1])
    fast = cf.to_dense(cf.mul(x, y))
    dense = cf.to_dense(x) @ cf.to_dense(y)
    scale = max(np.linalg.norm(dense), 1.0)
    assert np.linalg.norm(fast - dense) / scale <= 1e-10


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8).flatmap(lambda d: st.tuples(
    st.lists(finite_complex, min_size=d, max_size=d),
    st.lists(finite_complex, min_size=d, max_size=d),
    st.lists(finite_complex, min_size=d, max_size=d),
)))
def test_ring_laws_property(rows):
    x, y, z = (Circulant(r) for r in rows)
    scale = max(cf.frobenius_norm(x), cf.frobenius_norm(y), cf.frobenius_norm(z), 1.0)
    tol = 1e-9 * scale * scale
    # distributivity
    lhs = cf.mul(x, cf.add(y, z))
    rhs = cf.add(cf.mul(x, y), cf.mul(x, z))
    assert np.max(np.abs(lhs.row - rhs.row)) <= tol
    # associativity
    lhs = cf.mul(cf.mul(x, y), z)
    rhs = cf.mul(x, cf.mul(y, z))
    assert np.max(np.abs(lhs.row - rhs.row)) <= tol * scale
