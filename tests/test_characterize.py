import numpy as np
import pytest

import circfun as cf
from circfun import (
    ChannelSingularityError,
    CircPoly,
    ExpPolyFunction,
    PathSpec,
    PolyFunction,
    RationalFunction,
)
from circfun.characterize import _analyze_sequence, _scan
from circfun.spectral import forward_rows, from_spectrum, spectrum
from circfun.testkit import (
    dense_conjugate,
    random_circulant,
    random_invertible_circulant,
    random_regular_poly,
)


def reciprocal(d: int) -> RationalFunction:
    return RationalFunction(CircPoly([cf.identity(d)]), CircPoly.from_scalars([1, 0], d))


def mixed_rational(d: int = 2) -> RationalFunction:
    # (E Z^3 + Z) / (Z^2 + I): channel degrees (3, 1) over (2, 2)
    e, i, o = cf.ones(d), cf.identity(d), cf.zero(d)
    return RationalFunction(CircPoly([e, o, i, o]), CircPoly([i, o, i]))


class TestLogDerivDiag:
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_monomials_give_constant_degree(self, n, rng):
        d = 4
        f = PolyFunction(CircPoly.from_scalars([1] + [0] * n, d))
        z = random_invertible_circulant(rng, d, lo=0.5, hi=4.0)
        values = cf.logderiv_diag(f, z)
        assert np.max(np.abs(values - n)) <= 1e-12

    def test_reciprocal_gives_minus_one(self, rng):
        d = 3
        z = random_invertible_circulant(rng, d)
        values = cf.logderiv_diag(reciprocal(d), z)
        assert np.max(np.abs(values + 1)) <= 1e-10

    def test_mixed_instance_formula(self):
        f = mixed_rational()
        u = np.array([7.0 + 1.0j, -3.0 + 2.0j])
        z = cf.from_spectrum(u)
        got = cf.logderiv_diag(f, z)
        # channel functions: (2u^3 + u)/(u^2 + 1) and u/(u^2 + 1)
        f1 = lambda u: u * ((6 * u**2 + 1) / (2 * u**3 + u) - 2 * u / (u**2 + 1))
        f2 = lambda u: u * (1 / u - 2 * u / (u**2 + 1))
        np.testing.assert_allclose(got, [f1(u[0]), f2(u[1])], atol=1e-10)

    def test_matches_dense_conjugation(self, rng):
        d = 3
        f = RationalFunction(random_regular_poly(rng, d, 3), random_regular_poly(rng, d, 2))
        z = random_invertible_circulant(rng, d, lo=2.0, hi=3.0)
        fz = f.evaluate(z)
        product = cf.mul(cf.mul(z, f.derivative(z)), cf.pseudoinverse(fz))
        diag = np.diagonal(dense_conjugate(product))
        assert np.max(np.abs(diag - cf.logderiv_diag(f, z))) <= 1e-8

    def test_zero_channel_raises(self):
        d = 2
        f = PolyFunction(CircPoly.from_scalars([1, -1], d))  # Z - I
        with pytest.raises(ChannelSingularityError):
            cf.logderiv_diag(f, cf.identity(d))


class TestPathSpec:
    def test_default_direction_unit_modulus(self):
        path = PathSpec.default(5)
        assert np.max(np.abs(np.abs(path.direction) - 1)) <= 1e-12
        assert path.scales[0] == pytest.approx(1e3)
        assert path.scales[-1] == pytest.approx(1e8)

    def test_rejects_bad_directions(self):
        with pytest.raises(ValueError):
            PathSpec(direction=np.array([1.0, 0.0]), scales=np.geomspace(1e3, 1e8, 8))
        with pytest.raises(ValueError):
            PathSpec(direction=np.array([1.0, 2.0]), scales=np.geomspace(1e3, 1e8, 8))

    def test_rejects_bad_scales(self):
        ones = np.ones(2, dtype=complex)
        with pytest.raises(ValueError):
            PathSpec(direction=ones, scales=np.array([1e3, 1e4, 1e5]))  # too few
        with pytest.raises(ValueError):
            PathSpec(direction=ones, scales=np.array([1e4, 1e3, 1e5, 1e6]))


class TestEstimateDivisor:
    def test_regular_rational_global_divisor(self, rng):
        d, n, m = 3, 3, 2
        f = RationalFunction(random_regular_poly(rng, d, n), random_regular_poly(rng, d, m))
        report = cf.estimate_divisor(f)
        assert report.status == "rational"
        assert report.k == n - m == report.expected_k
        assert report.matches_expected is True
        assert report.bounds_ok
        assert all(c.flag == "converged" for c in report.channels)

    def test_polynomial_divisor_is_degree(self, rng):
        f = PolyFunction(CircPoly.from_scalars([1, 0, 0], 3))  # Z^2
        report = cf.estimate_divisor(f)
        assert report.status == "rational"
        assert report.k == 2
        assert report.denominator_degree == 0

    def test_mixed_singular_per_channel(self):
        report = cf.estimate_divisor(mixed_rational())
        assert report.status == "rational"
        assert [c.k for c in report.channels] == [1, -1]
        assert report.k is None  # channels disagree, no global divisor
        assert report.bounds_ok  # both inside [-m, n] = [-2, 3]
        assert report.expected_k is None  # numerator is singular

    def test_final_error_within_round_tol(self, rng):
        f = RationalFunction(random_regular_poly(rng, 2, 4), random_regular_poly(rng, 2, 4))
        report = cf.estimate_divisor(f)
        assert report.status == "rational"
        assert all(c.final_error <= 1e-3 for c in report.channels)

    def test_exppoly_rejected(self):
        d = 2
        f = ExpPolyFunction(CircPoly([cf.identity(d)]), CircPoly.from_scalars([1, 0], d))
        with pytest.raises(TypeError):
            cf.estimate_divisor(f)

    def test_indeterminate_channel_reported(self):
        # numerator E Z: channel 2 identically zero over a fine denominator
        d = 2
        f = RationalFunction(
            CircPoly([cf.ones(d), cf.zero(d)]),
            CircPoly.from_scalars([1, 0, 1], d),
        )
        report = cf.estimate_divisor(f)
        flags = {c.channel: c.flag for c in report.channels}
        assert flags[2] == "indeterminate"
        assert flags[1] == "converged"
        assert report.channels[0].k == -1  # deg 1 over deg 2
        assert report.status == "rational"

    def test_singularity_on_path_retries_with_new_phases(self):
        # root exactly on the default path: channel 1 direction is 1.0, so
        # P_1(t v_1) = 0 at the first scale t = 1e3
        d = 2
        root = cf.from_spectrum(np.array([1e3 + 0j, 0.5 + 0j]))
        f = PolyFunction(CircPoly([cf.identity(d), cf.neg(root)]))
        report = cf.estimate_divisor(f)
        assert report.retries_used >= 1
        assert report.status == "rational"
        assert report.k == 1

    def test_retry_budget_exhaustion(self):
        # a channel polynomial that vanishes identically in the numerator is
        # masked; here instead the numerator has a zero *everywhere* on any
        # circle of radius t: impossible for polynomials, so emulate with a
        # zero retry budget and a singular hit
        d = 2
        root = cf.from_spectrum(np.array([1e3 + 0j, 0.5 + 0j]))
        f = PolyFunction(CircPoly([cf.identity(d), cf.neg(root)]))
        path = PathSpec.default(d)
        starved = PathSpec(direction=path.direction, scales=path.scales, retry_budget=0)
        with pytest.raises(ChannelSingularityError):
            cf.estimate_divisor(f, path=starved)

    def test_persistent_singularity_names_channels_of_first_failing_scale(self):
        # The denominator vanishes on channel 2 at the first scale, the
        # numerator on channel 1 at the sixth: the first scale decides.
        d = 2
        path = PathSpec.default(d)
        starved = PathSpec(direction=path.direction, scales=path.scales, retry_budget=0)
        v, t = path.direction, path.scales
        num_root = cf.from_spectrum(np.array([t[5] * v[0], 0.5 + 0j]))
        den_root = cf.from_spectrum(np.array([0.5 + 0j, t[0] * v[1]]))
        i = cf.identity(d)
        f = RationalFunction(CircPoly([i, cf.neg(num_root)]), CircPoly([i, cf.neg(den_root)]))
        with pytest.raises(ChannelSingularityError) as info:
            cf.estimate_divisor(f, path=starved)
        assert info.value.channels == (2,)

    def test_asymptotic_tail_shrinks_like_one_over_t(self, rng):
        d = 2
        f = RationalFunction(random_regular_poly(rng, d, 2), random_regular_poly(rng, d, 1))
        report = cf.estimate_divisor(f)
        assert report.status == "rational"
        for c in report.channels:
            raw_errors = np.abs(np.array(c.estimates) - c.k)
            scaled = raw_errors * np.array(report.scales)
            assert np.max(scaled) < np.inf
            # eventually monotone in t (allow the floor to flatten out)
            assert raw_errors[2] <= raw_errors[0] + 1e-9


def analyze_one(scales, values):
    """The one-column case of _analyze_sequence, unpacked."""
    ks, oks, refined, errors = _analyze_sequence(scales, values[:, None])
    return ks[0], oks[0], np.array(refined[0]), errors[0]


class TestAnalyzeSequence:
    def test_divergent_sequence_rejected(self):
        scales = np.geomspace(1e3, 1e8, 8)
        values = scales.astype(complex)  # grows like t
        k, ok, _, _ = analyze_one(scales, values)
        assert not ok

    def test_non_finite_rejected(self):
        scales = np.geomspace(1e3, 1e8, 8)
        values = np.full(8, np.nan, dtype=complex)
        _, ok, _, _ = analyze_one(scales, values)
        assert not ok

    def test_clean_tail_accepted(self):
        scales = np.geomspace(1e3, 1e8, 8)
        values = 2.0 + 3.7 / scales + 0j
        k, ok, _, err = analyze_one(scales, values)
        assert ok and k == 2
        assert err <= 1e-6


    def test_overflowing_extrapolation_diverges(self):
        # finite estimates whose Richardson step overflows to inf - inf
        scales = np.geomspace(1e3, 1e8, 8)
        values = 1e300 * scales / scales[0] + 0j
        k, ok, refined, err = analyze_one(scales, values)
        assert not ok and k is None and err is None
        np.testing.assert_array_equal(refined, values)

    def test_columns_match_one_column_calls(self):
        scales = np.geomspace(1e3, 1e8, 8)
        block = np.stack(
            [2.0 + 3.7 / scales, scales, np.full(8, np.nan), 1e300 * scales, -1.0 + 0.3j / scales],
            axis=1,
        ).astype(complex)
        ks, oks, refined, errors = _analyze_sequence(scales, block)
        for j in range(block.shape[1]):
            k, ok, column, err = analyze_one(scales, block[:, j])
            assert (ks[j], oks[j], errors[j]) == (k, ok, err)
            np.testing.assert_array_equal(np.array(refined[j]), column)
        assert ks[0] == 2 and ks[4] == -1 and oks == [True, False, False, False, True]


class TestScan:
    """Each row of the batched scan is the estimate of one scale, computed
    bit for bit as a one-scale evaluation at that scale would."""

    @pytest.mark.parametrize("d", [2, 31, 32, 100])
    @pytest.mark.parametrize("kind", ["poly", "rational", "exppoly", "exppoly+witness"])
    def test_rows_equal_per_scale_estimates(self, rng, d, kind):
        p = random_regular_poly(rng, d, 3)
        g = random_regular_poly(rng, d, 1)
        f = {
            "poly": PolyFunction(p),
            "rational": RationalFunction(p, random_regular_poly(rng, d, 2)),
            "exppoly": ExpPolyFunction(p, g),
            "exppoly+witness": ExpPolyFunction(p, g),
        }[kind]
        qfun = PolyFunction(CircPoly([g.coeffs[0]])).channel_values if kind.endswith("witness") else None
        path = PathSpec.default(d)
        live = np.arange(0, d, 2)
        values, attempt = _scan(f, path, qfun, live)
        assert attempt == 0 and values.shape == (path.scales.size, live.size)
        for row, t in zip(values, path.scales):
            u = spectrum(from_spectrum(t * path.direction))
            expected = u[live] * f.channel_logderiv(u, live)
            if qfun is not None:
                expected = expected - u[live] * qfun(u)[live]
            assert np.array_equal(row, expected)

    @pytest.mark.parametrize("d", [2, 3, 31, 32, 100])
    def test_forward_rows_equal_spectrum_row_by_row(self, rng, d):
        rows = rng.standard_normal((5, d)) + 1j * rng.standard_normal((5, d))
        batch = forward_rows(rows)
        for row, got in zip(rows, batch):
            assert np.array_equal(got, spectrum(cf.Circulant(row)))


class TestEntireZeroBound:
    @pytest.mark.parametrize("d", [2, 3])
    def test_quadratic_factor_with_matching_witness(self, d):
        i, o = cf.identity(d), cf.zero(d)
        f = ExpPolyFunction(CircPoly.from_scalars([1, -3, 2], d), CircPoly([i, o]))
        witness = PolyFunction(CircPoly([i]))
        report = cf.entire_zero_bound(f, witness)
        assert report.matched
        assert report.n == 2
        assert report.bound == 2**d
        assert report.degree_check is True

    def test_regular_polynomial_with_zero_witness(self, rng):
        d, n = 3, 4
        f = PolyFunction(random_regular_poly(rng, d, n))
        witness = PolyFunction(CircPoly([cf.zero(d)]))
        report = cf.entire_zero_bound(f, witness)
        assert report.matched and report.n == n and report.bound == n**d
        assert report.degree_check is True

    def test_pure_exponential_with_zero_witness_does_not_match(self):
        d = 2
        f = ExpPolyFunction(CircPoly([cf.identity(d)]), CircPoly.from_scalars([1, 0], d))
        report = cf.entire_zero_bound(f, PolyFunction(CircPoly([cf.zero(d)])))
        assert not report.matched
        assert report.n is None and report.bound is None

    def test_rational_inputs_rejected(self):
        d = 2
        f = reciprocal(d)
        entire = PolyFunction(CircPoly([cf.identity(d)]))
        with pytest.raises(TypeError):
            cf.entire_zero_bound(f, entire)
        with pytest.raises(TypeError):
            cf.entire_zero_bound(entire, f)

    def test_mismatched_witness_leaves_degree_check_unset(self, rng):
        d = 2
        f = ExpPolyFunction(
            CircPoly.from_scalars([1, 0], d), CircPoly.from_scalars([1, 0], d)
        )
        # witness q = 2 differs from G' = 1: estimate u(P'/P + 1 - 2) diverges
        report = cf.entire_zero_bound(f, PolyFunction(CircPoly.from_scalars([2], d)))
        assert not report.matched

    def test_failed_degree_check_is_not_a_match(self):
        # (Z + I) exp(1e10 Z) with the witness G' = 1e10 I: the witness
        # swamps P'/P, every estimate reads 0, yet Z = -I is a root.
        d = 2
        i, o = cf.identity(d), cf.zero(d)
        f = ExpPolyFunction(CircPoly([i, i]), CircPoly([cf.scale(1e10, i), o]))
        report = cf.entire_zero_bound(f, PolyFunction(CircPoly([cf.scale(1e10, i)])))
        assert report.degree_check is False
        assert not report.matched
        assert report.n is None and report.bound is None


class TestDetectPolyDegree:
    def test_cubic(self):
        d = 2
        f = PolyFunction(CircPoly.from_scalars([1, 0, 1, 0], d))  # Z^3 + Z
        report = cf.detect_poly_degree(f)
        assert report.is_polynomial and report.degree == 3

    def test_random_regular_quadratic(self, rng):
        d = 3
        coeffs = [random_invertible_circulant(rng, d), cf.zero(d), random_circulant(rng, d)]
        report = cf.detect_poly_degree(PolyFunction(CircPoly(coeffs)))
        assert report.is_polynomial and report.degree == 2

    def test_overflowing_extrapolation_is_not_polynomial(self):
        # (Z + I) exp(1e294 Z): the estimates near 1e302 are finite, but
        # their Richardson step overflows.
        d = 2
        i, o = cf.identity(d), cf.zero(d)
        f = ExpPolyFunction(CircPoly([i, i]), CircPoly([cf.scale(1e294, i), o]))
        report = cf.detect_poly_degree(f)
        assert not report.is_polynomial and report.degree is None
        for c in report.channels:
            assert c.flag == "diverged" and c.k is None and c.final_error is None

    def test_exponential_is_not_polynomial(self):
        d = 2
        f = ExpPolyFunction(CircPoly([cf.identity(d)]), CircPoly.from_scalars([1, 0], d))
        report = cf.detect_poly_degree(f)
        assert not report.is_polynomial
        assert report.degree is None
