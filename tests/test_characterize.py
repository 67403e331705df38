import cmath
import dataclasses
import functools
import json
import pickle
import warnings

import numpy as np
import pytest

import circfun as cf
from circfun import (
    ChannelSingularityError,
    CircPoly,
    DimensionError,
    ExpPolyFunction,
    PathSpec,
    PolyFunction,
    RationalFunction,
)
from circfun import characterize
from circfun.characterize import DIVERGED, ChannelEstimate, ChannelTable, _analyze_sequence, _scan
from circfun.functions import _quotient_terms
from circfun.serialize import _channel_estimates_to_obj, complex_to_pair
from circfun.spectral import forward_rows, from_spectrum, inverse_rows, spectrum
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

    @pytest.mark.parametrize("direction", [np.ones(1), np.ones((2, 2))], ids=["length-1", "2-D"])
    def test_direction_must_be_a_vector_of_length_two(self, direction):
        with pytest.raises(ValueError, match="^direction must be a complex vector of length >= 2$"):
            PathSpec(direction=direction, scales=np.geomspace(1e3, 1e8, 8))

    @pytest.mark.parametrize("estimate", ["estimate_divisor", "detect_poly_degree", "entire_zero_bound"])
    def test_path_of_another_order_rejected(self, estimate):
        f = PolyFunction(CircPoly.from_scalars([1, 2], 4))
        witness = (PolyFunction(CircPoly([cf.zero(4)])),) if estimate == "entire_zero_bound" else ()
        with pytest.raises(DimensionError, match=r"^order mismatch: path has 2, function has 4$"):
            getattr(cf, estimate)(f, *witness, path=PathSpec.default(2))

    def test_rejects_bad_scales(self):
        ones = np.ones(2, dtype=complex)
        with pytest.raises(ValueError):
            PathSpec(direction=ones, scales=np.array([1e3, 1e4, 1e5]))  # too few
        with pytest.raises(ValueError):
            PathSpec(direction=ones, scales=np.array([1e4, 1e3, 1e5, 1e6]))

    @pytest.mark.parametrize(
        "direction, scales, field",
        [
            ([np.nan, 1], [1e3, 1e4, 1e5, 1e6], "direction"),
            ([1, np.inf], [1e3, 1e4, 1e5, 1e6], "direction"),
            ([1, 1j], [1e3, np.nan, 1e5, 1e6], "scales"),
            ([1, 1j], [1e3, 1e4, 1e5, np.inf], "scales"),
            ([1, 1j], [1e3, 1e4, 1e5, 1e308], "scales"),  # 2e308 overflows
        ],
    )
    def test_rejects_non_finite_entries(self, direction, scales, field):
        # NaN fails every comparison, so the modulus and ordering checks
        # alone would let it through.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{field} "):
                PathSpec(direction=np.array(direction, dtype=complex), scales=np.array(scales))

    @pytest.mark.parametrize(
        "t_min, t_max, field",
        [
            (np.nan, 1e8, "t_min"),
            (np.inf, np.inf, "t_min"),
            (-5.0, 1e8, "t_min"),
            (0.0, 1e8, "t_min"),
            (1e3, np.nan, "t_max"),
            (1e3, np.inf, "t_max"),
            (1e9, 1e8, "t_max"),
            (1e3, 1e3, "t_max"),
            (1e3, 1e308, "t_max"),  # t_max * d overflows
        ],
    )
    def test_default_rejects_bad_scale_bounds(self, t_min, t_max, field):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{field} "):
                PathSpec.default(2, t_min=t_min, t_max=t_max)

    @pytest.mark.parametrize(
        "make, field",
        [
            # A negative seed failed only on a retry, in numpy.
            (lambda path: PathSpec(path.direction, path.scales, seed=-1), "seed"),
            (lambda path: PathSpec.default(2, seed=-1), "seed"),
            (lambda path: PathSpec.default(2, points=3), "points"),
        ],
        ids=["seed", "default-seed", "default-points"],
    )
    def test_rejects_bad_counts(self, make, field):
        with pytest.raises(ValueError, match=f"^{field} must be >= "):
            make(PathSpec.default(2))

    def test_default_caps_the_scan_points(self):
        # 10**9 points at d = 2 would allocate tens of gigabytes in geomspace:
        # the cap is checked first.
        with pytest.raises(ValueError, match=r"^points must be <= 2097152 at d = 2, got 1000000000"):
            PathSpec.default(2, points=10**9)
        with pytest.raises(ValueError, match=r"^points must be <= 4 at d = 1048576, got 5"):
            PathSpec.default(2**20, points=5)

    def test_default_bounds_t_max_by_the_order(self):
        # 1e305 is fine at d = 2 but not at d = 10^4, where a scan point's
        # transform can reach 1e309.
        assert PathSpec.default(2, t_max=1e305).scales[-1] == 1e305
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^t_max .* t_max \\* d finite"):
                PathSpec.default(10**4, t_max=1e305)


    def test_path_is_unhashable_by_name(self):
        # The generated __hash__ would fail inside numpy on the array fields.
        with pytest.raises(TypeError, match="unhashable type: 'PathSpec'"):
            hash(PathSpec.default(4))

    def test_pickled_path_keeps_read_only_arrays(self):
        path = PathSpec.default(4)
        path._points  # a cached attribute is not carried over
        restored = pickle.loads(pickle.dumps(path))
        assert restored == path and restored is not path
        assert "_points" not in vars(restored)
        for array in (restored.direction, restored.scales, restored._points):
            assert not array.flags.writeable
        np.testing.assert_array_equal(restored._points, path._points)


class TestPathMemo:
    """PathSpec.default is memoized, and a path caches its first-attempt
    scan points; neither can be changed through an array."""

    def test_default_is_shared_and_read_only(self):
        path = PathSpec.default(8)
        assert PathSpec.default(8) is path
        for array in (path.direction, path.scales, path._points):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0

    def test_path_ignores_later_writes_to_caller_arrays(self):
        reference = PathSpec.default(5)
        direction, scales = reference.direction.copy(), reference.scales.copy()
        read_early = PathSpec(direction=direction, scales=scales)
        early_points = read_early._points.copy()
        read_late = PathSpec(direction=direction, scales=scales)
        direction[:] = 1.0
        scales *= 2.0
        for path in (read_early, read_late):
            assert path.direction.tobytes() == reference.direction.tobytes()
            assert path.scales.tobytes() == reference.scales.tobytes()
            assert path._points.tobytes() == early_points.tobytes()

    @pytest.mark.parametrize("d", [2, 31, 32, 100])
    def test_cached_points_equal_a_fresh_transform(self, d):
        path = PathSpec.default(d)
        fresh = forward_rows(inverse_rows(path.scales[:, None] * path.direction))
        assert path._points.tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("kind", ["divisor", "degree", "zero_bound"])
    def test_reports_equal_on_cold_and_warm_cache(self, rng, kind):
        d = 16
        p, q, g = (random_regular_poly(rng, d, n) for n in (3, 1, 1))
        estimate = {
            "divisor": functools.partial(cf.estimate_divisor, RationalFunction(p, q)),
            "degree": functools.partial(cf.detect_poly_degree, PolyFunction(p)),
            "zero_bound": functools.partial(
                cf.entire_zero_bound, ExpPolyFunction(p, g), PolyFunction(CircPoly([g.coeffs[0]]))
            ),
        }[kind]
        PathSpec.default.cache_clear()
        cold = estimate()
        hits = PathSpec.default.cache_info().hits
        warm = estimate()
        assert PathSpec.default.cache_info().hits == hits + 1
        for field in dataclasses.fields(cold):
            assert getattr(cold, field.name) == getattr(warm, field.name), field.name

    def test_retries_draw_as_an_eager_generator_would(self):
        # Channel 1 vanishes on the default direction and channel 2 on the
        # first retry's, so the second retry succeeds; the reference scan
        # makes its generator up front and transforms every attempt.
        d = 2
        path = PathSpec.default(d)
        first_retry = np.exp(2j * np.pi * np.random.default_rng(path.seed).uniform(size=d))
        i = cf.identity(d)
        r1 = from_spectrum(np.array([path.scales[0] * path.direction[0], 0.5]))
        r2 = from_spectrum(np.array([0.5, path.scales[3] * first_retry[1]]))
        f = PolyFunction(CircPoly([i, cf.neg(r1)]) * CircPoly([i, cf.neg(r2)]))

        rng = np.random.default_rng(path.seed)
        direction = path.direction
        for attempt in range(characterize.RETRY_BUDGET + 1):
            u = forward_rows(inverse_rows(path.scales[:, None] * direction))
            try:
                expected = u * f.channel_logderiv(u)
                break
            except ChannelSingularityError:
                direction = np.exp(2j * np.pi * rng.uniform(size=d))

        report = cf.detect_poly_degree(f)
        assert report.retries_used == attempt == 2
        assert report.degree == 2
        for c, column in zip(report.channels, expected.T):
            assert np.array_equal(np.array(c.estimates), column)


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

    def test_every_channel_degenerate_raises(self):
        f = PolyFunction(CircPoly([cf.zero(2), cf.zero(2)]))
        with pytest.raises(ChannelSingularityError, match="every channel is degenerate") as err:
            cf.estimate_divisor(f)
        assert err.value.channels == (1, 2)

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

    def test_exppoly_is_not_rational(self):
        # exp(Z): G_i = u is not constant on any channel, so no limit exists.
        d = 2
        f = ExpPolyFunction(CircPoly([cf.identity(d)]), CircPoly.from_scalars([1, 0], d))
        report = cf.estimate_divisor(f)
        assert report.status == "not-rational" and not report.converged and report.k is None
        assert [c.flag for c in report.channels] == ["diverged"] * d
        assert report.numerator_degree == 0 and report.denominator_degree == 0
        assert report.expected_k is None and report.matches_expected is None and report.bounds_ok is None

    def test_exppoly_with_constant_exponent_is_rational(self, rng):
        # P exp(B) with constant B is rational: the divisor is deg P.
        d = 3
        p = random_regular_poly(rng, d, 2)
        f = ExpPolyFunction(p, CircPoly([random_circulant(rng, d, 0.5)]))
        report = cf.estimate_divisor(f)
        assert report.status == "rational" and report.k == 2 and report.matches_expected

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

    def test_retry_budget_exhaustion(self, monkeypatch):
        # a channel polynomial that vanishes identically in the numerator is
        # masked; here instead the numerator has a zero *everywhere* on any
        # circle of radius t: impossible for polynomials, so emulate with a
        # zero retry budget and a singular hit
        assert characterize.RETRY_BUDGET == 5
        d = 2
        root = cf.from_spectrum(np.array([1e3 + 0j, 0.5 + 0j]))
        f = PolyFunction(CircPoly([cf.identity(d), cf.neg(root)]))
        monkeypatch.setattr(characterize, "RETRY_BUDGET", 0)
        with pytest.raises(ChannelSingularityError, match="persisted across 0 phase retries"):
            cf.estimate_divisor(f)

    def test_persistent_singularity_names_channels_of_first_failing_scale(self, monkeypatch):
        # The denominator vanishes on channel 2 at the first scale, the
        # numerator on channel 1 at the sixth: the first scale decides.
        d = 2
        path = PathSpec.default(d)
        monkeypatch.setattr(characterize, "RETRY_BUDGET", 0)
        v, t = path.direction, path.scales
        num_root = cf.from_spectrum(np.array([t[5] * v[0], 0.5 + 0j]))
        den_root = cf.from_spectrum(np.array([0.5 + 0j, t[0] * v[1]]))
        i = cf.identity(d)
        f = RationalFunction(CircPoly([i, cf.neg(num_root)]), CircPoly([i, cf.neg(den_root)]))
        with pytest.raises(ChannelSingularityError) as info:
            cf.estimate_divisor(f, path=path)
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
    """The one-column case of _analyze_sequence: k, converged, refined
    sequence and final error of the column."""
    ks, oks, refined, errors = _analyze_sequence(scales, values[:, None])
    return ks[0], oks[0], refined[:, 0], errors[0]


class TestAnalyzeSequence:
    def test_divergent_sequence_rejected(self):
        scales = np.geomspace(1e3, 1e8, 8)
        values = scales.astype(complex)  # grows like t
        k, ok, _, _ = analyze_one(scales, values)
        assert not ok and np.isnan(k)

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
        assert not ok and np.isnan(k) and np.isnan(err)  # NaN: no k, no error
        # A channel with no error reports its raw estimates as its refined ones.
        table = ChannelTable(
            np.array([DIVERGED]), np.array([k]), values[:, None], refined[:, None], np.array([err])
        )
        record = table.channel(0)
        assert (record.k, record.final_error) == (None, None)
        assert record.refined == record.estimates == tuple(values.tolist())

    def test_columns_match_one_column_calls(self):
        scales = np.geomspace(1e3, 1e8, 8)
        block = np.stack(
            [2.0 + 3.7 / scales, scales, np.full(8, np.nan), 1e300 * scales, -1.0 + 0.3j / scales],
            axis=1,
        ).astype(complex)
        ks, oks, refined, errors = _analyze_sequence(scales, block)
        for j in range(block.shape[1]):
            k, ok, column, err = analyze_one(scales, block[:, j])
            np.testing.assert_array_equal([ks[j], errors[j]], [k, err])  # NaN equals NaN here
            assert oks[j] == ok
            np.testing.assert_array_equal(refined[:, j], column)
        assert ks[0] == 2 and ks[4] == -1 and oks.tolist() == [True, False, False, False, True]
        assert np.all(np.isnan(ks[1:4])) and np.all(np.isnan(errors[2:4]))

    def test_returns_arrays_over_columns(self):
        scales = np.geomspace(1e3, 1e8, 8)
        block = np.stack([2.0 + 3.7 / scales, scales, np.full(8, np.nan)], axis=1).astype(complex)
        ks, oks, refined, errors = _analyze_sequence(scales, block)
        assert (ks.shape, oks.shape, refined.shape, errors.shape) == ((3,), (3,), (7, 3), (3,))
        assert (ks.dtype, oks.dtype, refined.dtype, errors.dtype) == (
            np.float64, np.bool_, np.complex128, np.float64,
        )


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
        values, attempt = _scan(f, path, qfun, np.zeros(d, dtype=bool))
        assert attempt == 0 and values.shape == (path.scales.size, d)
        for row, t in zip(values, path.scales):
            u = spectrum(from_spectrum(t * path.direction))
            if qfun is None:
                expected = u * f.channel_logderiv(u)
            else:  # the witness comes off G' before P'/P is added
                dp, p, _ = _quotient_terms(f.P, u)
                expected = u * (dp / p + (_quotient_terms(f.G, u)[0] - qfun(u)))
            assert np.array_equal(row, expected)
        # A skip mask leaves the other columns' bits as they are without it.
        skip = np.arange(d) % 2 == 0
        masked, attempt = _scan(f, path, qfun, skip)
        assert attempt == 0 and masked[:, ~skip].tobytes() == values[:, ~skip].tobytes()

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

    def test_witness_of_another_order_rejected(self):
        f = PolyFunction(CircPoly.from_scalars([1, 2], 4))
        with pytest.raises(DimensionError, match=r"^order mismatch: witness has 2, function has 4$"):
            cf.entire_zero_bound(f, PolyFunction(CircPoly([cf.zero(2)])))

    def test_mismatched_witness_leaves_degree_check_unset(self, rng):
        d = 2
        f = ExpPolyFunction(
            CircPoly.from_scalars([1, 0], d), CircPoly.from_scalars([1, 0], d)
        )
        # witness q = 2 differs from G' = 1: estimate u(P'/P + 1 - 2) diverges
        report = cf.entire_zero_bound(f, PolyFunction(CircPoly.from_scalars([2], d)))
        assert not report.matched

    def test_failed_degree_check_is_not_a_match(self, monkeypatch):
        # The quadratic factor matches its witness G' = I, unless the
        # cross-check against deg P fails.
        d = 2
        i, o = cf.identity(d), cf.zero(d)
        f = ExpPolyFunction(CircPoly.from_scalars([1, -3, 2], d), CircPoly([i, o]))
        monkeypatch.setattr(characterize, "_degree_cross_check", lambda f, q, n: False)
        report = cf.entire_zero_bound(f, PolyFunction(CircPoly([i])))
        assert report.degree_check is False
        assert not report.matched
        assert report.n is None and report.bound is None

    def test_large_exponent_does_not_swamp_the_polynomial_factor(self):
        # (Z + I) exp(1e10 Z) with the witness G' = 1e10 I: in P'/P + G' the
        # 1/(u + 1) of P'/P sits below the rounding of 1e10, so the witness
        # comes off G' first.  Z = -I is the one root.
        d = 2
        i, o = cf.identity(d), cf.zero(d)
        f = ExpPolyFunction(CircPoly([i, i]), CircPoly([cf.scale(1e10, i), o]))
        report = cf.entire_zero_bound(f, PolyFunction(CircPoly([cf.scale(1e10, i)])))
        assert report.matched
        assert report.n == 1 and report.bound == 1
        assert report.degree_check is True
        assert all(c.flag == "converged" and c.k == 1 for c in report.channels)

    def test_exponential_witness_leaves_degree_check_unset(self):
        # (Z - 2I) exp(3Z) with the witness 3I exp(0): it matches G' = 3I
        # channel-wise, but only a polynomial witness is cross-checked.
        d = 2
        i, o = cf.identity(d), cf.zero(d)
        f = ExpPolyFunction(CircPoly([i, cf.scale(-2, i)]), CircPoly([cf.scale(3, i), o]))
        report = cf.entire_zero_bound(f, ExpPolyFunction(CircPoly([cf.scale(3, i)]), CircPoly([o])))
        assert report.matched and report.n == 1
        assert report.degree_check is None

    def test_witness_off_g_prime_leaves_degree_check_unset(self):
        # The witness (3 + 1e-7) I misses G' = 3I by more than the match
        # tolerance; up to |u| = 1e3 its u 1e-7 drift stays below the
        # rounding tolerance, so the scan still converges to n = 1.
        d = 2
        i, o = cf.identity(d), cf.zero(d)
        f = ExpPolyFunction(CircPoly([i, cf.scale(-2, i)]), CircPoly([cf.scale(3, i), o]))
        path = PathSpec(PathSpec.default(d).direction, np.geomspace(10, 1e3, 11))
        report = cf.entire_zero_bound(f, PolyFunction(CircPoly([cf.scale(3 + 1e-7, i)])), path)
        assert report.matched and report.n == 1
        assert report.degree_check is None

    def test_witness_reads_the_snapped_channel_matrix(self):
        # G = A Z + B, where channel index 2 of A was zeroed in the spectrum
        # and holds only transform round-off; the witness is A, so G' - A is
        # exactly 0 there only if both read the snapped channel matrices.  Read
        # raw, the witness leaves u times the round-off, which grows along
        # the path to t_max = 1e12, and the scan does not converge.
        d = 4
        rng = np.random.default_rng(3)
        p = random_regular_poly(rng, d, 2)
        spec, b = np.fft.fft(random_circulant(rng, d).row), random_circulant(rng, d)
        spec[2] = 0
        a = cf.Circulant(np.fft.ifft(spec))
        assert spectrum(a)[2] != 0
        f = ExpPolyFunction(p, CircPoly([a, b]))
        report = cf.entire_zero_bound(f, PolyFunction(CircPoly([a])), PathSpec.default(d, t_max=1e12))
        assert report.matched and report.n == 2 and report.degree_check is True

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_witness_diverges_quietly(self):
        # P = I, G = 1e308 Z^2 and the witness 1e308 Z: G' = 2e308 Z and the
        # witness overflow along the path, with no numpy warning.
        d = 2
        i, o = cf.identity(d), cf.zero(d)
        f = ExpPolyFunction(CircPoly([i]), CircPoly([cf.scale(1e308, i), o, o]))
        report = cf.entire_zero_bound(f, PolyFunction(CircPoly([cf.scale(1e308, i), o])))
        assert report.matched is False
        assert [c.flag for c in report.channels] == ["diverged", "diverged"]


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


def eager_analyze(scales, values):
    """Per-column lists (k, converged, refined, final error), with None
    for a missing k or error and the raw estimates as the refined sequence of
    a column that is not finite: the reference for the table's records."""
    with np.errstate(over="ignore", invalid="ignore"):
        refined = characterize._richardson(scales[:, None], values)
        final = refined[-1]
        usable = np.all(np.isfinite(values), axis=0) & np.isfinite(final)
        k = np.rint(np.where(usable, final.real, 0.0))
        tail = np.abs(refined[-3:] - k)
        within = np.all(tail <= characterize.ROUND_TOL, axis=0) & (
            np.abs(final.imag) <= characterize.ROUND_TOL
        )
        floor = characterize.NOISE_FLOOR
        shrinking = ((tail[1] <= tail[0] * 1.5) | (tail[1] <= floor)) & (
            (tail[2] <= tail[1] * 1.5) | (tail[2] <= floor)
        )
    columns = refined.T.tolist()
    for j in np.flatnonzero(~usable):
        columns[j] = values[:, j].tolist()
    ok = (usable & within & shrinking).tolist()
    ks = [int(v) if c else None for v, c in zip(k.tolist(), ok)]
    errors = [e if c else None for e, c in zip(tail[2].tolist(), usable.tolist())]
    return ks, ok, columns, errors


def eager_records(skip, scales, values):
    """One ChannelEstimate per channel, built eagerly from the scan's
    estimates, indeterminate where the mask ``skip`` is set: the reference
    for the records a report's table builds on access."""
    live = np.flatnonzero(~skip)
    ks, ok, refined, errors = eager_analyze(scales, values[:, live])
    records = [ChannelEstimate(i + 1, "indeterminate", None, (), (), None) for i in range(skip.size)]
    for j, (i, seq) in enumerate(zip(live.tolist(), values[:, live].T.tolist())):
        records[i] = ChannelEstimate(
            channel=i + 1,
            flag="converged" if ok[j] else "diverged",
            k=ks[j],
            estimates=tuple(seq),
            refined=tuple(refined[j]),
            final_error=errors[j],
        )
    return records


def json_pair(z: complex):
    """[re, im], or None where ``z`` is not finite: strict JSON has neither."""
    return complex_to_pair(z) if cmath.isfinite(z) else None


def eager_channels_json(records):
    """The channel JSON written record by record from ``records``."""
    return json.dumps(
        [
            {
                "channel": c.channel,
                "flag": c.flag,
                "k": c.k,
                "final_estimate": json_pair(c.refined[-1]) if c.refined else None,
                "final_error": c.final_error,
                "estimates": [json_pair(z) for z in c.estimates],
            }
            for c in records
        ]
    )


def zero_channel(p: CircPoly, channel: int) -> CircPoly:
    """``p`` with one eigenchannel zeroed in every coefficient."""
    cm = np.array(p.channel_matrix())
    cm[:, channel] = 0.0
    return CircPoly([from_spectrum(row) for row in cm])


class TestChannelRecords:
    """Reports store arrays over channels; their ``channels`` records,
    built on access, equal the eagerly built ones field by field, bit for
    bit, and so does the JSON written from the arrays."""

    KINDS = (
        "divisor",
        "divisor_degenerate",
        "degree_poly",
        "degree_exppoly",
        "zero_bound_match",
        "zero_bound_mismatch",
    )

    @staticmethod
    def estimate(rng, d, kind):
        """One instance of each kind the characterize benchmark runs, and
        the witness function of the zero-bound kinds."""
        s = 1.0 / np.sqrt(d)
        p, q, g = (random_regular_poly(rng, d, n, s) for n in (3, 1, 1))
        if kind == "divisor":
            return cf.estimate_divisor, RationalFunction(p, q), None
        if kind == "divisor_degenerate":
            return cf.estimate_divisor, RationalFunction(zero_channel(p, d // 2), q), None
        if kind == "degree_poly":
            return cf.detect_poly_degree, PolyFunction(p), None
        f = ExpPolyFunction(p, g)
        if kind == "degree_exppoly":
            return cf.detect_poly_degree, f, None
        witness = g.coeffs[0] if kind == "zero_bound_match" else g.coeffs[0] + random_invertible_circulant(rng, d)
        return functools.partial(cf.entire_zero_bound, q_entire=PolyFunction(CircPoly([witness]))), f, witness

    @pytest.mark.parametrize("d", [4, 16, 64])
    @pytest.mark.parametrize("kind", KINDS)
    def test_records_equal_eager_records(self, rng, d, kind):
        estimate, f, witness = self.estimate(rng, d, kind)
        report = estimate(f)
        path = PathSpec.default(d)
        skip = f.degenerate_channels()
        qfun = None if witness is None else PolyFunction(CircPoly([witness])).channel_values
        values, retries = _scan(f, path, qfun, skip)
        expected = eager_records(skip, path.scales, values)
        assert report.retries_used == retries
        assert len(report.channels) == d
        assert [repr(c) for c in report.channels] == [repr(c) for c in expected]  # -0.0 and types too
        assert tuple(report.channels) == tuple(expected)
        assert json.dumps(_channel_estimates_to_obj(report.table)) == eager_channels_json(expected)
        flags = {c.flag for c in report.channels}
        if kind == "divisor_degenerate":
            assert report.channels[d // 2].flag == "indeterminate"
        if kind in ("degree_exppoly", "zero_bound_mismatch"):
            assert "diverged" in flags

    def test_every_flag_in_one_report(self, monkeypatch):
        # A scan stand-in hands back converged, diverged, non-finite and
        # overflowing columns; channel 3 of 6 is degenerate, and its
        # converging column is not read.
        d = 6
        p = CircPoly([cf.identity(d), cf.ones(d)])
        f = RationalFunction(zero_channel(p, 2), CircPoly([cf.identity(d)]))
        path = PathSpec.default(d)
        t = path.scales
        block = np.stack(
            [2.0 + 3.7 / t, t, 1.0 + 0.5 / t, np.full(t.size, np.nan), 1e300 * t / t[0], -1.0 + 0.3j / t],
            axis=1,
        ).astype(complex)
        monkeypatch.setattr(characterize, "_scan", lambda f, path, qfun, skip: (block, 0))
        report = cf.estimate_divisor(f)
        expected = eager_records(f.degenerate_channels(), t, block)
        assert [c.flag for c in expected] == [
            "converged", "diverged", "indeterminate", "diverged", "diverged", "converged",
        ]
        assert [repr(c) for c in report.channels] == [repr(c) for c in expected]
        assert json.dumps(_channel_estimates_to_obj(report.table)) == eager_channels_json(expected)
        assert (report.status, report.k, report.bounds_ok) == ("not-rational", None, False)

    def test_view_indexes_like_a_tuple(self, rng):
        report = cf.estimate_divisor(reciprocal(5))
        records = tuple(report.channels)
        view = report.channels
        assert view[-1] == records[-1] and view[1:4] == records[1:4] and view[::-2] == records[::-2]
        assert view == records and view == report.channels and list(view) == list(records)
        with pytest.raises(IndexError):
            view[5]
        with pytest.raises(IndexError):
            view[-6]
        with pytest.raises(TypeError):
            hash(view)

    @pytest.mark.parametrize("kind", KINDS)
    def test_report_fields_are_scalars_or_tuples(self, rng, kind):
        # vars() holds no array, every field but the tuples is a plain scalar,
        # and == on two equal reports is True without asking numpy for the
        # truth of an array.
        estimate, f, _ = self.estimate(rng, 8, kind)
        report, again = estimate(f), estimate(f)
        fields = vars(report)
        assert not any(isinstance(v, np.ndarray) for v in fields.values())
        for name, value in fields.items():
            if not isinstance(value, tuple):
                assert type(value) in (bool, int, float, str, type(None)), name
        assert isinstance(report.table, tuple) and all(isinstance(a, np.ndarray) for a in report.table)
        assert all(not a.flags.writeable for a in report.table)
        assert report == again and not (report != again)
        assert report.table != report.table._replace(flag=report.table.flag + 1)

    @pytest.mark.parametrize("kind", ["divisor", "divisor_degenerate"])
    def test_pickled_report_keeps_read_only_arrays(self, rng, kind):
        estimate, f, _ = self.estimate(rng, 8, kind)
        report = estimate(f)
        restored = pickle.loads(pickle.dumps(report))
        assert restored == report and not (restored != report)
        assert type(restored.table) is ChannelTable
        assert all(not a.flags.writeable for a in restored.table)
        assert tuple(restored.channels) == tuple(report.channels)
