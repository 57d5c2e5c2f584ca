"""Winsorization and the method-of-moments overdispersion baseline."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from profile_null import (
    InputError,
    fit_empirical_null,
    fit_method_of_moments,
    winsorize,
    z_empirical_null,
)


def _type7_percentile(values, pct):
    """Independent linear-interpolation percentile (oracle for winsorize)."""
    s = sorted(values)
    h = (len(s) - 1) * pct / 100.0
    lo = math.floor(h)
    hi = math.ceil(h)
    return s[lo] + (h - lo) * (s[hi] - s[lo])


def _bytes_and_warnings(winsorized, z, q):
    """The bytes of ``winsorized(z, q)`` and every warning it gives, as
    (category, message): the warning first raised under -W error too."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        out = winsorized(z, q)
    return out.tobytes(), [(w.category, str(w.message)) for w in seen]


def _clip_to_percentiles(z, q):
    """Winsorizing as np.percentile and np.clip take it; q = 0 leaves z as
    it is, where a percentile of values whose difference overflows is NaN."""
    a = np.asarray(z, dtype=np.float64)
    return a.copy() if q == 0.0 else np.clip(a, *np.percentile(a, [q, 100.0 - q]))


# ties, signed zeros, subnormals and neighbours of the float limits, mixed
# with any finite double
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0,
                1e308, -1e308, 1.5e308, -1.5e308, 1.7976931348623157e308,
                -1.7976931348623157e308]
_FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from(_EDGE_FLOATS))
_Q = st.one_of(st.floats(0.0, 50.0, exclude_max=True),
               st.sampled_from([0.0, 2.5, 10.0, 12.5, 25.0, 49.0]))


class TestWinsorize:
    @given(st.lists(_FINITE, min_size=1, max_size=500), _Q)
    # neighbouring order statistics whose difference overflows, so both
    # warn, and a lower bound that is a signed zero
    @example(z=[-1.5e308, 1.5e308], q=10.0)
    @example(z=[1.7976931348623157e308, -0.0, -1.7976931348623157e308, 0.0, -0.0], q=40.0)
    @settings(max_examples=300, deadline=None)
    def test_finite_input_matches_numpy_percentiles(self, z, q):
        # the one-partition percentiles give np.percentile's bounds bit for
        # bit, signed zeros included, and its overflow warnings
        assert _bytes_and_warnings(winsorize, z, q) \
            == _bytes_and_warnings(_clip_to_percentiles, z, q)

    @given(st.lists(st.one_of(_FINITE, st.sampled_from([math.nan, math.inf, -math.inf])),
                    min_size=1, max_size=500).filter(lambda z: not np.isfinite(z).all()),
           _Q)
    @settings(max_examples=100, deadline=None)
    def test_non_finite_input_keeps_numpy_percentiles(self, z, q):
        assert _bytes_and_warnings(winsorize, z, q) \
            == _bytes_and_warnings(_clip_to_percentiles, z, q)

    def test_q_zero_identity(self):
        z = [3.0, -1.0, 2.5]
        assert list(winsorize(z, 0.0)) == z

    def test_hand_example_q25(self):
        out = winsorize([-3.0, -1.0, 0.0, 1.0, 3.0], 25.0)
        assert list(out) == [-1.0, -1.0, 0.0, 1.0, 1.0]

    def test_all_equal_unchanged(self):
        assert list(winsorize([2.0] * 6, 30.0)) == [2.0] * 6

    def test_matches_percentile_oracle(self):
        rng = np.random.default_rng(17)
        z = rng.standard_t(3, 101)
        for q in (2.5, 5.0, 10.0, 20.0):
            lo = _type7_percentile(z, q)
            hi = _type7_percentile(z, 100.0 - q)
            expect = np.clip(z, lo, hi)
            assert np.allclose(winsorize(z, q), expect)

    def test_order_preserved(self):
        z = [5.0, -5.0, 0.0, 2.0, -2.0]
        out = winsorize(z, 20.0)
        assert out[2] == 0.0 and out[0] >= out[3]

    @given(st.lists(st.floats(-50, 50, allow_nan=False), min_size=101,
                    max_size=101),
           st.integers(1, 49))
    @settings(max_examples=60, deadline=None)
    def test_idempotent_on_exact_percentile_indices(self, z, q):
        # with 101 values and integer q the percentile rank (n-1)*q/100 hits
        # an order statistic exactly, where re-winsorizing is a fixed point
        once = winsorize(z, float(q))
        twice = winsorize(once, float(q))
        assert np.allclose(once, twice, atol=1e-12)

    def test_idempotent_on_hand_example(self):
        once = winsorize([-3.0, -1.0, 0.0, 1.0, 3.0], 25.0)
        assert np.allclose(winsorize(once, 25.0), once)

    def test_interpolated_indices_can_shrink_on_reapplication(self):
        # type-7 percentiles interpolate, so a fractional rank keeps pulling
        # the cap inward: idempotence genuinely fails off the exact indices
        once = winsorize([0.0, 0.0, 0.0, 1.0], 1.0)
        twice = winsorize(once, 1.0)
        assert once[3] == pytest.approx(0.97)
        assert twice[3] == pytest.approx(0.9409)

    def test_bad_q(self):
        with pytest.raises(InputError):
            winsorize([1.0, 2.0], 50.0)
        with pytest.raises(InputError):
            winsorize([1.0, 2.0], -1.0)


class TestMomPhi:
    """The moment estimate itself; at q = 0 Winsorizing is the identity."""

    def test_hand_value(self):
        phi = fit_method_of_moments([1.0, -1.0, 2.0, -2.0], [10.0, 10.0, 10.0, 10.0],
                                    q_percent=0.0)
        assert type(phi) is float
        assert phi == pytest.approx(0.15)

    def test_underdispersion_clamps(self):
        assert fit_method_of_moments([0.5, -0.5], [3.0, 7.0], q_percent=0.0) == 0.0

    def test_winsorizes_at_q_before_the_moment_sum(self):
        # at q = 10 the 3 scores clamp to their 10th/90th percentiles,
        # -0.6 and 1.8, before the sum of squares
        z, n = [1.0, -1.0, 2.0], [5.0, 5.0, 5.0]
        phi = fit_method_of_moments(z, n, q_percent=10.0)
        zw = winsorize(z, 10.0)
        assert list(zw) == pytest.approx([1.0, -0.6, 1.8])
        assert phi == pytest.approx((float(np.sum(zw * zw)) - 3.0) / 15.0)
        assert phi < fit_method_of_moments(z, n, q_percent=0.0)

    @pytest.mark.parametrize("q", [0.0, 10.0])
    @pytest.mark.parametrize("z, sizes, message", [
        ([math.nan, 1.0, 2.0, 3.0], [1.0] * 4, "z contains non-finite values"),
        ([1.0, -math.inf, 2.0, 3.0], [1.0] * 4, "z contains non-finite values"),
        ([0.5, 1.0, 2.0, 3.0], [1.0, math.inf, 1.0, 1.0], "sizes contains non-finite values"),
        ([0.5, 1.0, 2.0, 3.0], [1.0, 1.0, math.nan, 1.0], "sizes contains non-finite values"),
        ([0.5, 1.0, 2.0, 3.0], [1.0, 1.0, 1.0, 0.0], "sizes must be positive"),
    ])
    def test_rejects_what_the_empirical_null_rejects(self, z, sizes, message, q):
        with pytest.raises(InputError, match=message):
            fit_method_of_moments(z, sizes, q_percent=q)
        # the same message as the empirical-null fit, which needs 10 centers
        with pytest.raises(InputError, match=message):
            fit_empirical_null(z * 3, sizes * 3)

    @pytest.mark.parametrize("z, sizes, q", [
        (np.random.default_rng(0).normal(size=50), np.full(50, 1e308), 10.0),
        (np.random.default_rng(0).normal(size=50) * 1e160, np.full(50, 10.0), 0.0),
    ])
    def test_overflowing_sums_are_an_input_error(self, z, sizes, q):
        # where they were a RuntimeWarning (an error here) in the sum
        with pytest.raises(InputError, match="overflows the float range"):
            fit_method_of_moments(z, sizes, q_percent=q)

    def test_unbiased_under_pure_null(self):
        # no winsorization, no outliers: mean estimate ~ truth
        truth = 0.14
        rng = np.random.default_rng(1234)
        est = []
        for _ in range(1000):
            n = np.exp(-6.0 + rng.normal(-0.4, math.sqrt(0.5), 212)) \
                * rng.exponential(3e5, 212)
            z = rng.normal(0.0, np.sqrt(1.0 + truth * n))
            est.append(fit_method_of_moments(z, n, q_percent=0.0))
        assert float(np.mean(est)) == pytest.approx(truth, abs=0.02)

    def test_winsorization_reduces_outlier_inflation(self):
        rng = np.random.default_rng(8)
        n = np.full(212, 300.0)
        z = rng.normal(0.0, np.sqrt(1.0 + 0.1 * n))
        z[:20] = 40.0
        plain = fit_method_of_moments(z, n, q_percent=0.0)
        trimmed = fit_method_of_moments(z, n, q_percent=10.0)
        more_trimmed = fit_method_of_moments(z, n, q_percent=15.0)
        assert plain > trimmed > more_trimmed

    def test_contamination_overestimates_relative_to_empirical_null(self):
        rng = np.random.default_rng(555)
        mom_means, en_means = [], []
        for _ in range(60):
            n = np.exp(-6.0 + rng.normal(-0.4, math.sqrt(0.5), 212)) \
                * rng.exponential(3e5, 212)
            z = rng.normal(0.0, np.sqrt(1.0 + 0.14 * n))
            k = 10
            z[1:1 + k] += (math.e - 1.0) * np.sqrt(n[1:1 + k])
            z[1 + k:1 + 2 * k] += (math.exp(-1) - 1.0) * np.sqrt(n[1 + k:1 + 2 * k])
            mom_means.append(fit_method_of_moments(z, n, q_percent=0.0))
            en_means.append(fit_empirical_null(z, n).phi_hat)
        assert float(np.mean(mom_means)) > float(np.mean(en_means))


class TestZMethodOfMoments:
    """The method-of-moments estimate rescales scores through the same
    z / sqrt(1 + phi * size) as the empirical null."""

    def test_identity_cases(self):
        clamped = fit_method_of_moments([0.5, -0.5], [3.0, 7.0], q_percent=0.0)
        assert z_empirical_null(1.7, 100.0, clamped) == 1.7
        assert z_empirical_null(1.7, 0.0, 0.5) == 1.7

    def test_hand_value(self):
        phi = fit_method_of_moments([1.0, -1.0, 2.0, -2.0], [10.0] * 4,
                                    q_percent=0.0)
        assert z_empirical_null(3.0, 100.0, phi) == pytest.approx(0.75, abs=1e-10)

    def test_negative_phi_rejected(self):
        with pytest.raises(InputError):
            z_empirical_null(1.0, 10.0, -0.01)
