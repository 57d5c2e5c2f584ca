"""Normal distribution functions, the 1-d minimizer, and robust estimation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from profile_null import (
    ConvergenceError,
    InputError,
    nelder_mead_minimize,
    robust_intercept_scale,
    std_normal_cdf,
    std_normal_quantile,
)
from profile_null import _kernels


def _cdf_oracle(x: float) -> float:
    """High-precision reference CDF via mpmath's arbitrary-precision erfc."""
    import mpmath

    with mpmath.workdps(50):
        return float(0.5 * mpmath.erfc(-x / mpmath.sqrt(2)))


def _quantile_bisect_oracle(p: float) -> float:
    """Invert the CDF by plain bisection, independent of the closed form."""
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if std_normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestStdNormalCdf:
    def test_zero_is_half(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_known_975_point(self):
        assert std_normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)

    def test_deep_lower_tail(self):
        assert std_normal_cdf(-8.0) < 1e-14
        assert std_normal_cdf(-8.0) > 0.0

    def test_against_high_precision_oracle(self):
        pytest.importorskip("mpmath")
        for x in np.linspace(-8.0, 8.0, 81):
            assert std_normal_cdf(float(x)) == pytest.approx(
                _cdf_oracle(float(x)), abs=1e-12)

    def test_saturation(self):
        assert std_normal_cdf(40.0) == 1.0
        assert std_normal_cdf(-40.0) == 0.0

    @given(st.floats(-37.0, 37.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_reflection_exact(self, x):
        assert std_normal_cdf(-x) == 1.0 - std_normal_cdf(x)

    def test_monotone_on_random_grid(self):
        rng = np.random.default_rng(101)
        xs = np.sort(rng.uniform(-12, 12, 500))
        vals = [std_normal_cdf(float(x)) for x in xs]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestStdNormalQuantile:
    def test_median(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_known_points_against_bisection_oracle(self):
        for p in (0.975, 0.95):
            assert std_normal_quantile(p) == pytest.approx(
                _quantile_bisect_oracle(p), abs=1e-5)
        assert std_normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-5)
        assert std_normal_quantile(0.95) == pytest.approx(1.644854, abs=1e-5)

    def test_cdf_roundtrip_tight(self):
        for p in np.linspace(0.001, 0.999, 97):
            x = std_normal_quantile(float(p))
            assert std_normal_cdf(x) == pytest.approx(float(p), abs=1e-10)

    def test_roundtrip_other_direction(self):
        for p in np.linspace(0.001, 0.999, 23):
            assert std_normal_cdf(std_normal_quantile(float(p))) == pytest.approx(
                float(p), abs=1e-9)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.3, float("nan")])
    def test_domain_errors(self, p):
        with pytest.raises(InputError):
            std_normal_quantile(p)


class TestNelderMead:
    def test_shifted_quadratic(self):
        res = nelder_mead_minimize(lambda x: (x - 3.0) ** 2, 0.0)
        assert res.converged
        assert res.argmin == pytest.approx(3.0, abs=1e-6)

    def test_kinked_objective_against_grid_oracle(self):
        f = lambda x: abs(x) + 0.1 * x * x
        grid = np.linspace(-6, 6, 240001)
        oracle = float(grid[np.argmin([f(g) for g in grid])])
        res = nelder_mead_minimize(f, 5.0)
        assert res.argmin == pytest.approx(oracle, abs=1e-4)

    def test_already_at_minimum(self):
        res = nelder_mead_minimize(lambda x: x * x, 0.0)
        assert res.converged
        assert abs(res.argmin) < 1e-6
        assert res.iterations < 60

    def test_descent_from_init(self):
        f = lambda x: math.cos(x) + 0.01 * x * x
        res = nelder_mead_minimize(f, 1.0)
        assert res.min_value <= f(1.0)
        assert res.min_value == pytest.approx(f(res.argmin))

    def test_random_convex_quadratics(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            a = float(rng.uniform(0.01, 50.0))
            m = float(rng.uniform(-100.0, 100.0))
            res = nelder_mead_minimize(
                lambda x, a=a, m=m: a * (x - m) ** 2, float(rng.uniform(-100, 100)))
            assert res.converged
            assert res.argmin == pytest.approx(m, abs=1e-5)

    def test_non_finite_at_init(self):
        with pytest.raises(InputError):
            nelder_mead_minimize(lambda x: float("nan"), 0.0)
        with pytest.raises(InputError):
            nelder_mead_minimize(lambda x: float("inf"), 0.0)

    def test_non_convergence_flag(self):
        # objective decreasing without bound: expansion never settles
        res = nelder_mead_minimize(lambda x: -x, 0.0, max_iter=50)
        assert not res.converged
        assert res.iterations == 50


class TestRobustInterceptScale:
    def test_degenerate_identical(self):
        res = robust_intercept_scale([1.0, 1.0, 1.0, 1.0])
        assert res.location == 1.0
        assert res.scale == 0.0

    def test_symmetric_sample(self):
        res = robust_intercept_scale([-2.0, -1.0, 0.0, 1.0, 2.0])
        assert res.location == pytest.approx(0.0, abs=1e-12)

    def test_monte_carlo_with_gross_outliers(self):
        rng = np.random.default_rng(42)
        z = np.concatenate([rng.normal(0.0, 1.0, 1000), np.full(20, 50.0)])
        res = robust_intercept_scale(z)
        assert abs(res.location) < 0.15
        assert abs(res.scale - 1.0) < 0.15

    def test_breakdown_against_mean(self):
        # 15% contamination at +100: the biweight location stays near 0
        rng = np.random.default_rng(9)
        z = np.concatenate([rng.normal(0.0, 1.0, 170), np.full(30, 100.0)])
        res = robust_intercept_scale(z)
        assert abs(res.location) < 0.3
        assert abs(float(np.mean(z)) - res.location) > 10.0

    def test_too_few_values(self):
        with pytest.raises(InputError):
            robust_intercept_scale([1.0, 2.0])

    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            robust_intercept_scale([1.0, float("nan"), 2.0, 3.0])

    def test_no_warning_near_the_float_limits(self):
        # the suite turns warnings into errors. max - min overflows on the
        # first input, and u * u on its outer values; on the second,
        # |z - m| / (c * scale) overflows on 1e300
        res = robust_intercept_scale([-1e308, 0.0, 1e308, 1.0, 2.0])
        assert (res.location, res.scale) == (1.0, 1.4826)
        res = robust_intercept_scale([0.0, 0.0, 0.0, 1e-320, 2e-320, 3e-320, 1e300])
        assert (res.location.hex(), res.scale.hex()) == ("0x0.0000000000794p-1022",
                                                         "0x0.0000000000b3cp-1022")

    def test_iteration_cap_raises(self, monkeypatch):
        # the first step from the median moves the location by far more
        # than the tolerance, so one step cannot converge
        monkeypatch.setattr(_kernels, "IRLS_MAX_ITER", 1)
        z = np.random.default_rng(3).normal(0.0, 1.0, 50)
        with pytest.raises(ConvergenceError, match="did not converge in 1 iterations"):
            robust_intercept_scale(z)

    @given(st.floats(-1e6, 1e6, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_location_equivariance(self, shift):
        rng = np.random.default_rng(5)
        z = rng.normal(0.0, 2.0, 60)
        base = robust_intercept_scale(z)
        moved = robust_intercept_scale(z + shift)
        assert moved.location - shift == pytest.approx(
            base.location, abs=1e-9 * max(1.0, abs(shift)))
        assert moved.scale == pytest.approx(base.scale, abs=1e-9)
