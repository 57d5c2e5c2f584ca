"""Normal distribution functions, the 1-d minimizers, and robust estimation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from profile_null import (
    InputError,
    nelder_mead_minimize,
    robust_intercept_scale,
    std_normal_cdf,
    std_normal_quantile,
)
from profile_null.numerics import nelder_mead_lockstep


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


def _one_column_nelder_mead(objective, init, tol=1e-8, max_iter=500, step=0.5,
                            xtol=1e-6):
    """The scalar Nelder-Mead loop the lockstep minimizer replaced: the
    choices and points each of its columns must reproduce."""

    def f(x):
        val = objective(x)
        return math.inf if math.isnan(val) else val

    fa = f(init)
    if not math.isfinite(fa):
        raise InputError("objective is not finite at init")
    a, b = init, init + step
    fb = f(b)
    if fb < fa:
        a, b, fa, fb = b, a, fb, fa
    iterations, converged = 0, False
    while iterations < max_iter:
        iterations += 1
        if abs(fa - fb) < tol and abs(b - a) < xtol:
            converged = True
            break
        xr = 2.0 * a - b
        fr = f(xr)
        if fr < fa:
            xe = 3.0 * a - 2.0 * b
            fe = f(xe)
            b, fb = (xe, fe) if fe < fr else (xr, fr)
        elif fr < fb:
            b, fb = xr, fr
        else:
            b = 0.5 * (a + b)
            fb = f(b)
        if fb < fa:
            a, b, fa, fb = b, a, fb, fa
    return a, fa, iterations, converged


class TestNelderMeadLockstep:
    # (objective, init): columns that stop at different iterations, one that
    # never converges, and two whose objective is NaN or inf away from init
    COLUMNS = [
        (lambda x: (x - 3.0) ** 2, 0.0),
        (lambda x: 50.0 * (x + 1.0) ** 2, 4.0),
        (lambda x: abs(x) + 0.1 * x * x, 5.0),
        (lambda x: -x, 0.0),
        (lambda x: math.nan if x > 1.2 else x * x - 2.0 * x, 0.5),
        (lambda x: math.inf if x < -0.5 else (x + 0.3) ** 2, 0.0),
        (lambda x: math.cos(x) + 0.01 * x * x, 1.0),
        (lambda x: (x - 3.0) ** 2, 0.0),
    ]

    def test_columns_match_their_own_runs(self):
        calls = []

        def objective(x, columns):
            calls.append(len(columns))
            return [self.COLUMNS[c][0](float(xi)) for xi, c in zip(x, columns)]

        res = nelder_mead_lockstep(objective, [init for _, init in self.COLUMNS],
                                   max_iter=60)
        assert len(set(res.iterations.tolist())) >= 4
        assert res.iterations[3] == 60 and not res.converged[3]
        assert res.converged.sum() == len(self.COLUMNS) - 1
        for k, (fn, init) in enumerate(self.COLUMNS):
            one = nelder_mead_minimize(fn, init, max_iter=60)
            got = (float(res.argmin[k]), float(res.min_value[k]),
                   int(res.iterations[k]), bool(res.converged[k]))
            assert got == (one.argmin, one.min_value, one.iterations, one.converged)
            assert got == _one_column_nelder_mead(fn, init, max_iter=60)
        # two calls to start, then at most two per step for the whole batch
        assert len(calls) <= 2 + 2 * 60

    def test_non_finite_at_init_names_the_column(self):
        with pytest.raises(InputError, match="column 1"):
            nelder_mead_lockstep(
                lambda x, cols: np.where(cols == 1, np.nan, x * x), [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("max_iter", [0, 1, 2])
    def test_iteration_cap(self, max_iter):
        fns = [lambda x: (x - 3.0) ** 2, lambda x: -x]
        res = nelder_mead_lockstep(
            lambda x, cols: [fns[c](float(xi)) for xi, c in zip(x, cols)],
            [0.0, 0.0], max_iter=max_iter)
        for k, fn in enumerate(fns):
            assert (float(res.argmin[k]), float(res.min_value[k]), int(res.iterations[k]),
                    bool(res.converged[k])) == _one_column_nelder_mead(fn, 0.0,
                                                                       max_iter=max_iter)


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
