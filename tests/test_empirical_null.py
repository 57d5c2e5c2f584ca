"""Empirical-null estimation: initialization, truncation, likelihood,
profile fit, corrected scores, and control limits."""

import functools
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from profile_null import (
    ConvergenceError,
    EnConfig,
    FittingError,
    InputError,
    control_limits,
    fit_empirical_null,
    initial_phi,
    nelder_mead_minimize,
    null_loglik,
    robust_intercept_scale,
    z_empirical_null,
)
from profile_null import _kernels, empirical_null, numerics


def _sizes(rng, n=212, scale=3e5):
    return np.exp(-6.0 + rng.normal(-0.4, math.sqrt(0.5), n)) * rng.exponential(scale, n)


class TestInitialPhi:
    def test_unit_scale_gives_zero(self):
        # symmetric sample engineered to a robust scale of ~1
        rng = np.random.default_rng(0)
        z = rng.normal(0.0, 1.0, 5000)
        s = robust_intercept_scale(z).scale
        phi = initial_phi(z, np.full(5000, 100.0))
        assert phi == max(0.0, (s * s - 1.0) / 100.0)

    def test_hand_value_scale_two(self):
        # construct z whose MAD-based robust scale is exactly 2 by symmetry
        z = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * (2.0 / 1.4826)
        s = robust_intercept_scale(z).scale
        phi = initial_phi(z, np.full(5, 100.0))
        assert phi == pytest.approx((s * s - 1.0) / 100.0)
        assert phi == pytest.approx(0.03, abs=0.02)

    def test_underdispersion_clamps_to_zero(self):
        z = np.array([-0.5, -0.25, 0.0, 0.25, 0.5])
        assert initial_phi(z, np.full(5, 100.0)) == 0.0


class TestTruncationBounds:
    """The fit's interval is (-B_i, B_i) with B_i = v * sqrt(1 + phi_init * n_i)."""

    def test_zero_phi(self):
        # underdispersed scores clamp phi_init to zero, so B_i = v at every size
        rng = np.random.default_rng(3)
        z = 0.3 * rng.normal(size=40)
        n = rng.uniform(10.0, 500.0, 40)
        fit = fit_empirical_null(z, n, EnConfig(q_percent=2.5))
        assert fit.phi_init == 0.0
        assert fit.v == pytest.approx(1.959964, abs=1e-6)
        assert np.array_equal(fit.interval_bounds,
                              np.column_stack([np.full(40, -fit.v), np.full(40, fit.v)]))

    def test_hand_value(self):
        rng = np.random.default_rng(0)
        n = _sizes(rng)
        z = rng.normal(0.0, np.sqrt(1.0 + 0.14 * n))
        fit = fit_empirical_null(z, n)
        assert fit.phi_init == initial_phi(z, n) > 0.0
        assert fit.v == pytest.approx(1.644854, abs=1e-6)
        lower, upper = fit.interval_bounds.T
        for k in range(0, 212, 53):
            assert upper[k] == pytest.approx(fit.v * math.sqrt(1.0 + fit.phi_init * n[k]),
                                             rel=1e-15)
        assert np.array_equal(lower, -upper)
        assert np.array_equal(fit.null_set, np.abs(z) <= upper)

    def test_zero_size(self):
        # no interval is formed for a center without size: the fit refuses it
        rng = np.random.default_rng(0)
        n = _sizes(rng)
        n[5] = 0.0
        with pytest.raises(InputError, match="sizes must be positive"):
            fit_empirical_null(rng.normal(size=212), n)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_size(self, bad):
        # refused up front, before the bound turns NaN and numpy warns
        rng = np.random.default_rng(0)
        n = _sizes(rng)
        n[5] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="sizes contains non-finite"):
                fit_empirical_null(rng.normal(size=212), n)


class TestNullLoglik:
    def test_single_in_null_center(self):
        ll = null_loglik(0.0, 1.0, [0.0], [7.0], [True], [(-1.96, 1.96)])
        assert ll == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-6)
        assert ll == pytest.approx(-0.918939, abs=1e-6)

    def test_single_out_of_null_center(self):
        ll = null_loglik(0.0, 0.9, [5.0], [7.0], [False], [(-1.96, 1.96)])
        assert ll == pytest.approx(math.log(0.145), abs=1e-4)

    def test_vanishing_null_mass(self):
        ll = null_loglik(0.0, 1e-15, [5.0, -6.0], [7.0, 8.0], [False, False],
                         [(-1.96, 1.96)] * 2)
        assert ll == pytest.approx(0.0, abs=1e-10)

    def test_impossible_mass_returns_neg_inf(self):
        # bounds wide enough that Q = 1: pi0 = 1 makes the out-of-set term 0
        ll = null_loglik(0.0, 1.0, [60.0], [1.0], [False], [(-50.0, 50.0)])
        assert ll == -math.inf

    def test_parameter_validation(self):
        with pytest.raises(InputError):
            null_loglik(-0.1, 0.9, [0.0], [1.0], [True], [(-1, 1)])
        with pytest.raises(InputError):
            null_loglik(0.1, 0.0, [0.0], [1.0], [True], [(-1, 1)])
        with pytest.raises(InputError, match="phi must be nonnegative, got nan"):
            null_loglik(math.nan, 0.9, [0.0], [1.0], [True], [(-1, 1)])

    @pytest.mark.parametrize("pair", [(-100.0, 1.96), (3.0, 1.96), (1.0, -1.0),
                                      (math.nan, math.nan)])
    def test_interval_must_be_symmetric(self, pair):
        # the kernel reads only B_i, so any other lower bound was ignored
        with pytest.raises(InputError, match=r"bounds\[1\] is not \(-B, B\)"):
            null_loglik(0.1, 0.9, [0.0, 3.0], [1.0, 2.0], [True, False],
                        [(-1.96, 1.96), pair])
        assert null_loglik(0.1, 0.9, [0.0, 3.0], [1.0, 2.0], [True, False],
                           [(-1.96, 1.96), (-0.0, 0.0)]) < 0.0


class TestFitEmpiricalNull:
    def test_recovers_known_overdispersion(self):
        # z drawn exactly from the model: mean phi_hat near the truth
        truth = 0.14
        rng = np.random.default_rng(314)
        phis = []
        for _ in range(400):
            n = _sizes(rng)
            z = rng.normal(0.0, np.sqrt(1.0 + truth * n))
            phis.append(fit_empirical_null(z, n).phi_hat)
        assert float(np.mean(phis)) == pytest.approx(truth, abs=0.03)

    def test_null_truth_phi_zero(self):
        rng = np.random.default_rng(27)
        small = 0
        for _ in range(120):
            n = _sizes(rng)
            z = rng.normal(0.0, 1.0, n.size)
            if fit_empirical_null(z, n).phi_hat <= 0.01:
                small += 1
        assert small >= 0.9 * 120

    def test_degenerate_null_set(self):
        rng = np.random.default_rng(5)
        n = np.full(50, 100.0)
        z = rng.choice([-1.0, 1.0], 50) * 1e4
        with pytest.raises(FittingError):
            fit_empirical_null(z, n)

    def test_too_few_centers(self):
        with pytest.raises(FittingError):
            fit_empirical_null([0.0] * 9, [1.0] * 9)

    def test_fit_metadata_consistency(self):
        rng = np.random.default_rng(8)
        n = _sizes(rng)
        z = rng.normal(0.0, np.sqrt(1.0 + 0.1 * n))
        fit = fit_empirical_null(z, n, EnConfig(q_percent=5.0), a_psi=2.0,
                                 measure_id="M")
        assert fit.measure_id == "M"
        assert fit.sigma2_alpha_hat == pytest.approx(2.0 * fit.phi_hat)
        assert fit.v == pytest.approx(1.6448536, abs=1e-6)
        # interval bounds follow the initial phi, not the fitted one
        expect_b = fit.v * np.sqrt(1.0 + fit.phi_init * n)
        assert np.allclose(fit.interval_bounds[:, 1], expect_b)
        assert np.allclose(fit.interval_bounds[:, 0], -expect_b)
        assert np.array_equal(fit.null_set, np.abs(z) <= expect_b)
        assert 0.8 <= fit.pi0_hat <= 1.0

    def test_likelihood_ascent_over_grid(self):
        rng = np.random.default_rng(99)
        n = _sizes(rng)
        z = rng.normal(0.0, np.sqrt(1.0 + 0.2 * n))
        cfg = EnConfig()
        fit = fit_empirical_null(z, n, cfg)
        bounds = [tuple(row) for row in fit.interval_bounds]
        for pi0 in cfg.pi0_grid():
            ll_init = null_loglik(fit.phi_init, float(pi0), z, n,
                                  fit.null_set, bounds)
            assert fit.loglik >= ll_init - 1e-9

    def test_outlier_robustness(self):
        # 10% contamination at +/-1 moves the mean fit by under 25%
        rng = np.random.default_rng(2718)
        base_phis, contam_phis = [], []
        for _ in range(150):
            n = _sizes(rng)
            z = rng.normal(0.0, np.sqrt(1.0 + 0.14 * n))
            base_phis.append(fit_empirical_null(z, n).phi_hat)
            zc = z.copy()
            k = 10
            zc[1:1 + k] += (np.exp(1.0) - 1.0) * np.sqrt(n[1:1 + k])
            zc[1 + k:1 + 2 * k] += (np.exp(-1.0) - 1.0) * np.sqrt(n[1 + k:1 + 2 * k])
            contam_phis.append(fit_empirical_null(zc, n).phi_hat)
        base = float(np.mean(base_phis))
        contam = float(np.mean(contam_phis))
        assert abs(contam - base) / base < 0.25


def _per_grid_fit(z, n, cfg, fit, max_iter=500):
    """The profile fit as one scalar Nelder-Mead run per pi0 grid point, the
    loop the lockstep fit replaced, from the fit's own interval and null set.
    Returns (phi_hat, pi0_hat, loglik) and the per-grid results."""
    b_upper = fit.interval_bounds[:, 1]
    u_init = math.log(fit.phi_init + _kernels.EPS_PHI)
    best_ll, best_u, best_pi0 = -math.inf, u_init, math.nan
    runs = []
    for pi0 in cfg.pi0_grid():
        pi0f = float(pi0)
        res = nelder_mead_minimize(
            lambda u: float(_kernels.neg_null_loglik_u(
                np.array([u]), np.array([pi0f]),
                _kernels.FitArrays(z, n, fit.null_set, b_upper))[0]),
            u_init, max_iter=max_iter)
        runs.append(res)
        if -res.min_value >= best_ll:
            best_ll, best_u, best_pi0 = -res.min_value, res.argmin, pi0f
    if not any(r.converged for r in runs):
        raise ConvergenceError("no grid point converged")
    phi_hat = max(0.0, math.exp(best_u) - _kernels.EPS_PHI)
    return (phi_hat, best_pi0, best_ll), runs


def _contaminated(n_centers, phi, seed):
    """Scores with variance 1 + phi*n and 10% outliers shifted by 1.5 sqrt(n)."""
    rng = np.random.default_rng(seed)
    n = _sizes(rng, n_centers)
    z = rng.normal(0.0, np.sqrt(1.0 + phi * n))
    k = n_centers // 10
    z[:k] += rng.choice([-1.0, 1.0], k) * 1.5 * np.sqrt(n[:k])
    return z, n


class TestLockstepFit:
    """The lockstep fit against one Nelder-Mead run per grid point: the same
    estimates, bit for bit, and the same per-grid record."""

    def _assert_same_fit(self, z, n, cfg):
        fit = fit_empirical_null(z, n, cfg)
        (phi_hat, pi0_hat, loglik), runs = _per_grid_fit(z, n, cfg, fit)
        assert (fit.phi_hat, fit.pi0_hat, fit.loglik) == (phi_hat, pi0_hat, loglik)
        assert fit.profile_loglik.tolist() == [-r.min_value for r in runs]
        assert fit.nm_iterations.tolist() == [r.iterations for r in runs]
        assert fit.nm_converged.tolist() == [r.converged for r in runs]

    @pytest.mark.parametrize("n_centers", [12, 212, 2000])
    @pytest.mark.parametrize("q", [2.5, 5.0, 20.0])
    @pytest.mark.parametrize("phi", [0.0, 0.01])
    def test_bit_identical_to_per_grid_runs(self, n_centers, q, phi):
        z, n = _contaminated(n_centers, phi, seed=n_centers + int(10 * q))
        self._assert_same_fit(z, n, EnConfig(q_percent=q))

    @pytest.mark.parametrize("grid", [dict(pi0_grid_step=0.09),
                                      dict(pi0_grid_lo=0.9, pi0_grid_hi=0.9)])
    def test_other_grids(self, grid):
        z, n = _contaminated(212, 0.01, seed=4)
        cfg = EnConfig(**grid)
        assert len(cfg.pi0_grid()) == (4 if "pi0_grid_step" in grid else 1)
        self._assert_same_fit(z, n, cfg)

    def test_small_erfc_row_store(self, monkeypatch):
        # a store of 5 rows drops rows the fit asks for again
        z, n = _contaminated(212, 0.01, seed=5)
        n_out = int(np.sum(~fit_empirical_null(z, n).null_set))
        monkeypatch.setattr(_kernels, "_ERFC_ROW_ELEMENTS", 5 * n_out)
        self._assert_same_fit(z, n, EnConfig())

    def test_each_erfc_row_is_computed_once_per_fit(self, monkeypatch):
        z, n = _contaminated(212, 0.01, seed=8)
        n_erfc, phis = [0], set()
        erfc, kernel = _kernels._erfc, _kernels.neg_null_loglik_u

        def counting_erfc(x):
            n_erfc[0] += x.size
            return erfc(x)

        def recording_kernel(u, *args):
            phis.update(0.0 if x > 690.0 else max(0.0, math.exp(x) - _kernels.EPS_PHI)
                        for x in np.ravel(u).tolist())
            return kernel(u, *args)

        monkeypatch.setattr(_kernels, "_erfc", counting_erfc)
        monkeypatch.setattr(_kernels, "neg_null_loglik_u", recording_kernel)
        fit = fit_empirical_null(z, n)
        assert len(phis) > 100
        assert n_erfc[0] == int(np.sum(~fit.null_set)) * len(phis)

    def test_each_column_is_evaluated_once_per_point(self, monkeypatch):
        z, n = _contaminated(212, 0.01, seed=9)
        points = []
        kernel = _kernels.neg_null_loglik_u

        def recording_kernel(u, pi0, *args):
            points.extend(zip(pi0.tolist(), u.tolist()))
            return kernel(u, pi0, *args)

        monkeypatch.setattr(_kernels, "neg_null_loglik_u", recording_kernel)
        fit_empirical_null(z, n)
        assert len(points) > 1000
        assert len(points) == len(set(points))

    def test_iteration_cap_fails_both_ways(self, monkeypatch):
        z, n = _contaminated(212, 0.01, seed=6)
        fit = fit_empirical_null(z, n)
        monkeypatch.setattr(empirical_null, "nelder_mead_lockstep",
                            functools.partial(numerics.nelder_mead_lockstep, max_iter=1))
        with pytest.raises(ConvergenceError):
            fit_empirical_null(z, n)
        with pytest.raises(ConvergenceError):
            _per_grid_fit(z, n, EnConfig(), fit, max_iter=1)

    def test_not_finite_at_init_is_an_input_error(self, monkeypatch):
        # no likelihood at pi0 = 1 already at the starting phi
        z, n = _contaminated(212, 0.01, seed=6)
        fit = fit_empirical_null(z, n)
        kernel = _kernels.neg_null_loglik_u

        def no_mass_at_one(u, pi0, *data):
            return np.where(np.asarray(pi0) == 1.0, np.nan, kernel(u, pi0, *data))

        monkeypatch.setattr(_kernels, "neg_null_loglik_u", no_mass_at_one)
        with pytest.raises(InputError, match="not finite at init"):
            fit_empirical_null(z, n)
        with pytest.raises(InputError, match="not finite at init"):
            _per_grid_fit(z, n, EnConfig(), fit)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_record_explains_the_estimate(self, seed):
        z, n = _contaminated(212, 0.01, seed)
        cfg = EnConfig()
        fit = fit_empirical_null(z, n, cfg)
        profile = fit.profile_loglik
        assert profile.shape == fit.nm_iterations.shape == fit.nm_converged.shape \
            == cfg.pi0_grid().shape
        # ties go to the larger pi0
        assert fit.pi0_hat == cfg.pi0_grid()[np.flatnonzero(profile == profile.max())[-1]]
        assert fit.loglik == profile.max()
        assert np.all(fit.nm_iterations >= 1) and fit.nm_converged.any()


def _golden_max(f, lo, hi, iterations=80):
    """Golden-section search for the maximum of each column of the batched
    f(x) over [lo, hi]; returns the largest value seen per column."""
    r = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - r * (hi - lo), lo + r * (hi - lo)
    fc, fd = f(c), f(d)
    best = np.maximum(fc, fd)
    for _ in range(iterations):
        left = fc >= fd
        hi, lo = np.where(left, d, hi), np.where(left, lo, c)
        c, d = np.where(left, hi - r * (hi - lo), d), np.where(left, c, lo + r * (hi - lo))
        new = f(np.where(left, c, d))
        fc, fd = np.where(left, new, fd), np.where(left, fc, new)
        best = np.maximum(best, new)
    return best


class TestProfileOracle:
    """Each grid point's profile log-likelihood against a dense scan of u
    over [-25, 5] refined by golden-section search, through the same
    kernel but not through Nelder-Mead."""

    @pytest.mark.parametrize("n_centers", [50, 212])
    @pytest.mark.parametrize("outliers", [0.0, 0.1])
    def test_profile_matches_scan_and_refine(self, n_centers, outliers):
        rng = np.random.default_rng(n_centers + int(100 * outliers))
        n = _sizes(rng, n_centers)
        z = rng.normal(0.0, np.sqrt(1.0 + 0.05 * n))
        k = int(outliers * n_centers)
        z[:k] += rng.choice([-1.0, 1.0], k) * 1.5 * np.sqrt(n[:k])
        fit = fit_empirical_null(z, n)
        grid = EnConfig().pi0_grid()
        arrays = _kernels.FitArrays(z, n, fit.null_set, fit.interval_bounds[:, 1])

        def loglik(u, pi0):
            return -_kernels.neg_null_loglik_u(u, pi0, arrays)

        scan = np.linspace(-25.0, 5.0, 2401)
        values = loglik(np.tile(scan, grid.size),
                        np.repeat(grid, scan.size)).reshape(grid.size, scan.size)
        at = np.argmax(values, axis=1)
        du = scan[1] - scan[0]
        refined = _golden_max(lambda u: loglik(u, grid), scan[at] - du, scan[at] + du)
        oracle = np.maximum(values.max(axis=1), refined)
        assert np.all(np.isfinite(oracle))
        assert np.max(np.abs(fit.profile_loglik - oracle)) <= 1e-9


class TestZEmpiricalNull:
    def test_identity_at_zero_phi(self):
        assert z_empirical_null(2.3, 500.0, 0.0) == 2.3
        assert z_empirical_null(1.7, 0.0, 0.5) == 1.7

    def test_hand_values(self):
        assert z_empirical_null(3.0, 100.0, 0.14) == pytest.approx(0.774597, abs=1e-5)
        assert z_empirical_null(-2.5, 50.0, 0.24) == pytest.approx(-0.693375, abs=1e-5)
        # a method-of-moments estimate rescales the same way
        assert z_empirical_null(3.0, 100.0, 0.15) == pytest.approx(0.75, abs=1e-10)

    def test_arrays_match_scalars(self):
        rng = np.random.default_rng(5)
        z, n = rng.normal(0, 3, 50), rng.uniform(0, 500, 50)
        out = z_empirical_null(z, n, 0.14)
        assert out.tolist() == [z_empirical_null(float(a), float(b), 0.14)
                                for a, b in zip(z, n)]

    def test_validation(self):
        with pytest.raises(InputError):
            z_empirical_null(1.0, 10.0, -0.01)
        with pytest.raises(InputError):
            z_empirical_null([1.0, 1.0], [10.0, -1.0], 0.1)

    @given(st.floats(-30, 30, allow_nan=False),
           st.floats(0, 1e4, allow_nan=False),
           st.floats(0, 10, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_shrinkage_and_sign(self, z, size, phi):
        corrected = z_empirical_null(z, size, phi)
        assert abs(corrected) <= abs(z) + 1e-15
        if math.sqrt(1.0 + phi * size) == 1.0:
            assert corrected == z
        elif z != 0.0:
            # strict shrinkage is representable only for normal floats:
            # 5e-324 / sqrt(2) rounds back to 5e-324
            if abs(z) >= sys.float_info.min:
                assert abs(corrected) < abs(z)
            assert math.copysign(1, corrected) == math.copysign(1, z)


class TestControlLimits:
    def test_fixed_effects_hand_value(self):
        lo, hi = control_limits(0.0, 100.0, 100.0)
        assert lo == pytest.approx(0.804, abs=1e-3)
        assert hi == pytest.approx(1.196, abs=1e-3)

    def test_empirical_null_hand_value(self):
        lo, hi = control_limits(0.14, 100.0, 100.0)
        assert lo == pytest.approx(0.241, abs=1e-3)
        assert hi == pytest.approx(1.759, abs=1e-3)

    def test_limits_tighten_with_precision(self):
        lo, hi = control_limits(0.0, 1e9, 1e9)
        assert lo == pytest.approx(1.0, abs=1e-3)
        assert hi == pytest.approx(1.0, abs=1e-3)

    def test_monotone_widening_in_phi(self):
        widths = [control_limits(phi, 100.0, 100.0)[1] -
                  control_limits(phi, 100.0, 100.0)[0]
                  for phi in (0.0, 0.05, 0.1, 0.2, 0.5)]
        assert all(a < b for a, b in zip(widths, widths[1:]))

    def test_monotone_widening_in_size_on_count_scale(self):
        # absolute half-width alpha*sqrt(a*n*(1+phi*n)) grows with size; on
        # the ratio scale the funnel narrows instead
        abs_widths = [n * (control_limits(0.14, n, n)[1] -
                           control_limits(0.14, n, n)[0])
                      for n in (10.0, 100.0, 1000.0)]
        assert abs_widths[0] < abs_widths[1] < abs_widths[2]
        ratio_widths = [control_limits(0.0, n, n)[1] - control_limits(0.0, n, n)[0]
                        for n in (10.0, 100.0, 1000.0)]
        assert ratio_widths[0] > ratio_widths[1] > ratio_widths[2]

    def test_validation(self):
        with pytest.raises(InputError):
            control_limits(0.1, 0.0, 10.0)
        with pytest.raises(InputError):
            control_limits(0.1, 10.0, 10.0, alpha_z=0.0)


class TestEnConfig:
    def test_grid_endpoints_and_length(self):
        grid = EnConfig().pi0_grid()
        assert grid[0] == pytest.approx(0.80)
        assert grid[-1] == pytest.approx(1.00)
        assert len(grid) == 41

    def test_default_grid_unchanged(self):
        # the grid every fit used before the grid was defined as lo + k*step
        old = np.clip(0.80 + 0.005 * np.arange(41), 0.80, 1.00)
        assert EnConfig().pi0_grid().tobytes() == old.tobytes()

    @pytest.mark.parametrize("step,expected", [
        (0.09, [0.80, 0.89, 0.98, 1.00]),
        (0.3, [0.80, 1.00]),
        (0.1, [0.80, 0.90, 1.00]),
    ])
    def test_grid_always_ends_at_hi(self, step, expected):
        grid = EnConfig(pi0_grid_step=step).pi0_grid()
        assert grid == pytest.approx(expected)
        assert grid[-1] == 1.0
        assert np.all(np.diff(grid) > 0)

    def test_validation(self):
        with pytest.raises(InputError):
            EnConfig(q_percent=0.0)
        with pytest.raises(InputError):
            EnConfig(q_percent=50.0)
        with pytest.raises(InputError):
            EnConfig(pi0_grid_lo=0.9, pi0_grid_hi=0.8)
        with pytest.raises(InputError):
            EnConfig(pi0_grid_hi=1.2)
        with pytest.raises(InputError):
            EnConfig(pi0_grid_step=0.0)

    @pytest.mark.parametrize("setting", ["pi0_grid_step"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_setting_rejected(self, setting, value):
        # a NaN step made pi0_grid() raise a bare ValueError and an inf one
        # gave a grid of NaN
        with pytest.raises(InputError, match=setting):
            EnConfig(**{setting: value})

    def test_pi0_estimate_lies_on_grid(self):
        rng = np.random.default_rng(64)
        cfg = EnConfig()
        grid = cfg.pi0_grid()
        for _ in range(5):
            n = _sizes(rng)
            z = rng.normal(0.0, np.sqrt(1.0 + 0.1 * n))
            fit = fit_empirical_null(z, n, cfg)
            assert np.min(np.abs(grid - fit.pi0_hat)) < 1e-12

    def test_nonconvergence_at_every_grid_point(self, monkeypatch):
        from profile_null import ConvergenceError
        rng = np.random.default_rng(65)
        n = _sizes(rng)
        z = rng.normal(0.0, np.sqrt(1.0 + 0.1 * n))
        monkeypatch.setattr(empirical_null, "nelder_mead_lockstep",
                            functools.partial(numerics.nelder_mead_lockstep, max_iter=1))
        with pytest.raises(ConvergenceError):
            fit_empirical_null(z, n)
