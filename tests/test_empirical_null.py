"""Empirical-null estimation: initialization, truncation, likelihood,
profile fit, corrected scores, and control limits."""

import dataclasses
import json
import math
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from profile_null import (
    ConvergenceError,
    EnConfig,
    FittingError,
    InputError,
    control_limits,
    fit_empirical_null,
    fit_method_of_moments,
    group_variance_diagnostic,
    initial_phi,
    null_loglik,
    robust_intercept_scale,
    z_empirical_null,
    z_fixed_effects,
)
from profile_null import _kernels, empirical_null
from profile_null.simulation import SimConfig, gen_single_measure

FIXTURES = Path(__file__).parent / "fixtures"


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

    @pytest.mark.parametrize("bad, match", [
        (math.nan, "sizes contains non-finite"), (math.inf, "sizes contains non-finite"),
        (-math.inf, "sizes contains non-finite"), (-10.0, "sizes must be positive"),
        (0.0, "sizes must be positive")])
    def test_sizes_are_checked_as_the_fit_checks_them(self, bad, match):
        # each of these once returned 0.0
        z = np.random.default_rng(1).normal(0.0, 3.0, 50)
        n = np.full(50, 10.0)
        n[7] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=match):
                initial_phi(z, n)
            with pytest.raises(InputError, match=match):
                fit_empirical_null(z, n)

    @pytest.mark.parametrize("z, n", [
        (np.zeros((10, 5)), np.ones((10, 5))), (np.zeros(50), np.ones(49)),
        (np.zeros(5), np.ones((5, 1))), (0.0, 1.0)])
    def test_shape_is_checked_as_the_fit_checks_it(self, z, n):
        # the moment fit and the size-group diagnostic share the check
        for fn in (initial_phi, fit_empirical_null, fit_method_of_moments,
                   lambda z, n: group_variance_diagnostic(z, n, 2)):
            with pytest.raises(InputError, match="equal-length 1-d"):
                fn(z, n)

    def test_overflow_is_an_input_error(self):
        # a robust scale of about 1e160 squares beyond the float range
        z = np.random.default_rng(0).normal(size=50) * 1e160
        with pytest.raises(InputError, match="initial phi overflows the float range"):
            initial_phi(z, np.full(50, 10.0))

    def test_non_finite_z(self):
        with pytest.raises(InputError, match="z contains non-finite"):
            initial_phi([0.0, 1.0, math.nan, 2.0], [1.0] * 4)


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
        with pytest.raises(InputError, match="phi must be nonnegative and finite, got nan"):
            null_loglik(math.nan, 0.9, [0.0], [1.0], [True], [(-1, 1)])
        with pytest.raises(InputError, match="phi must be nonnegative and finite, got inf"):
            null_loglik(math.inf, 0.9, [0.0], [1.0], [True], [(-1, 1)])

    # each of z and sizes is checked as the fit checks it, before a NaN
    # reaches the result or a negative 1 + phi*n the log
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_z(self, bad):
        with pytest.raises(InputError, match="z contains non-finite values"):
            null_loglik(0.1, 0.9, [0.0, bad], [1.0, 2.0], [True, False], [(-1.96, 1.96)] * 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_size(self, bad):
        with pytest.raises(InputError, match="sizes contains non-finite values"):
            null_loglik(0.1, 0.9, [0.0, 3.0], [1.0, bad], [True, False], [(-1.96, 1.96)] * 2)

    @pytest.mark.parametrize("bad", [0.0, -20.0])
    @pytest.mark.parametrize("inside", [True, False])
    def test_size_not_positive(self, bad, inside):
        # -20 makes 1 + phi*n negative, in the log or in the square root
        with pytest.raises(InputError, match="sizes must be positive"):
            null_loglik(0.1, 0.9, [0.0, 3.0], [1.0, bad], [True, inside], [(-1.96, 1.96)] * 2)

    def test_overflowing_variance_gives_the_limit(self):
        # 1 + phi*n overflows at n = 2: the out-of-interval term tends to
        # log(1 - 0) = 0, with no overflow warning
        ll = null_loglik(1e308, 0.9, [0.0, 3.0], [1.0, 2.0], [True, False],
                         [(-1.96, 1.96)] * 2)
        assert ll == null_loglik(1e308, 0.9, [0.0], [1.0], [True], [(-1.96, 1.96)])
        assert ll == pytest.approx(math.log(0.9) - 0.5 * (math.log(2 * math.pi) + math.log(1e308)),
                                   rel=1e-12)

    @pytest.mark.parametrize("n_centers", [12, 212, 2000])
    def test_matches_the_fit_bit_for_bit(self, n_centers, monkeypatch):
        # the public likelihood and the fit's profile close on one path, at
        # the point where the root search of pi0_hat stopped; phi_hat is
        # the Newton step from that point, one small enough to stop on
        rng = np.random.default_rng(n_centers)
        n = _sizes(rng, n_centers)
        z = rng.normal(0.0, np.sqrt(1.0 + 0.05 * n))
        z[:n_centers // 10] += 4.0
        at_points = _recording(monkeypatch, "null_loglik_core")
        fit = fit_empirical_null(z, n)
        points, pi0, _ = at_points[0]
        point = float(points[pi0.tolist().index(fit.pi0_hat)])
        assert null_loglik(point, fit.pi0_hat, z, n, fit.null_set,
                           fit.interval_bounds) == fit.loglik
        arrays = _kernels.FitArrays(z, n, fit.null_set, fit.interval_bounds[:, 1])
        f, df, _ = (float(v[0]) for v in _kernels.null_score_core(
            np.array([point]), np.array([fit.pi0_hat]), arrays))
        assert df < 0.0 and abs(f / df) <= _newton_stop(point, 1.0 / float(np.mean(n)))
        assert fit.phi_hat == max(0.0, point - f / df)

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

    def test_overflowing_start_is_an_input_error(self):
        # where it was a RuntimeWarning (an error here) in the score kernel
        z = np.random.default_rng(0).normal(size=50) * 1e160
        with pytest.raises(InputError, match="initial phi overflows the float range"):
            fit_empirical_null(z, np.full(50, 10.0))

    def test_overflowing_mean_size_is_an_input_error(self):
        # where it was a RuntimeWarning (an error here) in np.mean; a start
        # is checked after the sizes
        z = np.random.default_rng(0).normal(size=50)
        sizes = np.full(50, 1e308)
        start = fit_empirical_null(*_contaminated(50, 0.01, seed=3))
        for fit in (lambda: initial_phi(z, sizes), lambda: fit_empirical_null(z, sizes),
                    lambda: fit_empirical_null(z, sizes, start=start)):
            with pytest.raises(InputError, match="mean of the sizes overflows the float range"):
                fit()

    def test_overflowing_interval_is_an_input_error(self):
        # a finite initial phi of 9.3e305 times the size 500 overflows the
        # interval bound, where it was a RuntimeWarning (an error here)
        z = np.random.default_rng(0).normal(size=1000) * 1e153
        sizes = np.full(1000, 0.5)
        sizes[0] = 500.0
        assert 9e305 < initial_phi(z, sizes) < math.inf
        with pytest.raises(InputError, match="truncation interval overflows the float range"):
            fit_empirical_null(z, sizes)

    def test_too_few_centers(self):
        with pytest.raises(FittingError):
            fit_empirical_null([0.0] * 9, [1.0] * 9)

    def test_error_precedence(self):
        # shape, then the center count, then the values, then the start
        start = fit_empirical_null(*_contaminated(12, 0.01, seed=3))
        with pytest.raises(InputError, match="equal-length 1-d"):
            fit_empirical_null([math.nan] * 9, [1.0] * 8, start=start)
        with pytest.raises(FittingError, match="at least 10 centers"):
            fit_empirical_null([math.nan] * 9, [-1.0] * 9, start=start)
        with pytest.raises(InputError, match="z contains non-finite"):
            fit_empirical_null([math.nan] * 10, [-1.0] * 10, start=start)
        with pytest.raises(InputError, match="start is a fit of 12 centers, not 10"):
            fit_empirical_null([0.0] * 10, [1.0] * 10, start=start)

    @pytest.mark.parametrize("n_centers", [12, 50, 212, 1000, 8000])
    @pytest.mark.parametrize("q", [2.5, 5.0, 10.0, 15.0])
    def test_given_phi_init_gives_the_same_fit(self, n_centers, q):
        # a start gives the fit its phi_init: started from the fit of the same
        # data at the neighbouring q, the fit has the interval, null set and
        # pi0_hat of the fit without a start, bit for bit, and roots within
        # the phi_hat bound of TestMetamorphic (at most 2.1e-13 apart here)
        neighbour = {2.5: 5.0, 5.0: 2.5, 10.0: 5.0, 15.0: 10.0}[q]
        for outliers in (0.0, 0.1):
            for phi in (0.0, 0.01, 0.05):
                seed = n_centers + int(100 * outliers) + int(1000 * phi)
                z, n = _contaminated(n_centers, phi, seed, outliers)
                start = fit_empirical_null(z, n, EnConfig(q_percent=neighbour))
                cold = fit_empirical_null(z, n, EnConfig(q_percent=q))
                warm = fit_empirical_null(z, n, EnConfig(q_percent=q), start=start)
                where = f"outliers {outliers}, phi {phi}"
                assert (warm.phi_init, warm.v, warm.pi0_hat) \
                    == (cold.phi_init, cold.v, cold.pi0_hat), where
                assert warm.interval_bounds.tobytes() == cold.interval_bounds.tobytes(), where
                assert warm.null_set.tobytes() == cold.null_set.tobytes(), where
                assert np.allclose(warm.profile_phi, cold.profile_phi, rtol=1e-12,
                                   atol=0.0), where

    @pytest.mark.parametrize("bad", [-1e-3, math.nan, math.inf])
    def test_phi_init_must_be_finite_and_nonnegative(self, bad):
        # the start's phi_init, and its roots
        z, n = _contaminated(212, 0.01, seed=3)
        start = fit_empirical_null(z, n)
        roots = np.where(start.profile_phi == start.phi_hat, bad, start.profile_phi)
        for changed in (dict(phi_init=bad), dict(profile_phi=roots)):
            with pytest.raises(InputError, match="must be finite and nonnegative"):
                fit_empirical_null(z, n, start=dataclasses.replace(start, **changed))

    def test_start_must_be_on_the_same_grid(self):
        # its number of centers is in test_error_precedence
        z, n = _contaminated(212, 0.01, seed=3)
        start = fit_empirical_null(z, n)
        with pytest.raises(InputError, match="start has 41 pi0 grid points, not 21"):
            fit_empirical_null(z, n, EnConfig(pi0_grid_step=0.01), start=start)

    def test_fit_metadata_consistency(self):
        rng = np.random.default_rng(8)
        n = _sizes(rng)
        z = rng.normal(0.0, np.sqrt(1.0 + 0.1 * n))
        fit = fit_empirical_null(z, n, EnConfig(q_percent=5.0))
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


def _contaminated(n_centers, phi, seed, outliers=0.1):
    """Scores with variance 1 + phi*n and an ``outliers`` share shifted by
    1.5 sqrt(n)."""
    rng = np.random.default_rng(seed)
    n = _sizes(rng, n_centers)
    z = rng.normal(0.0, np.sqrt(1.0 + phi * n))
    k = int(outliers * n_centers)
    z[:k] += rng.choice([-1.0, 1.0], k) * 1.5 * np.sqrt(n[:k])
    return z, n


# (n_centers, q_percent, outlier share) of the fits whose profiles the
# Nelder-Mead fit left in fixtures/nelder_mead_profiles.json
PROFILE_CORPUS = [(n, q, out) for n in (12, 50, 212, 1000, 8000)
                  for q in (2.5, 5.0, 20.0) for out in (0.0, 0.1)] \
    + [(32000, 5.0, 0.0), (32000, 20.0, 0.1)]


def _corpus_inputs(k):
    """Scores and sizes of corpus fit k, with phi 0, 0.01 and 0.05 in turn."""
    n_centers, _, outliers = PROFILE_CORPUS[k]
    return _contaminated(n_centers, (0.0, 0.01, 0.05)[k % 3], 1000 + k, outliers)


def _one_point_fit(z, n, cfg, pi0):
    """The fit of (z, n) on a pi0 grid of the one point ``pi0``."""
    return fit_empirical_null(z, n, dataclasses.replace(cfg, pi0_grid_lo=pi0,
                                                        pi0_grid_hi=pi0))


def _recording(monkeypatch, name):
    """Rebind the kernel ``name`` to one that keeps the (phi, pi0) arrays
    and the further arguments of every call in the returned list."""
    calls, kernel = [], getattr(_kernels, name)

    def recording_kernel(phi, pi0, arrays, *rest):
        calls.append((phi.copy(), pi0.copy(), *rest))
        return kernel(phi, pi0, arrays, *rest)

    monkeypatch.setattr(_kernels, name, recording_kernel)
    return calls


class TestLockstepFit:
    """The lockstep root search against fits on a grid of one point each:
    every grid point gets the same root, profile and record, bit for bit.
    The profile is the likelihood at the point where a column stopped, and
    the root is the Newton step from it."""

    def _assert_same_fit(self, z, n, cfg, monkeypatch):
        grid = cfg.pi0_grid()
        with monkeypatch.context() as m:
            scored = _recording(m, "null_score_core")
            at_points = _recording(m, "null_loglik_core")
            fit = fit_empirical_null(z, n, cfg)
        assert len(at_points) == 1
        # the closing call adds the score's out-of-interval sums
        points, pi0, log_out = at_points[0]
        assert pi0.tolist() == grid.tolist() and log_out.shape == grid.shape
        # at points the score kernel evaluated
        evaluated = {(p, x) for phi, pi0, *_ in scored
                     for p, x in zip(pi0.tolist(), phi.tolist())}
        assert all(pair in evaluated for pair in zip(grid.tolist(), points.tolist()))
        # with the bits of a likelihood call that computes them afresh
        arrays = _kernels.FitArrays(z, n, fit.null_set, fit.interval_bounds[:, 1])
        assert fit.profile_loglik.tolist() \
            == _kernels.null_loglik_core(points, grid, arrays).tolist()
        # a column that stopped on a small Newton step reports that step,
        # and any other the point itself
        f, df, _ = _kernels.null_score_core(points, grid, arrays)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = f / df
        stepped = (df < 0.0) & (np.abs(newton) <= _newton_stop(points, 1.0 / float(np.mean(n))))
        roots = np.where(stepped, np.maximum(points - newton, 0.0), points)
        ones = [_one_point_fit(z, n, cfg, float(p)) for p in grid]
        assert roots.tolist() == [f.phi_hat for f in ones] == fit.profile_phi.tolist()
        assert fit.profile_loglik.tolist() == [f.loglik for f in ones]
        assert fit.iterations.tolist() == [int(f.iterations[0]) for f in ones]
        assert fit.converged.tolist() == [bool(f.converged[0]) for f in ones]
        best = ones[grid.size - 1 - int(np.argmax(fit.profile_loglik[::-1]))]
        assert (fit.phi_hat, fit.pi0_hat, fit.loglik) == (best.phi_hat, best.pi0_hat,
                                                          best.loglik)

    @pytest.mark.parametrize("n_centers", [12, 212, 2000])
    @pytest.mark.parametrize("q", [2.5, 5.0, 20.0])
    @pytest.mark.parametrize("phi", [0.0, 0.01])
    def test_bit_identical_to_per_grid_runs(self, n_centers, q, phi, monkeypatch):
        z, n = _contaminated(n_centers, phi, seed=n_centers + int(10 * q))
        self._assert_same_fit(z, n, EnConfig(q_percent=q), monkeypatch)

    @pytest.mark.parametrize("grid", [dict(pi0_grid_step=0.09),
                                      dict(pi0_grid_lo=0.9, pi0_grid_hi=0.9)])
    def test_other_grids(self, grid, monkeypatch):
        z, n = _contaminated(212, 0.01, seed=4)
        cfg = EnConfig(**grid)
        assert len(cfg.pi0_grid()) == (4 if "pi0_grid_step" in grid else 1)
        self._assert_same_fit(z, n, cfg, monkeypatch)

    def test_each_column_is_evaluated_once_per_point(self, monkeypatch):
        z, n = _contaminated(212, 0.01, seed=9)
        calls = _recording(monkeypatch, "null_score_core")
        fit_empirical_null(z, n)
        points = [p for phi, pi0, *_ in calls for p in zip(pi0.tolist(), phi.tolist())]
        assert len(points) > 150
        assert len(points) == len(set(points))

    def test_iteration_cap_fails_both_ways(self, monkeypatch):
        z, n = _contaminated(212, 0.01, seed=6)
        fit = fit_empirical_null(z, n)
        assert fit.converged.all() and fit.iterations.min() > 2
        # a capped column is not converged, and the fit keeps the others
        cap = int(np.median(fit.iterations))
        monkeypatch.setattr(empirical_null, "_MAX_SCORE_CALLS", cap)
        capped = fit_empirical_null(z, n)
        assert capped.iterations.tolist() == np.minimum(fit.iterations, cap).tolist()
        assert capped.converged.tolist() == (fit.iterations <= cap).tolist()
        assert 0 < capped.converged.sum() < fit.converged.sum()
        # with none converged, the fit and a one-point fit both raise
        monkeypatch.setattr(empirical_null, "_MAX_SCORE_CALLS", 2)
        with pytest.raises(ConvergenceError):
            fit_empirical_null(z, n)
        with pytest.raises(ConvergenceError):
            _one_point_fit(z, n, EnConfig(), fit.pi0_hat)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_record_explains_the_estimate(self, seed):
        z, n = _contaminated(212, 0.01, seed)
        cfg = EnConfig()
        fit = fit_empirical_null(z, n, cfg)
        profile = fit.profile_loglik
        assert profile.shape == fit.profile_phi.shape == fit.iterations.shape \
            == fit.converged.shape == cfg.pi0_grid().shape
        # ties go to the larger pi0
        best = np.flatnonzero(profile == profile.max())[-1]
        assert fit.pi0_hat == cfg.pi0_grid()[best]
        assert fit.loglik == profile.max()
        assert fit.phi_hat == fit.profile_phi[best]
        assert np.all(fit.iterations >= 1) and fit.converged.any()


class TestWarmStart:
    """Fits that start from another fit of the same data: where each root
    search starts, and what that saves. That they give the fit without a
    start is TestFitEmpiricalNull::test_given_phi_init_gives_the_same_fit."""

    def test_each_column_starts_at_the_start_root(self, monkeypatch):
        # where the start converged to a root above 0; elsewhere at phi_init
        z, n = _contaminated(212, 0.01, seed=4)
        fit = fit_empirical_null(z, n)
        converged, profile_phi = fit.converged.copy(), fit.profile_phi.copy()
        converged[3], profile_phi[5] = False, 0.0
        start = dataclasses.replace(fit, converged=converged, profile_phi=profile_phi)
        calls = _recording(monkeypatch, "null_score_core")
        fit_empirical_null(z, n, EnConfig(q_percent=10.0), start=start)
        first = np.where(converged & (profile_phi > 0.0), profile_phi, fit.phi_init)
        assert first[3] == first[5] == fit.phi_init < first[4]
        assert calls[0][0].tolist() == first.tolist()

    def test_warm_starts_take_fewer_evaluations(self):
        # the fits after the first of a tuning sweep's q grid on ten of its
        # datasets; cold, they took 6,465 column evaluations, and warm 4,880
        cfg = SimConfig(seed=1, outlier_fraction=0.10, gamma_grid=(2.0,))
        cold = warm = 0
        for seed in range(10):
            data = gen_single_measure(cfg, np.random.default_rng(seed), gamma_focal=2.0)
            z = z_fixed_effects(data.observed, data.expected, data.effective_size)
            start = None
            for q in (2.5, 5.0, 10.0, 15.0):
                fit = fit_empirical_null(z, data.effective_size, EnConfig(q_percent=q),
                                         start=start)
                if start is not None:
                    warm += int(fit.iterations.sum())
                    cold += int(fit_empirical_null(z, data.effective_size,
                                                   EnConfig(q_percent=q)).iterations.sum())
                start = fit
        assert warm <= 0.8 * cold


def _mp_score(phi, pi0, z, sizes, in_null, b_upper):
    """The phi-score of the truncated-mixture log-likelihood, term by term at
    40 significant digits from the same float64 inputs."""
    with mpmath.workdps(40):
        phi, pi0 = mpmath.mpf(phi), mpmath.mpf(pi0)
        acc = mpmath.mpf(0)
        for zi, ni, inside, bi in zip(z.tolist(), sizes.tolist(), in_null.tolist(),
                                      b_upper.tolist()):
            ni = mpmath.mpf(ni)
            v = 1 + phi * ni
            if inside:
                acc += ni * (mpmath.mpf(zi) ** 2 / v - 1) / (2 * v)
            else:
                b = mpmath.mpf(bi) / mpmath.sqrt(v)
                pdf = mpmath.exp(-b * b / 2) / mpmath.sqrt(2 * mpmath.pi)
                acc += pi0 * pdf * b * ni / v / (1 - pi0 * mpmath.erf(b / mpmath.sqrt(2)))
        return acc


def _newton_stop(x, step):
    """The largest Newton step on which ``_score_roots`` with ``step`` stops
    at x: ``_NEWTON_STOP`` x min(1, x/step)."""
    return empirical_null._NEWTON_STOP * x * np.minimum(1.0, x / step)


def _assert_newton_stop(score, step, root, point, kept):
    """The one column of ``_score_roots`` with ``step`` stopped at ``point``
    on a Newton step of at most ``_newton_stop``, reports that step as its
    root, and keeps the value ``score`` returns there, -point."""
    f, df, _ = (float(v[0]) for v in score(point, None))
    assert df < 0.0 and abs(f / df) <= _newton_stop(point[0], step)
    assert root[0] == max(0.0, point[0] - f / df)
    assert kept[0] == -point[0]


class TestScoreRoots:
    """The roots against the profiles of the Nelder-Mead fit they replaced,
    recorded in fixtures/nelder_mead_profiles.json, and against a 40-digit
    score."""

    @pytest.fixture(scope="class")
    def recorded(self):
        return json.loads((FIXTURES / "nelder_mead_profiles.json").read_text())["fits"]

    @pytest.mark.parametrize("k", range(len(PROFILE_CORPUS)))
    def test_profiles_reach_the_nelder_mead_fit(self, k, recorded):
        n_centers, q, outliers = PROFILE_CORPUS[k]
        record = recorded[k]
        assert (record["n_centers"], record["q_percent"], record["outliers"]) \
            == (n_centers, q, outliers)
        z, n = _corpus_inputs(k)
        fit = fit_empirical_null(z, n, EnConfig(q_percent=q))
        assert fit.converged.all()
        assert np.all(fit.profile_loglik >= np.array(record["profile_loglik"]) - 1e-10)
        assert fit.pi0_hat == record["pi0_hat"]

    @pytest.mark.parametrize("k", [1, 3, 7, 9, 13, 15, 21])
    def test_roots_zero_the_score(self, k):
        z, n = _corpus_inputs(k)
        fit = fit_empirical_null(z, n, EnConfig(q_percent=PROFILE_CORPUS[k][1]))
        data = (fit.pi0_hat, z, n, fit.null_set, fit.interval_bounds[:, 1])
        if fit.phi_hat == 0.0:
            assert _mp_score(0.0, *data) <= 0
        else:
            # the score changes sign within 1e-14 of phi_hat, relative
            assert _mp_score(fit.phi_hat * (1.0 - 1e-14), *data) > 0 \
                >= _mp_score(fit.phi_hat * (1.0 + 1e-14), *data)

    def test_evaluation_counts_on_simulated_fits(self, monkeypatch):
        # ten flagging-experiment fits at 212 centers, where the root search
        # took 467.6 score evaluations in 13.4 calls per fit before it took
        # Newton steps, 288.7 in 8.3 with plain Newton steps on the score,
        # 215.4 in 5.9 when it stopped on a Newton step of 1e-12 relative,
        # and 196.1 in 5.0, at most 5 per column, with _NEWTON_STOP
        calls = _recording(monkeypatch, "null_score_core")
        cfg = SimConfig(n_centers=212, seed=5, outlier_fraction=0.1)
        for seed in range(10):
            data = gen_single_measure(cfg, np.random.default_rng(seed), gamma_focal=2.0)
            z = z_fixed_effects(data.observed, data.expected, data.effective_size)
            fit = fit_empirical_null(z, data.effective_size)
            assert fit.converged.all() and fit.iterations.max() <= 6
        assert sum(phi.size for phi, *_ in calls) <= 205 * 10
        assert len(calls) <= 5.5 * 10

    @pytest.mark.parametrize("special", [math.inf, math.nan])
    def test_nan_or_inf_score_counts_as_positive(self, special):
        # the score is 0.5 - sqrt(phi), and +inf or NaN below 1e-3 as where
        # 1 - pi0*Q underflows. With step 100 the Newton step from phi = 2
        # lands below 0, so the column tries 0, and a positive score there
        # brackets the root
        seen = []

        def score(x, columns):
            seen.extend(x.tolist())
            near, r = x < 1e-3, np.sqrt(np.maximum(x, 1e-3))
            return np.where(near, special, 0.5 - r), np.where(near, special, -0.5 / r), -x

        root, point, kept, calls, converged = empirical_null._score_roots(score, np.array([2.0]), 100.0)
        assert seen[:2] == [2.0, 0.0]
        assert converged[0] and calls[0] == len(seen)
        assert root[0] == pytest.approx(0.25, rel=1e-11)
        _assert_newton_stop(score, 100.0, root, point, kept)

    def test_bracket_grows_where_the_curvature_is_not_negative(self):
        # the score 3 - (phi - 1)^2 is positive with a positive derivative
        # at 0 and a zero one at 1, so the bracket grows to 1, then to 3
        seen = []

        def score(x, columns):
            seen.extend(x.tolist())
            return 3.0 - (x - 1.0) ** 2, -2.0 * (x - 1.0), -x

        root, point, kept, calls, converged = empirical_null._score_roots(score, np.array([0.0]), 1.0)
        assert seen[:3] == [0.0, 1.0, 3.0]
        assert converged[0] and calls[0] == len(seen) < empirical_null._MAX_SCORE_CALLS
        assert root[0] == pytest.approx(1.0 + math.sqrt(3.0), rel=1e-11)
        _assert_newton_stop(score, 1.0, root, point, kept)

    def test_bisects_where_the_newton_step_leaves_the_bracket(self):
        # the score atan(3 (3 - phi)) is flat far from its root 3: from 5
        # the step lands at about 2.44, where the step, capped at twice the
        # Newton step, lands beyond 5, so the column bisects [2.44, 5]
        seen = []

        def score(x, columns):
            seen.extend(x.tolist())
            return np.arctan(3.0 * (3.0 - x)), -3.0 / (1.0 + (3.0 * (3.0 - x)) ** 2), -x

        root, point, kept, calls, converged = empirical_null._score_roots(score, np.array([5.0]), 1.0)
        assert seen[1] < 3.0 and seen[2] == 0.5 * (seen[1] + seen[0])
        assert converged[0] and calls[0] == len(seen) < empirical_null._MAX_SCORE_CALLS
        assert root[0] == pytest.approx(3.0, rel=1e-11)
        _assert_newton_stop(score, 1.0, root, point, kept)

    def test_newton_step_is_at_most_twice_the_plain_step(self):
        # the score (1 - phi^2/4) / (1 + phi)^2 times (1 + phi)^2, that is
        # 1 - phi^2/4, is nearly flat at 0.01: Newton on that product would
        # step to about 200, and the cap keeps the step at twice the Newton
        # step on the score
        seen = []

        def score(x, columns):
            seen.extend(x.tolist())
            return (1.0 - x * x / 4.0) / (1.0 + x) ** 2, \
                -0.5 * x / (1.0 + x) ** 2 - 2.0 * (1.0 - x * x / 4.0) / (1.0 + x) ** 3, -x

        at = 0.01
        f, df, _ = (float(v[0]) for v in score(np.array([at]), None))
        seen.clear()
        root, point, kept, calls, converged = empirical_null._score_roots(score, np.array([at]), 1.0)
        assert at - f / df < seen[1] <= at - 2.0 * f / df
        assert converged[0] and calls[0] == len(seen) < empirical_null._MAX_SCORE_CALLS
        assert root[0] == pytest.approx(2.0, rel=1e-11)
        _assert_newton_stop(score, 1.0, root, point, kept)


def _two_sizes(phi, seed):
    """300 centers, nine in ten of size 5,000 to 20,000 and the rest of size
    10 to 50, with scores of variance 1 + phi*n."""
    rng = np.random.default_rng(seed)
    n = np.where(rng.random(300) < 0.9, rng.uniform(5e3, 2e4, 300), rng.uniform(10, 50, 300))
    return rng.normal(0.0, np.sqrt(1.0 + phi * n)), n


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


def _scan_profile(z, n, fit, grid):
    """Each grid point's maximum log-likelihood from a scan of u = log(phi +
    1e-8) over [-25, 5] refined by golden-section search, through the
    likelihood kernel but not through the root search."""
    arrays = _kernels.FitArrays(z, n, fit.null_set, fit.interval_bounds[:, 1])

    def loglik(u, pi0):
        return -_kernels.neg_null_loglik_u(u, pi0, arrays)

    scan = np.linspace(-25.0, 5.0, 2401)
    values = loglik(np.tile(scan, grid.size),
                    np.repeat(grid, scan.size)).reshape(grid.size, scan.size)
    at = np.argmax(values, axis=1)
    du = scan[1] - scan[0]
    refined = _golden_max(lambda u: loglik(u, grid), scan[at] - du, scan[at] + du)
    return np.maximum(values.max(axis=1), refined)


class TestProfileOracle:
    """Each grid point's profile log-likelihood against a dense scan of u
    over [-25, 5] refined by golden-section search."""

    @pytest.mark.parametrize("n_centers", [50, 212])
    @pytest.mark.parametrize("outliers", [0.0, 0.1])
    def test_profile_matches_scan_and_refine(self, n_centers, outliers):
        rng = np.random.default_rng(n_centers + int(100 * outliers))
        n = _sizes(rng, n_centers)
        z = rng.normal(0.0, np.sqrt(1.0 + 0.05 * n))
        k = int(outliers * n_centers)
        z[:k] += rng.choice([-1.0, 1.0], k) * 1.5 * np.sqrt(n[:k])
        fit = fit_empirical_null(z, n)
        oracle = _scan_profile(z, n, fit, EnConfig().pi0_grid())
        assert np.all(np.isfinite(oracle))
        assert np.max(np.abs(fit.profile_loglik - oracle)) <= 1e-11

    @pytest.mark.parametrize("phi,seed,score_at_zero", [(0.002, 3, math.inf),
                                                        (0.05, 1, math.nan)])
    def test_pi0_one_where_one_minus_q_underflows(self, phi, seed, score_at_zero):
        # at pi0 = 1 and phi = 0, 1 - Q of the largest out-of-interval
        # centers rounds to 0: the log-likelihood is -inf and its score +inf,
        # or 0/0 where the normal density underflows too
        z, n = _two_sizes(phi, seed)
        fit = fit_empirical_null(z, n)
        arrays = _kernels.FitArrays(z, n, fit.null_set, fit.interval_bounds[:, 1])
        one, zero = np.array([1.0]), np.array([0.0])
        at_zero = _kernels.null_score_core(zero, one, arrays)[0][0]
        assert at_zero == score_at_zero or (math.isnan(at_zero) and math.isnan(score_at_zero))
        assert _kernels.null_loglik_core(zero, one, arrays)[0] == -math.inf
        # the score's out-of-interval sum is -inf too, and closes the same
        log_out = _kernels.null_score_core(zero, one, arrays)[2]
        assert log_out[0] == -math.inf
        assert _kernels.null_loglik_core(zero, one, arrays, log_out)[0] == -math.inf
        grid = EnConfig().pi0_grid()
        assert fit.converged[-1] and math.isfinite(fit.profile_loglik[-1])
        assert abs(fit.profile_loglik[-1] - _scan_profile(z, n, fit, grid[-1:])[0]) <= 1e-11
        if score_at_zero == math.inf:
            # the pi0 = 1 column has the largest profile
            assert fit.pi0_hat == 1.0


# name: the transformed (z, n, rng), the (phi, profile) its fit should give
# from the fit of the data, and the relative bounds on phi and the profile
_TRANSFORMS = {
    "concatenated with itself": (lambda z, n, rng: (np.tile(z, 2), np.tile(n, 2)),
                                 lambda phi, profile: (phi, 2.0 * profile), (1e-12, 1e-14)),
    "sizes times 1000": (lambda z, n, rng: (z, 1000.0 * n),
                         lambda phi, profile: (phi / 1000.0, profile), (1e-12, 1e-14)),
    "rows permuted": (lambda z, n, rng: (lambda p: (z[p], n[p]))(rng.permutation(z.size)),
                      lambda phi, profile: (phi, profile), (1e-12, 1e-14)),
    "z negated": (lambda z, n, rng: (-z, n), lambda phi, profile: (phi, profile), (0.0, 0.0)),
}


class TestMetamorphic:
    """The fit respects the model's symmetries: the likelihood of data
    concatenated with itself is twice the likelihood; sizes times c with
    phi / c leave every variance 1 + phi*n as it was; the likelihood sums
    over centers in any order; and it reads z only as z^2, with a
    biweight location that is odd in z.

    Negating z gives the same bits. The other three round the likelihood's
    sums otherwise: the profile moves by a few eps relative, and phi_hat
    by about 1e-12 relative where phi_hat * mean size is small, because
    the score's rounding then moves its root by that much."""

    @pytest.mark.parametrize("transform", list(_TRANSFORMS))
    @given(n_centers=st.one_of(st.integers(12, 300), st.integers(300, 8000)),
           q=st.sampled_from([2.5, 5.0, 10.0, 15.0, 20.0]),
           phi=st.sampled_from([0.0, 0.002, 0.01, 0.05]),
           outliers=st.sampled_from([0.0, 0.05, 0.1, 0.2]),
           seed=st.integers(0, 2**32 - 1))
    # two fits of the doubled data once stopped 1.003e-12 apart here, on
    # either side of the root search's stopping threshold
    @example(n_centers=6343, q=15.0, phi=0.0, outliers=0.2, seed=2287)
    # 2 of these 12 centers fall in the null set, and 4 of the doubled 24
    @example(n_centers=12, q=20.0, phi=0.05, outliers=0.1, seed=419)
    @settings(max_examples=20, deadline=None)
    def test_fit_respects_the_symmetry(self, transform, n_centers, q, phi, outliers, seed):
        where = f"{transform}, seed {seed} (n {n_centers}, q {q}, phi {phi}, outliers {outliers})"
        z, n = _contaminated(n_centers, phi, seed, outliers)
        change, expect, (phi_rtol, profile_rtol) = _TRANSFORMS[transform]
        z_moved, n_moved = change(z, n, np.random.default_rng(seed))
        cfg = EnConfig(q_percent=q)
        try:
            fit = fit_empirical_null(z, n, cfg)
        except FittingError as error:
            try:
                moved = fit_empirical_null(z_moved, n_moved, cfg)
            except FittingError as moved_error:
                assert isinstance(moved_error, type(error)), where
                return
            # doubling a null set of MIN_NULL_SET - 1 centers reaches MIN_NULL_SET
            assert transform == "concatenated with itself" \
                and moved.n_null_set == 2 * (empirical_null.MIN_NULL_SET - 1), where
            return
        moved = fit_empirical_null(z_moved, n_moved, cfg)
        phi_hat, profile = expect(fit.phi_hat, fit.profile_loglik)
        assert moved.pi0_hat == fit.pi0_hat, where
        assert moved.phi_hat == pytest.approx(phi_hat, rel=phi_rtol, abs=0.0), where
        assert np.allclose(moved.profile_loglik, profile, rtol=profile_rtol, atol=0.0), where


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

    @pytest.mark.parametrize("phi", [-0.001, math.nan, math.inf])
    def test_phi_must_be_nonnegative(self, phi):
        with pytest.raises(InputError, match="phi_hat must be nonnegative"):
            z_empirical_null(1.0, 10.0, phi)

    @pytest.mark.parametrize("phi", [0.0, 0.1])
    @pytest.mark.parametrize("size", [math.nan, math.inf, -1.0])
    def test_size_must_be_finite_and_nonnegative(self, size, phi):
        # a NaN size once gave NaN, and an inf size 0.0 or a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="size must be finite and nonnegative"):
                z_empirical_null(1.0, size, phi)
            with pytest.raises(InputError, match=f"got {size}"):
                z_empirical_null([1.0, 2.0], [10.0, size], phi)

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

    @pytest.mark.parametrize("phi", [-0.001, math.nan, math.inf])
    def test_phi_must_be_nonnegative(self, phi):
        with pytest.raises(InputError, match="phi must be nonnegative"):
            control_limits(phi, 10.0, 10.0)


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
        monkeypatch.setattr(empirical_null, "_MAX_SCORE_CALLS", 1)
        with pytest.raises(ConvergenceError):
            fit_empirical_null(z, n)
