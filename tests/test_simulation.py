"""Simulation harness: data generation, closed-form calibration, experiment
runners, and reproducibility."""

import math
import os
from functools import partial

import numpy as np
import pytest

from profile_null import (
    ConvergenceError,
    EnConfig,
    InputError,
    SimConfig,
    expected_en_z,
    gamma2_for_null_composite,
    gen_single_measure,
    run_composite_experiment,
    run_flagging_experiment,
    run_tuning_sensitivity,
    simulation,
    z_fixed_effects,
)


class _FixedExposureRng(np.random.Generator):
    """Generator whose exponential draws are pinned at their mean."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))

    def exponential(self, scale=1.0, size=None):
        return np.full(size, scale, dtype=np.float64)


class TestGenSingleMeasure:
    def test_degenerate_config_hand_value(self):
        # x == 0, beta = 0, fixed exposure: expected = 1000 * exp(-6) everywhere
        config = SimConfig(seed=1, covariate_mean=0.0, covariate_second_param=0.0,
                           beta=0.0, exposure_mean=1000.0, sigma2_alpha=(0.0,))
        data = gen_single_measure(config, _FixedExposureRng(1))
        assert np.allclose(data.expected, 1000.0 * math.exp(-6.0))
        assert np.allclose(data.expected, 2.4788, atol=1e-4)
        assert np.array_equal(data.expected, data.effective_size)
        assert np.all(data.gamma_true == 0.0)
        assert np.all(data.alpha == 0.0)

    def test_negative_zero_variances(self):
        # numpy's normal() rejects a scale of -0.0; the config stores 0.0
        config = SimConfig(seed=1, covariate_second_param=-0.0, sigma2_alpha=(-0.0, -0.0))
        assert not np.signbit([config.covariate_second_param, *config.sigma2_alpha]).any()
        data = gen_single_measure(config, np.random.default_rng(1))
        assert np.all(data.alpha == 0.0)

    def test_outlier_layout(self):
        config = SimConfig(seed=2, outlier_fraction=0.10, outlier_effect=1.0)
        data = gen_single_measure(config, np.random.default_rng(2),
                                  gamma_focal=3.0)
        g = data.gamma_true
        assert g[0] == 3.0
        assert np.sum(g == 1.0) == 10
        assert np.sum(g == -1.0) == 10
        assert np.all(g[1:11] == 1.0)
        assert np.all(g[11:21] == -1.0)
        assert np.all(g[21:] == 0.0)

    def test_variance_slope_tracks_confounder_variance(self):
        # Var(Z_FE) within size bins follows 1 + sigma2 * n at small sigma2
        sigma2 = 0.01
        config = SimConfig(seed=3, sigma2_alpha=(sigma2,))
        zs, ns = [], []
        rng_master = np.random.default_rng(3)
        for _ in range(200):
            data = gen_single_measure(config, np.random.default_rng(
                rng_master.integers(2**63)), gamma_focal=0.0)
            zs.append(z_fixed_effects(data.observed, data.expected, data.effective_size))
            ns.append(data.effective_size)
        z = np.concatenate(zs)
        n = np.concatenate(ns)
        edges = np.quantile(n, np.linspace(0, 1, 11))
        bin_var, bin_n = [], []
        for lo, hi in zip(edges[:-1], edges[1:]):
            mask = (n >= lo) & (n < hi)
            if mask.sum() > 100:
                bin_var.append(np.var(z[mask], ddof=1))
                bin_n.append(np.mean(n[mask]))
        slope = np.polyfit(bin_n, bin_var, 1)[0]
        assert slope == pytest.approx(sigma2, abs=0.003)


class TestExpectedEnZ:
    def test_null_center(self):
        assert expected_en_z(0.0, 100.0, 0.0) == 0.0

    def test_hand_value(self):
        val = expected_en_z(0.0, 100.0, 0.14)
        assert val == pytest.approx(0.187218, abs=1e-5)
        assert val == pytest.approx(math.sqrt(100 / 15) * (math.exp(0.07) - 1))

    def test_monte_carlo_agreement(self):
        gamma, sigma2, size = 0.5, 0.04, 50.0
        rng = np.random.default_rng(55)
        reps = 40000
        alpha = rng.normal(0.0, math.sqrt(sigma2), reps)
        obs = rng.poisson(size * np.exp(gamma + alpha))
        z_en = (obs - size) / math.sqrt(size) / math.sqrt(1 + sigma2 * size)
        se = float(np.std(z_en, ddof=1)) / math.sqrt(reps)
        assert float(np.mean(z_en)) == pytest.approx(
            expected_en_z(gamma, size, sigma2), abs=3 * se)

    def test_validation(self):
        with pytest.raises(InputError):
            expected_en_z(0.0, 0.0, 0.1)


class TestGamma2Calibration:
    def test_trivial_case_collapses(self):
        assert gamma2_for_null_composite(0.0, 50.0, 80.0, 0.0, 0.0) == 0.0

    def test_self_consistency(self):
        g1, n1, n2, s1, s2 = 0.5, 100.0, 100.0, 0.14, 0.04
        g2 = gamma2_for_null_composite(g1, n1, n2, s1, s2)
        assert expected_en_z(g1, n1, s1) == pytest.approx(
            expected_en_z(g2, n2, s2), abs=1e-10)

    def test_self_consistency_negative_effect(self):
        g2 = gamma2_for_null_composite(-0.8, 300.0, 120.0, 0.14, 0.04)
        assert expected_en_z(-0.8, 300.0, 0.14) == pytest.approx(
            expected_en_z(g2, 120.0, 0.04), abs=1e-10)

    def test_domain_error_reports_configuration(self):
        # a tiny second measure cannot offset a large deficit on the first
        with pytest.raises(InputError, match="gamma1=-2.0"):
            gamma2_for_null_composite(-2.0, 1e6, 0.5, 0.14, 0.04)

    def test_monte_carlo_null_composite(self):
        g1, n1, n2, s2_1, s2_2 = 0.5, 100.0, 100.0, 0.14, 0.04
        g2 = gamma2_for_null_composite(g1, n1, n2, s2_1, s2_2)
        rng = np.random.default_rng(77)
        reps = 4000
        a1 = rng.normal(0, math.sqrt(s2_1), reps)
        a2 = rng.normal(0, math.sqrt(s2_2), reps)
        o1 = rng.poisson(n1 * np.exp(g1 + a1))
        o2 = rng.poisson(n2 * np.exp(g2 + a2))
        z1 = (o1 - n1) / math.sqrt(n1) / math.sqrt(1 + s2_1 * n1)
        z2 = (o2 - n2) / math.sqrt(n2) / math.sqrt(1 + s2_2 * n2)
        comp = (z1 - z2) / math.sqrt(2)
        se = float(np.std(comp, ddof=1)) / math.sqrt(reps)
        assert abs(float(np.mean(comp))) < 3 * se + 1e-12


SMALL = dict(iterations=60, n_centers=212)


@pytest.fixture
def pools(monkeypatch):
    """The worker counts of the process pools built during the test, in
    order. The pools map in this process."""
    asked = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor."""

        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(simulation, "ProcessPoolExecutor", RecordingPool)
    return asked


_flagging_iteration = simulation._flagging_iteration


def _failing_at(failures, config, item):
    """The flagging iteration, failed (None) at the (gamma, iteration) pairs
    in ``failures``."""
    return None if item in failures else _flagging_iteration(config, item)


class TestRunFlaggingExperiment:
    def test_reproducible_and_parallel_invariant(self):
        config = SimConfig(seed=31, gamma_grid=(0.0, 1.0, 2.0), **SMALL)
        r1 = run_flagging_experiment(config, workers=1)
        r2 = run_flagging_experiment(config, workers=2)
        for m in ("fe", "mom", "en"):
            assert np.array_equal(r1.flag_rates[m], r2.flag_rates[m])
            assert np.array_equal(r1.flag_rates[m][1],
                                  r2.flag_rates[m][1])

    def test_monotone_power_and_exchangeability(self):
        config = SimConfig(seed=32, gamma_grid=(0.0, 1.0, 2.0), iterations=150)
        res = run_flagging_experiment(config)
        en = res.flag_rates["en"][0]
        se = res.flag_se["en"][0]
        assert en[1] >= en[0] - 2 * (se[0] + se[1])
        assert en[2] >= en[1] - 2 * (se[1] + se[2])
        assert en[2] > 0.9
        # at gamma = 0 the focal center is exchangeable with any null center
        for m in ("fe", "mom", "en"):
            p0 = res.flag_rates[m][0, 0]
            pref = res.flag_rates[m][1, 0]
            se0 = 3 * (res.flag_se[m][0, 0] + math.sqrt(
                pref * (1 - pref) / res.n_effective[0] + 1e-12))
            assert abs(p0 - pref) <= se0 + 0.02

    def test_standard_error_formula(self):
        config = SimConfig(seed=33, gamma_grid=(0.0,), iterations=40)
        res = run_flagging_experiment(config)
        p = res.flag_rates["fe"][0, 0]
        n = res.n_effective[0]
        assert res.flag_se["fe"][0, 0] == pytest.approx(math.sqrt(p * (1 - p) / n))

    def test_failures_within_the_cap_leave_the_denominators(self, monkeypatch):
        # 5% of 60 iterations: 3 may fail at each gamma
        config = SimConfig(seed=34, gamma_grid=(0.0, 1.0), **SMALL)
        failures = {(1.0, 5), (1.0, 17), (1.0, 59)}
        monkeypatch.setattr(simulation, "_flagging_iteration",
                            partial(_failing_at, failures))
        res = run_flagging_experiment(config, workers=1)
        assert res.n_failed.tolist() == [0, 3]
        assert res.n_effective.tolist() == [60, 57]
        for k, gamma in enumerate(config.gamma_grid):
            kept = [_flagging_iteration(config, (gamma, i)) for i in range(60)
                    if (gamma, i) not in failures]
            for m, rate in zip(("fe", "mom", "en"), np.mean(np.stack(kept), axis=0)):
                assert np.array_equal(res.flag_rates[m][:, k], rate)

    def test_failures_beyond_the_cap_name_the_first_failing_gamma(self, monkeypatch):
        config = SimConfig(seed=34, gamma_grid=(0.0, 1.0), **SMALL)
        failures = {(gamma, i) for gamma in (0.0, 1.0) for i in range(4)}
        monkeypatch.setattr(simulation, "_flagging_iteration",
                            partial(_failing_at, failures))
        with pytest.raises(ConvergenceError, match=(
                r"^4 of 60 iterations failed during flagging run at gamma=0\.0; "
                r"limit is 5%$")):
            run_flagging_experiment(config, workers=1)


class TestRunTuningSensitivity:
    def test_shapes_and_en_q_zero_gap(self):
        config = SimConfig(seed=41, gamma_grid=(2.0,), iterations=30,
                           outlier_fraction=0.10, q_grid=(0.0, 5.0, 10.0))
        res = run_tuning_sensitivity(config)
        assert math.isnan(res.sigma2_mean["en"][0])
        assert np.all(np.isfinite(res.sigma2_mean["en"][1:]))
        assert np.all(np.isfinite(res.sigma2_mean["mom"]))
        assert res.config.q_grid == (0.0, 5.0, 10.0)

    def test_requires_q_grid(self):
        with pytest.raises(InputError):
            run_tuning_sensitivity(SimConfig(seed=1, q_grid=()))

    def test_one_robust_start_per_dataset(self, monkeypatch):
        # every q > 0 is its own fit, and each after the first starts from
        # the fit the previous q returned, so they share the biweight start
        from profile_null import _kernels, empirical_null
        irls, starts, fits = [], [], []
        biweight, fit = _kernels.biweight_irls, empirical_null.fit_empirical_null

        def counted_irls(z):
            irls.append(z.size)
            return biweight(z)

        def counted_fit(*args, **kwargs):
            starts.append(kwargs.get("start"))
            fits.append(fit(*args, **kwargs))
            return fits[-1]

        monkeypatch.setattr(_kernels, "biweight_irls", counted_irls)
        monkeypatch.setattr(simulation, "fit_empirical_null", counted_fit)
        config = SimConfig(seed=43, gamma_grid=(2.0,), iterations=6,
                           outlier_fraction=0.10, q_grid=(0.0, 2.5, 5.0, 10.0, 15.0))
        run_tuning_sensitivity(config, workers=1)
        assert irls == [212] * 6
        assert len(fits) == 6 * 4
        for k in range(0, len(fits), 4):
            assert starts[k] is None
            assert all(starts[k + j] is fits[k + j - 1] for j in (1, 2, 3))


class TestRunCompositeExperiment:
    def test_probe_behavior_small_run(self):
        config = SimConfig(seed=51, gamma_grid=(1.0,), iterations=60,
                           sigma2_alpha=(0.14, 0.04), outlier_fraction=0.10,
                           exposure_mean=2.5e6)
        res = run_composite_experiment(config)
        fe = res.flag_rates["fe"][:, 0]
        en = res.flag_rates["en"][:, 0]
        # concordant probes are detected by everyone; the empirical null
        # leaves the calibrated null-composite probes alone
        assert fe[0] > 0.9 and fe[1] > 0.9
        assert en[0] > 0.9 and en[1] > 0.9
        assert en[2] < 0.15 and en[3] < 0.15

    def test_requires_two_measures(self):
        with pytest.raises(InputError):
            run_composite_experiment(SimConfig(seed=1, sigma2_alpha=(0.14,)))

    def test_outlier_blocks_must_fit_after_the_probes(self):
        # 4 probes + 2 blocks of int(0.45 * 10) = 4 outliers overrun 10 centers
        config = SimConfig(seed=1, n_centers=10, outlier_fraction=0.9,
                           sigma2_alpha=(0.14, 0.04))
        with pytest.raises(InputError, match=r"outlier_fraction=0\.9 .*n_centers=10"):
            run_composite_experiment(config)

    def test_reproducible(self):
        config = SimConfig(seed=52, gamma_grid=(0.5,), iterations=25,
                           sigma2_alpha=(0.14, 0.04), exposure_mean=2.5e6)
        r1 = run_composite_experiment(config, workers=1)
        r2 = run_composite_experiment(config, workers=2)
        for m in ("fe", "mom", "en"):
            assert np.array_equal(r1.flag_rates[m], r2.flag_rates[m])


def _flag_counts(result, method):
    """Flagged iterations per probe and grid point (rate * n_effective)."""
    return np.rint(result.flag_rates[method] * result.n_effective).astype(np.int64).tolist()


class TestPinnedBits:
    """40-iteration runs pinned to the flag counts and estimator bits of the
    shipped generative model, so that a change to the data, the RNG call
    order or the outlier layout shows."""

    def test_flagging_with_outliers(self):
        res = run_flagging_experiment(SimConfig(
            seed=61, gamma_grid=(0.0, 2.0), iterations=40, outlier_fraction=0.10),
            workers=1)
        assert res.n_failed.tolist() == [0, 0]
        assert res.n_effective.tolist() == [40, 40]
        # (probe, gamma): the focal center, then the last center
        assert _flag_counts(res, "fe") == [[22, 40], [29, 29]]
        assert _flag_counts(res, "mom") == [[1, 40], [1, 0]]
        assert _flag_counts(res, "en") == [[4, 40], [4, 4]]

    def test_tuning(self):
        res = run_tuning_sensitivity(SimConfig(
            seed=62, gamma_grid=(2.0,), iterations=40, outlier_fraction=0.10,
            q_grid=(0.0, 5.0, 10.0)), workers=1)
        assert res.n_failed.tolist() == [0, 0, 0]
        assert res.n_effective.tolist() == [40, 40, 40]
        assert _flag_counts(res, "mom") == [40, 40, 40]
        # the empirical null has no q = 0 arm
        assert math.isnan(res.flag_rates["en"][0])
        assert np.rint(res.flag_rates["en"][1:] * 40).tolist() == [40.0, 40.0]
        hexes = {k: {m: [float(v).hex() for v in d[m]] for m in ("en", "mom")}
                 for k, d in (("mean", res.sigma2_mean), ("sd", res.sigma2_sd))}
        assert hexes == {
            "mean": {"en": ["nan", "0x1.1e91bcf8a46a6p-3", "0x1.10d031bab768fp-3"],
                     "mom": ["0x1.460ed1c3813f0p-1", "0x1.49333135edb1bp-3",
                             "0x1.7b13ff0bc05c9p-4"]},
            "sd": {"en": ["nan", "0x1.2d4305173fd7ap-5", "0x1.5776ade2053edp-5"],
                   "mom": ["0x1.078fc8fa3f194p-1", "0x1.2c869916d416fp-5",
                           "0x1.32ccb8d58aa9fp-6"]},
        }

    def test_composite_with_odd_outlier_split(self):
        # 15% of 212 centers: 15 outliers per measure, split 7 / 8 by sign.
        # The strong outliers keep the rates off 0 and 1, so that an 8 / 7
        # split changes the counts.
        res = run_composite_experiment(SimConfig(
            seed=63, gamma_grid=(0.5, 1.0), iterations=40,
            sigma2_alpha=(0.14, 0.04), outlier_fraction=0.15,
            outlier_effect=2.0), workers=1)
        assert res.n_failed.tolist() == [0, 0]
        assert res.n_effective.tolist() == [40, 40]
        assert _flag_counts(res, "fe") == [[40, 40], [40, 40], [20, 26], [27, 35]]
        assert _flag_counts(res, "mom") == [[0, 2], [0, 1], [0, 0], [0, 0]]
        assert _flag_counts(res, "en") == [[33, 40], [37, 40], [0, 0], [1, 2]]


class TestMapItems:
    @pytest.mark.parametrize("workers,n_items,started", [
        (64, 2, [2]), (3, 10, [3]), (64, 1, []), (64, 0, []), (1, 5, [])])
    def test_no_more_processes_than_items(self, pools, workers, n_items,
                                          started):
        items = list(range(n_items))
        assert simulation.map_items(abs, items, workers) == items
        assert pools == started

    def test_one_pool_per_run(self, monkeypatch, pools):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        run_flagging_experiment(SimConfig(
            seed=35, gamma_grid=(0.0, 1.0, 2.0), iterations=20), workers=2)
        assert pools == [2]
        run_composite_experiment(SimConfig(
            seed=53, gamma_grid=(0.5, 1.0), iterations=20,
            sigma2_alpha=(0.14, 0.04), exposure_mean=2.5e6), workers=2)
        assert pools == [2, 2]


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(InputError):
            SimConfig(n_centers=5)
        with pytest.raises(InputError):
            SimConfig(seed=-1)
        with pytest.raises(InputError):
            SimConfig(outlier_fraction=1.0)
        with pytest.raises(InputError):
            SimConfig(iterations=0)
        with pytest.raises(InputError):
            SimConfig(sigma2_alpha=())

    def test_en_config_embedded(self):
        config = SimConfig(en_config=EnConfig(q_percent=2.5))
        assert config.en_config.q_percent == 2.5
