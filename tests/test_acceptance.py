"""Acceptance suite: every release criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (visible with pytest -s or in the
captured output on failure). Monte Carlo criteria use pinned seeds; the
simulation harness is bit-deterministic for a given config, so these checks
are stable across runs and worker counts.
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from profile_null import (
    EnConfig,
    SimConfig,
    capped_corr_weights,
    composite_score,
    correlation_matrix,
    expected_en_z,
    fit_empirical_null,
    gamma2_for_null_composite,
    null_loglik,
    published_weights,
    run_composite_experiment,
    run_flagging_experiment,
    run_tuning_sensitivity,
    std_normal_cdf,
    std_normal_quantile,
    winsorize,
    z_empirical_null,
)

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def _report(criterion: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] {criterion}: {status} ({detail})")


# -- 1 ----------------------------------------------------------------------

def test_criterion_1_published_weight_reconstruction():
    corr = np.array([
        [1.00, 0.64, 0.03, -0.02],
        [0.64, 1.00, -0.02, -0.03],
        [0.03, -0.02, 1.00, 0.73],
        [-0.02, -0.03, 0.73, 1.00],
    ])
    target = np.array([0.39, 0.40, 0.37, 0.38])
    pub = published_weights(capped_corr_weights(corr), corr)
    ok = bool(np.all(np.abs(pub - target) <= 0.01))
    _report("1 weight reconstruction", ok,
            f"published weights {np.round(pub, 4).tolist()} vs {target.tolist()}")
    assert ok


# -- 2 ----------------------------------------------------------------------

def test_criterion_2_null_variance_law():
    sigma2 = 0.01
    reps = 20000
    results = []
    for size in (10.0, 100.0, 1000.0):
        rng = np.random.default_rng((3002, int(size)))
        alpha = rng.normal(0.0, math.sqrt(sigma2), reps)
        observed = rng.poisson(size * np.exp(alpha))
        z = (observed - size) / math.sqrt(size)
        var = float(np.var(z, ddof=1))
        predicted = 1.0 + sigma2 * size
        results.append((size, var, predicted))
    ok = all(abs(v - p) / p <= 0.05 for _, v, p in results)
    _report("2 null variance law", ok,
            "; ".join(f"n={s:g}: var={v:.3f} vs {p:.3f}" for s, v, p in results))
    assert ok


# -- 3, 4: flagging experiments ----------------------------------------------

@pytest.fixture(scope="module")
def null_calibration_run():
    config = SimConfig(seed=3003, gamma_grid=(0.0,), iterations=1000)
    return run_flagging_experiment(config)


def test_criterion_3_null_calibration(null_calibration_run):
    res = null_calibration_run
    fe = float(res.flag_rates["fe"][0, 0])
    en = float(res.flag_rates["en"][0, 0])
    mom = float(res.flag_rates["mom"][0, 0])
    ok = (0.01 <= en <= 0.10) and fe >= 0.25 and fe >= en + 0.15 and mom <= 0.10
    _report("3 null calibration", ok,
            f"FE={fe:.3f} EN={en:.3f} MoM={mom:.3f}")
    assert ok


def test_criterion_4_power_ordering_under_contamination():
    config = SimConfig(seed=3004, gamma_grid=(1.0, 2.0, 3.0), iterations=1000,
                       outlier_fraction=0.10)
    res = run_flagging_experiment(config)
    checks = []
    for gi, gamma in enumerate(res.config.gamma_grid):
        en = float(res.flag_rates["en"][0, gi])
        mom = float(res.flag_rates["mom"][0, gi])
        slack = 2.0 * (float(res.flag_se["en"][0, gi]) + float(res.flag_se["mom"][0, gi]))
        checks.append((gamma, en, mom, en >= mom - slack))
    ok = all(c[3] for c in checks)
    _report("4 power ordering", ok,
            "; ".join(f"g={g:g}: EN={e:.3f} MoM={m:.3f}" for g, e, m, _ in checks))
    assert ok


# -- 5 ------------------------------------------------------------------------

def test_criterion_5_estimator_bias():
    config = SimConfig(seed=3005, gamma_grid=(2.0,), iterations=1000,
                       outlier_fraction=0.10,
                       q_grid=(0.0, 2.5, 5.0, 10.0, 15.0))
    res = run_tuning_sensitivity(config)
    q = np.asarray(res.config.q_grid)
    en_means = res.sigma2_mean["en"]
    mom_means = res.sigma2_mean["mom"]
    en_band = bool(np.all(np.abs(en_means[q > 0] - 0.14) <= 0.03))
    mom_q0 = float(mom_means[q == 0.0][0])
    mom_overshoot = mom_q0 > 0.17
    en_range = float(np.ptp(en_means[q > 0]))
    mom_range = float(np.ptp(mom_means))
    sensitivity = mom_range > en_range
    ok = en_band and mom_overshoot and sensitivity
    _report("5 estimator bias", ok,
            f"EN sigma2 by q {np.round(en_means, 4).tolist()}; "
            f"MoM q0={mom_q0:.3f}; ranges MoM={mom_range:.3f} EN={en_range:.4f}")
    assert ok


# -- 6 ------------------------------------------------------------------------

def test_criterion_6_composite_discrimination():
    config = SimConfig(seed=3006, gamma_grid=(1.0,), iterations=1000,
                       sigma2_alpha=(0.14, 0.04), outlier_fraction=0.10,
                       exposure_mean=2_500_000.0)
    res = run_composite_experiment(config)
    fe = res.flag_rates["fe"][:, 0]
    en = res.flag_rates["en"][:, 0]
    mom = res.flag_rates["mom"][:, 0]
    fe_ok = bool(np.all(fe >= 0.8))
    en_limits = bool(en[2] <= 0.2 and en[3] <= 0.2)
    en_power = bool(en[0] >= mom[0] and en[1] >= mom[1])
    ok = fe_ok and en_limits and en_power
    _report("6 composite discrimination", ok,
            f"FE={np.round(fe, 3).tolist()} EN={np.round(en, 3).tolist()} "
            f"MoM={np.round(mom, 3).tolist()}")
    assert ok


# -- 7 ------------------------------------------------------------------------

def test_criterion_7_expected_score_calibration():
    g1, s2_1, s2_2, n1, n2 = 0.5, 0.14, 0.04, 100.0, 100.0
    g2 = gamma2_for_null_composite(g1, n1, n2, s2_1, s2_2)
    rng = np.random.default_rng(3007)
    reps = 10000
    a1 = rng.normal(0.0, math.sqrt(s2_1), reps)
    a2 = rng.normal(0.0, math.sqrt(s2_2), reps)
    o1 = rng.poisson(n1 * np.exp(g1 + a1))
    o2 = rng.poisson(n2 * np.exp(g2 + a2))
    z1 = (o1 - n1) / math.sqrt(n1) / math.sqrt(1 + s2_1 * n1)
    z2 = (o2 - n2) / math.sqrt(n2) / math.sqrt(1 + s2_2 * n2)
    comp = (z1 - z2) / math.sqrt(2.0)
    mean_comp = float(np.mean(comp))
    calib_ok = abs(mean_comp) <= 0.05

    points = [(0.5, 0.04, 50.0), (0.0, 0.14, 100.0), (1.0, 0.14, 200.0)]
    formula_checks = []
    for i, (g, s2, n) in enumerate(points):
        prng = np.random.default_rng((3007, i))
        alpha = prng.normal(0.0, math.sqrt(s2), 40000)
        obs = prng.poisson(n * np.exp(g + alpha))
        z_en = (obs - n) / math.sqrt(n) / math.sqrt(1 + s2 * n)
        se = float(np.std(z_en, ddof=1)) / math.sqrt(40000)
        diff = abs(float(np.mean(z_en)) - expected_en_z(g, n, s2))
        formula_checks.append(diff <= 3 * se)
    ok = calib_ok and all(formula_checks)
    _report("7 expected-score calibration", ok,
            f"|mean composite|={abs(mean_comp):.4f}; closed form within 3 SE "
            f"at {sum(formula_checks)}/3 points")
    assert ok


# -- 8: property spot-suite ----------------------------------------------------

def test_criterion_8_property_suite():
    rng = np.random.default_rng(3008)
    failures = []

    # CDF/quantile round trip
    for p in np.linspace(0.001, 0.999, 200):
        if abs(std_normal_cdf(std_normal_quantile(float(p))) - p) > 1e-9:
            failures.append(f"roundtrip at p={p}")

    # shrinkage and sign preservation
    for _ in range(300):
        z = float(rng.uniform(-20, 20))
        n = float(rng.uniform(0, 5000))
        phi = float(rng.uniform(0, 2))
        c = z_empirical_null(z, n, phi)
        if abs(c) > abs(z) + 1e-12 or (z != 0 and c * z < 0):
            failures.append(f"shrinkage at {(z, n, phi)}")

    # likelihood ascent of the profile fit
    sizes = np.exp(-6.0 + rng.normal(-0.4, math.sqrt(0.5), 212)) \
        * rng.exponential(3e5, 212)
    z = rng.normal(0.0, np.sqrt(1.0 + 0.14 * sizes))
    cfg = EnConfig()
    fit = fit_empirical_null(z, sizes, cfg)
    bounds = [tuple(row) for row in fit.interval_bounds]
    for pi0 in cfg.pi0_grid():
        if fit.loglik < null_loglik(fit.phi_init, float(pi0), z, sizes,
                                    fit.null_set, bounds) - 1e-9:
            failures.append(f"likelihood ascent at pi0={pi0}")

    # winsorize idempotence on exact percentile indices
    for q in (5.0, 10.0, 25.0):
        vals = rng.normal(size=101)
        once = winsorize(vals, q)
        if not np.allclose(once, winsorize(once, q), atol=1e-12):
            failures.append(f"winsorize idempotence at q={q}")

    # weight positivity and permutation equivariance
    for _ in range(30):
        mat = rng.normal(size=(40, 4))
        corr = correlation_matrix(mat)
        w = capped_corr_weights(corr)
        if not np.all(w > 0):
            failures.append("weight positivity")
        perm = rng.permutation(4)
        corr_p = corr[np.ix_(perm, perm)]
        if abs(composite_score(mat[0][perm], w[perm], corr_p) -
               composite_score(mat[0], w, corr)) > 1e-9:
            failures.append("permutation equivariance")

    ok = not failures
    _report("8 property suite", ok,
            "all invariants hold" if ok else "; ".join(failures[:4]))
    assert ok, failures[:10]


# -- 9: pipeline golden test -----------------------------------------------

def test_criterion_9_pipeline_golden(tmp_path):
    start = time.time()
    from profile_null.cli import main

    centers = str(FIXTURES / "centers.csv")
    measures = str(FIXTURES / "measures.json")
    assert main(["composite", "--centers", centers, "--measures", measures,
                 "--out", str(tmp_path / "pipeline")]) == 0
    assert main(["funnel", "--centers", centers, "--measures", measures,
                 "--out", str(tmp_path / "pipeline")]) == 0
    assert main(["diagnose", "--centers", centers, "--measures", measures,
                 "--out", str(tmp_path / "pipeline")]) == 0
    for method in ("fe", "mom"):
        assert main(["standardize", "--centers", centers, "--measures", measures,
                     "--method", method, "--out", str(tmp_path / f"standardize_{method}")]) == 0
    for smoke in ("sim_smoke.json", "sim_smoke_tuning.json",
                  "sim_smoke_composite.json"):
        assert main(["simulate", "--config", str(FIXTURES / smoke),
                     "--out", str(tmp_path / "sim_smoke"), "--workers", "1"]) == 0
    elapsed = time.time() - start

    mismatched = []
    golden_files = sorted(p for p in GOLDEN.rglob("*") if p.is_file())
    assert golden_files, "golden outputs missing; run scripts/make_golden.py"
    for gold in golden_files:
        produced = tmp_path / gold.relative_to(GOLDEN)
        if not produced.exists():
            mismatched.append(f"{gold.name}: not produced")
        elif produced.read_bytes() != gold.read_bytes():
            mismatched.append(f"{gold.name}: bytes differ")
    ok = not mismatched and elapsed < 10.0
    _report("9 pipeline golden", ok,
            f"{len(golden_files)} files byte-compared in {elapsed:.1f}s"
            + ("" if not mismatched else f"; mismatches: {mismatched}"))
    assert not mismatched, mismatched
    assert elapsed < 10.0, f"pipeline took {elapsed:.1f}s (budget 10s)"
