"""Synthetic single- and two-measure experiments: generates Poisson outcome
data with unobserved center-level confounding, runs the three standardization
methods (fixed-effects, method-of-moments, empirical null), and estimates
flagging-probability curves, estimator-bias summaries, and composite
discrimination for engineered probe centers.

Every iteration draws from its own generator keyed by (seed, iteration), so
results are bit-identical for a given config regardless of how many worker
processes evaluate them. PROFILE_NULL_THREADS caps the process pool.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from .baselines import fit_method_of_moments
from .empirical_null import EnConfig, fit_empirical_null, z_empirical_null
from .errors import ConvergenceError, FittingError, InputError
from .measures import FLAG_Z, z_fixed_effects

METHOD_KEYS = ("fe", "mom", "en")
ENV_THREADS = "PROFILE_NULL_THREADS"

MAX_FAILED_FRACTION = 0.05
# every iteration holds a few float64 arrays of n_centers; the cap keeps a
# config from asking for more memory than a machine has
MAX_SIM_CENTERS = 1_000_000

# Composite-experiment probe layout: center 0 poor/poor, 1 good/good,
# 2 poor access with outcomes calibrated to a null composite, 3 the mirror.
N_PROBES = 4


@dataclass(frozen=True)
class SimConfig:
    """Generative parameters for the simulation experiments.

    ``covariate_second_param`` is the variance of the per-center covariate.
    ``exposure_mean`` is the mean of the exponential person-years draw; the
    default is calibrated so effective center sizes are informative about
    size-dependent overdispersion (see notes in the repo docs).
    ``sigma2_alpha`` holds one confounder-effect variance per simulated
    measure. ``mom_q`` is the Winsorization level used for the
    method-of-moments arm of the experiments. ``n_centers`` lies between 10
    and ``MAX_SIM_CENTERS``.
    """

    n_centers: int = 212
    seed: int = 12345
    mu: float = -6.0
    beta: float = 1.0
    covariate_mean: float = -0.4
    covariate_second_param: float = 0.5
    exposure_mean: float = 300_000.0
    sigma2_alpha: tuple[float, ...] = (0.14,)
    outlier_fraction: float = 0.0
    outlier_effect: float = 1.0
    gamma_grid: tuple[float, ...] = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)
    iterations: int = 1000
    q_grid: tuple[float, ...] = (0.0, 2.5, 5.0, 10.0, 15.0)
    mom_q: float = 0.0
    en_config: EnConfig = field(default_factory=EnConfig)

    def __post_init__(self) -> None:
        if not (10 <= self.n_centers <= MAX_SIM_CENTERS):
            raise InputError(f"n_centers must lie between 10 and {MAX_SIM_CENTERS}, "
                             f"got {self.n_centers}")
        if self.seed < 0:
            raise InputError("seed must be a nonnegative integer")
        if self.exposure_mean <= 0:
            raise InputError("exposure_mean must be positive")
        if not (0.0 <= self.outlier_fraction < 1.0):
            raise InputError("outlier_fraction must lie in [0, 1)")
        if self.iterations < 1:
            raise InputError("iterations must be at least 1")
        if self.covariate_second_param < 0:
            raise InputError("covariate variance must be nonnegative")
        if not self.sigma2_alpha or any(s < 0 for s in self.sigma2_alpha):
            raise InputError("sigma2_alpha must hold nonnegative variances")


@dataclass(frozen=True)
class SimDataset:
    """One simulated measure: per-center outcome sums plus the latent truth."""

    observed: np.ndarray
    expected: np.ndarray
    effective_size: np.ndarray
    gamma_true: np.ndarray
    alpha: np.ndarray

    def z_fixed_effects(self) -> np.ndarray:
        return z_fixed_effects(self.observed, self.expected, self.effective_size)


@dataclass(frozen=True)
class SimResult:
    """Flagging-probability curves and estimator summaries.

    ``flag_rates``/``flag_se`` are keyed by method and indexed by the grid of
    the experiment kind: gamma points for flagging runs, q values for tuning
    runs. Composite runs fill ``focal_flag_rates`` with (probe, gamma)
    arrays instead. ``n_failed`` counts iterations whose fits failed.
    """

    kind: str
    config: SimConfig
    gamma_grid: tuple[float, ...] | None = None
    q_grid: tuple[float, ...] | None = None
    flag_rates: dict[str, np.ndarray] | None = None
    flag_se: dict[str, np.ndarray] | None = None
    sigma2_mean: dict[str, np.ndarray] | None = None
    sigma2_sd: dict[str, np.ndarray] | None = None
    focal_flag_rates: dict[str, np.ndarray] | None = None
    focal_flag_se: dict[str, np.ndarray] | None = None
    null_reference_rates: dict[str, np.ndarray] | None = None
    n_failed: np.ndarray | None = None
    n_effective: np.ndarray | None = None


def resolve_workers(workers: int | None = None) -> int:
    """Worker-process count: explicit argument, else machine parallelism
    capped by PROFILE_NULL_THREADS."""
    if workers is not None:
        if workers < 1:
            raise InputError("workers must be at least 1")
        return workers
    n = os.cpu_count() or 1
    cap = os.environ.get(ENV_THREADS, "").strip()
    if cap:
        try:
            cap_n = int(cap)
        except ValueError as exc:
            raise InputError(f"{ENV_THREADS} must be an integer, got {cap!r}") from exc
        if cap_n < 1:
            raise InputError(f"{ENV_THREADS} must be at least 1, got {cap_n}")
        n = min(n, cap_n)
    return max(1, n)


def _iteration_rng(seed: int, iteration: int) -> np.random.Generator:
    return np.random.default_rng((seed, iteration))


def _outlier_gamma(config: SimConfig, n_reserved: int) -> np.ndarray:
    """Deterministic outlier layout: after the reserved focal block,
    floor(fraction/2 * F) centers get +effect and as many get -effect."""
    gamma = np.zeros(config.n_centers)
    per_sign = int(config.outlier_fraction / 2.0 * config.n_centers)
    if per_sign > 0:
        lo = n_reserved
        gamma[lo:lo + per_sign] = config.outlier_effect
        gamma[lo + per_sign:lo + 2 * per_sign] = -config.outlier_effect
    return gamma


def _poisson(rng: np.random.Generator, mean: np.ndarray) -> np.ndarray:
    """Poisson draws as float64. A mean numpy cannot draw from (NaN, or
    beyond about 9.2e18 after overflow) comes from the config's parameters
    and is reported as an input error."""
    try:
        return rng.poisson(mean).astype(np.float64)
    except ValueError as exc:
        raise InputError(f"simulated Poisson mean out of range ({exc}); check "
                         f"mu, beta, the covariate and exposure parameters, "
                         f"sigma2_alpha and the effect sizes") from None


def gen_single_measure(
    config: SimConfig,
    rng: np.random.Generator,
    gamma_focal: float = 0.0,
    sigma2_alpha: float | None = None,
) -> SimDataset:
    """Draw one measure for all centers.

    Per center: covariate x ~ N(mean, variance), person-years r from an
    exponential with the configured mean, confounder alpha ~ N(0, sigma2).
    Center 1 carries ``gamma_focal``; a designated block after it carries the
    outlier effects. Outcomes are Poisson with mean
    exp(mu + gamma + alpha + x*beta) * r; the expected count and effective
    size are both exp(mu + x*beta) * r.
    """
    s2 = config.sigma2_alpha[0] if sigma2_alpha is None else sigma2_alpha
    f = config.n_centers
    x = rng.normal(config.covariate_mean, math.sqrt(config.covariate_second_param), f)
    r = rng.exponential(config.exposure_mean, f)
    alpha = rng.normal(0.0, math.sqrt(s2), f)
    gamma = _outlier_gamma(config, n_reserved=1)
    gamma[0] = gamma_focal
    expected = np.exp(config.mu + config.beta * x) * r
    observed = _poisson(rng, expected * np.exp(gamma + alpha))
    return SimDataset(observed=observed, expected=expected,
                      effective_size=expected.copy(), gamma_true=gamma, alpha=alpha)


def expected_en_z(gamma: float, size: float, sigma2: float) -> float:
    """Closed-form mean of the empirical-null score for a Poisson measure
    with known confounder variance:
    sqrt(n / (1 + sigma2*n)) * (exp(gamma + sigma2/2) - 1)."""
    if size <= 0:
        raise InputError(f"size must be positive, got {size}")
    if sigma2 < 0:
        raise InputError(f"sigma2 must be nonnegative, got {sigma2}")
    return math.sqrt(size / (1.0 + sigma2 * size)) * (math.exp(gamma + sigma2 / 2.0) - 1.0)


def gamma2_for_null_composite(
    gamma1: float,
    size1: float,
    size2: float,
    sigma2_1: float,
    sigma2_2: float,
) -> float:
    """Second-measure effect that zeroes the expected two-measure difference
    composite when measure 1 is higher-is-better and measure 2 is
    lower-is-better. Raises InputError when no such effect exists (the
    log argument is non-positive or beyond the float range)."""
    if size1 <= 0 or size2 <= 0:
        raise InputError("sizes must be positive")
    s1 = math.sqrt(size1 / (1.0 + sigma2_1 * size1))
    s2 = math.sqrt(size2 / (1.0 + sigma2_2 * size2))
    try:
        num = s2 + s1 * (math.exp(gamma1 + sigma2_1 / 2.0) - 1.0)
        den = s2 * math.exp(sigma2_2 / 2.0)
    except OverflowError:
        raise InputError(f"no calibrating effect exists for gamma1={gamma1}, "
                         f"sigma2=({sigma2_1}, {sigma2_2}): exp overflows") from None
    if num <= 0.0:
        raise InputError(
            f"no calibrating effect exists for gamma1={gamma1}, sizes="
            f"({size1:.4g}, {size2:.4g}), sigma2=({sigma2_1}, {sigma2_2}): "
            f"log argument {num / den:.4g} <= 0")
    return math.log(num / den)


def _fit_three_methods(z: np.ndarray, sizes: np.ndarray, config: SimConfig,
                       en_config: EnConfig | None = None):
    """Empirical-null and method-of-moments fits for one dataset."""
    en_cfg = en_config if en_config is not None else config.en_config
    fit = fit_empirical_null(z, sizes, en_cfg)
    mom = fit_method_of_moments(z, sizes, q_percent=config.mom_q)
    return fit, mom


def _flagging_iteration(iteration: int, config: SimConfig, gamma: float):
    rng = _iteration_rng(config.seed, iteration)
    data = gen_single_measure(config, rng, gamma_focal=gamma)
    z = data.z_fixed_effects()
    sizes = data.effective_size
    try:
        fit, mom = _fit_three_methods(z, sizes, config)
    except (FittingError, ConvergenceError):
        return None
    # the last center never carries a quality effect; its flags give an
    # exchangeability reference for the focal center at gamma = 0
    out = []
    for idx in (0, config.n_centers - 1):
        zi, ni = float(z[idx]), float(sizes[idx])
        out += [
            abs(zi) > FLAG_Z,
            abs(z_empirical_null(zi, ni, mom.phi_mom)) > FLAG_Z,
            abs(z_empirical_null(zi, ni, fit.phi_hat)) > FLAG_Z,
        ]
    return tuple(out)


def _map_iterations(fn: Callable[[int], object], iterations: int,
                    workers: int) -> list:
    if workers <= 1:
        return [fn(i) for i in range(iterations)]
    chunksize = max(1, iterations // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(iterations), chunksize=chunksize))


def _check_failures(n_failed: int, iterations: int, context: str) -> None:
    if n_failed > MAX_FAILED_FRACTION * iterations:
        raise ConvergenceError(
            f"{n_failed} of {iterations} iterations failed during {context}; "
            f"limit is {MAX_FAILED_FRACTION:.0%}")


def _rate_se(p: float, n: int) -> float:
    return math.sqrt(p * (1.0 - p) / n) if n > 0 else float("nan")


def run_flagging_experiment(config: SimConfig,
                            workers: int | None = None) -> SimResult:
    """Flag-rate curves for Center 1 across the gamma grid, per method.

    Each grid point reruns the full pipeline ``iterations`` times: generate,
    standardize with all three methods, flag at |z| > 1.96. Failed fits are
    excluded from the denominators and abort the run above the failure cap.
    """
    w = resolve_workers(workers)
    n_gamma = len(config.gamma_grid)
    rates = {m: np.zeros(n_gamma) for m in METHOD_KEYS}
    ses = {m: np.zeros(n_gamma) for m in METHOD_KEYS}
    null_ref = {m: np.zeros(n_gamma) for m in METHOD_KEYS}
    n_failed = np.zeros(n_gamma, dtype=np.int64)
    n_eff = np.zeros(n_gamma, dtype=np.int64)
    for gi, gamma in enumerate(config.gamma_grid):
        outcomes = _map_iterations(
            partial(_flagging_iteration, config=config, gamma=float(gamma)),
            config.iterations, w)
        ok = [o for o in outcomes if o is not None]
        n_failed[gi] = config.iterations - len(ok)
        _check_failures(int(n_failed[gi]), config.iterations,
                        f"flagging run at gamma={gamma}")
        n_eff[gi] = len(ok)
        arr = np.asarray(ok, dtype=np.float64)
        for mi, m in enumerate(METHOD_KEYS):
            rates[m][gi] = float(np.mean(arr[:, mi]))
            ses[m][gi] = _rate_se(rates[m][gi], len(ok))
            null_ref[m][gi] = float(np.mean(arr[:, 3 + mi]))
    return SimResult(kind="flagging", config=config,
                     gamma_grid=tuple(config.gamma_grid),
                     flag_rates=rates, flag_se=ses,
                     null_reference_rates=null_ref,
                     n_failed=n_failed, n_effective=n_eff)


def _tuning_iteration(iteration: int, config: SimConfig, gamma: float):
    rng = _iteration_rng(config.seed, iteration)
    data = gen_single_measure(config, rng, gamma_focal=gamma)
    z = data.z_fixed_effects()
    sizes = data.effective_size
    z1, n1 = float(z[0]), float(sizes[0])
    n_q = len(config.q_grid)
    en_s2 = np.full(n_q, np.nan)
    mom_s2 = np.full(n_q, np.nan)
    en_flag = np.full(n_q, np.nan)
    mom_flag = np.full(n_q, np.nan)
    for qi, q in enumerate(config.q_grid):
        mom = fit_method_of_moments(z, sizes, q_percent=float(q))
        mom_s2[qi] = mom.sigma2_alpha_hat
        mom_flag[qi] = abs(z_empirical_null(z1, n1, mom.phi_mom)) > FLAG_Z
        if q > 0:
            # the empirical-null interval needs a finite quantile, so q = 0
            # applies to the method-of-moments arm only
            try:
                fit = fit_empirical_null(
                    z, sizes, replace(config.en_config, q_percent=float(q)))
            except (FittingError, ConvergenceError):
                return None
            en_s2[qi] = fit.sigma2_alpha_hat
            en_flag[qi] = abs(z_empirical_null(z1, n1, fit.phi_hat)) > FLAG_Z
    return en_s2, mom_s2, en_flag, mom_flag


def run_tuning_sensitivity(config: SimConfig,
                           workers: int | None = None) -> SimResult:
    """Sensitivity of both corrections to their tuning constant q.

    Per q: the mean and spread of the estimated confounder variance for the
    empirical null (interval constant v from q) and the method-of-moments
    (Winsorization at q), plus the focal-center flag rates. The focal effect
    is the first gamma_grid entry; datasets are shared across q within an
    iteration.
    """
    if not config.q_grid:
        raise InputError("q_grid must not be empty")
    w = resolve_workers(workers)
    gamma = float(config.gamma_grid[0]) if config.gamma_grid else 0.0
    outcomes = _map_iterations(
        partial(_tuning_iteration, config=config, gamma=gamma),
        config.iterations, w)
    ok = [o for o in outcomes if o is not None]
    n_failed = config.iterations - len(ok)
    _check_failures(n_failed, config.iterations, "tuning sensitivity run")
    en_s2 = np.vstack([o[0] for o in ok])
    mom_s2 = np.vstack([o[1] for o in ok])
    en_flag = np.vstack([o[2] for o in ok])
    mom_flag = np.vstack([o[3] for o in ok])
    n_q = len(config.q_grid)

    def col_mean(mat: np.ndarray) -> np.ndarray:
        # columns can be all-NaN (empirical null at q = 0)
        return np.array([np.mean(col[np.isfinite(col)]) if np.isfinite(col).any()
                         else np.nan for col in mat.T])

    def col_sd(mat: np.ndarray) -> np.ndarray:
        return np.array([np.std(col[np.isfinite(col)], ddof=1)
                         if np.isfinite(col).sum() > 1 else np.nan
                         for col in mat.T])

    rates = {"en": col_mean(en_flag), "mom": col_mean(mom_flag)}
    ses = {m: np.array([_rate_se(rates[m][qi], len(ok))
                        if np.isfinite(rates[m][qi]) else np.nan
                        for qi in range(n_q)])
           for m in ("en", "mom")}
    return SimResult(
        kind="tuning", config=config, q_grid=tuple(config.q_grid),
        gamma_grid=(gamma,),
        flag_rates=rates, flag_se=ses,
        sigma2_mean={"en": col_mean(en_s2), "mom": col_mean(mom_s2)},
        sigma2_sd={"en": col_sd(en_s2), "mom": col_sd(mom_s2)},
        n_failed=np.full(n_q, n_failed, dtype=np.int64),
        n_effective=np.full(n_q, len(ok), dtype=np.int64))


def _composite_iteration(iteration: int, config: SimConfig, gamma: float):
    """One two-measure iteration; returns probe flags per method or None.

    Measure 1 is higher-is-better (access), measure 2 lower-is-better
    (adverse outcomes); the aligned composite is (z1 - z2) / sqrt(2).
    Probe centers 0-3 get deterministic quality effects (alpha suppressed so
    the probes respond to the swept effect alone); centers 2 and 3 have
    measure-2 effects calibrated per the null-composite formula from the
    iteration's realized sizes.
    """
    s2_1, s2_2 = config.sigma2_alpha[0], config.sigma2_alpha[1]
    f = config.n_centers
    rng = _iteration_rng(config.seed, iteration)
    r = rng.exponential(config.exposure_mean, f)
    x1 = rng.normal(config.covariate_mean,
                    math.sqrt(config.covariate_second_param), f)
    x2 = rng.normal(config.covariate_mean,
                    math.sqrt(config.covariate_second_param), f)
    alpha1 = rng.normal(0.0, math.sqrt(s2_1), f)
    alpha2 = rng.normal(0.0, math.sqrt(s2_2), f)
    alpha1[:N_PROBES] = 0.0
    alpha2[:N_PROBES] = 0.0

    n1 = np.exp(config.mu + config.beta * x1) * r
    n2 = np.exp(config.mu + config.beta * x2) * r

    # outliers: half the contaminated centers deviate on measure 1, half on
    # measure 2, split evenly between signs within each measure
    g1 = np.zeros(f)
    g2 = np.zeros(f)
    per_measure = int(config.outlier_fraction / 2.0 * f)
    per_sign = per_measure // 2
    lo = N_PROBES
    g1[lo:lo + per_sign] = config.outlier_effect
    g1[lo + per_sign:lo + per_measure] = -config.outlier_effect
    lo += per_measure
    g2[lo:lo + per_sign] = config.outlier_effect
    g2[lo + per_sign:lo + per_measure] = -config.outlier_effect

    g1[0], g2[0] = -gamma, gamma    # poor access, poor outcomes
    g1[1], g2[1] = gamma, -gamma    # good access, good outcomes
    try:
        g1[2] = -gamma
        g2[2] = gamma2_for_null_composite(-gamma, n1[2], n2[2], s2_1, s2_2)
        g1[3] = gamma
        g2[3] = gamma2_for_null_composite(gamma, n1[3], n2[3], s2_1, s2_2)
    except InputError:
        return None

    o1 = _poisson(rng, n1 * np.exp(g1 + alpha1))
    o2 = _poisson(rng, n2 * np.exp(g2 + alpha2))
    z1 = z_fixed_effects(o1, n1, n1)
    z2 = z_fixed_effects(o2, n2, n2)
    try:
        fit1, mom1 = _fit_three_methods(z1, n1, config)
        fit2, mom2 = _fit_three_methods(z2, n2, config)
    except (FittingError, ConvergenceError):
        return None

    phis = {"fe": (0.0, 0.0), "mom": (mom1.phi_mom, mom2.phi_mom),
            "en": (fit1.phi_hat, fit2.phi_hat)}
    flags = np.zeros((len(METHOD_KEYS), N_PROBES), dtype=np.float64)
    for mi, m in enumerate(METHOD_KEYS):
        phi1, phi2 = phis[m]
        s1v = z_empirical_null(z1[:N_PROBES], n1[:N_PROBES], phi1)
        s2v = z_empirical_null(z2[:N_PROBES], n2[:N_PROBES], phi2)
        comp = (s1v - s2v) / math.sqrt(2.0)
        flags[mi] = np.abs(comp) > FLAG_Z
    return flags


def run_composite_experiment(config: SimConfig,
                             workers: int | None = None) -> SimResult:
    """Two-measure composite discrimination curves for the four probe
    centers, per method, across the gamma grid."""
    if len(config.sigma2_alpha) < 2:
        raise InputError("composite experiment needs two sigma2_alpha entries")
    if config.n_centers < N_PROBES + 1:
        raise InputError(f"composite experiment needs more than {N_PROBES} centers")
    w = resolve_workers(workers)
    n_gamma = len(config.gamma_grid)
    rates = {m: np.zeros((N_PROBES, n_gamma)) for m in METHOD_KEYS}
    ses = {m: np.zeros((N_PROBES, n_gamma)) for m in METHOD_KEYS}
    n_failed = np.zeros(n_gamma, dtype=np.int64)
    n_eff = np.zeros(n_gamma, dtype=np.int64)
    for gi, gamma in enumerate(config.gamma_grid):
        outcomes = _map_iterations(
            partial(_composite_iteration, config=config, gamma=float(gamma)),
            config.iterations, w)
        ok = [o for o in outcomes if o is not None]
        n_failed[gi] = config.iterations - len(ok)
        _check_failures(int(n_failed[gi]), config.iterations,
                        f"composite run at gamma={gamma}")
        n_eff[gi] = len(ok)
        stacked = np.stack(ok)
        for mi, m in enumerate(METHOD_KEYS):
            rates[m][:, gi] = np.mean(stacked[:, mi, :], axis=0)
            ses[m][:, gi] = [_rate_se(float(p), len(ok)) for p in rates[m][:, gi]]
    return SimResult(kind="composite", config=config,
                     gamma_grid=tuple(config.gamma_grid),
                     focal_flag_rates=rates, focal_flag_se=ses,
                     n_failed=n_failed, n_effective=n_eff)
