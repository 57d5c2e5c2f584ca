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
from typing import Callable, Sequence

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
    method-of-moments arm of the experiments; it and every ``q_grid`` entry
    lie in [0, 50). ``n_centers`` lies between 10 and ``MAX_SIM_CENTERS``.
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
        if not self.gamma_grid:
            raise InputError("gamma_grid must not be empty")
        if self.covariate_second_param < 0:
            raise InputError("covariate variance must be nonnegative")
        if not self.sigma2_alpha or any(s < 0 for s in self.sigma2_alpha):
            raise InputError("sigma2_alpha must hold nonnegative variances")
        if not (0.0 <= self.mom_q < 50.0):
            raise InputError(f"mom_q must lie in [0, 50), got {self.mom_q}")
        for q in self.q_grid:
            if not (0.0 <= q < 50.0):
                raise InputError(f"q_grid entries must lie in [0, 50), got {q}")


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
class SweepResult:
    """Flag rates of probe centers across ``config.gamma_grid``.

    ``flag_rates``/``flag_se`` map each of ``METHOD_KEYS`` to a
    (probe, gamma) array. A flagging run has two probes: the focal center 0,
    and the last center, which never carries an effect. A composite run has
    the ``N_PROBES`` probe centers. ``n_failed`` and ``n_effective`` count
    the failed and the used iterations at each gamma.
    """

    config: SimConfig
    flag_rates: dict[str, np.ndarray]
    flag_se: dict[str, np.ndarray]
    n_failed: np.ndarray
    n_effective: np.ndarray


@dataclass(frozen=True)
class TuningResult:
    """Per q of ``config.q_grid``, for the "en" and "mom" methods: the focal
    center's flag rate and its standard error, and the mean and standard
    deviation of the estimated confounder variance. The empirical null has
    NaN at q = 0. ``n_failed`` and ``n_effective`` repeat one iteration
    count for every q.
    """

    config: SimConfig
    flag_rates: dict[str, np.ndarray]
    flag_se: dict[str, np.ndarray]
    sigma2_mean: dict[str, np.ndarray]
    sigma2_sd: dict[str, np.ndarray]
    n_failed: np.ndarray
    n_effective: np.ndarray


def resolve_workers(workers: int | None = None) -> int:
    """Worker-process count: explicit argument, else the CPUs this process
    may run on capped by PROFILE_NULL_THREADS."""
    if workers is not None:
        if workers < 1:
            raise InputError("workers must be at least 1")
        return workers
    try:
        n = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
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


def _outliers(config: SimConfig, lo: int, n_pos: int, n_neg: int) -> np.ndarray:
    """Per-center effects of a deterministic outlier block: from center
    ``lo`` on, ``n_pos`` centers get +effect and the next ``n_neg`` get
    -effect; all other centers get 0."""
    gamma = np.zeros(config.n_centers)
    gamma[lo:lo + n_pos] = config.outlier_effect
    gamma[lo + n_pos:lo + n_pos + n_neg] = -config.outlier_effect
    return gamma


def _covariate(config: SimConfig, rng: np.random.Generator) -> np.ndarray:
    """One covariate x ~ N(mean, variance) per center."""
    return rng.normal(config.covariate_mean,
                      math.sqrt(config.covariate_second_param), config.n_centers)


def _expected_counts(config: SimConfig, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """exp(mu + beta*x) * r, each center's expected count and effective size
    from its covariate x and person-years r. A count that is not finite
    comes from mu and beta and is reported as an input error."""
    with np.errstate(over="ignore", invalid="ignore"):
        n = np.exp(config.mu + config.beta * x) * r
    if not np.all(np.isfinite(n)):
        raise InputError(f"simulated expected count exp(mu + beta*x) * r is not "
                         f"finite; check mu={config.mu} and beta={config.beta}")
    return n


def _poisson(rng: np.random.Generator, expected: np.ndarray, gamma: np.ndarray,
             alpha: np.ndarray) -> np.ndarray:
    """Poisson draws with mean expected * exp(gamma + alpha), as float64. A
    mean numpy cannot draw from (NaN, or beyond about 9.2e18 after overflow)
    comes from the config's parameters and is reported as an input error."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = expected * np.exp(gamma + alpha)
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
    x = _covariate(config, rng)
    r = rng.exponential(config.exposure_mean, f)
    alpha = rng.normal(0.0, math.sqrt(s2), f)
    per_sign = int(config.outlier_fraction / 2.0 * f)
    gamma = _outliers(config, 1, per_sign, per_sign)
    gamma[0] = gamma_focal
    expected = _expected_counts(config, x, r)
    observed = _poisson(rng, expected, gamma, alpha)
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


def _method_scores(z: np.ndarray, sizes: np.ndarray, config: SimConfig,
                   probes) -> np.ndarray:
    """Fixed-effects, method-of-moments and empirical-null scores of the
    ``probes`` centers, one row per ``METHOD_KEYS`` entry. Fits the
    empirical null to the whole dataset first, then the method of moments."""
    phi_en = fit_empirical_null(z, sizes, config.en_config).phi_hat
    phi_mom = fit_method_of_moments(z, sizes, q_percent=config.mom_q).phi_mom
    return np.array([z_empirical_null(z[probes], sizes[probes], phi)
                     for phi in (0.0, phi_mom, phi_en)])


def _flagging_iteration(iteration: int, config: SimConfig, gamma: float):
    """One single-measure iteration; returns (method, probe) flags or None.
    The probes are the focal center 0 and the last center: it never carries
    a quality effect, so its flags give an exchangeability reference for the
    focal center at gamma = 0."""
    rng = _iteration_rng(config.seed, iteration)
    data = gen_single_measure(config, rng, gamma_focal=gamma)
    z = data.z_fixed_effects()
    try:
        scores = _method_scores(z, data.effective_size, config,
                                [0, config.n_centers - 1])
    except (FittingError, ConvergenceError):
        return None
    return np.abs(scores) > FLAG_Z


def map_items(fn: Callable[[object], object], items: Sequence,
              workers: int) -> list:
    """``[fn(x) for x in items]``, spread over at most ``workers`` processes.

    The one process pool of the package: the simulation runners map their
    iterations through it. Results come back in item order, and the first
    item that raises, in that order, raises its exception here. The pool
    starts all its processes at once, so it gets no more of them than there
    are items.
    """
    workers = min(workers, len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    chunksize = max(1, len(items) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))


def _iterate(iteration: Callable, config: SimConfig, workers: int, gamma: float,
             context: str) -> list:
    """The outcomes of ``config.iterations`` calls of ``iteration`` at one
    gamma that did not fail (return None). Raises ConvergenceError when more
    than ``MAX_FAILED_FRACTION`` of them failed."""
    outcomes = map_items(partial(iteration, config=config, gamma=gamma),
                         range(config.iterations), workers)
    ok = [o for o in outcomes if o is not None]
    n_failed = config.iterations - len(ok)
    if n_failed > MAX_FAILED_FRACTION * config.iterations:
        raise ConvergenceError(
            f"{n_failed} of {config.iterations} iterations failed during "
            f"{context}; limit is {MAX_FAILED_FRACTION:.0%}")
    return ok


def _sweep(iteration: Callable, config: SimConfig, workers: int | None,
           run: str) -> SweepResult:
    """Flag rates across the gamma grid. At each gamma, ``iteration`` runs
    ``config.iterations`` times and returns a (method, probe) bool array, or
    None when a fit failed; failed iterations leave the denominators."""
    w = resolve_workers(workers)
    means, n_eff = [], []
    for gamma in config.gamma_grid:
        ok = _iterate(iteration, config, w, float(gamma), f"{run} run at gamma={gamma}")
        means.append(np.mean(np.stack(ok), axis=0))
        n_eff.append(len(ok))
    n_eff = np.array(n_eff, dtype=np.int64)
    rates = np.stack(means, axis=-1)    # (method, probe, gamma)
    se = np.sqrt(rates * (1.0 - rates) / n_eff)
    return SweepResult(config=config, flag_rates=dict(zip(METHOD_KEYS, rates)),
                       flag_se=dict(zip(METHOD_KEYS, se)),
                       n_failed=config.iterations - n_eff, n_effective=n_eff)


def run_flagging_experiment(config: SimConfig,
                            workers: int | None = None) -> SweepResult:
    """Flag-rate curves across the gamma grid, per method, for the focal
    center 0 (probe 0, which carries gamma) and the last center (probe 1).

    Each grid point reruns the full pipeline ``iterations`` times: generate,
    standardize with all three methods, flag at |z| > 1.96. Failed fits are
    excluded from the denominators and abort the run above the failure cap.
    Raises InputError when the outlier block after center 0 would reach the
    last center.
    """
    block_end = 2 * int(config.outlier_fraction / 2.0 * config.n_centers)
    if block_end >= config.n_centers - 1:
        raise InputError(
            f"outlier_fraction={config.outlier_fraction} puts outliers on "
            f"centers 1-{block_end}, which reaches the effect-free last center "
            f"of n_centers={config.n_centers}")
    return _sweep(_flagging_iteration, config, workers, "flagging")


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
                           workers: int | None = None) -> TuningResult:
    """Sensitivity of both corrections to their tuning constant q.

    Per q: the mean and spread of the estimated confounder variance for the
    empirical null (interval constant v from q) and the method-of-moments
    (Winsorization at q), plus the focal-center flag rates. The focal effect
    is the first gamma_grid entry; datasets are shared across q within an
    iteration.
    """
    if not config.q_grid:
        raise InputError("q_grid must not be empty")
    ok = _iterate(_tuning_iteration, config, resolve_workers(workers),
                  float(config.gamma_grid[0]), "tuning sensitivity run")
    en_s2, mom_s2, en_flag, mom_flag = (np.vstack(col) for col in zip(*ok))

    def col_mean(mat: np.ndarray) -> np.ndarray:
        # columns can be all-NaN (empirical null at q = 0)
        return np.array([np.mean(col[np.isfinite(col)]) if np.isfinite(col).any()
                         else np.nan for col in mat.T])

    def col_sd(mat: np.ndarray) -> np.ndarray:
        return np.array([np.std(col[np.isfinite(col)], ddof=1)
                         if np.isfinite(col).sum() > 1 else np.nan
                         for col in mat.T])

    rates = {"en": col_mean(en_flag), "mom": col_mean(mom_flag)}
    n_q = len(config.q_grid)
    return TuningResult(
        config=config, flag_rates=rates,
        flag_se={m: np.sqrt(p * (1.0 - p) / len(ok)) for m, p in rates.items()},
        sigma2_mean={"en": col_mean(en_s2), "mom": col_mean(mom_s2)},
        sigma2_sd={"en": col_sd(en_s2), "mom": col_sd(mom_s2)},
        n_failed=np.full(n_q, config.iterations - len(ok), dtype=np.int64),
        n_effective=np.full(n_q, len(ok), dtype=np.int64))


def _composite_iteration(iteration: int, config: SimConfig, gamma: float):
    """One two-measure iteration; returns (method, probe) flags or None.

    Measure 1 is higher-is-better (access), measure 2 lower-is-better
    (adverse outcomes); the aligned composite is (z1 - z2) / sqrt(2).
    Probe centers 0-3 get deterministic quality effects (alpha suppressed so
    the probes respond to the swept effect alone); centers 2 and 3 have
    measure-2 effects calibrated per the null-composite formula from the
    iteration's realized sizes. Half the contaminated centers deviate on
    measure 1, in a block after the probes, and half on measure 2, in the
    next block; within a block the first half (rounded down) gets +effect.
    """
    s2_1, s2_2 = config.sigma2_alpha[0], config.sigma2_alpha[1]
    f = config.n_centers
    rng = _iteration_rng(config.seed, iteration)
    r = rng.exponential(config.exposure_mean, f)
    x1 = _covariate(config, rng)
    x2 = _covariate(config, rng)
    alpha1 = rng.normal(0.0, math.sqrt(s2_1), f)
    alpha2 = rng.normal(0.0, math.sqrt(s2_2), f)
    alpha1[:N_PROBES] = 0.0
    alpha2[:N_PROBES] = 0.0

    n1 = _expected_counts(config, x1, r)
    n2 = _expected_counts(config, x2, r)

    per_measure = int(config.outlier_fraction / 2.0 * f)
    per_sign = per_measure // 2
    g1 = _outliers(config, N_PROBES, per_sign, per_measure - per_sign)
    g2 = _outliers(config, N_PROBES + per_measure, per_sign, per_measure - per_sign)
    g1[:N_PROBES] = (-gamma, gamma, -gamma, gamma)  # poor/good access
    g2[0], g2[1] = gamma, -gamma                    # poor/good outcomes
    try:
        g2[2] = gamma2_for_null_composite(-gamma, n1[2], n2[2], s2_1, s2_2)
        g2[3] = gamma2_for_null_composite(gamma, n1[3], n2[3], s2_1, s2_2)
    except InputError:
        return None

    o1 = _poisson(rng, n1, g1, alpha1)
    o2 = _poisson(rng, n2, g2, alpha2)
    z1 = z_fixed_effects(o1, n1, n1)
    z2 = z_fixed_effects(o2, n2, n2)
    probes = slice(N_PROBES)
    try:
        s1 = _method_scores(z1, n1, config, probes)
        s2 = _method_scores(z2, n2, config, probes)
    except (FittingError, ConvergenceError):
        return None
    return np.abs((s1 - s2) / math.sqrt(2.0)) > FLAG_Z


def run_composite_experiment(config: SimConfig,
                             workers: int | None = None) -> SweepResult:
    """Two-measure composite discrimination curves for the four probe
    centers, per method, across the gamma grid."""
    if len(config.sigma2_alpha) < 2:
        raise InputError("composite experiment needs two sigma2_alpha entries")
    n_outliers = 2 * int(config.outlier_fraction / 2.0 * config.n_centers)
    if N_PROBES + n_outliers > config.n_centers:
        raise InputError(
            f"outlier_fraction={config.outlier_fraction} asks for {n_outliers} "
            f"outlier centers after the {N_PROBES} probes, more than "
            f"n_centers={config.n_centers} holds")
    return _sweep(_composite_iteration, config, workers, "composite")
