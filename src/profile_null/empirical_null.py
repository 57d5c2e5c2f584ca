"""Individualized empirical null: truncated-normal maximum likelihood for the
overdispersion parameter phi and the null proportion pi0, size-dependent
corrected Z-scores, and funnel-plot control limits.

Model: under the null, a center's fixed-effects Z-score is N(0, 1 + phi*n)
where n is the effective center size. The non-null density is unspecified
but supported outside a per-center interval [-B_i, B_i], which makes
(phi, pi0) identifiable from center-level statistics alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import _kernels
from .errors import ConvergenceError, FittingError, InputError
from .numerics import nelder_mead_lockstep, robust_intercept_scale, std_normal_quantile

MIN_CENTERS = 10
MIN_NULL_SET = 3
# each pi0 grid point is one column of the lockstep Nelder-Mead in every fit
MAX_PI0_STEPS = 1000


@dataclass(frozen=True)
class EnConfig:
    """Tuning parameters for the empirical-null fit.

    ``q_percent`` sets the truncation constant v to the (100 - q)th standard
    normal percentile. The pi0 grid spans the profile-likelihood search in
    at most ``MAX_PI0_STEPS`` steps.
    """

    q_percent: float = 5.0
    pi0_grid_lo: float = 0.80
    pi0_grid_hi: float = 1.00
    pi0_grid_step: float = 0.005

    def __post_init__(self) -> None:
        if not (0.0 < self.q_percent < 50.0):
            raise InputError(f"q_percent must lie in (0, 50), got {self.q_percent}")
        if not (0.0 < self.pi0_grid_lo <= self.pi0_grid_hi <= 1.0):
            raise InputError("pi0 grid must satisfy 0 < lo <= hi <= 1")
        if not (0.0 < self.pi0_grid_step < math.inf):
            raise InputError(f"pi0_grid_step must be finite and positive, "
                             f"got {self.pi0_grid_step!r}")
        if (self.pi0_grid_hi - self.pi0_grid_lo) / self.pi0_grid_step > MAX_PI0_STEPS:
            raise InputError(f"pi0_grid_step {self.pi0_grid_step!r} makes more than "
                             f"{MAX_PI0_STEPS} steps across the pi0 grid")

    def pi0_grid(self) -> np.ndarray:
        """lo + k * step for every point up to hi, then hi itself when the
        last step falls short of it. A point that misses hi only by binary
        rounding of the step counts as reaching it."""
        lo, hi, step = self.pi0_grid_lo, self.pi0_grid_hi, self.pi0_grid_step
        n = math.floor((hi - lo) / step + 1e-9)
        grid = np.minimum(lo + step * np.arange(n + 1), hi)
        if hi - grid[-1] > 1e-9 * step:
            grid = np.append(grid, hi)
        return grid


@dataclass(frozen=True)
class NullFit:
    """Fitted empirical-null parameters for one measure.

    ``interval_bounds`` holds the per-center (A_i, B_i) truncation interval
    and ``null_set`` the per-center membership flags; both are computed from
    the initial overdispersion estimate and held fixed during optimization.
    ``sigma2_alpha_hat`` is the implied confounder-effect variance
    phi_hat * a_psi.

    ``profile_loglik``, ``nm_iterations`` and ``nm_converged`` hold, per pi0
    grid point, the maximized log-likelihood and the Nelder-Mead iteration
    count and convergence flag of its phi search. They explain a fit and
    are not written to any output.
    """

    measure_id: str
    phi_hat: float
    pi0_hat: float
    phi_init: float
    v: float
    interval_bounds: np.ndarray
    null_set: np.ndarray
    loglik: float
    sigma2_alpha_hat: float
    profile_loglik: np.ndarray = field(default_factory=lambda: np.empty(0))
    nm_iterations: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    nm_converged: np.ndarray = field(default_factory=lambda: np.empty(0, np.bool_))

    @property
    def n_null_set(self) -> int:
        return int(np.sum(self.null_set))


def initial_phi(z: Sequence[float], sizes: Sequence[float]) -> float:
    """Initial overdispersion estimate from the robust residual scale s:
    max(0, (s^2 - 1) / mean(sizes)), matching E[Z^2] = 1 + phi*n at the
    average size.
    """
    zarr = np.asarray(z, dtype=np.float64)
    sarr = np.asarray(sizes, dtype=np.float64)
    if zarr.shape != sarr.shape:
        raise InputError("z and sizes must have equal length")
    s = robust_intercept_scale(zarr).scale
    return max(0.0, (s * s - 1.0) / float(np.mean(sarr)))


def null_loglik(
    phi: float,
    pi0: float,
    z: Sequence[float],
    sizes: Sequence[float],
    null_set: Sequence[bool],
    bounds: Sequence[tuple[float, float]],
) -> float:
    """Truncated-mixture log-likelihood at (phi, pi0).

    In-interval centers contribute log(pi0 * N(0, 1 + phi*n) density);
    out-of-interval centers contribute log(1 - pi0 * Q_i(phi)) where Q_i is
    the null probability of the interval (-B_i, B_i), B_i >= 0. Returns -inf
    instead of raising when a log argument is non-positive.
    """
    if not phi >= 0:
        raise InputError(f"phi must be nonnegative, got {phi}")
    if not (0.0 < pi0 <= 1.0):
        raise InputError(f"pi0 must lie in (0, 1], got {pi0}")
    zarr = np.ascontiguousarray(z, dtype=np.float64)
    sarr = np.ascontiguousarray(sizes, dtype=np.float64)
    mask = np.ascontiguousarray(null_set, dtype=np.bool_)
    aarr = np.ascontiguousarray([a for (a, _) in bounds], dtype=np.float64)
    barr = np.ascontiguousarray([b for (_, b) in bounds], dtype=np.float64)
    if not (zarr.shape == sarr.shape == mask.shape == barr.shape):
        raise InputError("z, sizes, null_set, and bounds must have equal length")
    bad = np.flatnonzero((aarr != -barr) | ~(barr >= 0.0))
    if bad.size:
        raise InputError(f"bounds[{bad[0]}] is not (-B, B) with B >= 0")
    return float(_kernels.null_loglik_core(np.array([float(phi)]), np.array([float(pi0)]),
                                           zarr, sarr, mask, barr, {})[0])


def fit_empirical_null(
    z: Sequence[float],
    sizes: Sequence[float],
    config: EnConfig | None = None,
    a_psi: float = 1.0,
    measure_id: str = "",
) -> NullFit:
    """Profile-likelihood fit of (phi, pi0) for one measure.

    Pipeline: robust initial phi -> truncation interval and null-set
    membership (fixed thereafter) -> for each pi0 on the grid, maximize the
    log-likelihood over phi >= 0 with Nelder-Mead on u = log(phi + eps) ->
    keep the grid point with the largest profile likelihood, breaking ties
    toward the larger pi0.

    The grid points are fitted together by one lockstep Nelder-Mead
    (``nelder_mead_lockstep``), one simplex per pi0, so each step is one
    batched likelihood call for the whole grid; every grid point gets the
    same result as a Nelder-Mead run of its own. Raises ConvergenceError
    when no grid point converges.
    """
    cfg = config if config is not None else EnConfig()
    zarr = np.ascontiguousarray(z, dtype=np.float64)
    sarr = np.ascontiguousarray(sizes, dtype=np.float64)
    if zarr.ndim != 1 or zarr.shape != sarr.shape:
        raise InputError("z and sizes must be equal-length 1-d sequences")
    if zarr.size < MIN_CENTERS:
        raise FittingError(f"empirical-null fit needs at least {MIN_CENTERS} "
                           f"centers, got {zarr.size}")
    if not np.all(np.isfinite(zarr)):
        raise InputError("z contains non-finite values")
    if not np.all(np.isfinite(sarr)):
        raise InputError("sizes contains non-finite values")
    if not np.all(sarr > 0):
        raise InputError("sizes must be positive")

    phi_init = initial_phi(zarr, sarr)
    v = std_normal_quantile(1.0 - cfg.q_percent / 100.0)
    b_upper = v * np.sqrt(1.0 + phi_init * sarr)
    null_set = np.abs(zarr) <= b_upper
    n_null = int(np.sum(null_set))
    if n_null < MIN_NULL_SET:
        raise FittingError(f"degenerate null set: only {n_null} of {zarr.size} "
                           f"centers fall inside the truncation interval")

    grid = cfg.pi0_grid()
    # every step's columns share the erfc rows of the phis already tried
    erfc_rows: dict[float, np.ndarray] = {}

    def neg_loglik(u: np.ndarray, columns: np.ndarray) -> np.ndarray:
        return _kernels.neg_null_loglik_u(u, grid[columns], zarr, sarr, null_set,
                                          b_upper, erfc_rows)

    u_init = math.log(phi_init + _kernels.EPS_PHI)
    res = nelder_mead_lockstep(neg_loglik, np.full(grid.size, u_init))
    if not res.converged.any():
        raise ConvergenceError("phi optimization failed to converge at every "
                               "pi0 grid point")
    profile = -res.min_value
    # the last maximum: ties go to the larger pi0
    best = grid.size - 1 - int(np.argmax(profile[::-1]))
    phi_hat = max(0.0, math.exp(float(res.argmin[best])) - _kernels.EPS_PHI)
    return NullFit(
        measure_id=measure_id,
        phi_hat=phi_hat,
        pi0_hat=float(grid[best]),
        phi_init=phi_init,
        v=v,
        interval_bounds=np.column_stack([-b_upper, b_upper]),
        null_set=null_set,
        loglik=float(profile[best]),
        sigma2_alpha_hat=phi_hat * a_psi,
        profile_loglik=profile,
        nm_iterations=res.iterations,
        nm_converged=res.converged,
    )


def z_empirical_null(
    z_fe: np.ndarray | float,
    size: np.ndarray | float,
    phi_hat: float,
) -> np.ndarray:
    """Corrected scores z / sqrt(1 + phi_hat * size), elementwise.

    This is the one rescaling for every overdispersion estimate: the
    empirical-null phi_hat, or the method-of-moments phi_mom.
    """
    if phi_hat < 0:
        raise InputError(f"phi_hat must be nonnegative, got {phi_hat}")
    n = np.asarray(size, dtype=np.float64)
    if np.any(n < 0):
        raise InputError(f"size must be nonnegative, got {np.min(n)}")
    return z_fe / np.sqrt(1.0 + phi_hat * n)


def control_limits(
    phi: float,
    expected: np.ndarray | float,
    size: np.ndarray | float,
    a_psi: float = 1.0,
    alpha_z: float = 1.96,
) -> tuple[np.ndarray, np.ndarray]:
    """Funnel-plot control limits on the observed/expected ratio scale,
    elementwise over centers.

    Inverts the fixed-effects standardization and the empirical-null
    correction at |Z| = alpha_z:
    1 +/- alpha_z * sqrt(a_psi * size * (1 + phi * size)) / expected.
    phi = 0 gives the fixed-effects limits. A limit beyond the float range
    raises InputError.
    """
    e = np.asarray(expected, dtype=np.float64)
    n = np.asarray(size, dtype=np.float64)
    if np.any(e <= 0) or np.any(n <= 0):
        raise InputError("expected and size must be positive")
    if not (alpha_z > 0 and math.isfinite(alpha_z)):
        raise InputError(f"alpha_z must be a positive finite number, got {alpha_z}")
    with np.errstate(over="ignore", invalid="ignore"):
        half = alpha_z * np.sqrt(a_psi * n * (1.0 + phi * n)) / e
    if not np.all(np.isfinite(half)):
        raise InputError(f"control limits at alpha_z={alpha_z} are not finite")
    return (1.0 - half, 1.0 + half)
