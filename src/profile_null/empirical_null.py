"""Individualized empirical null: truncated-normal maximum likelihood for the
overdispersion parameter phi and the null proportion pi0, size-dependent
corrected Z-scores, and funnel-plot control limits.

Model: under the null, a center's fixed-effects Z-score is N(0, 1 + phi*n)
where n is the effective center size. The non-null density is unspecified
but supported outside a per-center interval [-B_i, B_i], which makes
(phi, pi0) identifiable from center-level statistics alone.

For a fixed pi0 the log-likelihood is smooth in phi, and its phi-score and
curvature have closed forms (``_kernels.null_score_core``). The fit takes
each pi0 grid point's phi at the root of that score, found by Newton steps
on (1 + phi * mean size)^2 times the score, capped at twice the plain
Newton step and kept inside a bracket, with bisection where a step would
leave it, moving the whole grid in lockstep; and the profile
log-likelihood at the roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import _kernels
from .errors import ConvergenceError, FittingError, InputError
from .numerics import robust_intercept_scale, std_normal_quantile

MIN_CENTERS = 10
MIN_NULL_SET = 3
# each pi0 grid point is one column of the lockstep root search in every fit
MAX_PI0_STEPS = 1000
# a root search stops at a bracket narrower than _PHI_RTOL times its upper
# end, and a column still open after _MAX_SCORE_CALLS is not converged
_PHI_RTOL = 1e-12
_MAX_SCORE_CALLS = 100


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

    ``profile_loglik``, ``iterations`` and ``converged`` hold, per pi0 grid
    point, the maximized log-likelihood, and the score evaluations and
    convergence flag of its phi root search. They explain a fit and are not
    written to any output.
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
    iterations: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    converged: np.ndarray = field(default_factory=lambda: np.empty(0, np.bool_))

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


def _check_z_and_sizes(zarr: np.ndarray, sarr: np.ndarray) -> None:
    """Raise InputError unless every z is finite and every size finite and
    positive."""
    if not np.all(np.isfinite(zarr)):
        raise InputError("z contains non-finite values")
    if not np.all(np.isfinite(sarr)):
        raise InputError("sizes contains non-finite values")
    if not np.all(sarr > 0):
        raise InputError("sizes must be positive")


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
    the null probability of the interval (-B_i, B_i), B_i >= 0. Every z must
    be finite and every size finite and positive. Returns -inf instead of
    raising when a log argument is non-positive, and the limit when
    1 + phi*n overflows.
    """
    if not 0 <= phi < math.inf:
        raise InputError(f"phi must be nonnegative and finite, got {phi}")
    if not (0.0 < pi0 <= 1.0):
        raise InputError(f"pi0 must lie in (0, 1], got {pi0}")
    zarr = np.ascontiguousarray(z, dtype=np.float64)
    sarr = np.ascontiguousarray(sizes, dtype=np.float64)
    mask = np.ascontiguousarray(null_set, dtype=np.bool_)
    aarr = np.ascontiguousarray([a for (a, _) in bounds], dtype=np.float64)
    barr = np.ascontiguousarray([b for (_, b) in bounds], dtype=np.float64)
    if not (zarr.shape == sarr.shape == mask.shape == barr.shape):
        raise InputError("z, sizes, null_set, and bounds must have equal length")
    _check_z_and_sizes(zarr, sarr)
    bad = np.flatnonzero((aarr != -barr) | ~(barr >= 0.0))
    if bad.size:
        raise InputError(f"bounds[{bad[0]}] is not (-B, B) with B >= 0")
    with np.errstate(over="ignore"):
        return float(_kernels.null_loglik_core(np.array([float(phi)]), np.array([float(pi0)]),
                                               _kernels.FitArrays(zarr, sarr, mask, barr))[0])


def _score_roots(score, phi_init: float, step: float, m: int):
    """The root phi >= 0 of each of m columns' score, ``score(phi,
    columns)`` returning the score, its phi-derivative and a value to keep
    for all open columns in one call per step; also the kept value at each
    root, the score evaluations of each column and whether it converged.

    Each column keeps a bracket [lo, hi], score(lo) > 0 >= score(hi), whose
    ends may still be missing, and its next point is a Newton step (Press
    et al., Numerical Recipes, 3rd ed., 9.4) on (1 + x/``step``)^2 times
    the score, which has the same roots: x - score / min(derivative +
    2 score/(x + ``step``), derivative/2), where ``step`` is 1/mean(n).
    From below the root, that product is nearly linear where the convex
    score is not, and the min keeps the step at most twice the plain one,
    x - score/derivative, where the product is flat. The column takes it
    where the derivative is negative and the step lands strictly inside the
    bracket, taken from 0 while lo is missing. Otherwise: with no hi yet the
    bracket grows upward, to 2 lo + ``step``; with no lo yet the column
    tries phi = 0, and a score there that is not positive makes 0 the root;
    with both ends, it bisects. A column starts at ``phi_init``. It stops at
    the point it evaluated when the score there is 0 or its plain Newton
    step is at most ``_PHI_RTOL`` times that point, or at hi when the
    bracket is narrower than ``_PHI_RTOL * hi``. A NaN or +inf score counts
    as positive: where 1 - pi0*Q underflows, the log-likelihood is -inf and
    its score 0/0 or +inf.
    """
    # lo < 0: no positive score yet; hi = inf: no score that is not positive
    lo, hi = np.full(m, -1.0), np.full(m, np.inf)
    # the kept values at lo, at hi and at each root
    at_lo, at_hi, at_root = np.zeros(m), np.zeros(m), np.zeros(m)
    calls, converged, root = np.zeros(m, np.int64), np.zeros(m, np.bool_), np.zeros(m)
    x, open_ = np.full(m, phi_init), np.arange(m)
    while open_.size:
        at = x[open_]
        f, df, kept = score(at, open_)
        calls[open_] += 1
        pos = ~(f <= 0.0)
        lo[open_[pos]], hi[open_[~pos]] = at[pos], at[~pos]
        at_lo[open_[pos]], at_hi[open_[~pos]] = kept[pos], kept[~pos]
        a, b = lo[open_], hi[open_]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            d = f / df
            # Newton on (1 + x/step)^2 score, at most twice the plain step
            target = at - f / np.minimum(df + 2.0 * f / (at + step), 0.5 * df)
        tangent = df < 0.0
        stop = tangent & (np.abs(d) <= _PHI_RTOL * at)
        # a zero score makes the point hi, so the root is hi
        done = stop | (f == 0.0) | (b == 0.0) | ((a >= 0.0) & (b < np.inf)
                                                 & (b - a <= _PHI_RTOL * b))
        converged[open_[done]] = True
        root[open_] = np.where(stop, at, np.where(b < np.inf, b, a))
        at_root[open_] = np.where(stop, kept, np.where(b < np.inf, at_hi[open_], at_lo[open_]))
        take = tangent & (np.maximum(a, 0.0) < target) & (target < b)
        x[open_] = np.where(take, target, np.where(b == np.inf, 2.0 * a + step,
                                                   np.where(a < 0.0, 0.0, 0.5 * (a + b))))
        open_ = open_[~done & (calls[open_] < _MAX_SCORE_CALLS)]
    return root, at_root, calls, converged


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
    log-likelihood over phi >= 0 at the root of its analytic phi-score ->
    keep the grid point with the largest profile likelihood, breaking ties
    toward the larger pi0.

    The grid points are solved together (``_score_roots``). The score
    kernel also returns each point's out-of-interval log-likelihood, so the
    profile at the roots needs only their in-interval terms; every grid
    point gets the same result as a fit on a grid of that point alone.
    Raises ConvergenceError when no grid point converges.
    """
    cfg = config if config is not None else EnConfig()
    zarr = np.ascontiguousarray(z, dtype=np.float64)
    sarr = np.ascontiguousarray(sizes, dtype=np.float64)
    if zarr.ndim != 1 or zarr.shape != sarr.shape:
        raise InputError("z and sizes must be equal-length 1-d sequences")
    if zarr.size < MIN_CENTERS:
        raise FittingError(f"empirical-null fit needs at least {MIN_CENTERS} "
                           f"centers, got {zarr.size}")
    _check_z_and_sizes(zarr, sarr)

    phi_init = initial_phi(zarr, sarr)
    v = std_normal_quantile(1.0 - cfg.q_percent / 100.0)
    b_upper = v * np.sqrt(1.0 + phi_init * sarr)
    null_set = np.abs(zarr) <= b_upper
    n_null = int(np.sum(null_set))
    if n_null < MIN_NULL_SET:
        raise FittingError(f"degenerate null set: only {n_null} of {zarr.size} "
                           f"centers fall inside the truncation interval")

    grid = cfg.pi0_grid()
    # every call shares the fit's arrays
    arrays = _kernels.FitArrays(zarr, sarr, null_set, b_upper)
    phi, log_out, iterations, converged = _score_roots(
        lambda x, columns: _kernels.null_score_core(x, grid[columns], arrays),
        phi_init, 1.0 / float(np.mean(sarr)), grid.size)
    if not converged.any():
        raise ConvergenceError("phi root search failed to converge at every "
                               "pi0 grid point")
    profile = _kernels.null_loglik_core(phi, grid, arrays, log_out)
    # the last maximum: ties go to the larger pi0
    best = grid.size - 1 - int(np.argmax(profile[::-1]))
    phi_hat = float(phi[best])
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
        iterations=iterations,
        converged=converged,
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
    if not 0 <= phi_hat < math.inf:
        raise InputError(f"phi_hat must be nonnegative and finite, got {phi_hat}")
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
    phi = 0 gives the fixed-effects limits. A phi that is not finite and
    >= 0, or a limit beyond the float range, raises InputError.
    """
    if not 0 <= phi < math.inf:
        raise InputError(f"phi must be nonnegative and finite, got {phi}")
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
