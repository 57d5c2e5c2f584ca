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
log-likelihood where each column stopped, one small Newton step from its root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernels
from .errors import ConvergenceError, FittingError, InputError
from .numerics import robust_intercept_scale, std_normal_quantile

# the |Z| that flags a center, and the default level of the funnel limits:
# the two-sided 5% standard normal quantile, to the paper's two decimals
FLAG_Z = 1.96
MIN_CENTERS = 10
MIN_NULL_SET = 3
# each pi0 grid point is one column of the lockstep root search in every fit
MAX_PI0_STEPS = 1000
# a root search stops on a Newton step of at most _NEWTON_STOP relative,
# and takes that step as the root: after a step d, Newton's error is about
# (f''/2f') d^2. Where phi times the mean size is below 1, the bound
# shrinks with it: 1 + phi*n keeps phi*n only to float64 rounding, so the
# score's rounding there can move a step from 1e-8 away by about 1e-12 of
# the root, and the search steps on as a 1e-12 stop did. It also stops on
# a bracket width of at most _PHI_RTOL relative, and a column open after
# _MAX_SCORE_CALLS is not converged
_NEWTON_STOP = 1e-8
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
    The measure id and a_psi stay with the caller, which writes the
    confounder-effect variance phi_hat * a_psi.

    ``profile_loglik``, ``profile_phi``, ``iterations`` and ``converged``
    hold, per pi0 grid point, the log-likelihood where its phi root search
    stopped, one Newton step of at most ``_NEWTON_STOP`` relative from the
    root, the root itself, and that search's score evaluations and
    convergence flag; ``phi_hat`` is ``profile_phi`` at the best point.
    They explain a fit, start a fit of the same data at another config, and
    are not written to any output.
    """

    phi_hat: float
    pi0_hat: float
    phi_init: float
    v: float
    interval_bounds: np.ndarray
    null_set: np.ndarray
    loglik: float
    profile_loglik: np.ndarray
    profile_phi: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray

    @property
    def n_null_set(self) -> int:
        return int(np.sum(self.null_set))


def initial_phi(z: Sequence[float], sizes: Sequence[float]) -> float:
    """Initial overdispersion estimate from the robust residual scale s:
    max(0, (s^2 - 1) / mean(sizes)), matching E[Z^2] = 1 + phi*n at the
    average size.

    z and sizes must be equal-length 1-d sequences, every z finite and every
    size finite and positive, as for the fit; InputError otherwise, or
    where the mean size or the estimate overflows the float range.
    """
    zarr, sarr = _z_and_sizes(z, sizes)
    _check_z_and_sizes(zarr, sarr)
    return _initial_phi(zarr, _mean_size(sarr))


def _initial_phi(zarr: np.ndarray, mean_size: float) -> float:
    """``initial_phi`` of scores that passed its checks, at their mean size."""
    s = robust_intercept_scale(zarr).scale
    phi = max(0.0, (s * s - 1.0) / mean_size)
    if not math.isfinite(phi):
        raise InputError(f"initial phi overflows the float range: robust scale {s!r}")
    return phi


def _mean_size(sarr: np.ndarray) -> float:
    """mean(sizes) of checked sizes; InputError where it overflows the float range."""
    with np.errstate(over="ignore"):
        mean = float(np.mean(sarr))
    if not math.isfinite(mean):
        raise InputError("the mean of the sizes overflows the float range")
    return mean


def _z_and_sizes(z: Sequence[float], sizes: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """z and sizes as C-contiguous float64 arrays; InputError unless they
    are 1-d of equal length."""
    zarr = np.asarray(z, dtype=np.float64, order="C")
    sarr = np.asarray(sizes, dtype=np.float64, order="C")
    if zarr.ndim != 1 or zarr.shape != sarr.shape:
        raise InputError("z and sizes must be equal-length 1-d sequences")
    return zarr, sarr


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


def _score_roots(score, start: np.ndarray, step: float):
    """The root phi >= 0 of each column's score, ``score(phi,
    columns)`` returning the score, its phi-derivative and a value to keep
    for all open columns in one call per step; also each column's stopping
    point, the kept value there, its score evaluations and convergence.

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
    with both ends, it bisects. Column k starts at ``start[k]`` >= 0; a
    fit without a start puts every column at phi_init, so its first call
    shares one phi. A column stops at the point x it evaluated when the
    score f there is 0 or its plain Newton step f/df is at most
    ``_NEWTON_STOP`` x min(1, x/``step``), with the root max(0, x - f/df),
    which is one Newton step closer than x; or at hi when the bracket is
    narrower than ``_PHI_RTOL * hi``. A NaN or +inf score counts as
    positive: where 1 - pi0*Q underflows, the log-likelihood is -inf and
    its score 0/0 or +inf.

    The search keeps the state of its open columns only: bracket, kept
    values at its ends and next point. It moves the bracket ends in place,
    and compacts the state to the open columns on the steps where some
    column stops. All open columns have made the same number of calls, so
    that count is one integer. A column's root, point, kept value, calls
    and convergence are written once, at the step where it stops or reaches
    ``_MAX_SCORE_CALLS``.
    """
    m = start.size
    root, point, at_point = np.zeros(m), np.zeros(m), np.zeros(m)
    calls, converged = np.zeros(m, np.int64), np.zeros(m, np.bool_)
    # the open columns: lo < 0 where there is no positive score yet and
    # hi = inf where there is no score that is not positive
    open_ = np.arange(m)
    lo, hi = np.full(m, -1.0), np.full(m, np.inf)
    at_lo, at_hi = np.zeros(m), np.zeros(m)
    x, made = start, 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while open_.size:
            f, df, kept = score(x, open_)
            made += 1
            # the new bracket end, in place; a NaN score counts as positive
            nonpositive = f <= 0.0
            np.copyto(hi, x, where=nonpositive)
            np.copyto(at_hi, kept, where=nonpositive)
            positive = ~nonpositive
            np.copyto(lo, x, where=positive)
            np.copyto(at_lo, kept, where=positive)
            tangent, newton = df < 0.0, f / df
            stop = tangent & (np.abs(newton) <= _NEWTON_STOP * x * np.minimum(1.0, x / step))
            bracketed = hi < np.inf
            # a zero score makes the point hi, so the root is hi
            done = stop | (f == 0.0) | (hi == 0.0) | ((lo >= 0.0) & bracketed
                                                      & (hi - lo <= _PHI_RTOL * hi))
            leave = done if made < _MAX_SCORE_CALLS else np.ones_like(done)
            left = leave.any()
            if left:
                out = open_[leave]
                at = np.where(stop, x, np.where(bracketed, hi, lo))
                root[out] = np.where(stop, np.maximum(x - newton, 0.0), at)[leave]
                point[out] = at[leave]
                at_point[out] = np.where(stop, kept, np.where(bracketed, at_hi, at_lo))[leave]
                calls[out], converged[out] = made, done[leave]
                if leave.all():
                    break
            # Newton on (1 + x/step)^2 score, at most twice the plain step
            target = x - f / np.minimum(df + 2.0 * f / (x + step), 0.5 * df)
            take = tangent & (np.maximum(lo, 0.0) < target) & (target < hi)
            x = np.where(take, target, np.where(bracketed,
                                                np.where(lo < 0.0, 0.0, 0.5 * (lo + hi)),
                                                2.0 * lo + step))
            if left:
                keep = ~leave
                open_, lo, hi, at_lo, at_hi, x = (
                    a[keep] for a in (open_, lo, hi, at_lo, at_hi, x))
    return root, point, at_point, calls, converged


def fit_empirical_null(
    z: Sequence[float],
    sizes: Sequence[float],
    config: EnConfig | None = None,
    *,
    start: NullFit | None = None,
) -> NullFit:
    """Profile-likelihood fit of (phi, pi0) for one measure.

    Pipeline: robust initial phi -> truncation interval and null-set
    membership (fixed thereafter) -> for each pi0 on the grid, maximize the
    log-likelihood over phi >= 0 at the root of its analytic phi-score ->
    keep the grid point with the largest profile likelihood, breaking ties
    toward the larger pi0.

    The grid points are solved together (``_score_roots``). The score
    kernel also returns each point's out-of-interval log-likelihood, so the
    profile where each column stopped needs only the in-interval terms;
    every grid point gets the same result as a fit on a grid of it alone.
    Raises ConvergenceError when no grid point converges.

    ``start``, when given, is a fit of the same z and sizes at another
    config: a caller that fits one dataset at several configs passes each
    fit as the start of the next. Its ``phi_init`` is the robust start in
    place of ``initial_phi(z, sizes)``, so the interval and null set are
    those of a fit without a start, and each grid point's root search
    starts at the start's root there, or at ``phi_init`` where the start
    did not converge or its root is 0. Where the score has one root, the
    roots then agree with a fit without a start to the score's rounding,
    not bit for bit. A start of another number of centers or grid points,
    or with a phi_init or root that is not finite and >= 0, raises
    InputError, after the checks of z and sizes. So does an interval bound
    v sqrt(1 + phi_init n) beyond the float range.
    """
    cfg = config if config is not None else EnConfig()
    zarr, sarr = _z_and_sizes(z, sizes)
    if zarr.size < MIN_CENTERS:
        raise FittingError(f"empirical-null fit needs at least {MIN_CENTERS} "
                           f"centers, got {zarr.size}")
    _check_z_and_sizes(zarr, sarr)
    mean_size = _mean_size(sarr)
    grid = cfg.pi0_grid()
    if start is None:
        phi_init = _initial_phi(zarr, mean_size)
        x0 = np.full(grid.size, phi_init)
    else:
        phi_init = start.phi_init
        x0 = _start_points(start, zarr.size, grid.size)
    v = std_normal_quantile(1.0 - cfg.q_percent / 100.0)
    with np.errstate(over="ignore"):
        b_upper = v * np.sqrt(1.0 + phi_init * sarr)
    if not np.all(np.isfinite(b_upper)):
        raise InputError(f"the truncation interval overflows the float range: "
                         f"initial phi {phi_init!r} at size {float(np.max(sarr))!r}")
    null_set = np.abs(zarr) <= b_upper
    n_null = int(np.sum(null_set))
    if n_null < MIN_NULL_SET:
        raise FittingError(f"degenerate null set: only {n_null} of {zarr.size} "
                           f"centers fall inside the truncation interval")

    # every call shares the fit's arrays
    arrays = _kernels.FitArrays(zarr, sarr, null_set, b_upper)
    phi, point, log_out, iterations, converged = _score_roots(
        lambda x, columns: _kernels.null_score_core(x, grid[columns], arrays),
        x0, 1.0 / mean_size)
    if not converged.any():
        raise ConvergenceError("phi root search failed to converge at every "
                               "pi0 grid point")
    profile = _kernels.null_loglik_core(point, grid, arrays, log_out)
    # the last maximum: ties go to the larger pi0
    best = grid.size - 1 - int(np.argmax(profile[::-1]))
    return NullFit(
        phi_hat=float(phi[best]),
        pi0_hat=float(grid[best]),
        phi_init=float(phi_init),
        v=v,
        interval_bounds=np.column_stack([-b_upper, b_upper]),
        null_set=null_set,
        loglik=float(profile[best]),
        profile_loglik=profile,
        profile_phi=phi,
        iterations=iterations,
        converged=converged,
    )


def _start_points(start: NullFit, n: int, m: int) -> np.ndarray:
    """The first point of each of m root searches of a fit of n centers:
    ``start``'s root where it converged above 0, else its phi_init;
    InputError unless ``start`` is a fit of n centers on m grid points whose
    phi_init and roots are finite and >= 0."""
    if start.null_set.size != n:
        raise InputError(f"start is a fit of {start.null_set.size} centers, not {n}")
    if start.profile_phi.size != m:
        raise InputError(f"start has {start.profile_phi.size} pi0 grid points, not {m}")
    roots = start.profile_phi
    if not (0.0 <= start.phi_init < math.inf and np.all((roots >= 0.0) & (roots < math.inf))):
        raise InputError("the phi_init and roots of a start must be finite and nonnegative")
    # a root of 0 is the edge of phi >= 0, where the score need not be 0,
    # and can sit below a higher root that a search from phi_init finds
    return np.where(start.converged & (roots > 0.0), roots, start.phi_init)


def z_empirical_null(
    z_fe: np.ndarray | float,
    size: np.ndarray | float,
    phi_hat: float,
) -> np.ndarray:
    """Corrected scores z / sqrt(1 + phi_hat * size), elementwise.

    This is the one rescaling for every overdispersion estimate: the
    empirical-null phi_hat, or the method-of-moments phi.
    """
    if not 0 <= phi_hat < math.inf:
        raise InputError(f"phi_hat must be nonnegative and finite, got {phi_hat}")
    n = np.asarray(size, dtype=np.float64)
    ok = (n >= 0.0) & (n < math.inf)
    if not ok.all():
        raise InputError(f"size must be finite and nonnegative, got {n[~ok][0]}")
    return z_fe / np.sqrt(1.0 + phi_hat * n)


def control_limits(
    phi: float,
    expected: np.ndarray | float,
    size: np.ndarray | float,
    a_psi: float = 1.0,
    alpha_z: float = FLAG_Z,
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
