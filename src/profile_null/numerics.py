"""Foundational numerics: normal distribution functions, a one-dimensional
derivative-free minimizer, and robust location/scale estimation.

The minimizer is a two-point Nelder-Mead simplex that moves many
independent columns in lockstep (``nelder_mead_lockstep``): each step
evaluates every column in one call of a batched objective, and every column
follows exactly the path it would follow alone. A point a column has
evaluated in its last ``_NM_MEMO`` calls takes its kept value instead of
another evaluation, so each column is evaluated at most once per point.
``nelder_mead_minimize`` is its one-column case for a scalar objective.

Everything here is a pure function of its arguments and safe to call from
any number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import _kernels
from .errors import ConvergenceError, InputError

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Nelder-Mead: initial simplex width, and the width below which it may stop
_NM_STEP = 0.5
_NM_XTOL = 1e-6
# objective calls whose points and values the lockstep minimizer keeps per
# column: most repeated points reflect back onto the point of the step
# before, and the last 32 calls caught every repeat in 82 empirical-null fits
# of 12 to 8,000 centers
_NM_MEMO = 32


@dataclass(frozen=True)
class OptimResult:
    """Outcome of a scalar minimization; from ``nelder_mead_lockstep``, each
    field is an array with one entry per column."""

    argmin: float | np.ndarray
    min_value: float | np.ndarray
    iterations: int | np.ndarray
    converged: bool | np.ndarray


@dataclass(frozen=True)
class RobustLocationScale:
    """Robust intercept and residual scale of a sample."""

    location: float
    scale: float


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF.

    Built from the upper half plane so that ``std_normal_cdf(-x)`` equals
    ``1 - std_normal_cdf(x)`` exactly in floating point; saturates to 0/1 in
    the extreme tails.
    """
    if x >= 0.0:
        return 1.0 - 0.5 * math.erfc(x * _INV_SQRT2)
    return 1.0 - (1.0 - 0.5 * math.erfc(-x * _INV_SQRT2))


def std_normal_pdf(x: float) -> float:
    """Standard normal density."""
    return math.exp(-0.5 * x * x) / _SQRT_2PI


# Acklam's rational approximation to the normal quantile (|error| < 1.2e-9),
# polished below with one Newton step.
_AQ_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_AQ_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
_AQ_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_AQ_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
_AQ_SPLIT = 0.02425


def _acklam(p: float) -> float:
    a, b, c, d = _AQ_A, _AQ_B, _AQ_C, _AQ_D
    if p < _AQ_SPLIT:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    if p > 1.0 - _AQ_SPLIT:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
                ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)


def std_normal_quantile(p: float) -> float:
    """Inverse of the standard normal CDF on (0, 1).

    Rational initial approximation refined by one Newton step, giving
    CDF round-trip agreement well below 1e-10.
    """
    if not (0.0 < p < 1.0) or math.isnan(p):
        raise InputError(f"quantile probability must lie in (0, 1), got {p!r}")
    x = _acklam(p)
    pdf = std_normal_pdf(x)
    if pdf > 0.0:
        x -= (std_normal_cdf(x) - p) / pdf
    return x


def nelder_mead_lockstep(
    objective: Callable[[np.ndarray, np.ndarray], np.ndarray],
    init: np.ndarray | Sequence[float],
    tol: float = 1e-8,
    max_iter: int = 500,
) -> OptimResult:
    """Minimize one scalar function per column, with two-point Nelder-Mead
    simplices that move in lockstep.

    ``objective(x, columns)`` returns, for every k, the value of column
    ``columns[k]``'s function at ``x[k]``. Column k starts from ``init[k]``.
    Each step evaluates the reflections of all unconverged columns in one
    call, then the expansion points of the columns that expand and the
    midpoints of the columns that contract in one more call. The result
    holds one entry per column in each field.

    Every column makes the same choices, takes the same points and stops at
    the same iteration as a run on its function alone: it uses the standard
    reflection/expansion/contraction/shrink coefficients (1, 2, 0.5, 0.5)
    and stops when the simplex function-value spread falls below ``tol``
    and its width below ``_NM_XTOL``. The width criterion is required: a
    two-point simplex can straddle the minimum symmetrically, where the
    value spread vanishes at arbitrary width. Non-finite objective values
    away from ``init`` are treated as +inf so the simplex retreats from
    them.

    The objective must be pure: each column keeps its points and values of
    the last ``_NM_MEMO`` calls, and a point whose bits match one of them
    is not evaluated again, so a column is evaluated at most once per point
    while the point stays in its memo.

    Raises InputError when a column's objective is not finite at its init.
    """

    def evaluate(x: np.ndarray, columns: np.ndarray) -> np.ndarray:
        val = np.array(objective(x, columns), dtype=np.float64).reshape(x.shape)
        val[np.isnan(val)] = np.inf
        return val

    a = np.array(init, dtype=np.float64).ravel()
    every = np.arange(a.size)
    fa = evaluate(a, every)
    not_finite = np.flatnonzero(~np.isfinite(fa))
    if not_finite.size:
        k = int(not_finite[0])
        raise InputError(f"objective is not finite at init={float(a[k])!r}"
                         + (f" in column {k}" if a.size > 1 else ""))
    # the memo: column k's value at a point is kept in row k, in the slot of
    # the call that evaluated it, for the last _NM_MEMO calls (at least
    # _NM_MEMO / 2 steps); points are compared bit for bit, since f(-0.0)
    # may differ from f(0.0). Every slot starts as the init point.
    memo_x = np.repeat(a.view(np.int64)[:, None], _NM_MEMO, axis=1)
    memo_f = np.repeat(fa[:, None], _NM_MEMO, axis=1)
    n_calls = 0

    def f(x: np.ndarray, columns: np.ndarray) -> np.ndarray:
        nonlocal n_calls
        hit = memo_x[columns] == x.view(np.int64)[:, None]
        seen = hit.any(axis=1)
        if seen.any():
            val = memo_f[columns, hit.argmax(axis=1)]
            new = np.flatnonzero(~seen)
            if not new.size:
                return val
            x, columns = x[new], columns[new]
            val[new] = evaluate(x, columns)
            fx = val[new]
        else:
            fx = val = evaluate(x, columns)
        at = n_calls % _NM_MEMO
        n_calls += 1
        memo_x[columns, at] = x.view(np.int64)
        memo_f[columns, at] = fx
        return val

    b = a + _NM_STEP
    fb = f(b, every)

    def keep_best(cols, a_c, b_c, fa_c, fb_c):
        swap = fb_c < fa_c
        a[cols], b[cols] = np.where(swap, b_c, a_c), np.where(swap, a_c, b_c)
        fa[cols], fb[cols] = np.where(swap, fb_c, fa_c), np.where(swap, fa_c, fb_c)

    keep_best(every, a, b, fa, fb)
    iterations = np.zeros(a.size, dtype=np.int64)
    converged = np.zeros(a.size, dtype=np.bool_)
    active = every[iterations < max_iter]
    while active.size:
        iterations[active] += 1
        done = ((np.abs(fa[active] - fb[active]) < tol)
                & (np.abs(b[active] - a[active]) < _NM_XTOL))
        converged[active[done]] = True
        active = active[~done]
        if not active.size:
            break
        a_c, b_c, fa_c, fb_c = a[active], b[active], fa[active], fb[active]
        # reflect b through a; a reflection lower than b but not lower than
        # a is kept as it is
        xr = 2.0 * a_c - b_c
        fr = f(xr, active)
        expand = fr < fa_c
        second = np.flatnonzero(expand | ~(fr < fb_c))
        if second.size:
            # in one dimension the inside contraction and the shrink toward
            # the best point coincide at the midpoint
            x2 = np.where(expand[second], 3.0 * a_c[second] - 2.0 * b_c[second],
                          0.5 * (a_c[second] + b_c[second]))
            f2 = f(x2, active[second])
            # an expansion point replaces the reflection only when it is lower
            take = ~expand[second] | (f2 < fr[second])
            xr[second[take]] = x2[take]
            fr[second[take]] = f2[take]
        keep_best(active, a_c, xr, fa_c, fr)
        active = active[iterations[active] < max_iter]

    return OptimResult(argmin=a, min_value=fa, iterations=iterations,
                       converged=converged)


def nelder_mead_minimize(
    objective: Callable[[float], float],
    init: float,
    tol: float = 1e-8,
    max_iter: int = 500,
) -> OptimResult:
    """Minimize a scalar function with a two-point Nelder-Mead simplex: the
    one-column case of ``nelder_mead_lockstep``, which documents the steps
    and the stopping rule.

    Raises InputError when the objective is not finite at ``init``.
    """
    res = nelder_mead_lockstep(lambda x, _: [objective(float(x[0]))], [init],
                               tol=tol, max_iter=max_iter)
    return OptimResult(argmin=float(res.argmin[0]), min_value=float(res.min_value[0]),
                       iterations=int(res.iterations[0]),
                       converged=bool(res.converged[0]))


def robust_intercept_scale(z: Sequence[float]) -> RobustLocationScale:
    """Tukey-biweight location of a sample with a MAD residual scale.

    The location is the IRLS fixed point under biweight weights with tuning
    constant c = 4.685; the scale is 1.4826 times the median absolute
    residual, recomputed each iteration. Resistant to a minority of
    arbitrary outliers.
    """
    arr = np.ascontiguousarray(z, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 3:
        raise InputError("robust estimation needs at least 3 values")
    if not np.all(np.isfinite(arr)):
        raise InputError("robust estimation requires finite values")
    if np.ptp(arr) == 0.0:
        return RobustLocationScale(location=float(arr[0]), scale=0.0)
    loc, scale, _, converged = _kernels.biweight_irls(
        arr, _kernels.TUKEY_C, 1e-8, 200
    )
    if not converged:
        raise ConvergenceError("biweight IRLS did not converge in 200 iterations")
    return RobustLocationScale(location=float(loc), scale=float(scale))
