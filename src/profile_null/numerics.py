"""Foundational numerics: the standard normal CDF and quantile, a
one-dimensional derivative-free minimizer, and robust location/scale.

The empirical-null fit does not use ``nelder_mead_minimize``, a scalar
two-point Nelder-Mead simplex: it solves each pi0 column from its score.

Everything here is a pure function of its arguments and safe to call from
any number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Sequence

import numpy as np

from . import _kernels
from .errors import ConvergenceError, InputError

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Nelder-Mead: initial simplex width, and the width below which it may stop
_NM_STEP = 0.5
_NM_XTOL = 1e-6


@dataclass(frozen=True)
class OptimResult:
    """Outcome of a scalar minimization."""

    argmin: float
    min_value: float
    iterations: int
    converged: bool


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


def std_normal_quantile(p: float) -> float:
    """Inverse of the standard normal CDF on (0, 1), else InputError (NaN
    too): ``statistics.NormalDist().inv_cdf``, Wichura's AS241 (1988),
    within 3 eps relative of the exact quantile."""
    if not (0.0 < p < 1.0):
        raise InputError(f"quantile probability must lie in (0, 1), got {p!r}")
    return NormalDist().inv_cdf(p)


def nelder_mead_minimize(
    objective: Callable[[float], float],
    init: float,
    tol: float = 1e-8,
    max_iter: int = 500,
) -> OptimResult:
    """Minimize a scalar function with a two-point Nelder-Mead simplex from
    ``init`` and ``init + _NM_STEP``, with the standard coefficients (1, 2,
    0.5, 0.5). It stops when the value spread falls below ``tol`` and the
    width below ``_NM_XTOL``: a simplex straddling the minimum can have
    equal values at any width. NaN values count as +inf, and InputError is
    raised when the objective is not finite at ``init``.
    """

    def f(x: float) -> float:
        val = objective(x)
        return math.inf if math.isnan(val) else val

    fa = f(init)
    if not math.isfinite(fa):
        raise InputError(f"objective is not finite at init={init!r}")
    a, b = init, init + _NM_STEP
    fb = f(b)
    if fb < fa:
        a, b, fa, fb = b, a, fb, fa
    iterations, converged = 0, False
    while iterations < max_iter:
        iterations += 1
        if abs(fa - fb) < tol and abs(b - a) < _NM_XTOL:
            converged = True
            break
        # reflect b through a; a reflection lower than b but not lower than
        # a is kept as it is
        xr = 2.0 * a - b
        fr = f(xr)
        if fr < fa:
            xe = 3.0 * a - 2.0 * b
            fe = f(xe)
            b, fb = (xe, fe) if fe < fr else (xr, fr)
        elif fr < fb:
            b, fb = xr, fr
        else:
            # in one dimension the inside contraction and the shrink toward
            # the best point coincide at the midpoint
            b = 0.5 * (a + b)
            fb = f(b)
        if fb < fa:
            a, b, fa, fb = b, a, fb, fa
    return OptimResult(argmin=a, min_value=fa, iterations=iterations,
                       converged=converged)


def robust_intercept_scale(z: Sequence[float]) -> RobustLocationScale:
    """Tukey-biweight location of a sample with a MAD residual scale.

    The location is the IRLS fixed point under biweight weights with tuning
    constant c = 4.685; the scale is 1.4826 times the median absolute
    residual, recomputed each iteration. Resistant to a minority of
    arbitrary outliers.

    Raises InputError where the median, a residual or the weighted sum of
    the iteration overflows the float range, as on values of opposite sign
    near its limits.
    """
    arr = np.ascontiguousarray(z, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 3:
        raise InputError("robust estimation needs at least 3 values")
    if not np.all(np.isfinite(arr)):
        raise InputError("robust estimation requires finite values")
    # not np.ptp, whose max - min overflows on finite input
    if arr.min() == arr.max():
        return RobustLocationScale(location=float(arr[0]), scale=0.0)
    try:
        with np.errstate(over="raise"):
            loc, scale, converged = _kernels.biweight_irls(arr)
    except FloatingPointError:
        raise InputError("robust estimation overflows the float range") from None
    if not converged:
        raise ConvergenceError(f"biweight IRLS did not converge in "
                               f"{_kernels.IRLS_MAX_ITER} iterations")
    return RobustLocationScale(location=float(loc), scale=float(scale))
