"""Foundational numerics: normal distribution functions, a one-dimensional
derivative-free minimizer, and robust location/scale estimation.

The minimizer, ``nelder_mead_minimize``, is a scalar two-point Nelder-Mead
simplex. The empirical-null fit does not use it: it solves each pi0 column
from its analytic phi-score (``empirical_null``).

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
    """
    arr = np.ascontiguousarray(z, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 3:
        raise InputError("robust estimation needs at least 3 values")
    if not np.all(np.isfinite(arr)):
        raise InputError("robust estimation requires finite values")
    if np.ptp(arr) == 0.0:
        return RobustLocationScale(location=float(arr[0]), scale=0.0)
    loc, scale, converged = _kernels.biweight_irls(arr)
    if not converged:
        raise ConvergenceError(f"biweight IRLS did not converge in "
                               f"{_kernels.IRLS_MAX_ITER} iterations")
    return RobustLocationScale(location=float(loc), scale=float(scale))
