"""Winsorized method-of-moments estimate of the overdispersion phi, the
comparison baseline for the empirical null; ``z_empirical_null`` rescales
the scores by either phi.

Unlike the truncated-likelihood fit, this estimator uses every center,
including extreme ones, so contamination inflates it; Winsorizing trims the
inflation at the cost of bias when there is no contamination.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .empirical_null import _check_z_and_sizes, _z_and_sizes
from .errors import InputError

DEFAULT_WINSOR_Q = 10.0


def winsorize(z: Sequence[float], q_percent: float) -> np.ndarray:
    """Clamp values beyond the q-th / (100-q)-th percentiles to those
    percentiles (linear-interpolation percentiles, the numpy default).
    Entry order is preserved; q = 0 returns the input unchanged.
    """
    if not (0.0 <= q_percent < 50.0):
        raise InputError(f"q_percent must lie in [0, 50), got {q_percent}")
    arr = np.asarray(z, dtype=np.float64).copy()
    if q_percent == 0.0 or arr.size == 0:
        return arr
    if np.isfinite(arr).all():
        lo, hi = _percentiles(arr, q_percent)
    else:
        lo, hi = np.percentile(arr, [q_percent, 100.0 - q_percent])
    return np.clip(arr, lo, hi, out=arr)


def _percentiles(arr: np.ndarray, q_percent: float) -> np.ndarray:
    """``np.percentile(arr, [q_percent, 100 - q_percent])`` of a finite 1-d
    array, bit for bit and with its warnings, from one partition: numpy's
    linear interpolation between the order statistics about each virtual
    index (n - 1) q / 100, taken the way its ``_lerp`` takes it."""
    last = arr.size - 1
    lower, upper, gamma = [], [], []
    for q in (q_percent / 100.0, (100.0 - q_percent) / 100.0):
        index = last * q
        if index < last:
            below = math.floor(index)
            above = below + 1
        else:
            # an index at or beyond the last element takes it from both sides
            below = above = -1
        lower.append(below)
        upper.append(above)
        gamma.append(index - below)
    # numpy's own kth list: with another, a tie of -0.0 and 0.0 can land
    # the other way round
    p = np.partition(arr, sorted({0, -1, *lower, *upper}))
    a, b, t = p[lower], p[upper], np.array(gamma)
    d = b - a
    out = a + d * t
    np.subtract(b, d * (1.0 - t), out=out, where=t >= 0.5)
    return out


def fit_method_of_moments(
    z: Sequence[float],
    sizes: Sequence[float],
    q_percent: float = DEFAULT_WINSOR_Q,
) -> float:
    """The overdispersion phi of the scores Winsorized at ``q_percent``:
    max(0, (sum z^2 - F) / sum n) over the F centers, the estimator implied
    by the null moment identity E[Z^2] = 1 + phi*n. Every z must be finite
    and every size finite and positive; InputError otherwise, or where the
    sum of the sizes or of the squared scores overflows the float range.
    """
    zarr, sarr = _z_and_sizes(z, sizes)
    if zarr.size < 2:
        raise InputError("method-of-moments needs at least 2 centers")
    _check_z_and_sizes(zarr, sarr)
    zw = winsorize(zarr, q_percent)
    with np.errstate(over="ignore"):
        sum_z2, sum_n = np.sum(zw * zw), np.sum(sarr)
    if not (np.isfinite(sum_z2) and np.isfinite(sum_n)):
        raise InputError("the sum of the sizes or of the squared Winsorized scores "
                         "overflows the float range")
    return max(0.0, float((sum_z2 - zw.size) / sum_n))
