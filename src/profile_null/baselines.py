"""Winsorized method-of-moments overdispersion correction, the comparison
baseline for the empirical null.

Unlike the truncated-likelihood fit, this estimator uses every center,
including extreme ones, so contamination inflates it; Winsorizing trims the
inflation at the cost of bias when there is no contamination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .empirical_null import _check_z_and_sizes
from .errors import InputError

DEFAULT_WINSOR_Q = 10.0


@dataclass(frozen=True)
class MomFit:
    phi_mom: float
    q_percent: float
    sigma2_alpha_hat: float


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
    lo, hi = np.percentile(arr, [q_percent, 100.0 - q_percent])
    return np.clip(arr, lo, hi)


def fit_method_of_moments(
    z: Sequence[float],
    sizes: Sequence[float],
    q_percent: float = DEFAULT_WINSOR_Q,
    a_psi: float = 1.0,
) -> MomFit:
    """Winsorize the scores at ``q_percent``, then estimate the
    overdispersion as max(0, (sum z^2 - F) / sum n) over the F centers: the
    estimator implied by the null moment identity E[Z^2] = 1 + phi*n.
    Every z must be finite and every size finite and positive.
    """
    zarr = np.asarray(z, dtype=np.float64)
    sarr = np.asarray(sizes, dtype=np.float64)
    if zarr.ndim != 1 or zarr.shape != sarr.shape:
        raise InputError("z and sizes must be equal-length 1-d sequences")
    if zarr.size < 2:
        raise InputError("method-of-moments needs at least 2 centers")
    _check_z_and_sizes(zarr, sarr)
    zw = winsorize(zarr, q_percent)
    phi = max(0.0, float((np.sum(zw * zw) - zw.size) / np.sum(sarr)))
    return MomFit(phi_mom=phi, q_percent=q_percent, sigma2_alpha_hat=phi * a_psi)
