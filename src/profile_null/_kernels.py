"""Hot numeric kernels in numpy: the truncated-likelihood evaluation and the
Tukey biweight IRLS.

Both sit inside the Monte Carlo loops and dominate runtime. The empirical
null fit reads ``neg_null_loglik_u`` and the robust scale reads
``biweight_irls`` from this module at call time, so a profiler can wrap
either by rebinding the module attribute.
"""

from __future__ import annotations

import math

import numpy as np

# phi >= 0 is enforced by optimizing over u = log(phi + EPS_PHI).
EPS_PHI = 1e-8

# Tukey biweight defaults: 95%-efficiency tuning constant and the
# consistency factor mapping MAD to the normal scale.
TUKEY_C = 4.685
MAD_SCALE = 1.4826

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_LOG_2PI = math.log(2.0 * math.pi)

_erfc_np = np.frompyfunc(math.erfc, 1, 1)


def null_loglik_core(phi, pi0, z, sizes, in_null, b_upper):
    """Truncated-mixture log-likelihood at (phi, pi0) over float64 arrays;
    -inf when an out-of-interval log argument is non-positive."""
    v = 1.0 + phi * sizes
    out = ~in_null
    acc = 0.0
    if in_null.any():
        zi = z[in_null]
        vi = v[in_null]
        acc += float(
            np.sum(math.log(pi0) - 0.5 * (_LOG_2PI + np.log(vi)) - 0.5 * zi * zi / vi)
        )
    if out.any():
        # Q_i = Phi(B/s) - Phi(-B/s) = 1 - erfc(B / (s*sqrt(2)))
        arg = b_upper[out] / np.sqrt(v[out]) * _INV_SQRT2
        q = 1.0 - _erfc_np(arg).astype(np.float64)
        t = 1.0 - pi0 * q
        if np.any(t <= 0.0):
            return -np.inf
        acc += float(np.sum(np.log(t)))
    return acc


def neg_null_loglik_u(u, pi0, z, sizes, in_null, b_upper):
    """Negative log-likelihood at phi = max(0, exp(u) - EPS_PHI); +inf where
    exp(u) would overflow."""
    if u > 690.0:
        return np.inf
    phi = max(0.0, math.exp(u) - EPS_PHI)
    return -null_loglik_core(phi, pi0, z, sizes, in_null, b_upper)


def biweight_irls(z, c, tol, max_iter):
    """Tukey biweight location by iteratively reweighted least squares,
    started at the median with the MAD scale re-estimated every step.

    Returns (location, MAD scale about the location, iterations, converged).
    """
    m = float(np.median(z))
    scale = MAD_SCALE * float(np.median(np.abs(z - m)))
    if scale <= 0.0:
        return m, 0.0, 0, True
    converged = False
    it = 0
    while it < max_iter:
        it += 1
        resid = z - m
        scale = MAD_SCALE * float(np.median(np.abs(resid)))
        if scale <= 0.0:
            converged = True
            break
        u = np.abs(resid) / (c * scale)
        w = np.where(u < 1.0, (1.0 - u * u) ** 2, 0.0)
        wsum = float(np.sum(w))
        if wsum == 0.0:
            break
        m_new = float(np.sum(w * z) / wsum)
        if abs(m_new - m) < tol:
            m = m_new
            converged = True
            break
        m = m_new
    scale = MAD_SCALE * float(np.median(np.abs(z - m)))
    return m, scale, it, converged


def backend() -> str:
    """Name of the kernel implementation, recorded in run manifests."""
    return "numpy"
