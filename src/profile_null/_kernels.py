"""Hot numeric kernels in numpy: the truncated-likelihood evaluation and the
Tukey biweight IRLS.

Both sit inside the Monte Carlo loops and dominate runtime. The likelihood
kernel takes equal-length 1-d arrays of phi (or u) and pi0, one column per
pair, and returns one value per column, so the empirical-null fit makes one
call per lockstep Nelder-Mead step for its whole pi0 grid. A column's value
has the same bits whatever else shares its call or came before it: phi
comes from ``math.exp`` per column, ``math.log(pi0)`` enters each term
elementwise, every other term is an elementwise ufunc or ``math.erfc``, and
each column is summed by one pairwise ``np.sum`` over a row of a
C-contiguous block, as the one-dimensional sum of a single column would be.

The in-interval rows (``log v``, ``z^2/v``) are computed for every column.
Its only cache is a store of the out-of-interval ``erfc`` rows, the costliest
part, keyed by phi, that a fit passes to all its calls. It holds at most
``_ERFC_ROW_ELEMENTS`` values (2 MiB) and drops its oldest rows first, so at
thousands of centers a phi that comes back late is computed again.

The empirical null fit reads ``neg_null_loglik_u`` and the robust scale
reads ``biweight_irls`` from this module at call time, so a profiler can
wrap either by rebinding the module attribute.
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

# Columns are evaluated in blocks of about this many (column, center)
# elements, so that at thousands of centers a block's temporaries stay in
# cache: unblocked, a fit at 8,000 centers took about 30% longer.
_BLOCK_ELEMENTS = 16384

# An erfc row store holds at most this many float64 values (2 MiB). That
# covers a whole fit at a few hundred centers; at 8,000 centers it keeps
# about the last 200 rows, where most repeated phis fall.
_ERFC_ROW_ELEMENTS = 1 << 18


def _erfc(x: np.ndarray) -> np.ndarray:
    """``math.erfc`` elementwise over a float64 array."""
    return np.fromiter(map(math.erfc, x.ravel().tolist()), np.float64,
                       x.size).reshape(x.shape)


def null_loglik_core(phi, pi0, z, sizes, in_null, b_upper, erfc_rows):
    """Truncated-mixture log-likelihood of each column (phi[k], pi0[k]) over
    the float64 center arrays; -inf for a column where an out-of-interval
    log argument is non-positive.

    ``phi`` and ``pi0`` are equal-length 1-d float arrays. ``erfc_rows`` maps
    phi to its out-of-interval row ``1 - erfc(...)``; it is filled here,
    holds at most ``_ERFC_ROW_ELEMENTS`` values, and belongs to one set of
    center arrays.
    """
    phi_l = phi.tolist()
    log_pi0 = np.array([math.log(p) for p in pi0.tolist()])[:, None]
    zi = z[in_null]
    si = sizes[in_null]
    half_z2 = 0.5 * zi * zi
    out = ~in_null
    so = sizes[out]
    bo = b_upper[out]
    ll = np.zeros(len(phi_l))
    per_block = max(1, _BLOCK_ELEMENTS // max(1, z.size))
    for start in range(0, len(phi_l), per_block):
        block = slice(start, start + per_block)
        if zi.size:
            v = 1.0 + phi[block, None] * si
            ll[block] += np.sum(log_pi0[block] - 0.5 * (_LOG_2PI + np.log(v))
                                - half_z2 / v, axis=1)
        if so.size:
            new = [p for p in dict.fromkeys(phi_l[block]) if p not in erfc_rows]
            # Q_i = Phi(B/s) - Phi(-B/s) = 1 - erfc(B / (s*sqrt(2)))
            erfc_rows.update(zip(new, 1.0 - _erfc(
                bo / np.sqrt(1.0 + np.array(new)[:, None] * so) * _INV_SQRT2)))
            q = np.array([erfc_rows[p] for p in phi_l[block]])
            # drop the oldest rows, now that this block's are in hand
            while len(erfc_rows) * so.size > _ERFC_ROW_ELEMENTS:
                del erfc_rows[next(iter(erfc_rows))]
            t = 1.0 - pi0[block, None] * q
            with np.errstate(divide="ignore", invalid="ignore"):
                ll[block] += np.sum(np.log(t), axis=1)
            ll[block][np.any(t <= 0.0, axis=1)] = -np.inf
    return ll


def neg_null_loglik_u(u, pi0, z, sizes, in_null, b_upper, erfc_rows):
    """Negative log-likelihood of each column at phi = max(0, exp(u[k]) -
    EPS_PHI) and pi0[k]; +inf where exp(u) would overflow.

    ``u`` and ``pi0`` are equal-length 1-d float arrays; ``erfc_rows`` is
    the row store of ``null_loglik_core``.
    """
    phi = np.array([0.0 if x > 690.0 else max(0.0, math.exp(x) - EPS_PHI)
                    for x in u.tolist()])
    neg = -null_loglik_core(phi, pi0, z, sizes, in_null, b_upper, erfc_rows)
    neg[u > 690.0] = np.inf
    return neg


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
