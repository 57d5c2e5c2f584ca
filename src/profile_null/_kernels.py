"""Hot numeric kernels in numpy: the truncated likelihood, its phi-score
and curvature, the erfc they share, and the Tukey biweight IRLS.

Both sit inside the Monte Carlo loops and dominate runtime. The likelihood
and score kernels take equal-length 1-d arrays of phi and pi0, one column
per pair, and return one value per column (the score kernel three: the
score, the curvature and the out-of-interval sum of the log-likelihood),
so the empirical-null fit makes one score call per step of its root search
for its whole pi0 grid.

The score kernel is the only one that walks blocks of distinct phi and
computes the out-of-interval terms. The likelihood kernel computes the
in-interval terms and adds each column's out-of-interval sum from the
score kernel: the fit keeps the sums of its score calls at the roots, and
any other caller gets them from one score call at its own columns. A
column's value has the same bits whatever else shares its call:
``math.log(pi0)`` and pi0 enter each term elementwise, every other term is
an elementwise ufunc or ``_erfc``, whose operations are the same for every
element, and each column is summed by one pairwise ``np.sum`` over a row
of a C-contiguous block, as the one-dimensional sum of a single column
would be.

A fit builds its ``FitArrays`` once and passes it to all its calls. The
out-of-interval erfc is the costliest term, with one ``np.exp`` per element
beside it for the normal density. Both depend on phi alone, so a score
call computes them, with the other out-of-interval terms free of pi0, once
per distinct phi among its columns: the first step of a fit puts every
column at one phi. ``_erfc`` takes a whole block in about 40 numpy calls,
from a table of 55 segments: at most 4 ulp from erfc (1.9 measured, where
``math.erfc`` measured 2.5). It is about twice as fast as ``math.erfc`` one
element at a time on a block of a few thousand elements, and slower below
about 500, where the calls' overhead dominates. The cheap in-interval
terms are computed per column, which keeps a call's temporaries to two
rows of in-interval centers per column.

The empirical null fit reads ``null_score_core`` and ``null_loglik_core``
and the robust scale reads ``biweight_irls`` from this module at call time,
so a profiler can wrap any of them by rebinding the module attribute.
"""

from __future__ import annotations

import math

import numpy as np

from . import _erfc_table

# ``neg_null_loglik_u`` reads phi as max(0, exp(u) - EPS_PHI).
EPS_PHI = 1e-8

# Tukey biweight defaults: 95%-efficiency tuning constant and the
# consistency factor mapping MAD to the normal scale.
TUKEY_C = 4.685
MAD_SCALE = 1.4826
# The IRLS converges on a location step below IRLS_TOL within IRLS_MAX_ITER.
IRLS_TOL = 1e-8
IRLS_MAX_ITER = 200

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_LOG_2PI = math.log(2.0 * math.pi)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Columns are evaluated in blocks of about this many (column, center)
# elements, so that at thousands of centers a block's temporaries stay in
# cache: unblocked, a fit at 8,000 centers took about 30% longer. With the
# terms computed in place, 16384 to 131072 cost about the same at 212 (one
# block), 8,000 and 32,000 centers, 32768 was cheapest at 2,000, and 262144
# was slower at 8,000. A block's temporaries set the fit's peak memory:
# 65536 took 0.75 MiB more than this size at 8,000 centers.
_BLOCK_ELEMENTS = 32768


_ERFC_CENTERS = np.array(_erfc_table.CENTERS)
# -c of each segment
_ERFC_MINUS_OFFSETS = -np.array(_erfc_table.OFFSETS)
_ERFC_COEFFICIENTS = np.array(_erfc_table.COEFFICIENTS)
# clears the low 32 bits of a double's significand
_LOW_BITS = np.int64(~0xFFFFFFFF)


def _erfc(x: np.ndarray) -> np.ndarray:
    """erfc elementwise over a float64 array of x >= 0, as

        exp(-z*z - c) * exp((z - x)*(z + x) + R(x - m))

    with z = x with the low 32 bits of its significand cleared, so that
    -z*z - c is exact, and the offset c, midpoint m and polynomial R of the
    segment of x in ``_erfc_table`` (see scripts/make_erfc_coefficients.py).
    At most 4 ulp from erfc; 0 from ``_erfc_table.ZERO`` on, where erfc is
    below the smallest normal double. Every element takes the same
    operations, so its bits do not depend on the other elements.
    """
    xc = np.minimum(x, _erfc_table.ZERO)
    k = xc.view(np.int64) >> _erfc_table.SHIFT
    k -= _erfc_table.FIRST - 1
    # not np.clip, which costs about 4 us a call, a sixth of a row of 65
    np.maximum(k, 0, out=k)
    np.minimum(k, _ERFC_CENTERS.size - 1, out=k)
    t = xc - _ERFC_CENTERS[k]
    r = _ERFC_COEFFICIENTS[-1][k]
    for row in _ERFC_COEFFICIENTS[-2:0:-1]:
        r *= t
        r += row[k]
    r *= t
    r += _ERFC_COEFFICIENTS[0][k]
    z = (xc.view(np.int64) & _LOW_BITS).view(np.float64)
    np.subtract(z, xc, out=t)
    xc += z
    t *= xc
    r += t
    np.exp(r, out=r)
    e = np.multiply(z, z, out=z)
    np.subtract(_ERFC_MINUS_OFFSETS[k], e, out=e)
    np.exp(e, out=e)
    e *= r
    np.copyto(e, 0.0, where=x >= _erfc_table.ZERO)
    return e


class FitArrays:
    """The center arrays of one likelihood, split once into what each kernel
    call reads: the in-interval sizes and ``z^2/2``, and the out-of-interval
    sizes and bounds."""

    def __init__(self, z, sizes, in_null, b_upper):
        self.n = z.size
        zi = z[in_null]
        self.si = sizes[in_null]
        self.half_z2 = 0.5 * zi * zi
        out = ~in_null
        self.so = sizes[out]
        self.bo = b_upper[out]


def null_loglik_core(phi, pi0, fit, log_out=None):
    """Truncated-mixture log-likelihood of each column (phi[k], pi0[k]) over
    the center arrays of ``fit``, a ``FitArrays``; -inf for a column where an
    out-of-interval log argument is 0.

    ``phi`` and ``pi0`` are equal-length 1-d float arrays. ``log_out`` is
    each column's out-of-interval sum as ``null_score_core`` returns it, and
    is taken from that call when None. This call adds to it each column's
    in-interval terms, log pi0 - 0.5 (log 2pi + log v) - (z^2 / 2) / v,
    computed in place in blocks of columns.
    """
    if log_out is None:
        log_out = null_score_core(phi, pi0, fit)[2]
    log_pi0 = np.array([math.log(p) for p in pi0.tolist()])[:, None]
    ll = np.zeros(phi.size)
    per_block = max(1, _BLOCK_ELEMENTS // max(1, fit.n))
    for k in range(0, phi.size, per_block):
        cols = slice(k, k + per_block)
        v = np.multiply(phi[cols, None], fit.si)
        v += 1.0
        u = np.log(v)
        u += _LOG_2PI
        u *= 0.5
        np.subtract(log_pi0[cols], u, out=u)
        np.divide(fit.half_z2, v, out=v)
        u -= v
        ll[cols] = np.sum(u, axis=1) + log_out[cols]
    return ll


def null_score_core(phi, pi0, fit):
    """The first and second phi-derivatives of ``null_loglik_core`` for each
    column (phi[k], pi0[k]), with the same arguments, and the out-of-interval
    sum of its log-likelihood, sum_out log(1 - pi0 Q); returns (score,
    curvature, that sum). With h = pi0 pdf(b) b n / v / (1 - pi0 Q), the
    out-of-interval term of the score:

        score     = sum_in  n (z^2/v - 1) / (2 v)          + sum_out h
        curvature = sum_in  n^2 (1/2 - z^2/v) / v^2
                  + sum_out h (n (b^2 - 3) / (2 v) - h)

    A column where some 1 - pi0*Q is 0, whose log-likelihood is -inf, has a
    score of +inf or NaN and a curvature that is not finite.

    The distinct values of phi are taken in blocks of at most about
    ``_BLOCK_ELEMENTS`` (value, center) elements, and the columns of a
    block in chunks of at most as many columns.
    """
    score, curvature, log_out = np.zeros(phi.size), np.zeros(phi.size), np.zeros(phi.size)
    # the columns of each distinct phi, in order of first appearance. A dict
    # and not np.unique: the fit sorts nothing else, and numpy's first sort
    # in a process adds about 0.3 MiB to its resident set
    groups = {}
    for k, x in enumerate(phi.tolist()):
        groups.setdefault(x, []).append(k)
    values, members = np.array(list(groups)), list(groups.values())
    per_block = max(1, _BLOCK_ELEMENTS // max(1, fit.n))
    for start in range(0, values.size, per_block):
        # one row per distinct phi: v and b = B / sqrt(v), Q = 1 - erfc(b /
        # sqrt 2), the null probability of (-B, B), pdf(b) b n / v, and
        # n (b^2 - 3) / (2 v) in place of b
        vo = np.multiply(values[start:start + per_block, None], fit.so)
        vo += 1.0
        b = fit.bo / np.sqrt(vo)
        q = 1.0 - _erfc(b * _INV_SQRT2)
        e = np.multiply(b, b)
        e *= -0.5
        np.exp(e, out=e)
        e *= b
        e *= fit.so
        e /= vo
        g = np.multiply(b, b, out=b)
        g -= 3.0
        g *= fit.so
        g /= vo
        g *= 0.5
        # the block's columns and the row of each
        block = members[start:start + per_block]
        columns = np.array([k for m in block for k in m])
        rows = np.repeat(np.arange(len(block)), [len(m) for m in block])
        for j in range(0, columns.size, per_block):
            cols, r = columns[j:j + per_block], rows[j:j + per_block]
            vi = np.multiply(phi[cols, None], fit.si)
            vi += 1.0
            # n ((z^2 / 2) / v - 1/2) / v
            u = np.divide(fit.half_z2, vi)
            u -= 0.5
            u *= fit.si
            u /= vi
            score_in = np.sum(u, axis=1)
            # (1/2 - z^2 / v) (n / v)^2
            np.divide(fit.half_z2, vi, out=u)
            u *= -2.0
            u += 0.5
            np.divide(fit.si, vi, out=vi)
            u *= vi
            u *= vi
            curvature_in = np.sum(u, axis=1)
            # t = 1 - pi0 Q, h = pi0 pdf(b) b n / v / t, and h (n (b^2 - 3) /
            # (2 v) - h). 0 <= pi0 Q <= 1, so a t of 0 makes log t -inf
            t = q[r]
            t *= pi0[cols, None]
            np.subtract(1.0, t, out=t)
            h = e[r]
            h *= pi0[cols, None] * _INV_SQRT_2PI
            c = g[r]
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                h /= t
                c -= h
                c *= h
                np.log(t, out=t)
            score[cols] = score_in + np.sum(h, axis=1)
            curvature[cols] = curvature_in + np.sum(c, axis=1)
            log_out[cols] = np.sum(t, axis=1)
    return score, curvature, log_out


def neg_null_loglik_u(u, pi0, fit):
    """Negative log-likelihood of each column at phi = max(0, exp(u[k]) -
    EPS_PHI) and pi0[k]; +inf where exp(u) would overflow.

    ``u`` and ``pi0`` are equal-length 1-d float arrays; ``fit`` is the
    ``FitArrays`` of ``null_loglik_core``.
    """
    phi = np.array([0.0 if x > 690.0 else max(0.0, math.exp(x) - EPS_PHI)
                    for x in u.tolist()])
    neg = -null_loglik_core(phi, pi0, fit)
    neg[u > 690.0] = np.inf
    return neg


def _median(x):
    """``np.median`` of a finite 1-d array, bit for bit, from one partition
    about its middle elements. ``np.median`` sums from +0, so a zero median
    is +0 there, and + 0.0 makes it so here."""
    k = x.size // 2
    p = np.partition(x, (k - 1, k))
    return ((p[k - 1] + p[k]) / 2.0 if x.size % 2 == 0 else p[k]) + 0.0


def biweight_irls(z):
    """Tukey biweight location by iteratively reweighted least squares,
    with tuning constant ``TUKEY_C``, started at the median with the MAD
    scale re-estimated every step.

    Returns (location, MAD scale about the location, converged).
    """
    m = float(_median(z))
    converged = False
    for _ in range(IRLS_MAX_ITER):
        resid = z - m
        scale = MAD_SCALE * float(_median(np.abs(resid)))
        if scale <= 0.0:
            converged = True
            break
        u = np.abs(resid) / (TUKEY_C * scale)
        w = np.where(u < 1.0, (1.0 - u * u) ** 2, 0.0)
        wsum = float(np.sum(w))
        if wsum == 0.0:
            break
        m_new = float(np.sum(w * z) / wsum)
        converged = abs(m_new - m) < IRLS_TOL
        m = m_new
        if converged:
            break
    scale = MAD_SCALE * float(_median(np.abs(z - m)))
    return m, scale, converged


def backend() -> str:
    """Name of the kernel implementation, recorded in run manifests."""
    return "numpy"
