"""Hot numeric kernels in numpy: the truncated likelihood, its phi-score
and curvature, the erfc they share, and the Tukey biweight IRLS.

Both sit inside the Monte Carlo loops and dominate runtime. The likelihood
and score kernels take equal-length 1-d arrays of phi and pi0, one column
per pair, and return one value per column (the score kernel three: the
score, the curvature and the out-of-interval sum of the log-likelihood),
so the empirical-null fit makes one score call per step of its root search
for its whole pi0 grid.

The score kernel is the only one that computes the out-of-interval terms.
The likelihood kernel computes the in-interval terms and adds each column's
out-of-interval sum from the score kernel: the fit keeps the sums of its
score calls at the roots, and any other caller gets them from one score
call at its own columns. Both walk a call's columns in the same blocks. A
column's value has the same bits whatever else shares its call:
``math.log(pi0)`` and pi0 enter each term elementwise, every other term is
an elementwise ufunc or ``_erfc``, whose operations are the same for every
element, and each sum is one pairwise ``np.add.reduce`` over a row of a
C-contiguous block, as the one-dimensional sum of a single column would
be.

A fit builds its ``FitArrays`` once and passes it to all its calls. The
out-of-interval erfc is the costliest term, with one ``np.exp`` per element
beside it for the normal density. Every term free of pi0, in and out of
the interval, depends on phi alone. A score call whose columns all share
one phi, as the first step of a fit puts them, computes those rows once
and broadcasts them over each block of its columns. Any other call, one
where only some columns share a phi included, computes a row per column
and takes the terms with pi0 in them (1 - pi0 Q, its log, h and the
out-of-interval curvature) in place in it, with no copy of a row.
``_erfc`` takes a whole block in about 40 numpy calls, from a table of 55
segments whose 13 values each one ``take`` gathers: at most 4 ulp from
erfc (1.9 measured, where ``math.erfc`` measured 2.5). It is about twice
as fast as ``math.erfc`` one element at a time on a block of a few
thousand elements, and slower below about 500, where the calls' overhead
dominates.

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


# one column per segment: the coefficients of R from t**0 up, the midpoint m
# and -c, so that one take gathers all of an element's segment
_ERFC_TABLE = np.array(_erfc_table.COEFFICIENTS + (_erfc_table.CENTERS,)
                       + (tuple(-c for c in _erfc_table.OFFSETS),))
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
    np.minimum(k, _ERFC_TABLE.shape[1] - 1, out=k)
    seg = _ERFC_TABLE.take(k, axis=1)
    coefficients, t, minus_offset = seg[:-2], seg[-2], seg[-1]
    np.subtract(xc, t, out=t)
    r = coefficients[-1]
    for row in coefficients[-2:0:-1]:
        r *= t
        r += row
    r *= t
    r += coefficients[0]
    z = (xc.view(np.int64) & _LOW_BITS).view(np.float64)
    np.subtract(z, xc, out=t)
    xc += z
    t *= xc
    r += t
    np.exp(r, out=r)
    e = np.multiply(z, z, out=z)
    np.subtract(minus_offset, e, out=e)
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


def _column_blocks(size, fit):
    """The slices of a kernel call's ``size`` columns that both kernels walk,
    each of at most about ``_BLOCK_ELEMENTS`` (column, center) elements."""
    step = max(1, _BLOCK_ELEMENTS // max(1, fit.n))
    return (slice(k, k + step) for k in range(0, size, step))


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
    for cols in _column_blocks(phi.size, fit):
        v = np.multiply(phi[cols, None], fit.si)
        v += 1.0
        u = np.log(v)
        u += _LOG_2PI
        u *= 0.5
        np.subtract(log_pi0[cols], u, out=u)
        np.divide(fit.half_z2, v, out=v)
        u -= v
        ll[cols] = np.add.reduce(u, axis=1) + log_out[cols]
    return ll


def _phi_rows(x, fit):
    """The terms of ``null_score_core`` free of pi0, one row for each phi of
    the column array ``x``: the in-interval score and curvature sums, and
    out of the interval Q, pdf(b) b n / v and n (b^2 - 3) / (2 v)."""
    # in the interval: v, the score terms n ((z^2 / 2) / v - 1/2) / v and
    # the curvature terms (1/2 - z^2 / v) (n / v)^2
    vi = np.multiply(x, fit.si)
    vi += 1.0
    a = np.divide(fit.half_z2, vi)
    u = np.subtract(a, 0.5)
    u *= fit.si
    u /= vi
    score_in = np.add.reduce(u, axis=1)
    a *= -2.0
    a += 0.5
    np.divide(fit.si, vi, out=vi)
    a *= vi
    a *= vi
    curvature_in = np.add.reduce(a, axis=1)
    # out of it: v and b = B / sqrt(v), Q = 1 - erfc(b / sqrt 2), the null
    # probability of (-B, B), taken in place, and from one b^2, pdf(b) b n / v
    # and n (b^2 - 3) / (2 v)
    vo = np.multiply(x, fit.so)
    vo += 1.0
    b = fit.bo / np.sqrt(vo)
    q = _erfc(b * _INV_SQRT2)
    np.subtract(1.0, q, out=q)
    e = np.multiply(b, b)
    g = np.subtract(e, 3.0)
    e *= -0.5
    np.exp(e, out=e)
    e *= b
    e *= fit.so
    e /= vo
    g *= fit.so
    g /= vo
    g *= 0.5
    return score_in, curvature_in, q, e, g


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

    The columns are taken in the blocks of ``_column_blocks``. When every
    column has the same phi, the rows free of pi0 are computed once and
    broadcast over each block; otherwise each column computes its own, and
    its pi0 terms are taken in place in them.
    """
    score, curvature, log_out = np.empty(phi.size), np.empty(phi.size), np.empty(phi.size)
    shared = bool((phi == phi[:1]).all())
    rows = _phi_rows(phi[:1, None], fit) if shared else None
    for cols in _column_blocks(phi.size, fit):
        s_in, c_in, q, e, g = rows if shared else _phi_rows(phi[cols, None], fit)
        p = pi0[cols, None]
        # t = 1 - pi0 Q, h = pi0 pdf(b) b n / v / t, and h (n (b^2 - 3) /
        # (2 v) - h). 0 <= pi0 Q <= 1, so a t of 0 makes log t -inf. Shared
        # rows are left as they are for the next block
        t = np.multiply(q, p, out=None if shared else q)
        np.subtract(1.0, t, out=t)
        h = np.multiply(e, p * _INV_SQRT_2PI, out=None if shared else e)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            h /= t
            c = np.subtract(g, h, out=None if shared else g)
            c *= h
            np.log(t, out=t)
        score[cols] = s_in + np.add.reduce(h, axis=1)
        curvature[cols] = c_in + np.add.reduce(c, axis=1)
        log_out[cols] = np.add.reduce(t, axis=1)
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

    Returns (location, MAD scale about the location, converged). The
    weights are (1 - min(u, 1)^2)^2 at u = |z - m| / (c * scale), 0 from
    u = 1 on, with u taken as min(|z - m|, c * scale) / (c * scale), which
    cannot overflow. ``z - m`` itself, the median, the scales, ``c * scale``
    and the weighted sum are numpy operations that follow the caller's
    ``np.errstate`` where they overflow, as on values of opposite sign near
    the float limit: ``numerics.robust_intercept_scale`` makes them raise.
    """
    m = float(_median(z))
    converged = False
    for _ in range(IRLS_MAX_ITER):
        # |z - m|, for the MAD and then in place for the weights
        w = np.subtract(z, m)
        np.abs(w, out=w)
        scale = MAD_SCALE * _median(w)
        if scale <= 0.0:
            converged = True
            break
        # an overflow here follows the caller's errstate. w <= width after
        # the fmin, so the division cannot overflow, and it gives 1 exactly
        # where w / width would reach 1 (a NaN gives 1 too)
        width = TUKEY_C * scale
        np.fmin(w, width, out=w)
        w /= width
        np.multiply(w, w, out=w)
        np.subtract(1.0, w, out=w)
        np.multiply(w, w, out=w)
        wsum = float(np.add.reduce(w))
        if wsum == 0.0:
            break
        m_new = float(np.add.reduce(np.multiply(w, z, out=w)) / wsum)
        converged = abs(m_new - m) < IRLS_TOL
        m = m_new
        if converged:
            break
    scale = MAD_SCALE * _median(np.abs(z - m))
    return m, float(scale), converged


def backend() -> str:
    """Name of the kernel implementation, recorded in run manifests."""
    return "numpy"
