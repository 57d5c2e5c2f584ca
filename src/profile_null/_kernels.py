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

A fit builds its ``FitArrays`` once and passes it to all its calls: the
in-interval sizes and ``z^2/2`` and the out-of-interval sizes and bounds,
split from the center arrays once per fit, and a store of the
out-of-interval ``erfc`` rows, the costliest part, keyed by phi. The store
holds at most ``_ERFC_ROW_ELEMENTS`` values (2 MiB) in one preallocated
buffer and overwrites its oldest rows first, so at thousands of centers a
phi that comes back late is computed again. The in-interval rows (``log v``,
``z^2/v``) are computed for every column, in place. The lockstep minimizer
does not ask for a column at a point it has just evaluated
(``numerics.nelder_mead_lockstep``), so each column is evaluated at most
once per point.

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
# cache: unblocked, a fit at 8,000 centers took about 30% longer. With the
# terms computed in place, 16384 to 131072 cost about the same at 212 (one
# block), 8,000 and 32,000 centers, 32768 was cheapest at 2,000, and 262144
# was slower at 8,000. A block's two temporaries set the fit's peak memory:
# 65536 took 0.75 MiB more than this size at 8,000 centers.
_BLOCK_ELEMENTS = 32768

# An erfc row store holds at most this many float64 values (2 MiB). That
# covers a whole fit at a few hundred centers; at 8,000 centers it keeps
# about the last 200 rows, where most repeated phis fall.
_ERFC_ROW_ELEMENTS = 1 << 18


def _erfc(x: np.ndarray) -> np.ndarray:
    """``math.erfc`` elementwise over a float64 array."""
    return np.fromiter(map(math.erfc, x.ravel().tolist()), np.float64,
                       x.size).reshape(x.shape)


class FitArrays:
    """The center arrays of one likelihood, split once into what each kernel
    call reads, and the store of its out-of-interval erfc rows.

    A fit builds one and passes it to all its calls, so the in-interval
    sizes and ``z^2/2`` and the out-of-interval sizes and bounds are made
    once per fit. The store is one buffer of at most
    ``_ERFC_ROW_ELEMENTS // n_out`` rows, indexed through ``slot``, a dict
    from phi to its row in insertion order. It doubles as it fills, since
    allocating the whole budget up front raised the peak memory of an
    8,000-center report by about 1.2 MiB; once full, a new row overwrites
    the oldest.
    """

    def __init__(self, z, sizes, in_null, b_upper):
        self.n = z.size
        zi = z[in_null]
        self.si = sizes[in_null]
        self.half_z2 = 0.5 * zi * zi
        out = ~in_null
        self.so = sizes[out]
        self.bo = b_upper[out]
        self.max_rows = _ERFC_ROW_ELEMENTS // self.so.size if self.so.size else 0
        self.rows = np.empty((min(64, self.max_rows), self.so.size))
        self.slot: dict[float, int] = {}

    def q_rows(self, phis: list[float]) -> np.ndarray:
        """A new array of the rows ``1 - erfc(...)`` of ``phis``, in order.

        Computes, in one ``_erfc`` batch, the rows of the phis not in the
        store, then keeps the newest of them in place of the oldest rows.
        """
        slot, rows = self.slot, self.rows
        distinct = dict.fromkeys(phis)
        new = [p for p in distinct if p not in slot]
        if not new:
            return rows.take([slot[p] for p in phis], axis=0)
        # Q_i = Phi(B/s) - Phi(-B/s) = 1 - erfc(B / (s*sqrt(2)))
        fresh = 1.0 - _erfc(self.bo / np.sqrt(1.0 + np.array(new)[:, None] * self.so)
                            * _INV_SQRT2)
        if len(new) == len(phis):
            q = fresh
        else:
            # the new rows, then the stored rows of the others
            stored = [p for p in distinct if p in slot]
            source = np.concatenate([fresh, rows.take([slot[p] for p in stored], axis=0)])
            at = dict(zip(new + stored, range(len(distinct))))
            q = source.take([at[p] for p in phis], axis=0)
        first = len(slot)
        if first + len(new) > len(rows) and len(rows) < self.max_rows:
            # double the buffer, up to its budget
            grown = np.empty((min(self.max_rows, max(2 * len(rows), first + len(new))),
                              self.so.size))
            grown[:first] = rows[:first]
            self.rows = rows = grown
        if first + len(new) <= len(rows):
            # the store has not been full yet: its rows are 0 .. first - 1
            slot.update(zip(new, range(first, first + len(new))))
            rows[first:first + len(new)] = fresh
        else:
            kept = new[max(0, len(new) - len(rows)):]
            for p in kept:
                slot[p] = len(slot) if len(slot) < len(rows) else slot.pop(next(iter(slot)))
            rows[[slot[p] for p in kept]] = fresh[len(new) - len(kept):]
        return q


def null_loglik_core(phi, pi0, fit):
    """Truncated-mixture log-likelihood of each column (phi[k], pi0[k]) over
    the center arrays of ``fit``, a ``FitArrays``; -inf for a column where an
    out-of-interval log argument is non-positive.

    ``phi`` and ``pi0`` are equal-length 1-d float arrays. Each block's
    terms are computed in place, in the order of the one-column formula.
    """
    phi_l = phi.tolist()
    log_pi0 = np.array([math.log(p) for p in pi0.tolist()])[:, None]
    ll = np.zeros(len(phi_l))
    per_block = max(1, _BLOCK_ELEMENTS // max(1, fit.n))
    for start in range(0, len(phi_l), per_block):
        block = slice(start, start + per_block)
        if fit.si.size:
            # log pi0 - 0.5 * (log 2pi + log v) - (z^2 / 2) / v, v = 1 + phi * n
            v = np.multiply(phi[block, None], fit.si)
            v += 1.0
            t = np.log(v)
            t += _LOG_2PI
            t *= 0.5
            np.subtract(log_pi0[block], t, out=t)
            np.divide(fit.half_z2, v, out=v)
            t -= v
            ll[block] += np.sum(t, axis=1)
        if fit.so.size:
            # log(1 - pi0 * Q)
            t = fit.q_rows(phi_l[block])
            t *= pi0[block, None]
            np.subtract(1.0, t, out=t)
            bad = np.any(t <= 0.0, axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                np.log(t, out=t)
            ll[block] += np.sum(t, axis=1)
            ll[block][bad] = -np.inf
    return ll


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
