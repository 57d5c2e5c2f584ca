"""Correlation-weighted composite scores and threshold flagging.

Per-measure standardized scores are sign-aligned so that lower always means
worse care, combined as a weighted sum, and normalized by the quadratic form
of the weights in the score correlation matrix so the composite is standard
normal under the null.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .empirical_null import FLAG_Z
from .errors import InputError

MIN_PAIR_COMPLETE = 3
COND_LIMIT = 1e12


@dataclass(frozen=True)
class CompositeConfig:
    """A key of ``WEIGHT_SCHEMES`` and the flag thresholds of a composite."""

    weight_scheme: str = "capped_corr_reciprocal"
    flag_lower: float = -FLAG_Z
    flag_upper: float = FLAG_Z

    def __post_init__(self) -> None:
        if self.weight_scheme not in WEIGHT_SCHEMES:
            raise InputError(f"unknown weight scheme {self.weight_scheme!r}; "
                             f"expected one of {tuple(WEIGHT_SCHEMES)}")
        if not self.flag_lower < self.flag_upper:
            raise InputError("flag_lower must be below flag_upper")


def correlation_matrix(
    scores: np.ndarray,
    measure_ids: Sequence[str] | None = None,
) -> np.ndarray:
    """Pairwise-complete Pearson correlations of a centers x measures table.

    Missing entries are NaN; each measure pair needs at least 3 centers with
    both scores present. The diagonal is exactly 1. Raises InputError where
    a pair's correlation is undefined or its computation overflows the float
    range.
    """
    mat = np.asarray(scores, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[1] < 1:
        raise InputError("scores must be a 2-d centers x measures array")
    p = mat.shape[1]
    names = list(measure_ids) if measure_ids is not None else [str(k) for k in range(p)]
    corr = np.eye(p)
    for k in range(p):
        for l in range(k + 1, p):
            both = np.isfinite(mat[:, k]) & np.isfinite(mat[:, l])
            if both.sum() < MIN_PAIR_COMPLETE:
                raise InputError(
                    f"measures {names[k]!r} and {names[l]!r} share only "
                    f"{int(both.sum())} complete centers; need at least "
                    f"{MIN_PAIR_COMPLETE}")
            xk = mat[both, k]
            xl = mat[both, l]
            # a constant column makes c 0/0, caught below
            try:
                with np.errstate(over="raise", divide="ignore", invalid="ignore"):
                    c = np.corrcoef(xk, xl)[0, 1]
            except FloatingPointError:
                raise InputError(f"correlation between {names[k]!r} and "
                                 f"{names[l]!r} overflows the float range") from None
            if not np.isfinite(c):
                raise InputError(f"correlation between {names[k]!r} and "
                                 f"{names[l]!r} is undefined (constant scores)")
            corr[k, l] = corr[l, k] = min(1.0, max(-1.0, float(c)))
    return corr


def _validate_corr(corr: np.ndarray) -> np.ndarray:
    c = np.asarray(corr, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise InputError("correlation matrix must be square")
    if not np.allclose(np.diag(c), 1.0, atol=1e-12):
        raise InputError("correlation matrix must have a unit diagonal")
    if not np.allclose(c, c.T, atol=1e-10):
        raise InputError("correlation matrix must be symmetric")
    return c


def capped_corr_weights(corr: np.ndarray) -> np.ndarray:
    """Inversion-free weights w_k = 1 / sum_l max(c_kl, 0).

    Strictly positive for every valid correlation matrix because the unit
    diagonal puts at least 1 in each denominator.
    """
    c = _validate_corr(corr)
    return 1.0 / np.sum(np.maximum(c, 0.0), axis=1)


def inverse_corr_weights(corr: np.ndarray) -> np.ndarray:
    """Row sums of the inverse correlation matrix. May be negative for some
    correlation structures, which is why the capped variant is the default.
    """
    c = _validate_corr(corr)
    cond = np.linalg.cond(c)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise InputError(f"correlation matrix is singular or near-singular "
                         f"(condition estimate {cond:.3e})")
    return np.sum(np.linalg.inv(c), axis=1)


def _quad_norm(w: np.ndarray, c: np.ndarray) -> float:
    """sqrt(sum_kl w_k w_l c_kl) for a validated correlation matrix ``c``."""
    quad = float(w @ c @ w)
    if quad <= 0:
        raise InputError(f"weight quadratic form must be positive, got {quad:.6g}")
    return math.sqrt(quad)


def _normalized_sums(z: np.ndarray, w: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The composite of each row of ``z`` for a validated correlation
    matrix ``c``."""
    # vecdot takes the same per-row dot product as w @ z_row, bit for bit,
    # where a matrix-vector product may round differently
    return np.vecdot(z, w) / _quad_norm(w, c)


def composite_score(
    z: Sequence[float] | np.ndarray,
    w: Sequence[float],
    corr: np.ndarray,
) -> float | np.ndarray:
    """Correlation-normalized weighted sum
    (sum_kl w_k w_l c_kl)^(-1/2) * sum_k w_k z_k of one center's scores, or
    of each row of a centers x measures block."""
    zv = np.asarray(z, dtype=np.float64)
    wv = np.asarray(w, dtype=np.float64)
    c = _validate_corr(corr)
    if not (zv.ndim in (1, 2) and zv.shape[-1:] == wv.shape and wv.shape[0] == c.shape[0]):
        raise InputError("z, w, and corr dimensions must agree")
    scores = _normalized_sums(zv, wv, c)
    return float(scores) if zv.ndim == 1 else scores


def published_weights(w: Sequence[float], corr: np.ndarray) -> np.ndarray:
    """Weights folded with the composite normalizing constant,
    w_k / sqrt(sum_kl w_k w_l c_kl): the reporting convention that
    reproduces the published composite weight tables."""
    wv = np.asarray(w, dtype=np.float64)
    return wv / _quad_norm(wv, _validate_corr(corr))


def flag(z_cs: float | np.ndarray, config: CompositeConfig | None = None) -> str | np.ndarray:
    """Classify composite scores against the flag thresholds, elementwise;
    boundary values count as average. A float gives a str."""
    cfg = config if config is not None else CompositeConfig()
    z = np.asarray(z_cs)
    labels = np.where(z < cfg.flag_lower, "poor",
                      np.where(z > cfg.flag_upper, "good", "average"))
    return labels.item() if labels.ndim == 0 else labels


# weight scheme -> its weights of a correlation matrix, in the order the CLI lists them
WEIGHT_SCHEMES = {
    "capped_corr_reciprocal": capped_corr_weights,
    "inverse_corr_sum": inverse_corr_weights,
}


def composite_table(
    center_ids: Sequence[str],
    aligned: np.ndarray,
    measure_ids: Sequence[str],
    config: CompositeConfig | None = None,
) -> tuple[np.recarray, list[str]]:
    """Composite scores for a centers x measures table of aligned scores.

    Weights and correlations come from the full table. Centers missing some
    measures are scored on the matching sub-blocks of the weights and
    correlation matrix and marked partial, one block per pattern of missing
    measures; centers with fewer than 2 available measures (with a single
    declared measure, with none) are skipped.

    Returns a record array of the scored centers in input order (fields
    center_id, z_cs, label, partial, weights, measures_used) and the skipped ids.
    """
    cfg = config if config is not None else CompositeConfig()
    mat = np.asarray(aligned, dtype=np.float64)
    # object, not unicode: numpy unicode drops trailing NULs, so "a\0" would be "a"
    ids = np.array(list(center_ids), dtype=object)
    names = tuple(measure_ids)
    if mat.ndim != 2 or mat.shape[0] != len(ids) or mat.shape[1] != len(names):
        raise InputError("aligned table shape must match center and measure ids")
    # correlation_matrix builds a valid matrix, which the weight schemes
    # check once; the per-pattern blocks below are not checked again
    corr = correlation_matrix(mat, names)
    w = WEIGHT_SCHEMES[cfg.weight_scheme](corr)

    finite = np.isfinite(mat)
    # a row's pattern as one integer, bit j for measure j; from 63 measures
    # on, no int64 holds it, and the rows themselves are compared
    key = finite @ (1 << np.arange(len(names))) if len(names) < 63 else finite
    first, pattern_of = np.unique(key, axis=0, return_index=True, return_inverse=True)[1:]
    patterns = finite[first]
    pattern_of = pattern_of.reshape(-1)
    n_used = patterns.sum(axis=1)
    skip = n_used < min(2, len(names))
    z_cs = np.full(len(ids), np.nan)
    weights, used = np.empty((2, len(patterns)), dtype=object)
    for p in np.flatnonzero(~skip).tolist():
        idx = np.flatnonzero(patterns[p])
        rows = np.flatnonzero(pattern_of == p)
        z_cs[rows] = _normalized_sums(mat[np.ix_(rows, idx)], w[idx],
                                      corr[np.ix_(idx, idx)])
        weights[p] = tuple(w[idx].tolist())
        used[p] = tuple(names[j] for j in idx)

    keep = ~skip[pattern_of]
    p_kept, z_kept = pattern_of[keep], z_cs[keep]
    scored = np.rec.fromarrays(
        [ids[keep], z_kept, flag(z_kept, cfg), n_used[p_kept] < len(names),
         weights[p_kept], used[p_kept]],
        names="center_id,z_cs,label,partial,weights,measures_used")
    return scored, ids[~keep].tolist()
