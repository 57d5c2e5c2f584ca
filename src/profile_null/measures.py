"""Measure specs and the center x measure table, naive fixed-effects
Z-scores, and size-group diagnostics computed from center-level summary
statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count, repeat
from typing import Sequence

import numpy as np

from .empirical_null import FLAG_Z, EnConfig, _check_z_and_sizes, _z_and_sizes
from .errors import InputError

FAMILIES = ("normal", "binomial", "poisson")
DIRECTIONS = ("higher_is_better", "lower_is_better")


@dataclass(frozen=True)
class MeasureSpec:
    """Outcome family, dispersion constant, care direction, and empirical-null
    tuning for one quality measure.

    ``a_psi`` is the exponential-family dispersion constant: the error
    variance for normal outcomes and exactly 1 for binomial/poisson.
    """

    measure_id: str
    family: str
    direction: str
    a_psi: float = 1.0
    en_config: EnConfig = field(default_factory=EnConfig)

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise InputError(f"unknown family {self.family!r} for measure "
                             f"{self.measure_id!r}; expected one of {FAMILIES}")
        if self.direction not in DIRECTIONS:
            raise InputError(f"unknown direction {self.direction!r} for measure "
                             f"{self.measure_id!r}; expected one of {DIRECTIONS}")
        if not (self.a_psi > 0 and np.isfinite(self.a_psi)):
            raise InputError(f"a_psi must be a positive finite number, got "
                             f"{self.a_psi!r}")
        if self.family in ("binomial", "poisson") and self.a_psi != 1.0:
            raise InputError(f"a_psi must equal 1 for {self.family} measures "
                             f"(measure {self.measure_id!r})")


class CenterTable:
    """Center x measure summary statistics: one row per (center, measure)
    pair with the observed event sum, the model-expected sum, and the
    effective size (summed conditional variance of the outcome under the
    null, which equals the expected count for poisson).

    Rows keep their input order. ``center`` and ``measure`` index each row
    into ``center_ids`` (first-appearance order) and ``measures`` (declared
    order). The constructor is where rows are checked: every value finite,
    every measure declared, no (center, measure) pair twice, poisson sizes
    equal to the expected count and binomial sizes within [0, expected].
    ``row_numbers`` labels the rows in error messages (default 1, 2, ...).

    Ids become indices through one dict lookup each, with no Python loop
    of its own, and every check is a whole-column numpy operation: the
    family checks gather one flag per declared measure, and a duplicate
    pair is looked for only when a count of the pairs finds one.
    """

    def __init__(
        self,
        measures: Sequence[MeasureSpec],
        center_ids: Sequence[str],
        measure_ids: Sequence[str],
        observed: Sequence[float],
        expected: Sequence[float],
        size: Sequence[float],
        row_numbers: Sequence[int] | None = None,
    ) -> None:
        self.measures = tuple(measures)
        self.observed = np.asarray(observed, dtype=np.float64)
        self.expected = np.asarray(expected, dtype=np.float64)
        self.size = np.asarray(size, dtype=np.float64)
        n = len(center_ids)
        if not (len(measure_ids) == n and self.observed.shape == self.expected.shape
                == self.size.shape == (n,)):
            raise InputError("center table columns must be 1-d and of equal length")
        if n == 0:
            raise InputError("center table holds no rows")
        rows = range(1, n + 1) if row_numbers is None else list(row_numbers)

        by_id = {m.measure_id: k for k, m in enumerate(self.measures)}
        self.measure = np.fromiter(map(by_id.get, measure_ids, repeat(-1)), np.intp, n)
        # each id's index in first-appearance order
        index = dict(zip(dict.fromkeys(center_ids), count()))
        self.center = np.fromiter(map(index.__getitem__, center_ids), np.intp, n)
        self.center_ids = tuple(index)

        def reject(bad: np.ndarray, message: str) -> None:
            if bad.any():
                i = int(np.argmax(bad))
                raise InputError(f"row {rows[i]} (center {center_ids[i]!r}, "
                                 f"measure {measure_ids[i]!r}): {message}")

        reject(self.measure < 0, "measure_id is not declared in the measures file")
        for name, col in (("observed", self.observed), ("expected", self.expected),
                          ("effective_size", self.size)):
            reject(~np.isfinite(col), f"{name} must be finite")
        poisson, binomial = (np.array([m.family == f for m in self.measures])[self.measure]
                             for f in ("poisson", "binomial"))
        # the tolerance of math.isclose(size, expected, rel_tol=1e-9, abs_tol=1e-9)
        tol = np.maximum(1e-9 * np.maximum(np.abs(self.size), np.abs(self.expected)), 1e-9)
        reject(poisson & (np.abs(self.size - self.expected) > tol),
               "poisson effective_size must equal expected")
        reject(binomial & ~((0.0 <= self.size) & (self.size <= self.expected)),
               "binomial effective_size must lie in [0, expected]")
        key = self.center * len(self.measures) + self.measure
        if np.bincount(key).max() > 1:
            first = np.unique(key, return_index=True)[1]
            reject(~np.isin(np.arange(n), first), "duplicate center/measure pair")

    def __len__(self) -> int:
        return len(self.center)

    @property
    def usable(self) -> np.ndarray:
        """Whether each row has a positive expected count and effective
        size: the rows that are scored, fitted and plotted."""
        return (self.expected > 0) & (self.size > 0)

    def row_ids(self, i: int) -> tuple[str, str]:
        """(center_id, measure_id) of row ``i``."""
        return (self.center_ids[self.center[i]],
                self.measures[self.measure[i]].measure_id)


def z_fixed_effects(
    observed: np.ndarray | float,
    expected: np.ndarray | float,
    size: np.ndarray | float,
    a_psi: np.ndarray | float = 1.0,
) -> np.ndarray:
    """Naive standardized scores (observed - expected) / sqrt(a_psi * size),
    elementwise.

    Raises InputError for non-positive effective size; callers exclude such
    centers and record them in a skipped-centers diagnostic.
    """
    n = np.asarray(size, dtype=np.float64)
    if np.any(n <= 0):
        raise InputError(f"effective_size must be positive, got {np.min(n)}")
    return (np.asarray(observed, dtype=np.float64) - expected) / np.sqrt(a_psi * n)


def measure_ratio(observed: np.ndarray | float, expected: np.ndarray | float) -> np.ndarray:
    """Observed-over-expected ratios, the published measure scale."""
    e = np.asarray(expected, dtype=np.float64)
    if np.any(e <= 0):
        raise InputError(f"expected must be positive, got {np.min(e)}")
    return np.asarray(observed, dtype=np.float64) / e


def group_variance_diagnostic(
    z: Sequence[float],
    sizes: Sequence[float],
    n_groups: int,
) -> list[tuple[float, float, float]]:
    """Size-grouped Z-score dispersion diagnostic.

    Centers are sorted by effective size and split into ``n_groups``
    contiguous groups of near-equal count. Returns, per group, the mean
    effective size, the sample variance of the Z-scores, and the proportion
    of centers with ``|z| > FLAG_Z``. When risk adjustment is complete all
    group variances sit near 1; variances that grow with size indicate
    overdispersion from unobserved confounding. Every z must be finite and
    every size finite and positive; raises InputError where a group's mean
    size or variance overflows the float range.
    """
    zvals, svals = _z_and_sizes(z, sizes)
    _check_z_and_sizes(zvals, svals)
    if n_groups < 2:
        raise InputError("n_groups must be at least 2")
    if zvals.size < 2 * n_groups:
        raise InputError(f"need at least 2 centers per group: "
                         f"{zvals.size} centers for {n_groups} groups")
    order = np.argsort(svals, kind="stable")
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        for idx in np.array_split(order, n_groups):
            gz = zvals[idx]
            out.append((
                float(np.mean(svals[idx])),
                float(np.var(gz, ddof=1)),
                float(np.mean(np.abs(gz) > FLAG_Z)),
            ))
    if not np.isfinite(out).all():
        raise InputError("the mean size or Z-score variance of a size group "
                         "overflows the float range")
    return out
