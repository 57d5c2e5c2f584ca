"""Center table, fixed-effects scores, ratios, and group diagnostics."""

import math

import numpy as np
import pytest

from profile_null import (
    CenterTable,
    InputError,
    MeasureSpec,
    group_variance_diagnostic,
    measure_ratio,
    z_fixed_effects,
)

POISSON = MeasureSpec(measure_id="TRR", family="poisson",
                      direction="higher_is_better")
BINOMIAL = MeasureSpec(measure_id="SAR", family="binomial",
                       direction="higher_is_better")


def _table(rows, row_numbers=None):
    centers, measures, o, e, n = zip(*rows)
    return CenterTable([POISSON, BINOMIAL], centers, measures, o, e, n, row_numbers)


class TestMeasureSpec:
    def test_dispersion_constant_forced_to_one(self):
        with pytest.raises(InputError):
            MeasureSpec(measure_id="X", family="poisson",
                        direction="higher_is_better", a_psi=2.0)
        with pytest.raises(InputError):
            MeasureSpec(measure_id="X", family="binomial",
                        direction="lower_is_better", a_psi=0.5)

    def test_normal_family_takes_user_dispersion(self):
        spec = MeasureSpec(measure_id="X", family="normal",
                           direction="lower_is_better", a_psi=2.5)
        assert spec.a_psi == 2.5

    def test_unknown_family_and_direction(self):
        with pytest.raises(InputError):
            MeasureSpec(measure_id="X", family="gamma",
                        direction="higher_is_better")
        with pytest.raises(InputError):
            MeasureSpec(measure_id="X", family="poisson", direction="up")


class TestCenterTable:
    def test_indexes_centers_in_first_appearance_order(self):
        t = _table([("B", "TRR", 5, 4, 4), ("A", "SAR", 3, 4, 2),
                    ("B", "SAR", 2, 4, 1)])
        assert t.center_ids == ("B", "A")
        assert t.center.tolist() == [0, 1, 0]
        assert t.measure.tolist() == [0, 1, 1]
        assert len(t) == 3
        assert t.row_ids(1) == ("A", "SAR")

    def test_interleaved_repeated_ids(self):
        # ids that come back after others, that sort in another order than
        # they appear, and that differ only by a trailing NUL, which a numpy
        # unicode array would drop
        ids = ["b", "a\x00", "B", "a", "b", "ä", "a\x00", "B", "a", "ä"]
        # each id first with TRR, then with SAR
        t = _table([(c, "TRR", 2, 4, 4) if c not in ids[:k] else (c, "SAR", 2, 4, 1)
                    for k, c in enumerate(ids)])
        assert t.center_ids == ("b", "a\x00", "B", "a", "ä")
        assert all(type(c) is str for c in t.center_ids)
        assert t.center.tolist() == [0, 1, 2, 3, 0, 4, 1, 2, 3, 4]
        assert [t.row_ids(i)[0] for i in range(len(t))] == ids
        # the rank of each id in Python's sort order, computed once
        assert t.id_rank.tolist() == [3, 2, 0, 1, 4]
        assert t.id_rank is t.id_rank
        # the first row that repeats an earlier (center, measure) is named
        with pytest.raises(InputError, match=r"row 8 \(center 'a\\x00', measure 'TRR'\): "
                                             "duplicate"):
            _table([(c, "TRR", 2, 4, 4) for c in ids[:4]]
                   + [(c, "SAR", 2, 4, 1) for c in ids[:3]] + [("a\x00", "TRR", 2, 4, 4)])

    @pytest.mark.parametrize("rows,match", [
        ([("A", "TRR", 5, 4, 4), ("A", "XYZ", 5, 4, 4)], "row 2 .*'XYZ'.*not declared"),
        ([("A", "TRR", 5, 4, 4), ("B", "TRR", 5, 4, 4), ("A", "TRR", 6, 4, 4)],
         "row 3 .*duplicate"),
        ([("A", "TRR", 5, 4, 4), ("B", "TRR", math.nan, 4, 4)], "row 2 .*observed"),
        ([("A", "SAR", 5, 4, math.inf)], "row 1 .*effective_size must be finite"),
        ([("A", "TRR", 5, 4, 3)], "row 1 .*poisson"),
        ([("A", "SAR", 5, 4, 4.5)], "row 1 .*binomial"),
    ])
    def test_rejects_bad_rows_naming_the_row(self, rows, match):
        with pytest.raises(InputError, match=match):
            _table(rows)

    def test_rejects_empty_table(self):
        with pytest.raises(InputError, match="no rows"):
            CenterTable([POISSON], [], [], [], [], [])

    def test_row_numbers_label_errors(self):
        with pytest.raises(InputError, match="row 7 .*duplicate"):
            _table([("A", "TRR", 5, 4, 4), ("A", "TRR", 5, 4, 4)], row_numbers=[4, 7])


class TestZFixedEffects:
    def test_null_center(self):
        assert z_fixed_effects(40, 40, 40) == 0.0

    def test_poisson_hand_value(self):
        z = z_fixed_effects(50, 40, 40)
        assert z == pytest.approx(10 / math.sqrt(40), abs=1e-5)
        assert z == pytest.approx(1.58114, abs=1e-5)

    def test_binomial_hand_value(self):
        z = z_fixed_effects(30, 25, 18.2)
        assert z == pytest.approx(5 / math.sqrt(18.2), abs=1e-5)

    def test_normal_uses_dispersion(self):
        z = z_fixed_effects([12, 12], [10, 10], [25, 25], a_psi=np.array([4.0, 1.0]))
        assert z == pytest.approx([2 / math.sqrt(4.0 * 25), 2 / math.sqrt(25)])

    def test_nonpositive_size_rejected(self):
        with pytest.raises(InputError):
            z_fixed_effects([5, 5], [5, 5], [30, 0.0])

    def test_sign_follows_observed_minus_expected(self):
        rng = np.random.default_rng(1)
        o, e = rng.uniform(0, 100, (2, 50))
        z = z_fixed_effects(o, e, np.full(50, 30.0))
        assert np.all((z > 0) == (o > e))

    def test_scale_law(self):
        base, scaled = z_fixed_effects([45, 40 + 3 * 5], [40, 40], [40, 40])
        assert scaled == pytest.approx(3 * base)


class TestMeasureRatio:
    def test_values(self):
        assert measure_ratio([40, 50, 0], [40, 40, 40]).tolist() == [1.0, 1.25, 0.0]

    def test_nonpositive_expected(self):
        with pytest.raises(InputError):
            measure_ratio([5, 5], [5, 0.0])


class TestGroupVarianceDiagnostic:
    def test_degenerate_all_zero(self):
        out = group_variance_diagnostic([0.0] * 30, list(range(1, 31)), 3)
        assert len(out) == 3
        for _, var, prop in out:
            assert var == 0.0
            assert prop == 0.0

    def test_standard_normal_groups_near_unit_variance(self):
        rng = np.random.default_rng(2024)
        z = rng.normal(0.0, 1.0, 3000)
        sizes = rng.uniform(1, 500, 3000)
        out = group_variance_diagnostic(z, sizes, 3)
        for _, var, _ in out:
            assert var == pytest.approx(1.0, abs=0.15)

    def test_overdispersion_pattern_increases_with_size(self):
        # mirrors the real-data diagnostic: Var(Z) ~ 1 + 0.14 * size
        rng = np.random.default_rng(7)
        sizes = np.linspace(1, 500, 3000)
        z = np.sqrt(1 + 0.14 * sizes) * rng.normal(0, 1, 3000)
        out = group_variance_diagnostic(z, sizes, 3)
        variances = [v for _, v, _ in out]
        mean_sizes = [m for m, _, _ in out]
        assert variances[0] < variances[1] < variances[2]
        assert mean_sizes[0] < mean_sizes[1] < mean_sizes[2]
        props = [p for _, _, p in out]
        assert props[0] < props[2]

    def test_group_sizes_near_equal(self):
        out = group_variance_diagnostic(list(np.random.default_rng(0).normal(size=10)),
                                        list(range(1, 11)), 5)
        assert len(out) == 5

    def test_input_errors(self):
        with pytest.raises(InputError):
            group_variance_diagnostic([0.0] * 3, [1.0] * 3, 2)
        with pytest.raises(InputError):
            group_variance_diagnostic([0.0] * 30, [1.0] * 30, 1)

    @pytest.mark.parametrize("z, sizes, message", [
        ([math.nan, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0], "z contains non-finite values"),
        ([1.0, math.inf, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0], "z contains non-finite values"),
        ([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, math.inf, 4.0], "sizes contains non-finite values"),
        ([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, math.nan], "sizes contains non-finite values"),
        ([0.0, 1.0, 2.0, 3.0], [0.0, 2.0, 3.0, 4.0], "sizes must be positive"),
    ])
    def test_rejects_non_finite_scores_and_sizes(self, z, sizes, message):
        # a NaN score made a NaN group variance
        with pytest.raises(InputError, match=message):
            group_variance_diagnostic(z, sizes, 2)


class TestNullVarianceLaw:
    """Null variance of the fixed-effects score follows 1 + phi * size."""

    @pytest.mark.parametrize("size", [10.0, 100.0, 1000.0])
    def test_poisson_null_variance(self, size):
        sigma2 = 0.01
        rng = np.random.default_rng(int(size))
        n_rep = 20000
        alpha = rng.normal(0.0, math.sqrt(sigma2), n_rep)
        observed = rng.poisson(size * np.exp(alpha))
        z = (observed - size) / math.sqrt(size)
        predicted = 1.0 + sigma2 * size
        assert float(np.var(z, ddof=1)) == pytest.approx(predicted, rel=0.05)
