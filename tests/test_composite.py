"""Composite score construction: alignment, correlations, weights, scoring,
and flagging."""

import math

import numpy as np
import pytest

from profile_null import (
    CenterTable,
    CompositeConfig,
    InputError,
    MeasureSpec,
    capped_corr_weights,
    composite_score,
    composite_table,
    correlation_matrix,
    flag,
    inverse_corr_weights,
    published_weights,
)
import profile_null.composite as composite_module
from profile_null.report import align_scores, standardize, write_composite_report

# sample correlations among the four transplant measures, with published
# weights (0.39, 0.40, 0.37, 0.38)
TABLE_CORR = np.array([
    [1.00, 0.64, 0.03, -0.02],
    [0.64, 1.00, -0.02, -0.03],
    [0.03, -0.02, 1.00, 0.73],
    [-0.02, -0.03, 0.73, 1.00],
])
TABLE_WEIGHTS = (0.39, 0.40, 0.37, 0.38)


def _aligned(direction, observed):
    """align_scores of fixed-effects scores for one center and two measures
    of the given direction, each with expected = size = 100."""
    specs = [MeasureSpec(measure_id=m, family="poisson", direction=direction)
             for m in ("M1", "M2")]
    table = CenterTable(specs, ["C", "C"], ["M1", "M2"], observed, [100, 100],
                        [100, 100])
    ids, aligned = align_scores(standardize(table, method="fe"))
    assert ids == ["C"]
    return aligned[0].tolist()


class TestDirectionAlign:
    def test_higher_is_better_identity(self):
        assert _aligned("higher_is_better", [113, 87]) == [1.3, -1.3]

    def test_lower_is_better_flips(self):
        assert _aligned("lower_is_better", [113, 87]) == [-1.3, 1.3]

    def test_zero_fixed_point(self):
        assert _aligned("lower_is_better", [100, 100]) == [0.0, 0.0]

    def test_missing_measure_stays_nan(self):
        specs = [MeasureSpec("M", "poisson", "lower_is_better"),
                 MeasureSpec("N", "poisson", "higher_is_better")]
        table = CenterTable(specs, ["A", "B", "B"], ["M", "M", "N"], [5, 6, 7],
                            [4, 4, 4], [4, 4, 4])
        ids, aligned = align_scores(standardize(table, method="fe"))
        assert ids == ["A", "B"]
        assert aligned[0, 0] == -0.5 and np.isnan(aligned[0, 1])
        assert aligned[1].tolist() == [-1.0, 1.5]


class TestCorrelationMatrix:
    def test_identical_columns(self):
        rng = np.random.default_rng(0)
        col = rng.normal(size=50)
        c = correlation_matrix(np.column_stack([col, col]))
        assert c[0, 1] == pytest.approx(1.0)

    def test_anticorrelated_columns(self):
        rng = np.random.default_rng(1)
        col = rng.normal(size=50)
        c = correlation_matrix(np.column_stack([col, -col]))
        assert c[0, 1] == pytest.approx(-1.0)

    def test_independent_columns_near_zero(self):
        rng = np.random.default_rng(2)
        mat = rng.normal(size=(212, 4))
        c = correlation_matrix(mat)
        off = c[~np.eye(4, dtype=bool)]
        assert np.all(np.abs(off) < 0.2)
        assert np.allclose(np.diag(c), 1.0)
        assert np.allclose(c, c.T)

    def test_pairwise_complete_with_missing(self):
        rng = np.random.default_rng(3)
        mat = rng.normal(size=(40, 2))
        mat[:5, 0] = np.nan
        c = correlation_matrix(mat)
        assert np.isfinite(c[0, 1])

    def test_too_few_complete_pairs_names_the_pair(self):
        mat = np.full((10, 2), np.nan)
        mat[:, 0] = 1.0
        mat[:2, 1] = (0.5, 1.5)
        with pytest.raises(InputError, match="'A' and 'B'"):
            correlation_matrix(mat, ["A", "B"])


class TestCappedCorrWeights:
    def test_identity_matrix(self):
        assert np.allclose(capped_corr_weights(np.eye(2)), [1.0, 1.0])

    def test_published_weight_reconstruction(self):
        raw = capped_corr_weights(TABLE_CORR)
        assert np.allclose(raw, [0.599, 0.610, 0.568, 0.578], atol=1e-3)
        pub = published_weights(raw, TABLE_CORR)
        assert np.allclose(pub, TABLE_WEIGHTS, atol=0.01)

    def test_fully_redundant_measures(self):
        c = np.ones((5, 5))
        assert np.allclose(capped_corr_weights(c), 0.2)

    def test_positive_for_random_valid_matrices(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a = rng.normal(size=(30, 4))
            c = np.corrcoef(a, rowvar=False)
            assert np.all(capped_corr_weights(c) > 0)


class TestInverseCorrWeights:
    def test_identity(self):
        assert np.allclose(inverse_corr_weights(np.eye(3)), 1.0)

    def test_two_by_two_hand_inverse(self):
        c = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert np.allclose(inverse_corr_weights(c), [1 / 1.5, 1 / 1.5])

    def test_strong_negative_correlation(self):
        c = np.array([[1.0, -0.9], [-0.9, 1.0]])
        assert np.allclose(inverse_corr_weights(c), [10.0, 10.0])

    def test_singular_matrix_raises_with_condition(self):
        c = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(InputError, match="condition"):
            inverse_corr_weights(c)


class TestCompositeScore:
    def test_single_measure_reduction(self):
        for w in (0.2, 1.0, 7.0):
            assert composite_score([1.7], [w], np.eye(1)) == pytest.approx(1.7)

    def test_two_independent_measures(self):
        val = composite_score([1.0, 2.0], [1.0, 1.0], np.eye(2))
        assert val == pytest.approx(3 / math.sqrt(2), abs=1e-5)
        assert val == pytest.approx(2.12132, abs=1e-5)

    def test_perfectly_correlated(self):
        c = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert composite_score([2.0, 2.0], [0.5, 0.5], c) == pytest.approx(2.0)

    def test_nonpositive_quadratic_form(self):
        c = np.array([[1.0, -1.0], [-1.0, 1.0]])
        with pytest.raises(InputError):
            composite_score([1.0, 1.0], [1.0, 1.0], c)

    def test_null_preservation(self):
        # independent standard normal scores: composite variance ~ 1
        rng = np.random.default_rng(12)
        mat = rng.normal(size=(5000, 4))
        c = correlation_matrix(mat)
        w = capped_corr_weights(c)
        scores = [composite_score(row, w, c) for row in mat]
        assert float(np.var(scores, ddof=1)) == pytest.approx(1.0, abs=0.1)

    def test_block_matches_rows_bit_for_bit(self):
        rng = np.random.default_rng(14)
        mat = rng.normal(size=(300, 4))
        c = correlation_matrix(mat)
        w = capped_corr_weights(c)
        block = composite_score(mat, w, c)
        assert block.tolist() == [composite_score(row, w, c) for row in mat]

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(13)
        mat = rng.normal(size=(60, 4))
        c = correlation_matrix(mat)
        w = capped_corr_weights(c)
        z = mat[7]
        perm = np.array([2, 0, 3, 1])
        c_p = c[np.ix_(perm, perm)]
        assert np.allclose(capped_corr_weights(c_p), w[perm])
        assert composite_score(z[perm], w[perm], c_p) == pytest.approx(
            composite_score(z, w, c))


class TestFlag:
    def test_paper_thresholds(self):
        assert flag(-2.5) == "poor"
        assert flag(0.0) == "average"
        assert flag(2.5) == "good"

    def test_boundaries_are_average(self):
        assert flag(-1.96) == "average"
        assert flag(1.96) == "average"

    def test_monotone_in_score(self):
        order = {"poor": 0, "average": 1, "good": 2}
        grid = np.linspace(-4, 4, 101)
        labels = [order[flag(float(v))] for v in grid]
        assert all(a <= b for a, b in zip(labels, labels[1:]))

    def test_custom_thresholds(self):
        cfg = CompositeConfig(flag_lower=-1.0, flag_upper=3.0)
        assert flag(-1.5, cfg) == "poor"
        assert flag(2.5, cfg) == "average"

    @pytest.mark.parametrize("cfg", [None, CompositeConfig(flag_lower=-1.0, flag_upper=3.0)])
    def test_array_matches_scalar(self, cfg):
        lo, hi = (-1.96, 1.96) if cfg is None else (-1.0, 3.0)
        z = np.concatenate([np.linspace(-4, 4, 97), [-1.96, 1.96, -1.0, 3.0],
                            np.nextafter([lo, lo, hi, hi], [-5, 5, -5, 5]),
                            [np.nan, -np.inf, np.inf]])
        scalar = [flag(float(v), cfg) for v in z]
        assert all(type(label) is str for label in scalar)
        # the rule as written before flag took arrays
        assert scalar == ["poor" if v < lo else "good" if v > hi else "average"
                          for v in z.tolist()]
        assert flag(z, cfg).tolist() == scalar


class TestCompositeConfig:
    @pytest.mark.parametrize("scheme", ["user_supplied", "", "CAPPED_CORR_RECIPROCAL"])
    def test_unknown_weight_scheme(self, scheme):
        with pytest.raises(InputError, match="expected one of \\('capped_corr_reciprocal', "
                                             "'inverse_corr_sum'\\)"):
            CompositeConfig(weight_scheme=scheme)

    def test_flag_thresholds_must_be_ordered(self):
        with pytest.raises(InputError, match="flag_lower must be below flag_upper"):
            CompositeConfig(flag_lower=1.0, flag_upper=1.0)


class TestCompositeTable:
    def test_full_table(self):
        rng = np.random.default_rng(21)
        mat = rng.normal(size=(50, 3))
        ids = [f"C{i}" for i in range(50)]
        results, skipped = composite_table(ids, mat, ["A", "B", "C"])
        assert not skipped
        assert len(results) == 50
        assert not any(r.partial for r in results)

    def test_partial_and_skipped_centers(self):
        rng = np.random.default_rng(22)
        mat = rng.normal(size=(40, 3))
        mat[0, 2] = np.nan          # partial: two measures left
        mat[1, 1:] = np.nan         # skipped: single measure left
        ids = [f"C{i}" for i in range(40)]
        results, skipped = composite_table(ids, mat, ["A", "B", "C"])
        assert skipped == ["C1"]
        by_id = {r.center_id: r for r in results}
        assert by_id["C0"].partial
        assert by_id["C0"].measures_used == ("A", "B")
        assert not by_id["C2"].partial

    def test_single_measure_skips_centers_without_a_score(self):
        z = np.random.default_rng(27).normal(size=12)
        z[4] = np.nan
        results, skipped = composite_table([f"C{i}" for i in range(12)], z[:, None], ["A"])
        assert skipped == ["C4"]
        assert results.z_cs.tolist() == np.delete(z, 4).tolist()
        assert not results.partial.any()

    def test_validates_correlations_once_per_table(self, monkeypatch):
        calls = []
        real = composite_module._validate_corr
        monkeypatch.setattr(composite_module, "_validate_corr",
                            lambda c: calls.append(1) or real(c))
        rng = np.random.default_rng(24)
        mat = rng.normal(size=(60, 3))
        mat[:5, 0] = np.nan
        mat[5:9, 2] = np.nan
        results, _ = composite_table([f"C{i}" for i in range(60)], mat,
                                     ["A", "B", "C"])
        assert len(calls) == 1
        c = correlation_matrix(mat)
        w = capped_corr_weights(c)
        for i in (0, 6, 20):
            idx = np.flatnonzero(np.isfinite(mat[i]))
            assert results[i].z_cs == composite_score(mat[i, idx], w[idx],
                                                      c[np.ix_(idx, idx)])

    @pytest.mark.parametrize("scheme,weights", [
        ("capped_corr_reciprocal", capped_corr_weights),
        ("inverse_corr_sum", inverse_corr_weights),
    ])
    def test_each_scheme_weights_the_table(self, scheme, weights):
        rng = np.random.default_rng(23)
        mat = rng.normal(size=(30, 3))
        mat[:, 2] += mat[:, 0]
        results, _ = composite_table([f"C{i}" for i in range(30)], mat,
                                     ["A", "B", "C"], CompositeConfig(weight_scheme=scheme))
        corr = correlation_matrix(mat)
        w = weights(corr)
        assert results[0].weights == tuple(w.tolist())
        assert results.z_cs.tolist() == composite_score(mat, w, corr).tolist()

    def test_ids_stay_distinct_through_the_report(self, tmp_path):
        # a numpy unicode id column would drop the NUL of "a\0" and merge
        # the first two ids
        ids = ["a", "a\x00", "x,y", '"q"'] + [f"C{i}" for i in range(16)]
        mat = np.random.default_rng(25).normal(size=(20, 2))
        scored, skipped = composite_table(ids, mat, ["A", "B"])
        assert scored.center_id.tolist() == ids and not skipped
        path = write_composite_report(scored, tmp_path / "composite.csv")
        lines = path.read_text(encoding="utf-8").split("\n")
        # the id cell as the CSV quoting writes it; z_cs, label and partial
        # hold no commas
        assert [line.rsplit(",", 3)[0] for line in lines[1:5]] \
            == ["a", "a\x00", '"x,y"', '"""q"""']

    @pytest.mark.parametrize("k", [3, 62, 63, 70])
    def test_missingness_patterns_match_each_row(self, k):
        # below 63 measures a row's pattern is one integer code; from 63 on
        # the rows themselves are compared
        rng = np.random.default_rng(28)
        mat = rng.normal(size=(200, k))
        mat[rng.random(mat.shape) < 0.1] = np.nan
        mat[:3, 1:] = np.nan
        mat[3] = mat[4] = np.where(np.arange(k) % 2, np.nan, mat[3])
        # rows 5 and 6 differ in the last measure alone: the highest bit
        mat[5:7] = rng.normal(size=(2, k))
        mat[5, -1] = np.nan
        ids, names = [f"C{i}" for i in range(200)], [f"M{j}" for j in range(k)]
        scored, skipped = composite_table(ids, mat, names)
        c = correlation_matrix(mat)
        w = capped_corr_weights(c)
        kept = np.isfinite(mat).sum(axis=1) >= 2
        assert skipped == [i for i, keep in zip(ids, kept) if not keep]
        assert scored.center_id.tolist() == [i for i, keep in zip(ids, kept) if keep]
        for r, row in zip(scored, mat[kept]):
            idx = np.flatnonzero(np.isfinite(row))
            assert r.z_cs == composite_score(row[idx], w[idx], c[np.ix_(idx, idx)])
            assert r.measures_used == tuple(names[j] for j in idx)
            assert r.partial == (len(idx) < k)

    def test_columns_match_records(self):
        rng = np.random.default_rng(26)
        mat = 3.0 * rng.normal(size=(40, 3))
        mat[0, 2] = mat[1, 1:] = mat[2, 0] = np.nan
        scored, skipped = composite_table([f"C{i}" for i in range(40)], mat,
                                          ["A", "B", "C"])
        assert skipped == ["C1"]
        assert scored.dtype.names == ("center_id", "z_cs", "label", "partial",
                                      "weights", "measures_used")
        assert set(scored.label) == {"poor", "average", "good"}
        for name in scored.dtype.names:
            assert getattr(scored, name).tolist() == [getattr(r, name) for r in scored]
