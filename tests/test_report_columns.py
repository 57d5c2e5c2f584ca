"""The report path works by column: the CSV reader parses whole columns,
``fmt6`` formats whole arrays and the funnel SVG computes its coordinates as
arrays. Each is checked here against a per-value reference: the per-row
parse, the scalar ``fmt6`` and the per-point SVG formula."""

import csv
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from profile_null.empirical_null import NullFit, control_limits
from profile_null.errors import InputError
from profile_null.measures import measure_ratio
from profile_null.report import (
    emit_funnel,
    fmt6,
    read_center_stats,
    read_measure_config,
    standardize,
    write_scores_report,
)
from profile_null.svg import _H, _MB, _ML, _MR, _MT, _W, funnel_svg

FIXTURES = Path(__file__).parent / "fixtures"
HEADER = ["center_id", "measure_id", "observed", "expected", "effective_size"]
MAX = sys.float_info.max


@pytest.fixture(scope="module")
def measures():
    return read_measure_config(FIXTURES / "measures.json")


def _write_rows(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _read_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# fmt6 on arrays

_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-300,
            5e-7, -5e-7, -4.999999999999999e-7, -1e-6, 1e60, -1e60, MAX, -MAX,
            0.0078125, -0.0078125, 2.5e-06, -1.5e-06]
_VALUES = (st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from(_SPECIAL)
           # exact 7th-decimal ties: odd multiples of 1/128
           | st.integers(-2**40, 2**40).map(lambda k: (2 * k + 1) / 128)
           # the values that could print "-0.000000"
           | st.floats(-1e-6, 0.0))


class TestFmt6Array:
    @given(st.lists(_VALUES, max_size=40))
    @example(_SPECIAL)
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar(self, values):
        cells = fmt6(np.array(values, dtype=np.float64))
        assert isinstance(cells, list)
        assert cells == [fmt6(x) for x in values]

    def test_scalar_stays_a_string(self):
        assert fmt6(np.float64(1.25)) == "1.250000"
        assert fmt6(-0.0) == "0.000000"

    @pytest.mark.parametrize("bad,shown", [(float("nan"), "nan"),
                                           (float("inf"), "inf"),
                                           (float("-inf"), "-inf")])
    def test_non_finite_inside_an_array_raises(self, bad, shown):
        with pytest.raises(InputError, match=f"cannot format non-finite value {shown}$"):
            fmt6(np.array([1.0, bad, 2.0]))

    def test_empty(self):
        assert fmt6(np.array([])) == []


# ---------------------------------------------------------------------------
# the bulk reader against a per-row parse


def _reference_parse(path, measures):
    """Row by row, as the reader parsed before it worked by column: the
    columns of the non-blank records and their record numbers."""
    family = {m.measure_id: m.family for m in measures}
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    parsed = []
    for line, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        center_id, measure_id, obs, exp, size = (f.strip() for f in row)
        if size == "":
            assert family.get(measure_id, "poisson") == "poisson"
            size = exp
        parsed.append((center_id, measure_id, float(obs), float(exp), float(size), line))
    return [list(col) for col in zip(*parsed)]


_IDS = st.sampled_from(["C1", " C2 ", '"C,3"', "C\n4", "C\r\n5", "é", "B", "a,b"])
_NUMBER = st.floats(0.5, 1e6).map(lambda x: f"{x:.6f}")


@st.composite
def _centers_file(draw):
    """Records with blank lines, padded fields, quoted ids holding commas
    and line breaks, and poisson (blank or explicit) and binomial sizes."""
    pairs = draw(st.lists(st.tuples(_IDS, st.sampled_from(["TRR", "SAR", " PSMR"])),
                          min_size=1, max_size=12,
                          unique_by=lambda p: (p[0].strip(), p[1].strip())))
    rows = [HEADER]
    for center, measure in pairs:
        for _ in range(draw(st.integers(0, 2))):
            rows.append([])
        observed, expected = draw(_NUMBER), draw(_NUMBER)
        if measure == "SAR":
            size = f" {float(expected) / 2:.6f} "
        else:
            size = draw(st.sampled_from(["", "  ", expected]))
        rows.append([center, measure, f" {observed}", expected, size])
    return rows


class TestBulkReader:
    @given(rows=_centers_file())
    @settings(max_examples=80, deadline=None)
    def test_matches_per_row_parse(self, measures, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("reader") / "centers.csv"
        _write_rows(path, rows)
        ids, mids, observed, expected, size, lines = _reference_parse(path, measures)
        table = read_center_stats(path, measures)
        assert [table.row_ids(i) for i in range(len(table))] == list(zip(ids, mids))
        for got, want in ((table.observed, observed), (table.expected, expected),
                          (table.size, size)):
            assert got.tolist() == want
        # a duplicate of the last record is reported at its own record number
        _write_rows(path, rows + [[]] + [rows[-1]])
        with pytest.raises(InputError, match=rf"^row {lines[-1] + 2} "):
            read_center_stats(path, measures)

    def test_first_bad_row_is_named_after_quoted_line_breaks(self, measures, tmp_path):
        path = tmp_path / "c.csv"
        _write_rows(path, [HEADER, ["A\nB", "TRR", 5, 4, ""], [],
                           ["C", "TRR", 5, 4, ""], ["D", "TRR", "x", 4, ""],
                           ["E", "SAR", 5, 4, ""]])
        with pytest.raises(InputError, match=r"^row 5: column 'observed' is not numeric"):
            read_center_stats(path, measures)


# ---------------------------------------------------------------------------
# writers at 1,500 centers x 4 measures


def _registry(path, n_centers, seed=11):
    rng = np.random.default_rng(seed)
    rows = [HEADER]
    volume = rng.lognormal(4.0, 0.8, n_centers)
    for i in range(n_centers):
        for measure, scale in (("TRR", 1.0), ("PSMR", 0.06), ("GSMR", 0.09)):
            e = scale * volume[i] * rng.uniform(0.8, 1.25)
            o = rng.poisson(e * np.exp(rng.normal(0, 0.3)))
            rows.append([f"C{i:05d}", measure, f"{o:.6f}", f"{e:.6f}", ""])
        offers = max(8, int(volume[i] * 2))
        p0 = rng.uniform(0.35, 0.6)
        o = rng.binomial(offers, p0)
        rows.append([f"C{i:05d}", "SAR", f"{o:.6f}", f"{offers * p0:.6f}",
                     f"{offers * p0 * (1 - p0):.6f}"])
    _write_rows(path, rows)


class TestWritersAtScale:
    def test_every_cell_is_the_scalar_fmt6(self, measures, tmp_path, monkeypatch):
        # one worker keeps the four fits in this process
        monkeypatch.setenv("PROFILE_NULL_THREADS", "1")
        _registry(tmp_path / "centers.csv", 1500)
        table = read_center_stats(tmp_path / "centers.csv", measures)
        assert len(table) == 6000
        run = standardize(table, method="en")
        write_scores_report(run, tmp_path)
        scores = _read_rows(tmp_path / "scores.csv")
        assert scores[0] == ["center_id", "measure_id", "z_fe", "z_en", "z_mom"]
        assert len(scores) == 6001
        for i, row in enumerate(scores[1:]):
            assert row == [*table.row_ids(i), fmt6(run.z_fe[i]), fmt6(run.z_en[i]), ""]

        for spec in measures:
            fit = run.null_fits[spec.measure_id]
            emit_funnel(table, spec, fit, [1.96], tmp_path)
            k = [m.measure_id for m in measures].index(spec.measure_id)
            rows = sorted(np.flatnonzero(table.measure == k).tolist(),
                          key=lambda i: (table.size[i], table.row_ids(i)[0]))
            e, n = table.expected[rows], table.size[rows]
            cols = [n, measure_ratio(table.observed[rows], e),
                    *control_limits(0.0, e, n, spec.a_psi, 1.96),
                    *control_limits(fit.phi_hat, e, n, spec.a_psi, 1.96)]
            produced = _read_rows(tmp_path / f"funnel_{spec.measure_id}.csv")[1:]
            assert produced == [[fmt6(v) for v in row] for row in zip(*cols)]


# ---------------------------------------------------------------------------
# SVG coordinates against the per-point formula


def _reference_points(sizes, ratios, *limits):
    """Each polyline's and circle's points as the per-point f-strings with
    Python-float coordinates computed them."""
    sizes = [float(v) for v in sizes]
    all_y = [float(v) for col in (ratios, *limits) for v in col] + [1.0]
    x_lo, x_hi = 0.0, max(sizes) * 1.05
    y_lo, y_hi = min(all_y), max(all_y)
    pad = 0.05 * (y_hi - y_lo or 1.0)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(v: float) -> float:
        return _ML + (v - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def sy(v: float) -> float:
        return _H - _MB - (v - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    lines = [" ".join(f"{sx(x):.2f},{sy(float(y)):.2f}" for x, y in zip(sizes, ys))
             for ys in limits]
    circles = [(f"{sx(x):.2f}", f"{sy(float(y)):.2f}") for x, y in zip(sizes, ratios)]
    return lines, circles


class TestSvgPoints:
    @given(st.lists(st.tuples(st.floats(1e-3, 1e7), st.floats(-1e3, 1e3),
                              st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)),
                    min_size=1, max_size=30))
    # x coordinates within an ulp of a 2-decimal tie, where another order of
    # the same operations prints a different digit
    @example([(1.4773828125000006, 1.0, 0.5, 0.6), (1.6414453125000006, 1.1, 0.4, 0.5),
              (2.1336328125000006, 0.9, 0.3, 0.4), (100.0, 1.0, 0.1, 0.2)])
    @settings(max_examples=100, deadline=None)
    def test_points_match_the_per_point_formula(self, data):
        data.sort()
        sizes, ratios, h_fe, h_en = (np.array(c) for c in zip(*data))
        limits = (1.0 - h_fe, 1.0 + h_fe, 1.0 - h_en, 1.0 + h_en)
        svg = funnel_svg("t", sizes, ratios, *limits)
        lines, circles = _reference_points(sizes, ratios, *limits)
        assert re.findall(r'points="([^"]*)"', svg) == lines
        assert re.findall(r'<circle cx="([^"]*)" cy="([^"]*)"', svg) == circles


# ---------------------------------------------------------------------------
# funnel row order


def test_equal_sizes_come_out_in_id_order(measures, tmp_path):
    # codepoints: "B" < "a" < "é"; each id has its own ratio to tell it by
    path = tmp_path / "c.csv"
    _write_rows(path, [HEADER, ["é", "TRR", 30, 20, ""], ["a", "TRR", 20, 20, ""],
                       ["Z", "TRR", 5, 10, ""], ["B", "TRR", 10, 20, ""],
                       ["0", "TRR", 90, 30, ""]])
    table = read_center_stats(path, measures)
    fit = NullFit(measure_id="TRR", phi_hat=0.01, pi0_hat=1.0, phi_init=0.0,
                  v=1.645, interval_bounds=np.zeros((1, 2)),
                  null_set=np.ones(1, bool), loglik=0.0, sigma2_alpha_hat=0.0)
    csv_path = emit_funnel(table, measures[0], fit, [1.96], tmp_path)[0]
    rows = _read_rows(csv_path)[1:]
    assert [(r[0], r[1]) for r in rows] == [
        ("10.000000", "0.500000"),   # Z
        ("20.000000", "0.500000"),   # B
        ("20.000000", "1.000000"),   # a
        ("20.000000", "1.500000"),   # é
        ("30.000000", "3.000000"),   # 0
    ]
