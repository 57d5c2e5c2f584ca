"""The report path works by column: the CSV reader parses whole columns,
``fmt6`` formats whole arrays, and each output file's text is built from
columns of cells and joined once. Ids are quoted once per distinct id, and
the funnel SVG turns each pixel column into 2-decimal cells by integer
rounding, sending only near-ties, values with the sign bit set and values
beyond its table through ``format``. Each is checked here against a
per-value reference: the per-row parse, the scalar ``fmt6``, ``csv.writer``
and ``csv.reader``, ``format(x, ".2f")`` and the per-point SVG formula."""

import csv
import io
import json
import math
import re
import shutil
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from profile_null.cli import main
from profile_null.empirical_null import control_limits
from profile_null.errors import InputError
from profile_null.measures import measure_ratio
from profile_null.report import (
    _quoted,
    emit_funnel,
    fmt6,
    read_center_stats,
    read_measure_config,
    standardize,
    write_scores_report,
)
from profile_null.svg import _H, _MB, _ML, _MR, _MT, _W, _cells, _ticks, funnel_svg

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


def _ulps(x: float, u: int) -> float:
    """The float ``u`` steps of one ulp from ``x``."""
    for _ in range(abs(u)):
        x = math.nextafter(x, math.copysign(math.inf, u))
    return x


def _around(x: float, u: int) -> list[float]:
    """``x`` and the floats up to ``u`` ulp on either side of it."""
    return [_ulps(x, k) for k in range(-u, u + 1)]


# within a few ulp of a 7th-decimal tie, up to 1e6 in magnitude
_NEAR_TIES = st.builds(lambda k, u, sign: sign * _ulps((k + 0.5) / 1e6, u),
                       st.integers(0, 10**12), st.integers(-6, 6).filter(bool),
                       st.sampled_from([1.0, -1.0]))
# where rounding carries into a new integer digit: 0.9999995, 9.9999995, ...,
# 999999.9999995
_CARRY_EDGES = [v for e in range(7) for v in _around(10**e - 5e-7, 20)]


def _assert_matches_scalar(values) -> None:
    cells = fmt6(np.array(values, dtype=np.float64))
    assert isinstance(cells, list)
    assert cells == [fmt6(x) for x in values]


class TestFmt6Array:
    @given(st.lists(_VALUES, max_size=40))
    @example(_SPECIAL)
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar(self, values):
        _assert_matches_scalar(values)

    @given(st.lists(_NEAR_TIES, min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_near_ties_match_scalar(self, values):
        _assert_matches_scalar(values)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_carry_edges_match_scalar(self, sign):
        # every float of [999999.9999995, 1e6), which rounds to 1000000.000000
        bits = np.arange(*np.array([999999.9999995, 1e6]).view(np.int64))
        values = _CARRY_EDGES + bits.view(np.float64).tolist()
        _assert_matches_scalar([sign * v for v in values])

    def test_a_long_array_matches_scalar(self):
        rng = np.random.default_rng(30)
        values = rng.standard_normal(100_000) * 10.0 ** rng.integers(-8, 8, 100_000)
        _assert_matches_scalar(values.tolist())

    def test_products_beyond_the_float_range(self):
        # |x| * 1e6 would overflow; numpy warnings are errors here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _assert_matches_scalar([1e303, -1e303, MAX, -MAX, 1.0, -0.5])

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
    columns of the non-blank records and their record numbers. Raises the
    reader's InputError where ``csv.reader`` fails, as on a NUL before
    Python 3.11."""
    family = {m.measure_id: m.family for m in measures}
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except csv.Error as exc:
        raise InputError(f"centers file {path} is not a UTF-8 CSV file: {exc}") from None
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


# ids that csv.reader splits at commas and line feeds alone, and others
_PLAIN_IDS = ["C1", " C2 ", "é", "B", "\tC6"]
_IDS = _PLAIN_IDS + ['"C,3"', "C\n4", "C\r\n5", "a,b", "C\r7", "N\x00"]
_NUMBER = st.floats(0.5, 1e6).map(lambda x: f"{x:.6f}")


def _cell(field, quote):
    return '"' + field.replace('"', '""') + '"' if quote or re.search('[,"\r\n]', field) else field


@st.composite
def _centers_file(draw):
    """The lines of a centers file, its line ending and whether its last
    line ends in one. Records come with blank lines before them, padded
    fields and poisson (blank or explicit) and binomial sizes, and LF,
    CRLF or lone-CR line endings. Half of the files quote nothing; the
    others draw quoted ids, which may hold commas, quotes, line breaks
    and NUL."""
    plain = draw(st.booleans())
    ids = st.sampled_from(_PLAIN_IDS if plain else _IDS)
    pairs = draw(st.lists(st.tuples(ids, st.sampled_from(["TRR", "SAR", " PSMR"])),
                          min_size=1, max_size=12,
                          unique_by=lambda p: (p[0].strip(), p[1].strip())))
    quote = st.just(False) if plain else st.booleans()
    lines = [",".join(HEADER)]
    for center, measure in pairs:
        lines += [""] * draw(st.integers(0, 2))
        observed, expected = draw(_NUMBER), draw(_NUMBER)
        if measure == "SAR":
            size = f" {float(expected) / 2:.6f} "
        else:
            size = draw(st.sampled_from(["", "  ", expected]))
        lines.append(",".join([_cell(center, draw(quote)), measure, f" {observed}",
                               expected, size]))
    return lines, draw(st.sampled_from(["\n", "\r\n", "\r"])), draw(st.booleans())


def _write_text(path, lines, eol, last_eol):
    path.write_bytes((eol.join(lines) + (eol if last_eol else "")).encode("utf-8"))


def _table_columns(table):
    return [[table.center_ids[c] for c in table.center],
            [table.measures[k].measure_id for k in table.measure],
            table.observed.tolist(), table.expected.tolist(), table.size.tolist()]


class TestBulkReader:
    @given(text=_centers_file())
    @settings(max_examples=200, deadline=None)
    def test_matches_per_row_parse(self, measures, tmp_path_factory, text):
        lines, eol, last_eol = text
        path = tmp_path_factory.mktemp("reader") / "centers.csv"
        _write_text(path, lines, eol, last_eol)
        try:
            *want, records = _reference_parse(path, measures)
        except InputError as exc:
            with pytest.raises(InputError) as got:
                read_center_stats(path, measures)
            assert str(got.value) == str(exc)
            return
        assert _table_columns(read_center_stats(path, measures)) == want
        # a duplicate of the last record is reported at its own record number
        _write_text(path, lines + ["", lines[-1]], eol, last_eol)
        with pytest.raises(InputError, match=rf"^row {records[-1] + 2} "):
            read_center_stats(path, measures)

    def test_first_bad_row_is_named_after_quoted_line_breaks(self, measures, tmp_path):
        path = tmp_path / "c.csv"
        _write_rows(path, [HEADER, ["A\nB", "TRR", 5, 4, ""], [],
                           ["C", "TRR", 5, 4, ""], ["D", "TRR", "x", 4, ""],
                           ["E", "SAR", 5, 4, ""]])
        with pytest.raises(InputError, match=r"^row 5: column 'observed' is not numeric"):
            read_center_stats(path, measures)

    def test_field_counts_are_checked_record_by_record(self, measures, tmp_path):
        # 4 fields and then 6: split at every comma, the 10 fields would
        # make two valid records
        path = tmp_path / "c.csv"
        _write_text(path, [",".join(HEADER), "A,TRR,5,4", "4,B,TRR,5,4,4"], "\n", True)
        with pytest.raises(InputError, match=r"^row 2: expected 5 fields, got 4$"):
            read_center_stats(path, measures)

    def test_only_text_with_quotes_goes_through_csv_reader(self, measures, tmp_path,
                                                          monkeypatch):
        lines = [",".join(HEADER), "A,TRR,5,4,", "", "B, SAR ,5,4,2"]
        _write_text(tmp_path / "plain.csv", lines, "\n", True)
        _write_text(tmp_path / "quoted.csv", [*lines[:3], '"B", SAR ,5,4,2'], "\n", True)
        real = csv.reader

        def unused(*args, **kwargs):
            raise AssertionError("csv.reader called on an unquoted file")

        monkeypatch.setattr(csv, "reader", unused)
        plain = _table_columns(read_center_stats(tmp_path / "plain.csv", measures))
        assert plain == [["A", "B"], ["TRR", "SAR"], [5.0, 5.0], [4.0, 4.0], [4.0, 2.0]]
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(csv, "reader", counted)
        assert _table_columns(read_center_stats(tmp_path / "quoted.csv", measures)) == plain
        assert len(calls) == 1

    def test_field_beyond_a_lowered_size_limit(self, measures, tmp_path):
        # a line as long as the limit goes through csv.reader, which takes a
        # field of exactly the limit and rejects a longer one
        limit = csv.field_size_limit(40)
        try:
            for n, error in ((40, None), (41, "field larger than field limit (40)")):
                path = tmp_path / f"c{n}.csv"
                _write_text(path, [",".join(HEADER), "A,TRR,5,4,", "B" * n + ",TRR,5,4,"],
                            "\n", True)
                if error is None:
                    assert read_center_stats(path, measures).center_ids == ("A", "B" * n)
                else:
                    with pytest.raises(InputError, match=re.escape(
                            f"centers file {path} is not a UTF-8 CSV file: {error}")):
                        read_center_stats(path, measures)
        finally:
            csv.field_size_limit(limit)


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
    def test_every_cell_is_the_scalar_fmt6(self, measures, tmp_path):
        _registry(tmp_path / "centers.csv", 1500)
        table = read_center_stats(tmp_path / "centers.csv", measures)
        assert len(table) == 6000
        run = standardize(table, method="en")
        write_scores_report(run, tmp_path)
        scores = _read_rows(tmp_path / "scores.csv")
        assert scores[0] == ["center_id", "measure_id", "z_fe", "z_en", "z_mom"]
        assert len(scores) == 6001
        for i, row in enumerate(scores[1:]):
            assert row == [*table.row_ids(i), fmt6(run.z_fe[i]), fmt6(run.z[i]), ""]

        for spec in measures:
            fit = run.null_fits[spec.measure_id]
            emit_funnel(table, spec, fit.phi_hat, [1.96], tmp_path)
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
    # y coordinates within an ulp of a 2-decimal tie: with the limits spanning
    # 0.4 to 1.6, these ratios land at 250.12500000000003, 123.45499999999998,
    # 98.76499999999999, 300.00499999999994 and 300.005
    @example([(1.0, 1.0, 0.5, 0.6), (2.0, 1.1, 0.4, 0.5), (3.0, 0.9, 0.3, 0.4),
              (1.2, 0.9462499999999999, 0.2, 0.3), (1.4, 1.3684833333333335, 0.2, 0.3),
              (1.6, 1.4507833333333335, 0.2, 0.3), (1.8, 0.7799833333333336, 0.2, 0.3),
              (2.2, 0.7799833333333333, 0.2, 0.3)])
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
    csv_path = emit_funnel(table, measures[0], 0.01, [1.96], tmp_path)[0]
    rows = _read_rows(csv_path)[1:]
    assert [(r[0], r[1]) for r in rows] == [
        ("10.000000", "0.500000"),   # Z
        ("20.000000", "0.500000"),   # B
        ("20.000000", "1.000000"),   # a
        ("20.000000", "1.500000"),   # é
        ("30.000000", "3.000000"),   # 0
    ]


# ---------------------------------------------------------------------------
# SVG pixel cells against format(x, ".2f")


def _near_tie(k: int, ulps: int) -> float:
    """The float ``ulps`` steps away from the one nearest (k + 0.5) / 100."""
    x = (k + 0.5) / 100
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, np.inf if ulps > 0 else -np.inf))
    return x


# the table holds 0.00 to 720.99; 0.125 and 250.125 are exact ties
_ALL_FALLBACK = [-0.0, -1e-300, -0.004, -0.005, -3.25, 0.125, 250.125,
                 720.995, 721.0, 1e6, 1e300]
_PIXELS = (st.floats(0.0, 800.0)
           | st.builds(_near_tie, st.integers(0, 72_200), st.integers(-4, 4))
           | st.floats(-1.0, 0.0)
           | st.floats(720.0, 1e300)
           | st.sampled_from(_ALL_FALLBACK))


def test_ticks_on_a_range_a_few_ulp_wide():
    # the tick step is below half an ulp of 1, so adding it never moves t
    ticks = _ticks(1.0, 1.0 + 2**-52)
    assert ticks and all(1.0 <= t <= 1.0 + 2**-52 for t in ticks)


class TestPixelCells:
    @given(st.lists(_PIXELS, max_size=60))
    @example([_near_tie(k, u) for k in (0, 12_345, 25_012, 72_098, 72_099)
              for u in range(-3, 4)])
    @settings(max_examples=300, deadline=None)
    def test_cells_match_format(self, values):
        cells = _cells(np.array(values, dtype=np.float64))
        assert cells.tolist() == [format(v, ".2f") for v in values]

    def test_a_column_of_fallbacks(self):
        # every value here is a tie, has its sign bit set or is beyond the table
        cells = _cells(np.array(_ALL_FALLBACK))
        assert cells.tolist() == [format(v, ".2f") for v in _ALL_FALLBACK]
        assert cells.tolist()[:2] == ["-0.00", "-0.00"]

    def test_empty(self):
        assert _cells(np.array([])).tolist() == []


# ---------------------------------------------------------------------------
# CSV quoting against csv.writer, and ids read back from every report

_ID_PIECES = st.sampled_from([",", '"', "\r", "\n", "\r\n", "\x00", " ", "\x1c", "a", "é"])
_ODD_TEXT = st.lists(_ID_PIECES, max_size=8).map("".join) | st.text()

# ids holding commas, quotes and line breaks, and characters written as
# they are; csv reads and writes a NUL only from Python 3.11 on
_ODD_IDS = ["a,b", '"q"', 'x"y', "a\rb", "a\nb", "a\r\nb", "a b", "a\x1cb", "é"]
if sys.version_info >= (3, 11):
    _ODD_IDS.append("a\x00b")


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="csv.writer cannot write a NUL before Python 3.11")
@given(st.lists(_ODD_TEXT, max_size=10))
@example(["", ",", '"', "\r", "\n", "\r\n", "\x00", " ", "\x1c"])
@settings(max_examples=300, deadline=None)
def test_quoting_matches_csv_writer(ids):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(["0.000000", *ids])
    assert buf.getvalue() == ",".join(["0.000000", *_quoted(ids)]) + "\r\n"


def _renamed_fixture(directory: Path, measure_ids: dict, center_ids: dict) -> list[str]:
    """The fixture inputs with some measures and centers renamed, written to
    ``directory``; returns their CLI arguments, with ``out`` as the output."""
    specs = json.loads((FIXTURES / "measures.json").read_text(encoding="utf-8"))
    for spec in specs:
        spec["measure_id"] = measure_ids.get(spec["measure_id"], spec["measure_id"])
    (directory / "measures.json").write_text(json.dumps(specs), encoding="utf-8")
    header, *rows = _read_rows(FIXTURES / "centers.csv")
    _write_rows(directory / "centers.csv",
                [header, *([center_ids.get(c, c), measure_ids.get(m, m), *rest]
                           for c, m, *rest in rows)])
    return ["--centers", str(directory / "centers.csv"),
            "--measures", str(directory / "measures.json"), "--out", str(directory / "out")]


def test_ids_read_back_from_every_report(tmp_path):
    renamed = {"TRR": 'T,"R"', "SAR": "S\nA"}
    centers = sorted({row[0] for row in _read_rows(FIXTURES / "centers.csv")[1:]})
    args = _renamed_fixture(tmp_path, renamed, dict(zip(centers, _ODD_IDS)))
    # a poisson row with no expected count, and so no size, is skipped
    header, skipped_row, *rest = _read_rows(tmp_path / "centers.csv")
    skipped_row[3] = "0"
    _write_rows(tmp_path / "centers.csv", [header, skipped_row, *rest])
    assert main(["composite", *args]) == 0
    assert main(["diagnose", *args]) == 0
    out = tmp_path / "out"
    measures = read_measure_config(tmp_path / "measures.json")
    table = read_center_stats(tmp_path / "centers.csv", measures)
    assert set(_ODD_IDS) <= set(table.center_ids)

    scores = _read_rows(out / "scores.csv")[1:]
    assert [tuple(row[:2]) for row in scores] == list(map(table.row_ids, range(len(table))))
    assert _read_rows(out / "skipped.csv") == [["center_id", "measure_id", "reason"],
                                               [*skipped_row[:2], "effective_size <= 0"]]
    *composite, summary, _ = _read_rows(out / "composite.csv")[1:]
    assert summary[0] == "summary"
    assert sorted(row[0] for row in composite) == sorted(table.center_ids)
    diagnostics = _read_rows(out / "diagnostics.csv")[1:]
    assert [row[0] for row in diagnostics] == [m.measure_id for m in measures
                                               for _ in range(3)]


def test_funnel_svgs_parse_with_markup_in_the_measure_id(tmp_path):
    args = _renamed_fixture(tmp_path, {"TRR": "A&B<1>"}, {})
    assert main(["funnel", *args, "--alpha-z", "1.96", "--alpha-z", "3"]) == 0
    svgs = sorted((tmp_path / "out").glob("*.svg"))
    assert len(svgs) == 8
    titles = [ET.parse(p).getroot().find("{http://www.w3.org/2000/svg}text").text
              for p in svgs]
    assert "A&B<1> funnel (|Z| = 1.96)" in titles
    assert "A&B<1> funnel (|Z| = 3)" in titles
