"""File handling and report generation: CSV/JSON input schemas, score and
composite reports, funnel-plot emission, and simulation result tables.

Numeric output is pinned at 6 decimal places with half-away-from-zero
rounding so golden-file comparisons are stable across platforms.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from decimal import ROUND_HALF_UP, Context, Decimal
from itertools import compress, count
from operator import itemgetter, not_
from pathlib import Path
from typing import Sequence

import numpy as np

from .baselines import DEFAULT_WINSOR_Q, fit_method_of_moments
from .empirical_null import (FLAG_Z, EnConfig, NullFit, control_limits, fit_empirical_null,
                             z_empirical_null)
from .errors import InputError, ProfileNullError
from .measures import (
    CenterTable,
    MeasureSpec,
    group_variance_diagnostic,
    measure_ratio,
    z_fixed_effects,
)
from .simulation import (
    METHOD_KEYS,
    N_PROBES,
    SimConfig,
    SweepResult,
    TuningResult,
    run_composite_experiment,
    run_flagging_experiment,
    run_tuning_sensitivity,
)
from .svg import funnel_svg

CENTER_HEADER = ["center_id", "measure_id", "observed", "expected", "effective_size"]
SCORES_HEADER = ["center_id", "measure_id", "z_fe", "z_en", "z_mom"]
FUNNEL_HEADER = ["effective_size", "ratio", "fe_lower", "fe_upper", "en_lower", "en_upper"]

_EN_KEYS = tuple(f.name for f in fields(EnConfig))
_MEASURE_KEYS = {"measure_id", "family", "direction", "a_psi", *_EN_KEYS}
# what a measure id may not hold: path separators, as ids name output files,
# and what XML 1.0 forbids, as they go into the funnel SVG: every C0 control
# but tab, LF and CR, the surrogates, U+FFFE and U+FFFF
_BAD_ID_CHAR = re.compile(r"[/\\\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")

# SimConfig fields a simulation config may set, with their JSON types
_SIM_FIELDS = {
    "n_centers": int, "seed": int, "iterations": int,
    "mu": float, "beta": float, "covariate_mean": float,
    "covariate_second_param": float, "exposure_mean": float,
    "outlier_fraction": float, "outlier_effect": float, "mom_q": float,
    "sigma2_alpha": tuple, "gamma_grid": tuple, "q_grid": tuple,
}
_SIM_KEYS = {"experiment", "q_percent", *_SIM_FIELDS}

# the UTF-8 byte order mark spreadsheet programs write; an input file may start with one
_BOM = "\ufeff"

_JSON_KINDS = {str: "a string", int: "an integer", float: "a finite number",
               tuple: "a list of finite numbers"}


# 400 significant digits hold sys.float_info.max to 6 decimal places
_FMT6_CONTEXT = Context(prec=400)
_MICRO = Decimal("0.000001")


def _digit_rows(k: np.ndarray, width: int) -> np.ndarray:
    """The ASCII digits of each integer of ``k``, zero-padded to ``width``,
    as the rows of a uint8 matrix."""
    return (k[:, None] // 10 ** np.arange(width - 1, -1, -1) % 10 + 48).astype(np.uint8)


def _words(rows: np.ndarray) -> np.ndarray:
    """Each row of 4 ASCII bytes as one uint32, in native byte order."""
    return np.ascontiguousarray(rows, dtype=np.uint8).view(np.uint32).ravel()


# The 4-byte words of fmt6's array path, where a space is padding. A cell of
# n micro-units, i = n // 10**6 and f = n % 10**6, is four words:
# - _SIGN_HI[i // 10**4 + 100 * negative]: "\n", the sign and the two high
#   digits of i without leading zeros;
# - _LOW4[i % 10**4 + 10**4 * (i >= 10**4)]: the low 4 digits of i, without
#   leading zeros in the table's first half (0 is "0") and zero-padded in its
#   second;
# - _DOT2[f // 10**4]: "." and the first two decimals;
# - _LOW4[f % 10**4 + 10**4]: the last four decimals.
_K = np.arange(10_000)
_PAD = ord(" ")
_D2, _D4 = _digit_rows(_K[:100], 2), _digit_rows(_K, 4)
_SIGN_HI = _words(np.hstack([np.full((200, 1), ord("\n")),
                             np.repeat([[_PAD], [ord("-")]], 100, axis=0),
                             np.tile(np.where(_K[:100, None] < [10, 1], _PAD, _D2), (2, 1))]))
_LOW4 = _words(np.vstack([np.where(_K[:, None] < [1000, 100, 10, 0], _PAD, _D4), _D4]))
_DOT2 = _words(np.hstack([np.full((100, 2), [ord("."), _PAD]), _D2]))
del _K, _D2, _D4


def _fmt6_finite(x: float) -> str:
    """``fmt6`` of one finite float: its scalar path."""
    # format() rounds the exact binary value correctly, ties to even. A
    # float ends in an exact 5 at the 7th decimal only when x * 128 is an
    # odd integer, so every other x takes the fast path; a tie is at least
    # 1/128 away from zero.
    if (x * 64.0) % 1.0 != 0.5:
        s = format(x, ".6f")
        return "0.000000" if s == "-0.000000" else s
    return str(Decimal(x).quantize(_MICRO, rounding=ROUND_HALF_UP,
                                   context=_FMT6_CONTEXT))


def fmt6(x: float | np.ndarray) -> str | list[str]:
    """Fixed 6-decimal formatting with ties rounded away from zero, of one
    float, or of each value of a 1-d float array as a list of strings.

    An array is formatted from digit tables. ``p = |x| * 1e6`` is the exact
    product rounded to a float. Below 2**52 every half-integer is a float,
    and rounding is monotone, so ``p`` lies on the same side of each
    half-integer as the exact product, or on it. So where ``p`` is below
    999999999999.5 and not a half-integer, its nearest integer ``n`` is the
    correctly rounded count of micro-units, and the cell is built from
    ``n``'s digit groups; a cell whose ``n`` is 0 takes no sign. Every other
    cell (exact 7th-decimal ties, values whose product rounds onto a tie,
    and ``|x|`` from about 1e6 up) takes the scalar path."""
    if np.ndim(x) == 0:
        x = float(x)
        if not math.isfinite(x):
            raise InputError(f"cannot format non-finite value {x!r}")
        return _fmt6_finite(x)
    a = np.asarray(x, dtype=np.float64)
    finite = np.isfinite(a)
    if not finite.all():
        raise InputError(f"cannot format non-finite value {a[~finite][0].item()!r}")
    # |x| is clamped before the product, which then never overflows; a
    # clamped value is no fast cell
    p = np.minimum(np.abs(a), 1e6) * 1e6
    n = np.rint(p)
    fast = (p < 999999999999.5) & (np.abs(p - n) != 0.5)
    k = (n * fast).astype(np.int64)  # 0 in the cells the scalar path overwrites
    i, f = np.divmod(k, 1_000_000)
    hi, lo = np.divmod(i, 10_000)
    words = np.empty((a.size, 4), dtype=np.uint32)
    words[:, 0] = _SIGN_HI[hi + 100 * (np.signbit(a) & (k > 0))]
    words[:, 1] = _LOW4[lo + 10_000 * (hi > 0)]
    f_hi, f_lo = np.divmod(f, 10_000)
    words[:, 2] = _DOT2[f_hi]
    words[:, 3] = _LOW4[f_lo + 10_000]
    cells = words.tobytes().translate(None, b" ").decode("ascii").split("\n")
    del cells[0]
    slow = np.flatnonzero(~fast)
    for j, v in zip(slow.tolist(), a[slow].tolist()):
        cells[j] = _fmt6_finite(v)
    return cells


def _fmt6_or_blank(x: np.ndarray) -> list[str]:
    """``fmt6`` of each value of a float array, with "" for NaN."""
    a = np.asarray(x, dtype=np.float64)
    blank = np.isnan(a)
    if blank.all():
        return [""] * a.size
    cells = fmt6(np.where(blank, 0.0, a))
    for i in np.flatnonzero(blank).tolist():
        cells[i] = ""
    return cells


def _sig12(x: float) -> float:
    """``x`` rounded to 12 significant digits. Fitted parameters are written
    at this precision so that null_fit.json does not depend on the order in
    which the kernels sum, which can change the last few bits."""
    return float(f"{x:.12g}")


def _is_number(v) -> bool:
    # false for booleans, nan, the infinities and integers beyond the float range
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _json_value(value, kind: type, where: str, key: str):
    """``value`` read from a JSON input file as ``kind``: a str, an int, a
    finite float (an integer is widened) or a tuple of finite floats (a
    JSON list). Anything else, booleans included, raises InputError naming
    ``where`` and ``key``."""
    if kind is tuple:
        ok = isinstance(value, list) and all(map(_is_number, value))
    elif kind is float:
        ok = _is_number(value)
    else:
        ok = isinstance(value, kind) and not isinstance(value, bool)
    if not ok:
        raise InputError(f"{where}: {key!r} must be {_JSON_KINDS[kind]}, "
                         f"got {value!r}")
    if kind is tuple:
        return tuple(map(float, value))
    return float(value) if kind is float else value


# ---------------------------------------------------------------------------
# input files


def _read_json(p: Path, what: str):
    try:
        return json.loads(p.read_text(encoding="utf-8").removeprefix(_BOM))
    except FileNotFoundError:
        raise InputError(f"{what} not found: {p}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputError(f"{what} {p} is not valid UTF-8 JSON: {exc}") from None


def read_measure_config(path: str | Path) -> list[MeasureSpec]:
    """Parse the measures JSON: a list of {measure_id, family, direction}
    objects with optional a_psi and empirical-null tuning overrides."""
    p = Path(path)
    raw = _read_json(p, "measures file")
    if not isinstance(raw, list) or not raw:
        raise InputError(f"measures file {p} must hold a non-empty JSON list")
    specs: list[MeasureSpec] = []
    seen: set[str] = set()
    for i, entry in enumerate(raw, start=1):
        if not isinstance(entry, dict):
            raise InputError(f"measures entry {i} must be a JSON object")
        unknown = set(entry) - _MEASURE_KEYS
        if unknown:
            raise InputError(f"measures entry {i} has unknown keys: "
                             f"{sorted(unknown)}")
        where = f"measures entry {i}"
        for key in ("measure_id", "family", "direction"):
            if key not in entry:
                raise InputError(f"{where} is missing {key!r}")
        spec = MeasureSpec(
            measure_id=_json_value(entry["measure_id"], str, where, "measure_id"),
            family=_json_value(entry["family"], str, where, "family"),
            direction=_json_value(entry["direction"], str, where, "direction"),
            a_psi=_json_value(entry.get("a_psi", 1.0), float, where, "a_psi"),
            en_config=EnConfig(**{key: _json_value(entry[key], float, where, key)
                                  for key in _EN_KEYS if key in entry}),
        )
        # the centers reader strips ids
        mid = spec.measure_id
        if not mid or mid != mid.strip() or _BAD_ID_CHAR.search(mid):
            raise InputError(f"{where}: measure_id {mid!r} must be non-empty, with no "
                             f"surrounding whitespace, '/', '\\' or character that XML "
                             f"1.0 forbids")
        if mid in seen:
            raise InputError(f"duplicate measure_id {mid!r} (entry {i})")
        seen.add(mid)
        specs.append(spec)
    return specs


def _parse_float(raw: str, column: str, line: int) -> float:
    try:
        return float(raw)
    except ValueError:
        raise InputError(f"row {line}: column {column!r} is not numeric: "
                         f"{raw!r}") from None


def _check_record(row: list[str], line: int, family: dict[str, str]) -> None:
    """Check one record of the centers file as ``_parse_columns`` parses
    it, raising InputError with its row number ``line`` where it fails."""
    if len(row) != len(CENTER_HEADER):
        raise InputError(f"row {line}: expected {len(CENTER_HEADER)} "
                         f"fields, got {len(row)}")
    center_id, measure_id, obs_raw, exp_raw, size_raw = (f.strip() for f in row)
    if not center_id or not measure_id:
        raise InputError(f"row {line}: center_id and measure_id are required")
    _parse_float(obs_raw, "observed", line)
    _parse_float(exp_raw, "expected", line)
    if size_raw == "":
        # an undeclared measure is reported by CenterTable
        if family.get(measure_id, "poisson") != "poisson":
            raise InputError(f"row {line}: effective_size is required for "
                             f"{family[measure_id]} measure {measure_id!r}")
    else:
        _parse_float(size_raw, "effective_size", line)


def _csv_rows(text: str) -> list[list[str]]:
    # newline="" leaves line breaks inside quoted fields to the csv module
    return list(csv.reader(io.StringIO(text, newline="")))


def _parse_columns(center_ids: list[str], measure_ids: list[str], obs: np.ndarray,
                   exp: np.ndarray, size: list[str], family: dict[str, str]) -> tuple:
    """The columns ``CenterTable`` takes, from those of the non-blank centers
    records: ids and sizes as lists of stripped strings, observed and
    expected counts as float arrays. A blank poisson size is filled with the
    expected count, and every other size goes through ``float``. Raises
    ValueError on any record that ``_check_record`` rejects."""
    if not (all(center_ids) and all(measure_ids)):
        raise ValueError("missing id")
    given = np.fromiter(map(bool, size), bool, len(size))
    blank = set(compress(measure_ids, map(not_, size)))
    if any(family.get(mid, "poisson") != "poisson" for mid in blank):
        raise ValueError("missing size")
    filled = exp.copy()
    filled[given] = np.fromiter(map(float, filter(None, size)), np.float64)
    return center_ids, measure_ids, obs, exp, filled


# a record of a plain text as numpy's C reader parses it: ids and sizes as
# stripped strings, counts as floats
_PLAIN_RECORD = np.dtype([("center_id", "O"), ("measure_id", "O"), ("observed", "f8"),
                          ("expected", "f8"), ("effective_size", "O")])
_STRIP = dict.fromkeys((0, 1, 4), str.strip)


def _plain_lines(text: str) -> list[str] | None:
    """The lines of a plain centers text, split at its line feeds; None for
    any other text.

    A plain text has no quote, CR or NUL (which ``csv.reader`` rejects
    before Python 3.11) and no line as long as ``csv.field_size_limit()``.
    ``csv.reader`` treats no other character of it as special and raises no
    error on it, so it splits each line at its commas alone, and a blank
    line is a blank record.
    """
    if '"' in text or "\r" in text or "\0" in text:
        return None
    lines = text.split("\n")
    return lines if max(map(len, lines)) < csv.field_size_limit() else None


def _read_plain(body: list[str], family: dict[str, str]) -> tuple[tuple, list[int]] | None:
    """``_parse_columns`` of the records in the lines after a plain text's
    header, as ``np.loadtxt`` splits and parses them, and their row numbers;
    None where there is no record or the reader or ``_parse_columns``
    rejects one.

    The reader gets the lines that are not blank, and it splits each at its
    commas, as ``csv.reader`` does. It strips each number of the
    whitespace that ``str.strip`` removes and parses what is left with
    CPython's ``PyOS_string_to_double``, as ``float`` does, but it rejects
    the underscores and non-ASCII digits that ``float`` takes.
    """
    numbers = list(compress(count(2), body))
    if not numbers:
        return None
    try:
        rec = np.loadtxt(filter(None, body), dtype=_PLAIN_RECORD, delimiter=",", comments=None,
                         converters=_STRIP, ndmin=1)
        # a line the reader skipped would shift the row numbers
        if len(rec) != len(numbers):
            raise ValueError("record count")
        return _parse_columns(rec["center_id"].tolist(), rec["measure_id"].tolist(),
                              np.ascontiguousarray(rec["observed"]),
                              np.ascontiguousarray(rec["expected"]),
                              rec["effective_size"].tolist(), family), numbers
    except ValueError:
        return None


def _read_csv(text: str, p: Path, family: dict[str, str]) -> tuple[tuple, list[int]]:
    """``_parse_columns`` of the records of a centers text as ``csv.reader``
    splits it, and their row numbers; raises InputError naming the first
    row that fails, or the file where the text is no CSV, its header is
    wrong or it holds no data rows."""
    try:
        rows = _csv_rows(text)
    except csv.Error as exc:
        raise InputError(f"centers file {p} is not a UTF-8 CSV file: {exc}") from None
    if (rows[0] if rows else []) != CENTER_HEADER:
        raise InputError(f"centers file {p} must start with header "
                         f"{','.join(CENTER_HEADER)!r}")
    numbers = list(compress(count(2), rows[1:]))
    if not numbers:
        raise InputError(f"centers file {p} holds no data rows")
    records = list(filter(None, rows[1:]))
    try:
        if set(map(len, records)) != {len(CENTER_HEADER)}:
            raise ValueError("field count")
        # one pass per column: zip(*records) makes an iterator per record
        center_ids, measure_ids, obs, exp, size = (
            list(map(str.strip, map(itemgetter(k), records)))
            for k in range(len(CENTER_HEADER)))
        obs, exp = (np.fromiter(map(float, col), np.float64, len(records))
                    for col in (obs, exp))
        return _parse_columns(center_ids, measure_ids, obs, exp, size, family), numbers
    except ValueError:
        for line, row in enumerate(rows[1:], start=2):
            if row:
                _check_record(row, line, family)
        raise  # both parses reject the same records, so this is not reached


def read_center_stats(
    path: str | Path,
    measures: Sequence[MeasureSpec],
) -> CenterTable:
    """Parse the center statistics CSV into a CenterTable.

    Header must be exactly center_id,measure_id,observed,expected,
    effective_size. Poisson rows may leave effective_size empty, in which
    case it is filled with the expected count; binomial and normal rows must
    supply it. Errors carry the offending row number: the number of the
    record, blank records included, so a quoted line break does not count.
    One leading byte order mark is dropped. A byte that is not UTF-8 is
    named by its line and its offset in the file.

    The file is read and decoded whole. A plain text (no quote, CR or NUL,
    no line as long as ``csv.field_size_limit()``) with the right header and
    a data row goes to numpy's C reader, ``np.loadtxt``, which splits it
    where ``csv.reader`` would and parses each number it takes to the bits
    ``float`` gives. Every other text, and every plain one the C reader or
    the column checks reject, goes through ``csv.reader``: its records are
    parsed column by column, and only when that fails are they checked one
    by one, to name the first bad row. So both readers build the same table
    and raise the same errors.
    """
    p = Path(path)
    family = {m.measure_id: m.family for m in measures}
    try:
        data = p.read_bytes()
    except FileNotFoundError:
        raise InputError(f"centers file not found: {p}") from None
    try:
        # an error's offset counts from the file's first byte, a mark included
        text = data.decode("utf-8").removeprefix(_BOM)
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        # "\r\n", a lone "\r" and a lone "\n" each end a line
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        raise InputError(f"centers file {p} is not a UTF-8 CSV file: line {line}, "
                         f"byte 0x{data[exc.start]:02x} at file offset {exc.start}: "
                         f"{exc.reason}") from None
    lines = _plain_lines(text)
    read = None
    if lines is not None and lines[0].split(",") == CENTER_HEADER:
        read = _read_plain(lines[1:], family)
    parsed, numbers = read or _read_csv(text, p, family)
    return CenterTable(measures, *parsed, numbers)


# ---------------------------------------------------------------------------
# standardization pipeline


@dataclass
class StandardizationRun:
    """Scores and fits from one standardization pass over a center table.

    ``z_fe`` and ``z`` hold one score per table row, NaN where the row was
    skipped: the fixed-effects score, and the score of ``method``, which is
    ``z_fe`` itself for "fe". ``null_fits`` holds the empirical-null fit of
    each measure with usable rows, by measure id, for an "en" run only.
    """

    method: str
    table: CenterTable
    z_fe: np.ndarray
    z: np.ndarray
    null_fits: dict[str, NullFit] = field(default_factory=dict)
    skipped: list[tuple[str, str, str]] = field(default_factory=list)


def standardize(
    table: CenterTable,
    method: str = "en",
    mom_q: float = DEFAULT_WINSOR_Q,
) -> StandardizationRun:
    """Compute fixed-effects scores for every table row and, per the
    requested method, the empirical-null or method-of-moments corrections.

    Rows with non-positive effective size or expected count are excluded
    from all fitting and recorded in the skipped list. The measures are
    fitted in declaration order, so the first one whose fit fails raises
    its error.
    """
    if method not in METHOD_KEYS:
        raise InputError(f"method must be one of {METHOD_KEYS}, got {method!r}")
    t = table
    usable = t.usable
    z_fe = np.full(len(t), np.nan)
    run = StandardizationRun(method, t, z_fe, z_fe if method == "fe" else z_fe.copy())
    a_psi = np.array([m.a_psi for m in t.measures])[t.measure]
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is checked below
        run.z_fe[usable] = z_fixed_effects(t.observed[usable], t.expected[usable],
                                           t.size[usable], a_psi[usable])
    overflow = usable & ~np.isfinite(run.z_fe)
    if overflow.any():
        center, measure = t.row_ids(int(np.argmax(overflow)))
        raise InputError(f"center {center!r}, measure {measure!r}: the fixed-effects "
                         f"score overflows the float range")
    for k, spec in enumerate(t.measures):
        rows = t.measure == k
        for i in np.flatnonzero(rows & ~usable):
            reason = "effective_size <= 0" if t.size[i] <= 0 else "expected <= 0"
            run.skipped.append((*t.row_ids(i), reason))
        rows &= usable
        if method == "fe" or not rows.any():
            continue
        z, sizes = run.z_fe[rows], t.size[rows]
        with _naming(spec.measure_id):
            if method == "mom":
                phi = fit_method_of_moments(z, sizes, q_percent=mom_q)
            else:
                fit = fit_empirical_null(z, sizes, spec.en_config)
                run.null_fits[spec.measure_id], phi = fit, fit.phi_hat
        run.z[rows] = z_empirical_null(z, sizes, phi)
    return run


@contextmanager
def _naming(measure_id: str):
    """Re-raise a package error as the same class, its message prefixed
    with the measure it arose in."""
    try:
        yield
    except ProfileNullError as exc:
        raise type(exc)(f"measure {measure_id!r}: {exc}") from None


def align_scores(run: StandardizationRun) -> tuple[list[str], np.ndarray]:
    """Centers x measures table of direction-aligned scores for the run's
    method (lower always means worse care), NaN where a center lacks a
    measure."""
    t = run.table
    sign = np.array([1.0 if m.direction == "higher_is_better" else -1.0
                     for m in t.measures])
    aligned = np.full((len(t.center_ids), len(t.measures)), np.nan)
    aligned[t.center, t.measure] = sign[t.measure] * run.z
    return list(t.center_ids), aligned


# ---------------------------------------------------------------------------
# report writers


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="")


def _quoted(ids) -> list[str]:
    """Each id as a CSV cell, by ``csv.writer``'s QUOTE_MINIMAL rule: in
    quotes, with each quote doubled, when it holds a comma, a quote or a line
    break, else as it is. Any other character, NUL included, is written as it
    is, as ``csv.writer`` does from Python 3.11 on; so every id reads back
    unchanged."""
    needs_quotes = re.compile('[,"\r\n]').search
    return ['"' + s.replace('"', '""') + '"' if needs_quotes(s) else s for s in ids]


def _write_csv(path: Path, rows) -> None:
    """Write rows of string cells, each record ending in "\n", with one join
    for the whole file. The cells are written as they are: ids come quoted
    by ``_quoted``, once per distinct id, and number cells from ``fmt6`` or
    ``str`` never need quotes."""
    _write_text(path, "\n".join(map(",".join, rows)) + "\n")


def write_scores_report(run: StandardizationRun, out_dir: str | Path) -> list[Path]:
    """Write scores.csv (+ null_fit.json for empirical-null runs and
    skipped.csv when centers were excluded). Returns the paths written."""
    t = run.table
    out = Path(out_dir)
    written: list[Path] = []

    center_ids = np.array(_quoted(t.center_ids), dtype=object)[t.center].tolist()
    measure_ids = np.array(_quoted(m.measure_id for m in t.measures),
                           dtype=object)[t.measure].tolist()
    # the method's score goes under its own column, z_en or z_mom
    blank = np.full(len(t), np.nan)
    scores = map(_fmt6_or_blank, [run.z_fe, *(run.z if run.method == m else blank
                                              for m in ("en", "mom"))])
    scores_path = out / "scores.csv"
    _write_csv(scores_path, [SCORES_HEADER, *zip(center_ids, measure_ids, *scores)])
    written.append(scores_path)

    if run.null_fits:
        payload = [{
            "measure_id": spec.measure_id,
            "phi_hat": _sig12(fit.phi_hat),
            "pi0_hat": _sig12(fit.pi0_hat),
            "sigma2_alpha_hat": _sig12(fit.phi_hat * spec.a_psi),
            "phi_init": _sig12(fit.phi_init),
            "v": _sig12(fit.v),
            "n_null_set": fit.n_null_set,
            "loglik": _sig12(fit.loglik),
        } for spec in t.measures
            if (fit := run.null_fits.get(spec.measure_id)) is not None]
        fit_path = out / "null_fit.json"
        _write_text(fit_path, json.dumps(payload, indent=2) + "\n")
        written.append(fit_path)

    if run.skipped:
        skipped_path = out / "skipped.csv"
        _write_csv(skipped_path, [["center_id", "measure_id", "reason"],
                                  *map(_quoted, run.skipped)])
        written.append(skipped_path)
    return written


def write_composite_report(scored: np.recarray, out_path: str | Path) -> Path:
    """Per-center composite rows of the record array ``composite_table``
    returns, plus a trailing summary block with the poor/average/good
    percentages."""
    total = len(scored)
    if not total:
        raise InputError("no composite results to report")
    partial = np.where(scored.partial, "true", "false").tolist()
    percent = [fmt6(100.0 * np.count_nonzero(scored.label == k) / total)
               for k in ("poor", "average", "good")]
    path = Path(out_path)
    _write_csv(path, [["center_id", "z_cs", "label", "partial"],
                      *zip(_quoted(scored.center_id.tolist()), fmt6(scored.z_cs),
                           scored.label.tolist(), partial),
                      ["summary", "poor_pct", "average_pct", "good_pct"],
                      ["percent", *percent]])
    return path


def funnel_suffixes(alpha_z_list: Sequence[float]) -> list[str]:
    """The file-name suffix of each |Z| threshold: none for a single one, else
    ``_z`` and the value to 6 decimals without trailing zeros. Raises
    InputError on an empty list or two thresholds with one suffix."""
    if not alpha_z_list:
        raise InputError("alpha_z_list must not be empty")
    if len(alpha_z_list) == 1:
        return [""]
    suffixes = [f"_z{fmt6(alpha_z).rstrip('0').rstrip('.')}" for alpha_z in alpha_z_list]
    for i, first in enumerate(map(suffixes.index, suffixes)):
        if first < i:
            raise InputError(f"alpha_z {alpha_z_list[first]!r} and {alpha_z_list[i]!r} "
                             f"both name the funnel files *{suffixes[i]}.csv/.svg")
    return suffixes


def emit_funnel(
    table: CenterTable,
    spec: MeasureSpec,
    phi_hat: float,
    alpha_z_list: Sequence[float] = (FLAG_Z,),
    out_dir: str | Path = ".",
) -> list[Path]:
    """Funnel CSV and SVG for one measure of the table: per-center O/E
    ratios with fixed-effects (phi = 0) and empirical-null (phi = phi_hat)
    control limits at each requested |Z| threshold."""
    suffixes = funnel_suffixes(alpha_z_list)
    t = table
    in_measure = np.array([m.measure_id == spec.measure_id for m in t.measures])[t.measure]
    rows = np.flatnonzero(in_measure & t.usable)
    if not rows.size:
        raise InputError(f"no plottable centers for measure "
                         f"{spec.measure_id!r}")
    # ascending size, ties in center id order
    rows = rows[np.lexsort((t.id_rank[t.center[rows]], t.size[rows]))]
    size, expected = t.size[rows], t.expected[rows]
    ratio = measure_ratio(t.observed[rows], expected)
    size_cells, ratio_cells = fmt6(size), fmt6(ratio)
    out = Path(out_dir)
    written: list[Path] = []
    for alpha_z, suffix in zip(alpha_z_list, suffixes):
        limits = (*control_limits(0.0, expected, size, spec.a_psi, alpha_z),
                  *control_limits(phi_hat, expected, size, spec.a_psi, alpha_z))
        csv_path = out / f"funnel_{spec.measure_id}{suffix}.csv"
        _write_csv(csv_path, [FUNNEL_HEADER, *zip(size_cells, ratio_cells,
                                                  *map(fmt6, limits))])
        written.append(csv_path)

        svg_path = out / f"funnel_{spec.measure_id}{suffix}.svg"
        _write_text(svg_path, funnel_svg(
            f"{spec.measure_id} funnel (|Z| = {alpha_z:g})", size, ratio, *limits))
        written.append(svg_path)
    return written


def write_diagnostics(
    table: CenterTable,
    out_path: str | Path,
    n_groups: int = 3,
) -> Path:
    """Size-grouped Z-score variance table per measure (fixed-effects
    scores), the overdispersion diagnostic."""
    run = standardize(table, method="fe")
    usable = table.usable
    rows = [["measure_id", "group", "mean_size", "z_variance", "flag_proportion"]]
    for k, spec in enumerate(table.measures):
        scored = (table.measure == k) & usable
        if not scored.any():
            continue
        with _naming(spec.measure_id):
            groups = group_variance_diagnostic(run.z_fe[scored], table.size[scored],
                                               n_groups)
        mid = _quoted([spec.measure_id])[0]
        rows += [[mid, str(g), fmt6(mean_size), fmt6(var), fmt6(prop)]
                 for g, (mean_size, var, prop) in enumerate(groups, start=1)]
    path = Path(out_path)
    _write_csv(path, rows)
    return path


# ---------------------------------------------------------------------------
# simulation config and result files


def read_sim_config(path: str | Path) -> tuple[SimConfig, str]:
    """Parse a simulation config JSON; returns the config and the experiment
    kind, a key of ``SIM_EXPERIMENTS``."""
    p = Path(path)
    raw = _read_json(p, "simulation config")
    if not isinstance(raw, dict):
        raise InputError("simulation config must be a JSON object")
    unknown = set(raw) - _SIM_KEYS
    if unknown:
        raise InputError(f"simulation config has unknown keys: {sorted(unknown)}")
    kind = raw.get("experiment", "flagging")
    if not isinstance(kind, str) or kind not in SIM_EXPERIMENTS:
        raise InputError(f"experiment must be flagging, tuning, or composite, "
                         f"got {kind!r}")
    where = "simulation config"
    kwargs = {key: _json_value(raw[key], field_kind, where, key)
              for key, field_kind in _SIM_FIELDS.items() if key in raw}
    if "q_percent" in raw:
        kwargs["en_config"] = EnConfig(
            q_percent=_json_value(raw["q_percent"], float, where, "q_percent"))
    return SimConfig(**kwargs), kind


def _write_columns(out_dir: str | Path, name: str, header: str, cols) -> list[Path]:
    path = Path(out_dir) / name
    _write_csv(path, [header.split(","), *zip(*(map(str, col) for col in cols))])
    return [path]


def _write_flag_curves(result: SweepResult, out_dir: str | Path) -> list[Path]:
    """flag_curves.csv: per gamma, the focal center's (probe 0) flag rate
    and standard error per method."""
    cols = [fmt6(np.array(result.config.gamma_grid)), result.n_effective.tolist(),
            result.n_failed.tolist()]
    for m in METHOD_KEYS:
        cols += [fmt6(result.flag_rates[m][0]), fmt6(result.flag_se[m][0])]
    return _write_columns(out_dir, "flag_curves.csv", "gamma,n_effective,n_failed,"
                          "fe_rate,fe_se,mom_rate,mom_se,en_rate,en_se", cols)


def _write_tuning_curves(result: TuningResult, out_dir: str | Path) -> list[Path]:
    """tuning_curves.csv: per q, the mean and SD of the estimated confounder
    variance and the focal flag rate and SE per method, "" where NaN."""
    cols = [fmt6(np.array(result.config.q_grid)), result.n_effective.tolist()]
    for m in ("en", "mom"):
        cols += map(_fmt6_or_blank, (result.sigma2_mean[m], result.sigma2_sd[m],
                                     result.flag_rates[m], result.flag_se[m]))
    return _write_columns(out_dir, "tuning_curves.csv", "q,n_effective,"
                          "en_sigma2_mean,en_sigma2_sd,en_flag_rate,en_flag_se,"
                          "mom_sigma2_mean,mom_sigma2_sd,mom_flag_rate,mom_flag_se", cols)


def _write_composite_curves(result: SweepResult, out_dir: str | Path) -> list[Path]:
    """composite_curves.csv: per gamma and probe center, the composite flag
    rate and standard error per method."""
    gammas = fmt6(np.array(result.config.gamma_grid))
    cols = [[g for g in gammas for _ in range(N_PROBES)],
            [f"Center{ci + 1}" for ci in range(N_PROBES)] * len(gammas),
            np.repeat(result.n_effective, N_PROBES).tolist()]
    for m in METHOD_KEYS:
        # rows run over the probes within each gamma
        cols += [fmt6(result.flag_rates[m].T.ravel()), fmt6(result.flag_se[m].T.ravel())]
    return _write_columns(out_dir, "composite_curves.csv", "gamma,center,n_effective,"
                          "fe_rate,fe_se,mom_rate,mom_se,en_rate,en_se", cols)


# experiment kind of a simulation config -> its runner and its table writer
SIM_EXPERIMENTS = {
    "flagging": (run_flagging_experiment, _write_flag_curves),
    "tuning": (run_tuning_sensitivity, _write_tuning_curves),
    "composite": (run_composite_experiment, _write_composite_curves),
}
