"""File handling and report generation: CSV/JSON input schemas, score and
composite reports, funnel-plot emission, and simulation result tables.

Numeric output is pinned at 6 decimal places with half-away-from-zero
rounding so golden-file comparisons are stable across platforms.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from decimal import ROUND_HALF_UP, Context, Decimal
from itertools import repeat
from operator import itemgetter
from pathlib import Path
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .baselines import DEFAULT_WINSOR_Q, MomFit, fit_method_of_moments
from .empirical_null import EnConfig, NullFit, control_limits, fit_empirical_null, z_empirical_null
from .errors import InputError, ProfileNullError
from .measures import (
    CenterTable,
    MeasureSpec,
    group_variance_diagnostic,
    measure_ratio,
    z_fixed_effects,
)
from .simulation import (
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

RUN_METHODS = ("fe", "mom", "en")

_EN_KEYS = tuple(f.name for f in fields(EnConfig))
_MEASURE_KEYS = {"measure_id", "family", "direction", "a_psi", *_EN_KEYS}

# SimConfig fields a simulation config may set, with their JSON types
_SIM_FIELDS = {
    "n_centers": int, "seed": int, "iterations": int,
    "mu": float, "beta": float, "covariate_mean": float,
    "covariate_second_param": float, "exposure_mean": float,
    "outlier_fraction": float, "outlier_effect": float, "mom_q": float,
    "sigma2_alpha": tuple, "gamma_grid": tuple, "q_grid": tuple,
}
_SIM_KEYS = {"experiment", "q_percent", *_SIM_FIELDS}

_JSON_KINDS = {str: "a string", int: "an integer", float: "a finite number",
               tuple: "a list of finite numbers"}


# 400 significant digits hold sys.float_info.max to 6 decimal places
_FMT6_CONTEXT = Context(prec=400)
_MICRO = Decimal("0.000001")


def fmt6(x: float | np.ndarray) -> str | list[str]:
    """Fixed 6-decimal formatting with ties rounded away from zero, of one
    float, or of each value of a 1-d float array as a list of strings."""
    if np.ndim(x) == 0:
        x = float(x)
        if not math.isfinite(x):
            raise InputError(f"cannot format non-finite value {x!r}")
        # format() rounds the exact binary value correctly, ties to even. A
        # float ends in an exact 5 at the 7th decimal only when x * 128 is an
        # odd integer, so every other x takes the fast path; a tie is at
        # least 1/128 away from zero.
        if (x * 64.0) % 1.0 != 0.5:
            s = format(x, ".6f")
            return "0.000000" if s == "-0.000000" else s
        return str(Decimal(x).quantize(_MICRO, rounding=ROUND_HALF_UP,
                                       context=_FMT6_CONTEXT))
    a = np.asarray(x, dtype=np.float64)
    finite = np.isfinite(a)
    if not finite.all():
        raise InputError(f"cannot format non-finite value {a[~finite][0].item()!r}")
    cells = list(map(format, a.tolist(), repeat(".6f")))
    # the cells format() may get wrong: exact ties, and values that could
    # print "-0.000000"; the products beyond the float range are no ties
    with np.errstate(over="ignore", invalid="ignore"):
        redo = ((a * 64.0) % 1.0 == 0.5) | (np.signbit(a) & (a > -1e-6))
    for i in np.flatnonzero(redo).tolist():
        cells[i] = fmt6(a[i])
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
        return json.loads(p.read_text(encoding="utf-8"))
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
        # measure ids name output files, and the centers reader strips ids
        mid = spec.measure_id
        if not mid or mid != mid.strip() or any(ch in mid for ch in "/\\\0"):
            raise InputError(f"{where}: measure_id {mid!r} must be non-empty, with no "
                             f"surrounding whitespace, '/', '\\' or NUL")
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


def _parse_columns(records: list[list[str]], family: dict[str, str]) -> tuple:
    """The five columns of the non-blank centers records: ids as lists of
    stripped strings, numbers as float arrays, blank poisson sizes filled
    with the expected count. Raises ValueError on any record that
    ``_check_record`` rejects."""
    if set(map(len, records)) != {len(CENTER_HEADER)}:
        raise ValueError("field count")
    # one pass per column: zip(*records) makes an iterator per record
    center_ids, measure_ids, obs, exp, size = (
        list(map(str.strip, map(itemgetter(k), records)))
        for k in range(len(CENTER_HEADER)))
    if not (all(center_ids) and all(measure_ids)):
        raise ValueError("missing id")
    blank = [mid for mid, s in zip(measure_ids, size) if not s]
    if any(family.get(mid, "poisson") != "poisson" for mid in set(blank)):
        raise ValueError("missing size")
    if blank:
        size = [s or e for s, e in zip(size, exp)]
    n = len(records)
    return (center_ids, measure_ids,
            *(np.fromiter(map(float, col), np.float64, n) for col in (obs, exp, size)))


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

    The records are parsed column by column; only when that fails are they
    checked one by one, to name the first bad row.
    """
    p = Path(path)
    family = {m.measure_id: m.family for m in measures}
    try:
        # newline="" leaves line breaks inside quoted fields to the csv module
        with open(p, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except FileNotFoundError:
        raise InputError(f"centers file not found: {p}") from None
    except (UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"centers file {p} is not a UTF-8 CSV file: {exc}") from None
    if not rows or rows[0] != CENTER_HEADER:
        raise InputError(f"centers file {p} must start with header "
                         f"{','.join(CENTER_HEADER)!r}")
    records = [row for row in rows[1:] if row]
    if not records:
        raise InputError(f"centers file {p} holds no data rows")
    try:
        columns = _parse_columns(records, family)
    except ValueError:
        for line, row in enumerate(rows[1:], start=2):
            if row:
                _check_record(row, line, family)
        raise  # both parses reject the same records, so this is not reached
    lines = [line for line, row in enumerate(rows[1:], start=2) if row]
    return CenterTable(measures, *columns, lines)


# ---------------------------------------------------------------------------
# standardization pipeline


@dataclass
class StandardizationRun:
    """Scores and fits from one standardization pass over a center table.

    ``z_fe``, ``z_en`` and ``z_mom`` hold one score per table row, NaN where
    the row was skipped or the method does not produce that score.
    """

    method: str
    table: CenterTable
    z_fe: np.ndarray
    z_en: np.ndarray
    z_mom: np.ndarray
    null_fits: dict[str, NullFit] = field(default_factory=dict)
    mom_fits: dict[str, MomFit] = field(default_factory=dict)
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
    if method not in RUN_METHODS:
        raise InputError(f"method must be one of {RUN_METHODS}, got {method!r}")
    t = table
    no_size = t.size <= 0
    usable = ~no_size & (t.expected > 0)
    run = StandardizationRun(method, t, *(np.full(len(t), np.nan) for _ in range(3)))
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
            reason = "effective_size <= 0" if no_size[i] else "expected <= 0"
            run.skipped.append((*t.row_ids(i), reason))
        rows &= usable
        if not rows.any():
            continue
        z, sizes = run.z_fe[rows], t.size[rows]
        if method == "en":
            with _naming(spec.measure_id):
                fit = fit_empirical_null(z, sizes, spec.en_config, spec.a_psi,
                                         spec.measure_id)
            run.null_fits[spec.measure_id] = fit
            run.z_en[rows] = z_empirical_null(z, sizes, fit.phi_hat)
        elif method == "mom":
            with _naming(spec.measure_id):
                mom = fit_method_of_moments(z, sizes, q_percent=mom_q,
                                            a_psi=spec.a_psi)
            run.mom_fits[spec.measure_id] = mom
            run.z_mom[rows] = z_empirical_null(z, sizes, mom.phi_mom)
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
    scores = {"fe": run.z_fe, "en": run.z_en, "mom": run.z_mom}[run.method]
    sign = np.array([1.0 if m.direction == "higher_is_better" else -1.0
                     for m in t.measures])
    aligned = np.full((len(t.center_ids), len(t.measures)), np.nan)
    aligned[t.center, t.measure] = sign[t.measure] * scores
    return list(t.center_ids), aligned


# ---------------------------------------------------------------------------
# report writers


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="")


def _write_csv(path: Path, rows) -> None:
    """Write rows of cells, each record ending in "\n", quoting any cell that
    holds a comma, a quote or a line break, so every id reads back
    unchanged."""
    records: list[str] = []
    # the writer quotes only the line breaks of its own terminator, so it
    # writes "\r\n"; it passes each record to one write call
    csv.writer(SimpleNamespace(write=records.append),
               lineterminator="\r\n").writerows(rows)
    _write_text(path, "".join(r[:-2] + "\n" for r in records))


def write_scores_report(run: StandardizationRun, out_dir: str | Path) -> list[Path]:
    """Write scores.csv (+ null_fit.json for empirical-null runs and
    skipped.csv when centers were excluded). Returns the paths written."""
    t = run.table
    out = Path(out_dir)
    written: list[Path] = []

    center_ids = np.array(t.center_ids, dtype=object)[t.center].tolist()
    measure_ids = np.array([m.measure_id for m in t.measures], dtype=object)[t.measure].tolist()
    scores = map(_fmt6_or_blank, (run.z_fe, run.z_en, run.z_mom))
    scores_path = out / "scores.csv"
    _write_csv(scores_path, [SCORES_HEADER, *zip(center_ids, measure_ids, *scores)])
    written.append(scores_path)

    if run.null_fits:
        payload = []
        for spec in t.measures:
            fit = run.null_fits.get(spec.measure_id)
            if fit is None:
                continue
            payload.append({
                "measure_id": fit.measure_id,
                "phi_hat": _sig12(fit.phi_hat),
                "pi0_hat": _sig12(fit.pi0_hat),
                "sigma2_alpha_hat": _sig12(fit.sigma2_alpha_hat),
                "phi_init": _sig12(fit.phi_init),
                "v": _sig12(fit.v),
                "n_null_set": fit.n_null_set,
                "loglik": _sig12(fit.loglik),
            })
        fit_path = out / "null_fit.json"
        _write_text(fit_path, json.dumps(payload, indent=2) + "\n")
        written.append(fit_path)

    if run.skipped:
        skipped_path = out / "skipped.csv"
        _write_csv(skipped_path, [["center_id", "measure_id", "reason"], *run.skipped])
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
                      *zip(scored.center_id.tolist(), fmt6(scored.z_cs),
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
    null_fit: NullFit,
    alpha_z_list: Sequence[float] = (1.96,),
    out_dir: str | Path = ".",
) -> list[Path]:
    """Funnel CSV and SVG for one measure of the table: per-center O/E
    ratios with fixed-effects (phi = 0) and empirical-null (phi = phi_hat)
    control limits at each requested |Z| threshold."""
    suffixes = funnel_suffixes(alpha_z_list)
    t = table
    in_measure = np.array([m.measure_id == spec.measure_id for m in t.measures])[t.measure]
    rows = np.flatnonzero(in_measure & (t.expected > 0) & (t.size > 0))
    if not rows.size:
        raise InputError(f"no plottable centers for measure "
                         f"{spec.measure_id!r}")
    # ascending size, ties in center id order: the inverse of the id sort
    # is each center's rank
    id_rank = np.argsort(sorted(range(len(t.center_ids)), key=t.center_ids.__getitem__))
    rows = rows[np.lexsort((id_rank[t.center[rows]], t.size[rows]))]
    size, expected = t.size[rows], t.expected[rows]
    ratio = measure_ratio(t.observed[rows], expected)
    size_cells, ratio_cells = fmt6(size), fmt6(ratio)
    out = Path(out_dir)
    written: list[Path] = []
    for alpha_z, suffix in zip(alpha_z_list, suffixes):
        limits = (*control_limits(0.0, expected, size, spec.a_psi, alpha_z),
                  *control_limits(null_fit.phi_hat, expected, size, spec.a_psi, alpha_z))
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
    rows = [["measure_id", "group", "mean_size", "z_variance", "flag_proportion"]]
    for k, spec in enumerate(table.measures):
        scored = (table.measure == k) & ~np.isnan(run.z_fe)
        if not scored.any():
            continue
        with _naming(spec.measure_id):
            groups = group_variance_diagnostic(run.z_fe[scored], table.size[scored],
                                               n_groups)
        rows += [[spec.measure_id, g, fmt6(mean_size), fmt6(var), fmt6(prop)]
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
    _write_csv(path, [header.split(","), *zip(*cols)])
    return [path]


def _write_flag_curves(result: SweepResult, out_dir: str | Path) -> list[Path]:
    """flag_curves.csv: per gamma, the focal center's (probe 0) flag rate
    and standard error per method."""
    cols = [fmt6(np.array(result.config.gamma_grid)), result.n_effective.tolist(),
            result.n_failed.tolist()]
    for m in RUN_METHODS:
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
    for m in RUN_METHODS:
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
