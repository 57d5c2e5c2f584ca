"""Output checks: the fixture pipeline against its goldens, the registry
report's invariants, and equality of simulation results."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np

# null_fit.json holds raw float reprs, which differ in the last digit
# between kernel backends; every other golden is compared byte for byte.
NULL_FIT_REL_TOL = 1e-12
# z_fe and z_en are both written at 6 decimals, so their relation holds to
# two half-units of the last place.
Z_EN_TOL = 1e-6 + 1e-12


def compare_numbers(produced, golden, where: str, rel_tol: float) -> list[str]:
    """Structural comparison of two JSON values; floats at ``rel_tol``."""
    if isinstance(golden, bool) or isinstance(golden, str) or golden is None:
        return [] if produced == golden else [f"{where}: {produced!r} != {golden!r}"]
    if isinstance(golden, (int, float)):
        if isinstance(produced, bool) or not isinstance(produced, (int, float)):
            return [f"{where}: {produced!r} is not a number"]
        if isinstance(golden, int) and isinstance(produced, int):
            return [] if produced == golden else [f"{where}: {produced} != {golden}"]
        if math.isclose(produced, golden, rel_tol=rel_tol, abs_tol=0.0):
            return []
        return [f"{where}: {produced!r} != {golden!r} at rel {rel_tol:g}"]
    if isinstance(golden, list):
        if not isinstance(produced, list) or len(produced) != len(golden):
            return [f"{where}: list shape differs"]
        return [p for i, (a, b) in enumerate(zip(produced, golden))
                for p in compare_numbers(a, b, f"{where}[{i}]", rel_tol)]
    if isinstance(golden, dict):
        if not isinstance(produced, dict) or list(produced) != list(golden):
            return [f"{where}: keys differ"]
        return [p for k in golden
                for p in compare_numbers(produced[k], golden[k], f"{where}.{k}", rel_tol)]
    return [f"{where}: unexpected JSON value {golden!r}"]


def compare_tree(produced: Path, golden: Path) -> list[str]:
    """Every golden file must be produced: byte-identical, except
    null_fit.json, which is compared as numbers."""
    golden_files = sorted(p for p in golden.rglob("*") if p.is_file())
    if not golden_files:
        return [f"no golden files under {golden}"]
    problems = []
    for gold in golden_files:
        rel = gold.relative_to(golden)
        out = produced / rel
        if not out.is_file():
            problems.append(f"{rel}: not produced")
        elif gold.name == "null_fit.json":
            try:
                got = json.loads(out.read_text(encoding="utf-8"))
            except json.JSONDecodeError as exc:
                problems.append(f"{rel}: not valid JSON: {exc}")
                continue
            want = json.loads(gold.read_text(encoding="utf-8"))
            problems += compare_numbers(got, want, str(rel), NULL_FIT_REL_TOL)
        elif out.read_bytes() != gold.read_bytes():
            problems.append(f"{rel}: bytes differ from the golden")
    return problems


def tree_digest(directory: Path) -> tuple[str, int]:
    """SHA-256 over every file's relative path and bytes, and total bytes."""
    h = hashlib.sha256()
    total = 0
    for p in sorted(q for q in directory.rglob("*") if q.is_file()):
        data = p.read_bytes()
        total += len(data)
        h.update(str(p.relative_to(directory)).encode())
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest(), total


def _csv_rows(path: Path) -> list[list[str]]:
    return list(csv.reader(path.read_text(encoding="utf-8").splitlines()))


def check_report(out: Path, rows, measure_ids) -> dict[str, list[str]]:
    """Invariants of one release report on generated inputs, keyed by the
    subcommand whose files break them:

    * every usable input row is scored, with both z_fe and z_en;
    * z_en = z_fe / sqrt(1 + phi_hat * n) with phi_hat from null_fit.json;
    * every center with two or more measures has a composite row;
    * each measure has a funnel CSV and SVG, and diagnostics.csv exists.
    """
    problems: dict[str, list[str]] = {"composite": [], "funnel": [], "diagnose": []}
    bad = problems["composite"]
    try:
        fits = json.loads((out / "null_fit.json").read_text(encoding="utf-8"))
        phi = {f["measure_id"]: float(f["phi_hat"]) for f in fits}
        scores = {(r[0], r[1]): r for r in _csv_rows(out / "scores.csv")[1:] if r}
        composite = {r[0] for r in _csv_rows(out / "composite.csv")[1:]
                     if r and r[0] not in ("summary", "percent")}
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        bad.append(f"composite outputs unreadable: {exc}")
        return problems

    bad += [f"{m}: no null fit" for m in measure_ids if m not in phi]
    per_center: dict[str, int] = {}
    for center_id, measure_id, _obs, expected, size_raw in rows:
        size = float(size_raw) if size_raw else float(expected)
        if float(expected) <= 0 or size <= 0:
            continue
        per_center[center_id] = per_center.get(center_id, 0) + 1
        row = scores.get((center_id, measure_id))
        if row is None or len(row) != 5 or not row[2] or not row[3]:
            bad.append(f"{center_id}/{measure_id}: not scored")
            continue
        if measure_id not in phi:
            continue
        z_fe, z_en = float(row[2]), float(row[3])
        want = z_fe / math.sqrt(1.0 + phi[measure_id] * size)
        if abs(z_en - want) > Z_EN_TOL:
            bad.append(f"{center_id}/{measure_id}: z_en {z_en} != z_fe/sqrt(1+phi*n) "
                       f"= {want:.9f}")
    if len(scores) != len(rows):
        bad.append(f"scores.csv has {len(scores)} rows for {len(rows)} inputs")
    expected_composite = {c for c, k in per_center.items() if k >= 2}
    if composite != expected_composite:
        bad.append(f"composite.csv scores {len(composite)} centers, expected "
                   f"{len(expected_composite)}")

    for m in measure_ids:
        for suffix in ("csv", "svg"):
            if not (out / f"funnel_{m}.{suffix}").is_file():
                problems["funnel"].append(f"funnel_{m}.{suffix} not produced")
    if not (out / "diagnostics.csv").is_file():
        problems["diagnose"].append("diagnostics.csv not produced")
    return problems


def result_digest(result) -> str:
    """SHA-256 over every array of a SimResult, with its name, dtype and
    shape: two results share a digest only when they are bit-identical."""
    h = hashlib.sha256()
    for f in dataclasses.fields(result):
        value = getattr(result, f.name)
        items = sorted(value.items()) if isinstance(value, dict) else [("", value)]
        for key, arr in items:
            if isinstance(arr, np.ndarray):
                h.update(f"{f.name}.{key}:{arr.dtype}:{arr.shape}".encode())
                h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()
