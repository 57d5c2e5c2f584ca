"""The per-measure fits of a report in the process pool: same fits, same
bytes and same errors as in-process, and no pool below the row threshold."""

import json
import os
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from profile_null import report, simulation
from profile_null.cli import main
from profile_null.errors import FittingError
from profile_null.report import read_center_stats, read_measure_config, standardize

FIXTURES = Path(__file__).parent / "fixtures"

MEASURES = [
    {"measure_id": "A", "family": "poisson", "direction": "higher_is_better"},
    {"measure_id": "B", "family": "poisson", "direction": "lower_is_better"},
    {"measure_id": "C", "family": "poisson", "direction": "lower_is_better"},
    {"measure_id": "D", "family": "poisson", "direction": "higher_is_better"},
]
N_CENTERS = 1500


def _write_inputs(directory: Path, degenerate: dict[str, int] | None = None
                  ) -> tuple[Path, Path]:
    """N_CENTERS x 4 overdispersed Poisson measures, 60 centers lacking C.
    A measure named in ``degenerate`` keeps only its first that many centers,
    and the scores of most of them are one huge value, so its null set is
    degenerate: the robust scale collapses and every center falls outside
    the interval."""
    degenerate = degenerate or {}
    rng = np.random.default_rng(20240611)
    lines = ["center_id,measure_id,observed,expected,effective_size"]
    for k, m in enumerate(MEASURES):
        mid = m["measure_id"]
        n = degenerate.get(mid, N_CENTERS)
        expected = rng.lognormal(3.0 + 0.5 * k, 0.8, n)
        observed = rng.poisson(expected * np.exp(rng.normal(0.0, 0.3, n)))
        if mid in degenerate:
            z = np.where(np.arange(n) < 0.6 * n, 30.0, -5.0)
            observed = expected + z * np.sqrt(expected)
        for i in range(n):
            if mid == "C" and i % 25 == 0:
                continue
            lines.append(f"C{i:05d},{mid},{observed[i]:.6f},{expected[i]:.6f},")
    directory.mkdir(parents=True, exist_ok=True)
    centers = directory / "centers.csv"
    centers.write_text("\n".join(lines) + "\n", encoding="utf-8")
    measures = directory / "measures.json"
    measures.write_text(json.dumps(MEASURES), encoding="utf-8")
    return centers, measures


class _CountingPool(simulation.ProcessPoolExecutor):
    started = 0

    def __init__(self, *args, **kwargs):
        type(self).started += 1
        super().__init__(*args, **kwargs)


class _NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a process pool was started")


@pytest.fixture
def two_cpus(monkeypatch):
    """A machine with two CPUs, whatever this one has; the pool is counted."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(_CountingPool, "started", 0)
    monkeypatch.setattr(simulation, "ProcessPoolExecutor", _CountingPool)
    return monkeypatch


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return _write_inputs(tmp_path_factory.mktemp("large"))


def _fits(centers, measures):
    table = read_center_stats(centers, read_measure_config(measures))
    assert len(table) >= report.POOL_MIN_ROWS
    return standardize(table)


def test_fits_are_identical_for_any_worker_count(inputs, two_cpus):
    two_cpus.setenv("PROFILE_NULL_THREADS", "1")
    serial = _fits(*inputs)
    assert _CountingPool.started == 0
    two_cpus.setenv("PROFILE_NULL_THREADS", "2")
    pooled = _fits(*inputs)
    assert _CountingPool.started == 1
    assert list(pooled.null_fits) == [m["measure_id"] for m in MEASURES]
    for mid, fit in serial.null_fits.items():
        for f in fields(fit):
            a, b = getattr(fit, f.name), getattr(pooled.null_fits[mid], f.name)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (mid, f.name)
            else:
                assert a == b, (mid, f.name)
    for scores in ("z_fe", "z_en", "z_mom"):
        a, b = getattr(serial, scores), getattr(pooled, scores)
        assert np.array_equal(a, b, equal_nan=True), scores
        assert a.tobytes() == b.tobytes()


def _report_bytes(centers, measures, out: Path) -> dict[str, bytes]:
    for cmd in ("composite", "funnel"):
        code = main([cmd, "--centers", str(centers), "--measures", str(measures),
                     "--out", str(out)])
        assert code == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_report_bytes_are_identical_for_any_worker_count(inputs, two_cpus, tmp_path,
                                                          capsys):
    two_cpus.setenv("PROFILE_NULL_THREADS", "1")
    serial = _report_bytes(*inputs, tmp_path / "serial")
    two_cpus.setenv("PROFILE_NULL_THREADS", "2")
    pooled = _report_bytes(*inputs, tmp_path / "pooled")
    assert _CountingPool.started == 2   # one for composite, one for funnel
    assert "composite.csv" in pooled and "funnel_D.svg" in pooled
    assert serial == pooled


def test_first_failing_measure_raises_on_both_paths(tmp_path, two_cpus, capsys):
    # B and C both fail, with messages that differ in their center counts;
    # B comes first in the measures file, so its error is the one raised
    centers, measures = _write_inputs(tmp_path, degenerate={"B": 1400, "C": 1300})
    outcomes = []
    for threads in ("1", "2"):
        two_cpus.setenv("PROFILE_NULL_THREADS", threads)
        with pytest.raises(FittingError) as exc:
            _fits(centers, measures)
        code = main(["composite", "--centers", str(centers), "--measures",
                     str(measures), "--out", str(tmp_path / f"out{threads}")])
        outcomes.append((type(exc.value), str(exc.value), code,
                         capsys.readouterr().err))
    assert _CountingPool.started == 2
    assert outcomes[0] == outcomes[1]
    kind, message, code, err = outcomes[0]
    assert kind is FittingError and code == 3
    assert message.startswith("measure 'B': degenerate null set")
    assert "of 1400 centers" in message
    assert err == f"error: {message}\n"


def test_no_pool_below_the_threshold(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setenv("PROFILE_NULL_THREADS", "2")
    monkeypatch.setattr(simulation, "ProcessPoolExecutor", _NoPool)
    table = read_center_stats(FIXTURES / "centers.csv",
                              read_measure_config(FIXTURES / "measures.json"))
    assert len(table) < report.POOL_MIN_ROWS
    run = standardize(table)
    assert len(run.null_fits) == 4 and not np.isnan(run.z_en).all()
    assert main(["funnel", "--centers", str(FIXTURES / "centers.csv"),
                 "--measures", str(FIXTURES / "measures.json"),
                 "--out", str(tmp_path)]) == 0
