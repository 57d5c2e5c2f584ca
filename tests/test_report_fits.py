"""The per-measure fits of a report run in the calling process, one after
another in declaration order: no process pool at any table size or worker
count, and the first failing measure raises its error."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from profile_null import simulation
from profile_null.cli import main
from profile_null.errors import FittingError
from profile_null.report import read_center_stats, read_measure_config, standardize

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


class _NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a process pool was started")


@pytest.fixture
def no_pool(monkeypatch):
    """A machine with two CPUs and two workers allowed, whatever this one
    has, on which starting a process pool fails the test."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setenv("PROFILE_NULL_THREADS", "2")
    monkeypatch.setattr(simulation, "ProcessPoolExecutor", _NoPool)


def _fits(centers, measures):
    return standardize(read_center_stats(centers, read_measure_config(measures)))


def test_report_fits_every_measure_without_a_pool(no_pool, tmp_path, capsys):
    centers, measures = _write_inputs(tmp_path / "in")
    run = _fits(centers, measures)
    assert len(run.table) == 5940
    assert list(run.null_fits) == [m["measure_id"] for m in MEASURES]
    for k in range(len(MEASURES)):
        assert np.isfinite(run.z_en[run.table.measure == k]).all()
    out = tmp_path / "out"
    for cmd in ("composite", "funnel"):
        assert main([cmd, "--centers", str(centers), "--measures", str(measures),
                     "--out", str(out)]) == 0
    fitted = json.loads((out / "null_fit.json").read_text(encoding="utf-8"))
    assert [fit["measure_id"] for fit in fitted] == [m["measure_id"] for m in MEASURES]
    assert "composite.csv" in {p.name for p in out.iterdir()}
    assert all((out / f"funnel_{m['measure_id']}.svg").is_file() for m in MEASURES)


def test_first_failing_measure_raises(no_pool, tmp_path, capsys):
    # B and C both fail, with messages that differ in their center counts;
    # B comes first in the measures file, so its error is the one raised
    centers, measures = _write_inputs(tmp_path, degenerate={"B": 1400, "C": 1300})
    with pytest.raises(FittingError) as exc:
        _fits(centers, measures)
    code = main(["composite", "--centers", str(centers), "--measures",
                 str(measures), "--out", str(tmp_path / "out")])
    kind, message, err = type(exc.value), str(exc.value), capsys.readouterr().err
    assert kind is FittingError and code == 3
    assert message.startswith("measure 'B': degenerate null set")
    assert "of 1400 centers" in message
    assert err == f"error: {message}\n"
