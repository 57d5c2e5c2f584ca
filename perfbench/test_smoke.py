"""Smoke test of the benchmark at tiny sizes. From the root of a checkout:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import meter  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {"registry-8k": 150, "sim-flagging": 2, "sim-tuning": 1}


def _run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.1", "--trace", str(trace),
           "--size", str(TINY[workload])]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def _busy(seconds: float) -> int:
    import time
    t_end = time.thread_time() + seconds
    n = 0
    while time.thread_time() < t_end:
        n += 1
    return n


def test_meter_samples_this_process_and_forked_workers(tmp_path):
    from concurrent.futures import ProcessPoolExecutor
    m = meter.Meter(tmp_path / "meter")
    with m, meter.JobMeter(m) as jm:
        _busy(0.3)
        with ProcessPoolExecutor(max_workers=2) as pool:
            list(pool.map(_busy, [0.3, 0.3]))
    reading = jm.reading
    # about 6 timer-driven samples per process, plus the two around the job
    assert reading.samples >= 2 + 3 * 3
    assert 0 < reading.calib_cpu < 0.5
    assert reading.factor > 0
    assert list((tmp_path / "meter").iterdir()) == []
    assert meter._active is None


def _traced_jobs(tmp_path):
    tracer = tracing.Tracer()
    registry = workloads.Registry(tmp_path / "registry", seed=5, size=120)
    tuning = workloads.Tuning(tmp_path / "tuning", seed=5, size=1)
    registry.setup()
    tuning.setup()
    with tracing.installed(tracer):
        registry.run(0, tracer=tracer)
        tuning.run(1, tracer=tracer)
    return tracer


def test_spans_nest_and_self_times_are_nonnegative(tmp_path):
    tracer = _traced_jobs(tmp_path)
    stats = tracing.SpanStats(tracer)
    assert tracing.check_nesting(tracer) == []
    assert all(t >= -1e-9 for t in stats.self_time.values())
    for name in ("job", "cli.composite", "report.fmt6", "empirical_null.fit",
                 "numerics.nm", "kernels.loglik", "baselines.mom", "svg.render"):
        assert stats.count[name] > 0, name
    assert stats.count["job"] == 2
    # the originals are back once the tracer is removed
    from profile_null import report
    assert report.fmt6.__module__ == "profile_null.report"
    assert not hasattr(report.fmt6, "__wrapped__")


def test_tracer_reports_names_the_package_no_longer_has(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + [
        ("report", "no_such_function", "report.gone", None),
        ("no_such_module", "anything", "gone.module", None),
    ])
    with tracing.installed(tracing.Tracer()) as missing:
        assert missing == ["report.no_such_function", "no_such_module.anything"]


def test_nesting_check_reports_a_child_outside_its_parent():
    tracer = tracing.Tracer()
    with tracer.job(0):
        with tracer.span("outer"):
            pass
    tracer.parent.append(1)
    tracer.name.append("late")
    tracer.job_id.append(0)
    tracer.note.append(None)
    tracer.start.append(tracer.end[1] + 1.0)
    tracer.end.append(tracer.end[1] + 2.0)
    problems = tracing.check_nesting(tracer)
    assert any("outside its parent" in p for p in problems)
    assert any("negative self time" in p for p in problems)


def _flip_first_digit(path: Path, skip_lines: int = 1) -> None:
    lines = path.read_text(encoding="utf-8").split("\n")
    for k in range(skip_lines, len(lines)):
        for i, ch in enumerate(lines[k]):
            if ch.isdigit():
                lines[k] = lines[k][:i] + str((int(ch) + 1) % 10) + lines[k][i + 1:]
                path.write_text("\n".join(lines), encoding="utf-8")
                return
    raise AssertionError(f"no digit in {path}")


@pytest.mark.parametrize("name", ["composite.csv", "funnel_TRR.svg", "null_fit.json"])
def test_golden_check_fails_on_a_flipped_digit(tmp_path, name):
    from profile_null.cli import main
    golden = ROOT / "tests" / "golden" / "pipeline"
    out = tmp_path / "pipeline"
    codes = workloads.run_report(main, ROOT / "tests" / "fixtures" / "centers.csv",
                                 ROOT / "tests" / "fixtures" / "measures.json", out)
    assert set(codes.values()) == {0}
    assert checks.compare_tree(out, golden) == []
    # flip a digit of a value, past the header or the first JSON line
    skip = 2 if name.endswith(".json") else 1
    if name.endswith(".svg"):
        skip = next(i for i, line in enumerate(
            (out / name).read_text(encoding="utf-8").split("\n")) if "<circle" in line)
    _flip_first_digit(out / name, skip)
    problems = checks.compare_tree(out, golden)
    assert len(problems) == 1 and problems[0].startswith(name)


def test_registry_check_fails_on_a_flipped_digit(tmp_path):
    from profile_null.cli import main
    inputs = workloads.write_registry(tmp_path / "in", seed=11, n_centers=150)
    out = tmp_path / "out"
    assert set(workloads.run_report(main, inputs.centers, inputs.measures,
                                    out).values()) == {0}
    ids = [m["measure_id"] for m in workloads.MEASURES]
    found = checks.check_report(out, inputs.rows, ids)
    assert found == {"composite": [], "funnel": [], "diagnose": []}
    assert 0 < len(inputs.rows) < 150 * len(ids)   # some measures missing

    scores = out / "scores.csv"
    lines = scores.read_text(encoding="utf-8").split("\n")
    cells = lines[1].split(",")
    z_en = cells[3]
    i = next(k for k, ch in enumerate(z_en) if ch.isdigit() and ch != "0")
    cells[3] = z_en[:i] + str((int(z_en[i]) + 1) % 10) + z_en[i + 1:]
    lines[1] = ",".join(cells)
    scores.write_text("\n".join(lines), encoding="utf-8")
    found = checks.check_report(out, inputs.rows, ids)
    assert len(found["composite"]) == 1 and "z_en" in found["composite"][0]


def test_result_digest_changes_with_one_value():
    import dataclasses

    from profile_null import SimConfig, run_tuning_sensitivity
    config = SimConfig(seed=4, outlier_fraction=0.10, gamma_grid=(2.0,), iterations=1,
                       q_grid=(5.0,))
    result = run_tuning_sensitivity(config, workers=1)
    digest = checks.result_digest(result)
    assert checks.result_digest(run_tuning_sensitivity(config, workers=1)) == digest
    sigma2 = dict(result.sigma2_mean)
    sigma2["en"] = sigma2["en"] * (1.0 + 1e-15)
    assert checks.result_digest(dataclasses.replace(result, sigma2_mean=sigma2)) != digest


def test_the_benchmark_refuses_to_run_without_the_package(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(SPEC["command"] + ["--workload", "sim-tuning", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
