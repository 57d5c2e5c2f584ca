"""Workload inputs and jobs for the profile-null benchmark.

Every input is a pure function of the workload seed. The registry workload
writes only ``centers.csv`` and ``measures.json``; the simulation workloads
build only a ``SimConfig``. The package itself sees nothing else.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from meter import JobMeter

CENTER_HEADER = "center_id,measure_id,observed,expected,effective_size"

# Same four measures as the 212-center test fixture.
MEASURES = [
    {"measure_id": "TRR", "family": "poisson", "direction": "higher_is_better"},
    {"measure_id": "SAR", "family": "binomial", "direction": "higher_is_better"},
    {"measure_id": "PSMR", "family": "poisson", "direction": "lower_is_better"},
    {"measure_id": "GSMR", "family": "poisson", "direction": "lower_is_better"},
]
MEASURE_ORDER = {m["measure_id"]: k for k, m in enumerate(MEASURES)}

REGISTRY_CENTERS = 8000
# Share of centers that lack exactly one measure: gives composite_table
# partial centers and several missingness patterns.
MISSING_FRACTION = 0.04
REPORT_COMMANDS = ("composite", "funnel", "diagnose")

WARMUP_CENTERS = 200

FLAGGING_ITERATIONS = 40       # per gamma point, so 80 iterations per job
TUNING_ITERATIONS = 16
# the failure cap the simulation runners document
MAX_FAILED_FRACTION = 0.05


def _expit(x):
    return 1.0 / (1.0 + np.exp(-x))


def registry_rows(seed: int, n_centers: int) -> list[tuple[str, str, str, str, str]]:
    """Center-measure rows built the way scripts/make_fixtures.py builds the
    212-center fixture, at ``n_centers`` and with a few centers missing one
    measure. Rows are grouped by center, measures in declaration order."""
    rng = np.random.default_rng(seed)
    ids = [f"C{i + 1:05d}" for i in range(n_centers)]
    volume = rng.lognormal(mean=4.0, sigma=0.8, size=n_centers)
    gamma = np.zeros(n_centers)
    n_effects = max(1, round(6 * n_centers / 212))
    gamma[rng.choice(n_centers, n_effects, replace=False)] = rng.choice(
        [-0.8, 0.8], n_effects)
    n_missing = int(MISSING_FRACTION * n_centers)
    missing = set(zip(rng.choice(n_centers, n_missing, replace=False).tolist(),
                      rng.integers(0, len(MEASURES), n_missing).tolist()))
    rows = []

    def keep(i, measure_id):
        return (i, MEASURE_ORDER[measure_id]) not in missing

    def poisson_measure(measure_id, size_scale, sigma2):
        alpha = rng.normal(0.0, math.sqrt(sigma2), n_centers)
        expected = size_scale * volume * rng.uniform(0.8, 1.25, n_centers)
        observed = rng.poisson(expected * np.exp(gamma + alpha))
        for i, (o, e) in enumerate(zip(observed, expected)):
            if keep(i, measure_id):
                rows.append((ids[i], measure_id, f"{float(o):.6f}", f"{e:.6f}", ""))

    def binomial_measure(measure_id, sigma2):
        alpha = rng.normal(0.0, math.sqrt(sigma2), n_centers)
        offers = np.maximum(8, (volume * rng.uniform(1.5, 2.5, n_centers)).astype(int))
        p0 = rng.uniform(0.35, 0.6, n_centers)
        observed = rng.binomial(offers, _expit(np.log(p0 / (1 - p0)) + gamma + alpha))
        expected = offers * p0
        size = offers * p0 * (1 - p0)
        for i, (o, e, n) in enumerate(zip(observed, expected, size)):
            if keep(i, measure_id):
                rows.append((ids[i], measure_id, f"{float(o):.6f}", f"{e:.6f}",
                             f"{n:.6f}"))

    poisson_measure("TRR", 1.0, 0.14)
    binomial_measure("SAR", 0.24)
    poisson_measure("PSMR", 0.06, 0.04)
    poisson_measure("GSMR", 0.09, 0.04)
    rows.sort(key=lambda r: (r[0], MEASURE_ORDER[r[1]]))
    return rows


@dataclass(frozen=True)
class RegistryInputs:
    centers: Path
    measures: Path
    rows: list


def write_registry(directory: Path, seed: int, n_centers: int) -> RegistryInputs:
    directory.mkdir(parents=True, exist_ok=True)
    rows = registry_rows(seed, n_centers)
    centers = directory / "centers.csv"
    centers.write_text("\n".join([CENTER_HEADER] + [",".join(r) for r in rows]) + "\n",
                       encoding="utf-8")
    measures = directory / "measures.json"
    measures.write_text(json.dumps(MEASURES, indent=2) + "\n", encoding="utf-8")
    return RegistryInputs(centers, measures, rows)


def run_report(main, centers: Path, measures: Path, out_dir: Path,
               tracer=None) -> dict[str, int]:
    """The release report: CLI composite, funnel, diagnose into ``out_dir``,
    in-process. Returns each subcommand's exit code; with a tracer, each
    subcommand runs inside a ``cli.<name>`` span."""
    codes = {}
    sink = io.StringIO()
    for cmd in REPORT_COMMANDS:
        argv = [cmd, "--centers", str(centers), "--measures", str(measures),
                "--out", str(out_dir)]
        span = (contextlib.nullcontext() if tracer is None
                else tracer.span(f"cli.{cmd}"))
        with span, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            codes[cmd] = main(argv)
    return codes


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pool_workers() -> int:
    # capped so that a large host does not start dozens of workers
    return max(1, min(nproc(), 8))


@dataclass
class Job:
    """One timed job and what its outputs showed."""

    wall: float
    cpu: float               # this process plus reaped children
    child_cpu: float
    attempted: int
    failed: int
    rows: int                # center-measure rows carried through the job
    iterations: int          # simulation iterations attempted; 0 for reports
    workers: int
    fingerprint: str | None  # digest of the outputs, compared across jobs
    out_bytes: int = 0
    problems: list[str] = field(default_factory=list)
    # with a meter: wall and CPU less the calibrations, in reference seconds
    ref_wall: float | None = None
    ref_cpu: float | None = None
    speed_factor: float | None = None


def _cpu() -> tuple[float, float]:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime


class _Timer:
    """Wall and CPU time of a job and, when a meter runs, the same in
    reference seconds (see meter.py)."""

    def __init__(self, meter=None):
        self.job_meter = None if meter is None else JobMeter(meter)

    def __enter__(self):
        if self.job_meter is not None:
            self.job_meter.__enter__()
        self.cpu0 = _cpu()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self.t0
        me, kids = _cpu()
        self.child_cpu = kids - self.cpu0[1]
        self.cpu = me - self.cpu0[0] + self.child_cpu
        self.ref = {}
        if self.job_meter is not None:
            self.job_meter.__exit__(*exc)
            reading = self.job_meter.reading
            work_cpu = self.cpu - reading.calib_cpu
            # the calibrations stretched the wall time in the same proportion
            work_wall = self.wall * work_cpu / self.cpu
            self.ref = {"ref_wall": work_wall * reading.factor,
                        "ref_cpu": work_cpu * reading.factor,
                        "speed_factor": reading.factor}
        return False


def _job_span(tracer, job_id):
    return contextlib.nullcontext() if tracer is None else tracer.job(job_id)


class Registry:
    """registry-8k: the release report (CLI composite, funnel, diagnose) on
    8,000 centers x 4 measures, a few percent of centers missing one.

    Why: the data-model layers (report, measures, composite, svg) do most of
    the work here and none in the simulations; the fit runs 8 times per job
    at n ~ 8k, where each objective call is elementwise math rather than
    per-call overhead; the missing measures give composite_table partial
    centers and several missingness patterns.
    """

    name = "registry-8k"
    workers = 1

    def __init__(self, workdir: Path, seed: int, size: int | None = None):
        self.workdir, self.seed = workdir, seed
        self.n_centers = size or REGISTRY_CENTERS

    def setup(self) -> None:
        from profile_null.cli import main
        self.main = main
        self.inputs = write_registry(self.workdir / "input", self.seed, self.n_centers)
        # warm-up: a small report pays lazy imports and first-call costs
        warm = write_registry(self.workdir / "warm", self.seed, WARMUP_CENTERS)
        run_report(main, warm.centers, warm.measures, self.workdir / "warm" / "out")

    def run(self, job_id: int, workers: int | None = None, tracer=None,
            meter=None) -> Job:
        out = self.workdir / f"out{job_id}"
        with _job_span(tracer, job_id), _Timer(meter) as t:
            codes = run_report(self.main, self.inputs.centers, self.inputs.measures,
                               out, tracer)
        found = checks.check_report(out, self.inputs.rows,
                                    [m["measure_id"] for m in MEASURES])
        problems = [f"{cmd} exited {rc}" for cmd, rc in codes.items() if rc != 0]
        problems += [p for cmd in REPORT_COMMANDS for p in found[cmd]]
        failed = sum(1 for cmd in REPORT_COMMANDS if codes[cmd] != 0 or found[cmd])
        digest, nbytes = checks.tree_digest(out)
        shutil.rmtree(out)
        return Job(wall=t.wall, cpu=t.cpu, child_cpu=t.child_cpu,
                   attempted=len(REPORT_COMMANDS), failed=failed,
                   rows=len(self.inputs.rows), iterations=0, workers=1,
                   fingerprint=digest, out_bytes=nbytes, problems=problems,
                   **t.ref)


class _Simulation:
    """A simulation workload; ``size`` overrides the iteration count."""

    runner_name = ""
    default_iterations = 0
    workers = 1

    def __init__(self, workdir: Path, seed: int, size: int | None = None):
        self.workdir, self.seed = workdir, seed
        self.iterations = size or self.default_iterations

    def setup(self) -> None:
        import profile_null
        self.runner = getattr(profile_null, self.runner_name)
        self.config = self.make_config(self.iterations)
        # warm-up: one iteration through the same path, pool included
        self.runner(self.make_config(1), workers=self.workers)

    def attempted(self) -> int:
        return self.config.iterations

    def run(self, job_id: int, workers: int | None = None, tracer=None,
            meter=None) -> Job:
        from profile_null import ConvergenceError
        w = self.workers if workers is None else workers
        attempted = self.attempted()
        with _job_span(tracer, job_id), _Timer(meter) as t:
            try:
                result = self.runner(self.config, workers=w)
            except ConvergenceError as exc:
                result, error = None, str(exc)
        if result is None:
            return Job(wall=t.wall, cpu=t.cpu, child_cpu=t.child_cpu,
                       attempted=attempted, failed=attempted,
                       rows=self.config.n_centers * attempted,
                       iterations=attempted, workers=w, fingerprint=None,
                       problems=[f"run aborted: {error}"], **t.ref)
        failed = self.failed(result)
        problems = []
        if failed > MAX_FAILED_FRACTION * attempted:
            problems.append(f"{failed} of {attempted} iterations failed")
        return Job(wall=t.wall, cpu=t.cpu, child_cpu=t.child_cpu,
                   attempted=attempted, failed=failed,
                   rows=self.config.n_centers * attempted, iterations=attempted,
                   workers=w, fingerprint=checks.result_digest(result),
                   problems=problems, **t.ref)


class Flagging(_Simulation):
    """sim-flagging: run_flagging_experiment, 212 centers, 10% outliers,
    gamma grid (0, 2), one worker per CPU.

    Why: fit_empirical_null -> nelder_mead_minimize -> the loglik kernel is
    over 99% of each iteration (about 1,680 objective calls per fit at
    n = 212, mostly per-call overhead); report and composite do nothing; and
    this is the only workload that goes through the process pool.
    """

    name = "sim-flagging"
    runner_name = "run_flagging_experiment"
    default_iterations = FLAGGING_ITERATIONS

    def __init__(self, workdir: Path, seed: int, size: int | None = None):
        super().__init__(workdir, seed, size)
        self.workers = pool_workers()

    def make_config(self, iterations: int):
        from profile_null import SimConfig
        return SimConfig(n_centers=212, seed=self.seed, outlier_fraction=0.10,
                         gamma_grid=(0.0, 2.0), iterations=iterations)

    def attempted(self) -> int:
        return self.config.iterations * len(self.config.gamma_grid)

    @staticmethod
    def failed(result) -> int:
        return int(np.sum(result.n_failed))


class Tuning(_Simulation):
    """sim-tuning: run_tuning_sensitivity in the criterion-5 setup (gamma 2,
    10% outliers, default q grid), in-process.

    Why: varying q moves the share of centers outside the truncation
    interval, and with it how much of the kernel is the object-dtype erfc
    branch rather than the vectorized in-interval branch; it also runs the
    baselines method-of-moments path 5 times per iteration; and it bypasses
    the pool, so a pool change should not move it.
    """

    name = "sim-tuning"
    runner_name = "run_tuning_sensitivity"
    default_iterations = TUNING_ITERATIONS

    def make_config(self, iterations: int):
        from profile_null import SimConfig
        return SimConfig(seed=self.seed, outlier_fraction=0.10, gamma_grid=(2.0,),
                         iterations=iterations)

    @staticmethod
    def failed(result) -> int:
        # one count per iteration, repeated for every q
        return int(result.n_failed[0])


WORKLOADS = {w.name: w for w in (Registry, Flagging, Tuning)}
