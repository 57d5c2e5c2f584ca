#!/usr/bin/env python3
"""The profile-null benchmark. From the root of a checkout:

    python3 perfbench/run.py --workload registry-8k --seed 1 --seconds 30 --trace 0

Workloads: registry-8k, sim-flagging, sim-tuning (see workloads.py for what
each runs and why it was chosen). Inputs are made from --seed.

--trace 0 times jobs of the workload for about --seconds and prints the
end-to-end metrics, with times in reference seconds (see meter.py).
--trace 1 runs one untraced in-process job (and, for a pool workload, one
untraced pool job), then traced in-process jobs, and prints the per-layer
metrics, the tracing overhead among them. Both check the outputs: the
fixture pipeline against tests/golden/pipeline, the workload's own
invariants, and identical results across the jobs of the run, whatever
their worker count. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; a longer record with
the environment goes to .perfbench/results/. The exit code is 1 when a
check fails and 2 when the package cannot be loaded from this checkout's
src/.
"""

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import meter  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

OUT = ROOT / ".perfbench"
FIXTURES = ROOT / "tests" / "fixtures"
GOLDEN = ROOT / "tests" / "golden" / "pipeline"

SETUP_REPS = 7
MIN_JOBS = 2
PROBE_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "rows_per_s": "rows/s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}

# printed with the end-to-end metrics, not part of the JSON result: on the
# sims iters_per_s is rows_per_s / n_centers, and fail_frac is also carried
# by the result's attempted and failed counts
PRINTED_UNITS = {"job_s": "s", "iters_per_s": "iterations/s", "fail_frac": "ratio",
                 "raw_job_s": "s", "raw_cpu_s": "s", "speed_factor": "ratio"}

PER_LAYER = {
    "kernels.loglik_evals_per_fit": "count",
    "kernels.loglik_us": "us",
    "kernels.loglik_share": "ratio",
    "kernels.irls_ms": "ms",
    "numerics.nm_runs_per_fit": "count",
    "numerics.nm_iters_per_run": "count",
    "numerics.nm_self_share": "ratio",
    "empirical_null.fit_ms": "ms",
    "empirical_null.fits_per_job": "count",
    "empirical_null.fit_share": "ratio",
    "empirical_null.fit_failures": "count",
    "baselines.mom_us": "us",
    "baselines.mom_calls_per_iter": "count",
    "simulation.gen_us": "us",
    "simulation.iter_ms": "ms",
    "simulation.parallel_eff": "ratio",
    "simulation.failed_iters": "count",
    "measures.zfe_calls": "count",
    "measures.zfe_s": "s",
    "report.read_s": "s",
    "report.standardize_self_s": "s",
    "report.align_s": "s",
    "report.write_s": "s",
    "report.funnel_self_s": "s",
    "report.fmt6_calls": "count",
    "report.fmt6_s": "s",
    "report.bytes_written": "bytes",
    "composite.table_self_s": "s",
    "composite.corr_s": "s",
    "composite.centers_scored": "count",
    "composite.partial_centers": "count",
    "svg.render_s": "s",
    "svg.bytes": "bytes",
    "cli.composite_s": "s",
    "cli.funnel_s": "s",
    "cli.diagnose_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.spans_per_job": "count",
}


def load_package():
    import profile_null
    where = Path(profile_null.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"profile_null was loaded from {where}, not from {SRC}")
    return profile_null


def set_up(args, workdir: Path):
    """Everything before the first timed job: import, inputs, warm-up."""
    load_package()
    wl = workloads.WORKLOADS[args.workload](workdir, args.seed, args.size)
    wl.setup()
    return wl


def probe_setup_times(args, workdir: Path) -> list[float]:
    """Set-up time of SETUP_REPS fresh interpreters, in reference seconds:
    from the launch of each to the line it prints when its set-up is done,
    so interpreter start is counted, less the probe's calibrations and
    times its speed factor."""
    times = []
    for k in range(SETUP_REPS):
        probe_dir = workdir / f"probe{k}"
        probe_dir.mkdir(parents=True)
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0", "--setup-probe", str(probe_dir)]
        if args.size:
            cmd += ["--size", str(args.size)]
        with open(probe_dir / "stderr.txt", "w+", encoding="utf-8") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True,
                                    cwd=ROOT)
            ready = proc.stdout.readline().split()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=PROBE_TIMEOUT_S)
            err.seek(0)
            if proc.returncode != 0 or len(ready) != 3 or ready[0] != "ready":
                raise RuntimeError(f"set-up probe failed: {err.read().strip()[-800:]}")
        factor, calib_cpu = float(ready[1]), float(ready[2])
        times.append((elapsed - calib_cpu) * factor)
    return times


def run_jobs(wl, seconds: float, workers: int, first_id: int, min_jobs: int,
             tracer=None, job_meter=None) -> list:
    """Jobs back to back until another would overrun ``seconds``."""
    jobs = []
    t0 = time.perf_counter()
    while True:
        jobs.append(wl.run(first_id + len(jobs), workers=workers, tracer=tracer,
                           meter=job_meter))
        elapsed = time.perf_counter() - t0
        if elapsed + jobs[-1].wall > seconds and (
                len(jobs) >= min_jobs or elapsed > 3 * seconds):
            return jobs


def peak_rss_mb() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(me, kids) / 1024.0   # ru_maxrss is in KiB on Linux


def golden_problems(workdir: Path) -> list[str]:
    from profile_null.cli import main
    out = workdir / "golden"
    codes = workloads.run_report(main, FIXTURES / "centers.csv",
                                 FIXTURES / "measures.json", out)
    problems = [f"fixture {cmd} exited {rc}" for cmd, rc in codes.items() if rc]
    problems += [f"golden: {p}" for p in checks.compare_tree(out, GOLDEN)]
    shutil.rmtree(out, ignore_errors=True)
    return problems


def consistency_problems(jobs) -> list[str]:
    problems = [p for j in jobs for p in j.problems]
    first = jobs[0].fingerprint
    for k, j in enumerate(jobs[1:], start=1):
        if None not in (first, j.fingerprint) and j.fingerprint != first:
            problems.append(f"job {k} output differs from job 0")
    return problems


def environment(workers: int) -> dict:
    import numpy
    import profile_null
    try:
        import numba  # noqa: F401
        have_numba = True
    except ImportError:
        have_numba = False
    cpu_model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "backend": profile_null.backend(),
        "nproc": workloads.nproc(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_imported": have_numba,
        "workers": workers,
        "platform": platform.platform(),
    }


def end_to_end(args, wl, workdir: Path):
    """Timed jobs under the host-speed meter, then the set-up probes. Times
    are in reference seconds (see meter.py); the raw medians are printed."""
    with meter.Meter(workdir / "meter") as job_meter:
        jobs = run_jobs(wl, args.seconds, wl.workers, 0, MIN_JOBS,
                        job_meter=job_meter)
    peak = peak_rss_mb()
    setup = probe_setup_times(args, workdir)
    metrics = {
        "setup_s": statistics.median(setup),
        "rows_per_s": statistics.median(j.rows / j.ref_wall for j in jobs),
        "cpu_s": statistics.median(j.ref_cpu for j in jobs),
        "peak_rss_mb": peak,
    }
    samples = {"setup_s": len(setup), "rows_per_s": len(jobs), "cpu_s": len(jobs),
               "peak_rss_mb": 1}
    report = {name: (value, samples[name]) for name, value in metrics.items()}
    report["job_s"] = (statistics.median(j.ref_wall for j in jobs), len(jobs))
    if jobs[0].iterations:
        report["iters_per_s"] = (
            statistics.median(j.iterations / j.ref_wall for j in jobs), len(jobs))
    report["raw_job_s"] = (statistics.median(j.wall for j in jobs), len(jobs))
    report["raw_cpu_s"] = (statistics.median(j.cpu for j in jobs), len(jobs))
    report["speed_factor"] = (statistics.median(j.speed_factor for j in jobs),
                              len(jobs))
    return metrics, report, jobs, consistency_problems(jobs)


def layer_metrics(stats: tracing.SpanStats, traced, ref, pool) -> dict:
    """Per-layer metrics from the spans of the traced jobs, per job where
    the name says nothing else; iteration time, parallel efficiency and the
    tracing overhead come from the untraced jobs."""
    n = len(traced)
    job_total = stats.total["job"]
    iterations = sum(j.iterations for j in traced)

    def share(name, self_time=False):
        t = stats.self_time[name] if self_time else stats.total[name]
        return t / job_total if job_total else 0.0

    def per_job(value):
        return value / n

    nm_iters = [v for v in stats.notes["numerics.nm"] if v != tracing.ERROR]
    tables = [v for v in stats.notes["composite.table"] if v != tracing.ERROR]
    parallel_eff = 0.0
    if ref.iterations:
        job = pool or ref
        busy = job.child_cpu if job.workers > 1 else job.cpu - job.child_cpu
        parallel_eff = busy / (job.workers * job.wall)
    return {
        "kernels.loglik_evals_per_fit": stats.per("kernels.loglik", "empirical_null.fit"),
        "kernels.loglik_us": 1e6 * stats.mean("kernels.loglik"),
        "kernels.loglik_share": share("kernels.loglik"),
        "kernels.irls_ms": 1e3 * stats.mean("kernels.irls"),
        "numerics.nm_runs_per_fit": stats.per("numerics.nm", "empirical_null.fit"),
        "numerics.nm_iters_per_run": statistics.fmean(nm_iters) if nm_iters else 0.0,
        "numerics.nm_self_share": share("numerics.nm", self_time=True),
        "empirical_null.fit_ms": 1e3 * stats.mean("empirical_null.fit"),
        "empirical_null.fits_per_job": per_job(stats.count["empirical_null.fit"]),
        "empirical_null.fit_share": share("empirical_null.fit"),
        "empirical_null.fit_failures": per_job(
            stats.notes["empirical_null.fit"].count(tracing.ERROR)),
        "baselines.mom_us": 1e6 * stats.mean("baselines.mom"),
        "baselines.mom_calls_per_iter": (stats.count["baselines.mom"] / iterations
                                         if iterations else 0.0),
        "simulation.gen_us": 1e6 * stats.mean("simulation.gen"),
        "simulation.iter_ms": 1e3 * ref.wall / ref.iterations if ref.iterations else 0.0,
        "simulation.parallel_eff": parallel_eff,
        "simulation.failed_iters": per_job(sum(j.failed for j in traced)
                                           if iterations else 0),
        "measures.zfe_calls": per_job(stats.count["measures.zfe"]),
        "measures.zfe_s": per_job(stats.total["measures.zfe"]),
        "report.read_s": per_job(stats.total["report.read"]),
        "report.standardize_self_s": per_job(stats.self_time["report.standardize"]),
        "report.align_s": per_job(stats.total["report.align"]),
        "report.write_s": per_job(stats.self_time["report.write"]),
        "report.funnel_self_s": per_job(stats.self_time["report.funnel"]),
        "report.fmt6_calls": per_job(stats.count["report.fmt6"]),
        "report.fmt6_s": per_job(stats.total["report.fmt6"]),
        "report.bytes_written": per_job(sum(j.out_bytes for j in traced)),
        "composite.table_self_s": per_job(stats.self_time["composite.table"]),
        "composite.corr_s": per_job(stats.total["composite.corr"]),
        "composite.centers_scored": per_job(sum(t[0] for t in tables)),
        "composite.partial_centers": per_job(sum(t[1] for t in tables)),
        "svg.render_s": per_job(stats.total["svg.render"]),
        "svg.bytes": per_job(sum(v for v in stats.notes["svg.render"]
                                 if v != tracing.ERROR)),
        "cli.composite_s": per_job(stats.total["cli.composite"]),
        "cli.funnel_s": per_job(stats.total["cli.funnel"]),
        "cli.diagnose_s": per_job(stats.total["cli.diagnose"]),
        "trace.overhead_frac": statistics.median(j.cpu for j in traced) / ref.cpu - 1.0,
        "trace.spans_per_job": per_job(stats.n_spans),
    }


def traced_run(args, wl):
    """Untraced in-process and pool jobs, then traced in-process jobs; all
    must give identical results, as the README promises for any number of
    workers."""
    t0 = time.perf_counter()
    ref = wl.run(0, workers=1)
    pool = wl.run(1, workers=wl.workers) if wl.workers > 1 else None
    tracer = tracing.Tracer()
    with tracing.installed(tracer) as missing:
        traced = run_jobs(wl, args.seconds - (time.perf_counter() - t0), 1, 2, 1,
                          tracer)
    stats = tracing.SpanStats(tracer)
    metrics = layer_metrics(stats, traced, ref, pool)
    checked = [ref] + ([pool] if pool else []) + traced
    problems = [f"tracer: profile_null.{name} is gone; update tracing.TARGETS"
                for name in missing]
    problems += consistency_problems(checked)
    problems += [f"spans: {p}" for p in tracing.check_nesting(tracer)[:20]]
    # one file per workload: a registry trace holds ~370k spans per job
    tracing.write_spans(tracer, OUT / "spans" / f"{args.workload}.csv")
    report = {name: (value, len(traced)) for name, value in metrics.items()}
    return metrics, report, checked, problems


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # for the smoke test: smaller inputs
    parser.add_argument("--size", type=int, default=None, help=argparse.SUPPRESS)
    # internal: set up once in this fresh interpreter, say so and exit
    parser.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        probe_dir = Path(args.setup_probe)
        with meter.Meter(probe_dir / "meter") as probe_meter:
            with meter.JobMeter(probe_meter) as jm:
                set_up(args, probe_dir)
        calib_cpu = jm.reading.calib_cpu + jm.first + jm.last
        print(f"ready {jm.reading.factor!r} {calib_cpu!r}", flush=True)
        return 0

    workdir = OUT / "work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        try:
            wl = set_up(args, workdir)
        except ImportError as exc:
            print(f"error: cannot load profile_null from {SRC}: {exc}", file=sys.stderr)
            return 2
        if args.trace:
            metrics, report, jobs, problems = traced_run(args, wl)
            units = PER_LAYER
        else:
            metrics, report, jobs, problems = end_to_end(args, wl, workdir)
            units = END_TO_END
        problems += golden_problems(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(j.attempted for j in jobs)
    failed = sum(j.failed for j in jobs)
    report["fail_frac"] = (failed / attempted, len(jobs))
    env = environment(wl.workers)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"jobs {len(jobs)}")
    print("env " + json.dumps(env))
    for name, (value, samples) in report.items():
        unit = units.get(name) or PRINTED_UNITS[name]
        print(f"  {name:32s} {value:16.6f} {unit:14s} n={samples}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    record = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({
        "env": env, "problems": problems, "report": report, "result": result,
        "jobs": [{"wall_s": j.wall, "cpu_s": j.cpu, "ref_wall_s": j.ref_wall,
                  "ref_cpu_s": j.ref_cpu, "speed_factor": j.speed_factor,
                  "workers": j.workers} for j in jobs],
    }, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
