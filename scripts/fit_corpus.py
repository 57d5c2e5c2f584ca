#!/usr/bin/env python3
"""Fit a seeded corpus of empirical-null problems and count the root search's work.

The corpus has 300 datasets, each with its own generator seed: n centers,
log-uniform in 12-8,000, with sizes as in the tests; phi 0 in a quarter of
them and uniform in 0-0.14 otherwise; and an outlier share uniform in
0-20%, shifted by 1.5 sqrt(n). Each dataset is fitted at q 2.5, 5, 10, 15
and 20, each q's fit the start of the next, as the tuning sweep chains
them: 1,500 fits. A fit that raises starts the next q without a start.

The run prints the score evaluations and score calls per fit, the most
evaluations of one grid point, and a digest of the bits of every fit's
``profile_phi``, ``profile_loglik`` and ``iterations``. With ``--save`` it
keeps those bits and ``pi0_hat`` in a JSON file; ``--compare`` reads such
a file, from this checkout or another, and prints the largest relative gaps
of the roots and profiles, how many roots are more than 1e-13 apart, and
every fit whose ``pi0_hat`` or error differs.

    python3 scripts/fit_corpus.py [--quick] [--save RUN.json] [--compare RUN.json]
                                  [--src DIR] [--newton-stop X]

``--quick`` fits the first 100 datasets only, 500 fits. ``--src`` imports
the package from another checkout's ``src``. ``--newton-stop`` sets
``empirical_null._NEWTON_STOP`` for the run, as for a reference run with a
tighter stop than the shipped one.
"""

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEED = 20261021
DATASETS = 300
QUICK_DATASETS = 100
Q_CHAIN = (2.5, 5.0, 10.0, 15.0, 20.0)
REPORT_GAP = 1e-13


def dataset(k):
    """Scores and sizes of corpus dataset k."""
    rng = np.random.default_rng([SEED, k])
    n_centers = int(round(math.exp(rng.uniform(math.log(12), math.log(8000)))))
    phi = 0.0 if rng.random() < 0.25 else rng.uniform(0.0, 0.14)
    outliers = rng.uniform(0.0, 0.2)
    n = np.exp(-6.0 + rng.normal(-0.4, math.sqrt(0.5), n_centers)) \
        * rng.exponential(3e5, n_centers)
    z = rng.normal(0.0, np.sqrt(1.0 + phi * n))
    m = int(outliers * n_centers)
    z[:m] += rng.choice([-1.0, 1.0], m) * 1.5 * np.sqrt(n[:m])
    return z, n


def run(datasets):
    """One record per fit: its dataset and q, and its error or its bits."""
    from profile_null import ConvergenceError, EnConfig, FittingError, fit_empirical_null

    records = []
    for k in range(datasets):
        z, n = dataset(k)
        start = None
        for q in Q_CHAIN:
            record = {"dataset": k, "q": q}
            try:
                start = fit_empirical_null(z, n, EnConfig(q_percent=q), start=start)
            except (ConvergenceError, FittingError) as error:
                start = None
                record["error"] = type(error).__name__
            else:
                record.update(pi0_hat=start.pi0_hat,
                              profile_phi=[float(v).hex() for v in start.profile_phi],
                              profile_loglik=[float(v).hex() for v in start.profile_loglik],
                              iterations=start.iterations.tolist())
            records.append(record)
    return records


def summary(records):
    fitted = [r for r in records if "error" not in r]
    evaluations = [sum(r["iterations"]) for r in fitted]
    calls = [max(r["iterations"]) for r in fitted]
    digest = hashlib.sha256()
    for r in records:
        digest.update(json.dumps([r.get("error"), r.get("profile_phi"),
                                  r.get("profile_loglik"), r.get("iterations")]).encode())
    print(f"{len(records)} fits of {len({r['dataset'] for r in records})} datasets, "
          f"{len(records) - len(fitted)} raised")
    print(f"score evaluations per fit {np.mean(evaluations):.1f}, score calls per fit "
          f"{np.mean(calls):.2f}, at most {max(calls)} evaluations of one grid point")
    print(f"digest of profile_phi, profile_loglik and iterations: {digest.hexdigest()}")


def _relative_gaps(a, b):
    """|a - b| / max(|a|, |b|) elementwise, 0 where a == b (inf == inf too)."""
    a, b = np.array([float.fromhex(v) for v in a]), np.array([float.fromhex(v) for v in b])
    with np.errstate(invalid="ignore"):
        gap = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
    return np.where(a == b, 0.0, gap)


def compare(records, other, name):
    if [(r["dataset"], r["q"]) for r in records] != [(r["dataset"], r["q"]) for r in other]:
        sys.exit(f"{name} is a run of another corpus")
    root_gaps, profile_gaps, changed = [], [], []
    for r, o in zip(records, other):
        if "error" in r or "error" in o:
            if r.get("error") != o.get("error"):
                changed.append(f"dataset {r['dataset']} q {r['q']}: error "
                               f"{o.get('error')} -> {r.get('error')}")
            continue
        if r["pi0_hat"] != o["pi0_hat"]:
            changed.append(f"dataset {r['dataset']} q {r['q']}: pi0_hat "
                           f"{o['pi0_hat']} -> {r['pi0_hat']}")
        root_gaps.append(_relative_gaps(r["profile_phi"], o["profile_phi"]))
        profile_gaps.append(_relative_gaps(r["profile_loglik"], o["profile_loglik"]))
    roots, profiles = np.concatenate(root_gaps), np.concatenate(profile_gaps)
    print(f"against {name}: largest relative gap of a root {roots.max():.3g} "
          f"({int(np.sum(roots > REPORT_GAP))} of {roots.size} over {REPORT_GAP:g}), "
          f"of a profile {profiles.max():.3g}")
    print(f"pi0_hat or error differs in {len(changed)} fits")
    for line in changed:
        print(f"  {line}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help=f"fit the first {QUICK_DATASETS} datasets only")
    parser.add_argument("--save", type=Path, help="write every fit's bits to this JSON file")
    parser.add_argument("--compare", type=Path, help="a JSON file that --save wrote")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the src directory to import profile_null from")
    parser.add_argument("--newton-stop", type=float,
                        help="set empirical_null._NEWTON_STOP to this for the run")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    if args.newton_stop is not None:
        from profile_null import empirical_null
        if not hasattr(empirical_null, "_NEWTON_STOP"):
            sys.exit(f"{args.src} has no empirical_null._NEWTON_STOP")
        empirical_null._NEWTON_STOP = args.newton_stop
    records = run(QUICK_DATASETS if args.quick else DATASETS)
    summary(records)
    if args.save:
        args.save.write_text(json.dumps(records))
    if args.compare:
        compare(records, json.loads(args.compare.read_text()), args.compare)


if __name__ == "__main__":
    main()
