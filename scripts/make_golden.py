#!/usr/bin/env python3
"""Regenerate the pinned golden outputs under tests/golden/ by running the
CLI pipeline on the bundled fixture dataset.

Run only when an intentional behavior change invalidates the pinned bytes;
the golden test compares byte-for-byte.
"""

import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from profile_null.cli import main  # noqa: E402

FIXTURES = ROOT / "tests" / "fixtures"
GOLDEN = ROOT / "tests" / "golden"


def run(args):
    code = main(args)
    if code != 0:
        raise SystemExit(f"golden generation failed ({code}): {args}")


def main_():
    if GOLDEN.exists():
        shutil.rmtree(GOLDEN)
    centers = str(FIXTURES / "centers.csv")
    measures = str(FIXTURES / "measures.json")
    run(["composite", "--centers", centers, "--measures", measures,
         "--out", str(GOLDEN / "pipeline")])
    run(["funnel", "--centers", centers, "--measures", measures,
         "--out", str(GOLDEN / "pipeline")])
    run(["diagnose", "--centers", centers, "--measures", measures,
         "--out", str(GOLDEN / "pipeline")])
    for method in ("fe", "mom"):
        run(["standardize", "--centers", centers, "--measures", measures,
             "--method", method, "--out", str(GOLDEN / f"standardize_{method}")])
    run(["simulate", "--config", str(FIXTURES / "sim_smoke.json"),
         "--out", str(GOLDEN / "sim_smoke"), "--workers", "1"])
    run(["simulate", "--config", str(FIXTURES / "sim_smoke_tuning.json"),
         "--out", str(GOLDEN / "sim_smoke"), "--workers", "1"])
    run(["simulate", "--config", str(FIXTURES / "sim_smoke_composite.json"),
         "--out", str(GOLDEN / "sim_smoke"), "--workers", "1"])
    n = sum(1 for _ in GOLDEN.rglob("*") if _.is_file())
    print(f"{n} golden files written under {GOLDEN}")


if __name__ == "__main__":
    main_()
