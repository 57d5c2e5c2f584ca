"""Command-line entry point.

Subcommands: standardize, composite, funnel, simulate, diagnose.
Exit codes: 0 success, 2 input/validation error, 3 convergence failure,
1 internal error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import __version__
from .baselines import DEFAULT_WINSOR_Q
from .composite import WEIGHT_SCHEMES, CompositeConfig, composite_table
from .empirical_null import FLAG_Z
from .errors import ConvergenceError, FittingError, InputError
from .report import (
    SIM_EXPERIMENTS,
    align_scores,
    emit_funnel,
    funnel_suffixes,
    read_center_stats,
    read_measure_config,
    read_sim_config,
    standardize,
    write_composite_report,
    write_diagnostics,
    write_scores_report,
)
from .simulation import METHOD_KEYS

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_CONVERGENCE = 3


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--centers", required=True, help="center statistics CSV")
    p.add_argument("--measures", required=True, help="measure config JSON")
    p.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="profile-null",
        description="Standardize provider quality measures against an "
                    "individualized empirical null and build composite scores.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("standardize", help="compute standardized Z-scores")
    _add_data_args(p)
    p.add_argument("--method", choices=METHOD_KEYS, default="en")
    p.add_argument("--mom-q", type=float, default=DEFAULT_WINSOR_Q,
                   help="Winsorization level for --method mom")

    p = sub.add_parser("composite", help="full pipeline to composite report")
    _add_data_args(p)
    p.add_argument("--method", choices=METHOD_KEYS, default="en")
    p.add_argument("--mom-q", type=float, default=DEFAULT_WINSOR_Q)
    p.add_argument("--weight-scheme", choices=tuple(WEIGHT_SCHEMES),
                   default=CompositeConfig.weight_scheme)
    p.add_argument("--flag-lower", type=float, default=CompositeConfig.flag_lower)
    p.add_argument("--flag-upper", type=float, default=CompositeConfig.flag_upper)

    p = sub.add_parser("funnel", help="funnel plots with control limits")
    _add_data_args(p)
    p.add_argument("--alpha-z", type=float, action="append", default=None,
                   help="|Z| threshold for the limit curves (repeatable; "
                        f"default {FLAG_Z:g})")

    p = sub.add_parser("simulate", help="run a simulation experiment")
    p.add_argument("--config", required=True, help="simulation config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--workers", type=int, default=None,
                   help="most worker processes in the run's one pool, "
                        "clamped to the usable CPUs (default: those CPUs, "
                        "capped by PROFILE_NULL_THREADS)")

    p = sub.add_parser("diagnose", help="size-grouped Z-score variance table")
    _add_data_args(p)
    p.add_argument("--groups", type=int, default=3)
    return parser


def _load_table(args):
    return read_center_stats(args.centers, read_measure_config(args.measures))


def _cmd_standardize(args) -> int:
    run = standardize(_load_table(args), method=args.method, mom_q=args.mom_q)
    written = write_scores_report(run, args.out)
    for path in written:
        print(path)
    return EXIT_OK


def _cmd_composite(args) -> int:
    table = _load_table(args)
    run = standardize(table, method=args.method, mom_q=args.mom_q)
    written = write_scores_report(run, args.out)
    center_ids, aligned = align_scores(run)
    config = CompositeConfig(weight_scheme=args.weight_scheme,
                             flag_lower=args.flag_lower,
                             flag_upper=args.flag_upper)
    scored, skipped = composite_table(center_ids, aligned,
                                      [m.measure_id for m in table.measures], config)
    written.append(write_composite_report(scored, Path(args.out) / "composite.csv"))
    if skipped:
        # a one-measure table skips only the centers without a score
        rule = "fewer than 2 measures" if len(table.measures) > 1 else "no score"
        print(f"note: {len(skipped)} center{'' if len(skipped) == 1 else 's'} had "
              f"{rule} and no composite", file=sys.stderr)
    for path in written:
        print(path)
    return EXIT_OK


def _cmd_funnel(args) -> int:
    alphas = args.alpha_z if args.alpha_z else [FLAG_Z]
    for alpha_z in alphas:
        if not (alpha_z > 0 and math.isfinite(alpha_z)):
            raise InputError(f"--alpha-z must be a positive finite number, "
                             f"got {alpha_z}")
    funnel_suffixes(alphas)
    table = _load_table(args)
    run = standardize(table, method="en")
    written = []
    for spec in table.measures:
        fit = run.null_fits.get(spec.measure_id)
        if fit is None:
            print(f"note: no usable centers for {spec.measure_id!r}",
                  file=sys.stderr)
            continue
        written += emit_funnel(table, spec, fit.phi_hat, alphas, args.out)
    for path in written:
        print(path)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    config, kind = read_sim_config(args.config)
    runner, writer = SIM_EXPERIMENTS[kind]
    for path in writer(runner(config, workers=args.workers), args.out):
        print(path)
    return EXIT_OK


def _cmd_diagnose(args) -> int:
    path = write_diagnostics(_load_table(args),
                             Path(args.out) / "diagnostics.csv",
                             n_groups=args.groups)
    print(path)
    return EXIT_OK


_COMMANDS = {
    "standardize": _cmd_standardize,
    "composite": _cmd_composite,
    "funnel": _cmd_funnel,
    "simulate": _cmd_simulate,
    "diagnose": _cmd_diagnose,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ConvergenceError, FittingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
