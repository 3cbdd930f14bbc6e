"""Command-line interface: diagnose, replicate, aux, montecarlo.

Exit codes: 0 success (for ``replicate``: all targets matched), 1 failed
replication targets, 2 input or usage errors, 3 a ``diagnose`` report
printed in full whose every row is degenerate (no finite ``vif`` or
``vifnc``).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .datasets import load_csv
from .diagnostics import AuxiliaryMode, Thresholds, auxiliary_regression, full_report
from .errors import VifncError
from .montecarlo import load_scenario_config, run_scenario
from .ols import DataMatrix, ModelSpec
from .replication import replication_table
from .report import (
    OutputFormat,
    render_fit,
    render_montecarlo,
    render_replication,
    render_report,
)


def _split_names(raw: list[str], columns: tuple[str, ...]) -> tuple[str, ...]:
    """Each token that names one of ``columns`` whole, and the comma-separated parts of the others."""
    names: list[str] = []
    for chunk in raw:
        names.extend([chunk] if chunk in columns else (part for part in chunk.split(",") if part))
    return tuple(names)


def cmd_diagnose(args) -> int:
    data = load_csv(args.csv)
    dependent = args.dependent
    if args.regressors:
        regressors = _split_names(args.regressors, data.names)
    else:
        regressors = tuple(name for name in data.names if name != dependent)
        if args.intercept:
            # the prepended intercept already spans any all-ones column
            regressors = tuple(
                name for name in regressors if not bool((data.column(name) == 1.0).all())
            )
    spec = ModelSpec(dependent=dependent, regressors=regressors, intercept=args.intercept)
    # the report factors every column of the matrix it reads, so it reads the model's
    # design, dependent last; a name the file lacks leaves the matrix whole, for the
    # report to name it
    names = spec.regressors + (spec.dependent,)
    if set(names) <= set(data.names) and names != data.names:
        data = DataMatrix.from_columns({name: data.column(name) for name in names})
    thresholds = Thresholds(vif=args.vif_threshold, vifnc=args.vifnc_threshold)
    report = full_report(data, spec, thresholds)
    sys.stdout.write(render_report(report, spec, dataset=str(args.csv), fmt=args.format))
    if not any(_finite(row.vif) or _finite(row.vifnc) for row in report.rows):
        print("error: the design is singular: no row has a finite vif or vifnc", file=sys.stderr)
        return 3
    return 0


def _finite(value: float | None) -> bool:
    return value is not None and math.isfinite(value)


def cmd_replicate(args) -> int:
    entries = replication_table()
    sys.stdout.write(render_replication(entries, fmt=args.format))
    return 0 if all(entry.passed for entry in entries) else 1


def cmd_aux(args) -> int:
    data = load_csv(args.csv)
    mode = AuxiliaryMode(args.mode)
    regressors = _split_names(args.regressors, data.names) if args.regressors else None
    fit = auxiliary_regression(data, args.column, regressors, mode)
    label = f"{args.column} ~ {' + '.join(fit.coefficient_names[fit.intercept :])} ({mode.value})"
    sys.stdout.write(render_fit(fit, label, fmt=args.format))
    return 0


def cmd_montecarlo(args) -> int:
    spec, thresholds = load_scenario_config(args.config)
    summary = run_scenario(spec, thresholds)
    sys.stdout.write(render_montecarlo(summary, fmt=args.format))
    return 0


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        type=OutputFormat,
        choices=list(OutputFormat),
        default=OutputFormat.TEXT,
        metavar="{text,json,csv}",
        help="output format (default: text)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vifnc",
        description="Collinearity diagnostics from centered and non-centered auxiliary regressions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    diagnose = sub.add_parser("diagnose", help="full collinearity report for a CSV dataset")
    diagnose.add_argument("csv", type=Path, help="input CSV (header row, numeric cells)")
    diagnose.add_argument("--dependent", required=True, help="dependent column name")
    diagnose.add_argument(
        "--regressors",
        nargs="+",
        help="regressor columns, also comma-separated; a token that names a column whole "
        "is taken whole (default: every column except the dependent; "
        "with --intercept, all-ones columns are also skipped)",
    )
    diagnose.add_argument(
        "--intercept",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="fit the model with an intercept (default: yes)",
    )
    diagnose.add_argument("--vif-threshold", type=float, default=Thresholds.vif)
    diagnose.add_argument("--vifnc-threshold", type=float, default=Thresholds.vifnc)
    _add_format(diagnose)
    diagnose.set_defaults(func=cmd_diagnose)

    replicate = sub.add_parser(
        "replicate", help="recompute all published Belsley-data targets and report PASS/FAIL"
    )
    _add_format(replicate)
    replicate.set_defaults(func=cmd_replicate)

    aux = sub.add_parser("aux", help="inspect one auxiliary regression")
    aux.add_argument("csv", type=Path)
    aux.add_argument("--column", required=True, help="column to regress on the others")
    aux.add_argument(
        "--regressors", nargs="+", help="explanatory columns, as in diagnose (default: all others)"
    )
    aux.add_argument(
        "--mode",
        choices=[mode.value for mode in AuxiliaryMode],
        default=AuxiliaryMode.NONCENTERED.value,
        help="centered adds an intercept to the auxiliary regression",
    )
    _add_format(aux)
    aux.set_defaults(func=cmd_aux)

    montecarlo = sub.add_parser("montecarlo", help="run a seeded simulation scenario")
    montecarlo.add_argument("config", type=Path, help="flat key=value scenario file")
    _add_format(montecarlo)
    montecarlo.set_defaults(func=cmd_montecarlo)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (VifncError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
