"""Command-line front end for the Monte Carlo experiment harness.

Exit codes: 0 success, 2 invalid arguments or parameters, 3 when
``--assert`` is given and a statistical gate fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

from .harness import (
    KINDS,
    ExperimentReport,
    ExperimentSpec,
    gate_failures,
    reports_to_csv,
    reports_to_json,
    run_experiment,
    scaling_gate_failures,
    summarize,
    validate_spec,
)
from .trees import ScalingReport, structure_scaling_report

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_GATE_FAILED = 3

DEFAULT_UST_GRID = "100,200,400,800,1600,3200,6400"


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r} ({exc})") from None


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}") from None


def _add_common(sub: argparse.ArgumentParser, *, trials_default: int = 1000) -> None:
    sub.add_argument("--trials", type=int, default=trials_default, help="number of independent trials")
    sub.add_argument("--seed", type=int, default=0, help="master seed; all streams derive from it")
    sub.add_argument("--jobs", type=int, default=1, help="worker processes for trials")
    sub.add_argument("--out", type=Path, default=None, help="write the report rows to this file")
    sub.add_argument("--format", choices=("csv", "json"), default="csv", help="output file format")
    sub.add_argument(
        "--assert",
        dest="assert_gates",
        action="store_true",
        help="exit 3 unless the statistical gates for this experiment pass",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisyquery",
        description="Monte Carlo experiments for noisy-query algorithms.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    for kind in KINDS.values():
        sub = commands.add_parser(kind.name, help=kind.help)
        for param in kind.params:
            flag = f"--{param.flag or param.field}"
            if param.type is bool:
                sub.add_argument(flag, action="store_true", help=param.help)
                continue
            required = not param.optional and param.cli_default is None
            arg_type = _fraction if param.type is Fraction else param.type
            sub.add_argument(flag, type=arg_type, required=required, default=param.cli_default, help=param.help)
        _add_common(sub, trials_default=kind.trials_default)
        sub.set_defaults(func=_cmd_kind, kind=kind.name)

    ust = commands.add_parser("ust-stats", help="balanced-edge scaling of uniform spanning trees")
    ust.add_argument("--n-grid", type=_int_list, default=DEFAULT_UST_GRID, help=f"sizes (default {DEFAULT_UST_GRID})")
    ust.add_argument("--samples", type=int, default=200, help="trees per size")
    ust.add_argument("--beta", type=_fraction, default=Fraction(1, 3))
    ust.add_argument("--seed", type=int, default=0)
    ust.add_argument("--out", type=Path, default=None)
    ust.add_argument("--format", choices=("csv", "json"), default="csv")
    ust.add_argument("--assert", dest="assert_gates", action="store_true")
    ust.set_defaults(func=_cmd_ust_stats)

    return parser


def _cmd_kind(args) -> int:
    kind = KINDS[args.kind]
    fields = {p.field: getattr(args, (p.flag or p.field).replace("-", "_")) for p in kind.params}
    spec = ExperimentSpec(kind.name, trials=args.trials, seed=args.seed, jobs=args.jobs, **fields)
    specs = [spec]
    if kind.sweep_k:
        validate_spec(spec)  # before the rows for k = 1, 2, ... start
        specs = [dataclasses.replace(spec, k=x) for x in range(1, spec.k + 1)]
    reports = [run_experiment(s) for s in specs]
    _emit(reports, args)
    return _finish([line for report in reports for line in gate_failures(report)], args)


def _emit(reports: list[ExperimentReport], args) -> None:
    for report in reports:
        print(summarize(report))
    if args.out is not None:
        text = reports_to_csv(reports) if args.format == "csv" else reports_to_json(reports)
        args.out.write_text(text)
        print(f"wrote {args.out}")


def _finish(failures: list[str], args) -> int:
    if not args.assert_gates:
        return EXIT_OK
    for line in failures:
        print(f"GATE FAIL {line}", file=sys.stderr)
    return EXIT_GATE_FAILED if failures else EXIT_OK


def _scaling_csv(report: ScalingReport) -> str:
    lines = ["beta,n,samples,balanced_median,balanced_mean,s_sum_median,s_sum_mean"]
    for row in report.rows:
        lines.append(",".join([str(report.beta), *map(repr, dataclasses.astuple(row))]))
    return "\n".join(lines) + "\n"


def _scaling_json(report: ScalingReport) -> str:
    payload = {
        "beta": str(report.beta),
        "rows": [dataclasses.asdict(row) for row in report.rows],
        "slopes": {
            "balanced_median": report.balanced_median_slope,
            "balanced_mean": report.balanced_mean_slope,
            "s_sum_median": report.s_sum_median_slope,
            "s_sum_mean": report.s_sum_mean_slope,
        },
    }
    return json.dumps(payload, indent=2) + "\n"


def _cmd_ust_stats(args) -> int:
    report = structure_scaling_report(args.n_grid, args.samples, args.beta, args.seed)
    for row in report.rows:
        print(
            f"n={row.n} samples={row.samples} balanced_median={row.balanced_median:g} "
            f"s_sum_median={row.s_sum_median:g}"
        )
    print(
        f"slopes: balanced_median={report.balanced_median_slope:.4f} "
        f"s_sum_median={report.s_sum_median_slope:.4f}"
    )
    if args.out is not None:
        text = _scaling_csv(report) if args.format == "csv" else _scaling_json(report)
        args.out.write_text(text)
        print(f"wrote {args.out}")
    return _finish([f"ust-stats: {line}" for line in scaling_gate_failures(report)], args)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.out is not None and not args.out.parent.is_dir():
            raise ValueError(f"--out directory {str(args.out.parent)!r} does not exist")
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
