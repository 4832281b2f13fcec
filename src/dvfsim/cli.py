"""Command-line front end: validate, simulate, compare, and sweep subcommands.

Exit codes: 0 success, 1 runtime failure (I/O, a model value overflowing a
float, or a run carried past the trace cap of engine.MAX_TRACE_POINTS samples),
2 invalid scenario (parse/schema/validation, including NaN, Infinity,
out-of-range numbers and a sim.trace_dt finer than the cap allows), 64 usage
error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import load_scenario, parse_scenario, read_document, set_sweep_param
from .engine import compare_policies, simulate
from .errors import DomainError, PolicyRunError, ScenarioError
from .reporting import (
    format_comparison_table,
    format_lifetime,
    format_sweep,
    write_comparison,
    write_report,
    write_sweep,
    write_trace,
)
from .transitions import TransitionPolicy

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_INVALID = 2
EXIT_USAGE = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); the contract wants 64
        raise _UsageError(message)


def _bold(text: str) -> str:
    if sys.stdout.isatty() and not os.environ.get("NO_COLOR"):
        return f"\033[1m{text}\033[0m"
    return text


def _parse_policies(text: str) -> list[TransitionPolicy]:
    policies = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            raise _UsageError(f"empty policy in --policies {text!r}")
        name, _, dwell_s = item.partition(":")
        if name == "direct":
            if dwell_s:
                raise _UsageError("direct policy takes no dwell")
            policies.append(TransitionPolicy("direct"))
        elif name == "stepped":
            try:
                dwell = float(dwell_s) if dwell_s else 0.0
            except ValueError:
                raise _UsageError(f"bad dwell {dwell_s!r} in --policies") from None
            if dwell < 0:
                raise _UsageError("dwell must be >= 0")
            policies.append(TransitionPolicy("stepped", dwell))
        else:
            raise _UsageError(f"unknown policy {name!r} (expected direct or stepped[:dwell_s])")
    if len(policies) < 2:
        raise _UsageError("--policies needs at least two entries")
    return policies


def cmd_validate(args) -> int:
    scenario = load_scenario(args.scenario)
    print(f"{args.scenario}: OK ({len(scenario.spec.levels)} levels, {len(scenario.tasks)} tasks)")
    return EXIT_OK


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    report, trace = simulate(scenario)
    if args.report:
        write_report(report, args.report)
    if args.trace:
        write_trace(trace, args.trace)
    print(f"energy_total_j       = {report.energy.total_j:.9g}")
    print(f"cost_usd             = {report.cost_usd:.9g}")
    print(f"deadline_misses      = {report.deadline_misses}/{len(report.per_task)}")
    print(f"transitions          = {report.transition_count}")
    print(f"peak_temp_c          = {report.peak_temp:.9g}")
    print(f"avg_temp_c           = {report.avg_temp:.9g}")
    print(f"wear_total           = {report.ledger.total:.9g}")
    print(f"projected_lifetime_s = {format_lifetime(report.projected_lifetime)}")
    return EXIT_OK


def cmd_compare(args) -> int:
    scenario = load_scenario(args.scenario)
    comparison = compare_policies(scenario, _parse_policies(args.policies))
    print(format_comparison_table(comparison, bold=_bold))
    if args.report:
        write_comparison(comparison, args.report)
    return EXIT_OK


def cmd_sweep(args) -> int:
    doc = read_document(args.scenario)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise _UsageError(f"bad --values {args.values!r}") from None
    if not values:
        raise _UsageError("--values is empty")

    def runs():
        for value in values:
            set_sweep_param(doc, args.param, value)  # each value overwrites the same key
            yield value, simulate(parse_scenario(doc))[0]

    if args.out:
        write_sweep(runs(), args.out)
    else:
        sys.stdout.write(format_sweep(runs()))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="dvfsim", description="DVFS energy/temperature/wear co-simulator")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("validate", help="check a scenario file, listing every violation")
    p.add_argument("--scenario", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("simulate", help="run one scenario and optionally write report/trace")
    p.add_argument("--scenario", required=True)
    p.add_argument("--report", help="write the run report (JSON) here")
    p.add_argument("--trace", help="write the sampled trace (CSV) here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="run the scenario under several transition policies")
    p.add_argument("--scenario", required=True)
    p.add_argument("--policies", required=True, help="e.g. direct,stepped or direct,stepped:0.05")
    p.add_argument("--report", help="write the comparison (JSON) here")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="re-run the scenario across values of one parameter")
    p.add_argument("--scenario", required=True)
    p.add_argument("--param", required=True, help="dotted scenario key, e.g. wear.alpha")
    p.add_argument("--values", required=True, help="comma-separated numbers")
    p.add_argument("--out", help="write the sweep CSV here instead of stdout")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "func", None):
            raise _UsageError("a subcommand is required")
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except ScenarioError as exc:
        if len(exc.problems) == 1:
            print(f"invalid scenario ({exc.kind}): {exc.problems[0]}", file=sys.stderr)
        else:
            print(f"invalid scenario ({exc.kind}):", file=sys.stderr)
            for problem in exc.problems:
                print(f"  - {problem}", file=sys.stderr)
        return EXIT_INVALID
    except (DomainError, PolicyRunError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OverflowError as exc:
        print(f"error: numeric overflow: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
