"""Command-line front end: validate, simulate, compare, and sweep subcommands;
``sweep --policies`` runs each value under each policy, as ``compare`` does. A
sweep over a ``wear.*`` key runs each policy once, on the first value, and
re-prices that run's shock wear for each later value (``engine.reprice``).

Exit codes: 0 success, 1 runtime failure (I/O, a model or report value
overflowing a float, or a run carried past the trace cap of
engine.MAX_TRACE_POINTS samples), 2 invalid scenario (parse/schema/validation,
including NaN, Infinity, out-of-range numbers, a file that is not UTF-8 or is
nested too deeply to decode, and a sim.trace_dt finer than the cap allows), 64
usage error (including an empty path and simulate's --report and --trace naming
one file). Output is plain text. ``main`` returns the exit code on every path,
``-h``/``--help`` (0) included, and never raises SystemExit.

``simulate --trace`` writes the rows as the run samples them. Past
engine.TRACE_CHUNK rows, with ``os.fork``, two usable CPUs and no other thread,
one forked child renders the rest beside the run (``reporting.trace_writer``);
the bytes, errors and exit codes are those of the in-process path, and the
child is reaped before ``main`` returns, on every path.

``main`` builds the parser of the subcommand its first argument names, and no
other; any other first argument (none, ``-h``, an unknown word) gets all four,
so the top-level help and the list of choices stay whole.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .config import load_scenario, parse_scenario, read_document, set_sweep_param, sweep_kind
from .engine import compare_policies, reprice, run_policies, run_scenario
from .errors import DomainError, PolicyRunError, ScenarioError
from .reporting import (
    format_comparison_table,
    format_lifetime,
    format_sweep,
    trace_writer,
    write_comparison,
    write_report,
    write_sweep,
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


def _path(text: str) -> str:
    if not text:  # open("") fails, and "" would read as "no file given"
        raise argparse.ArgumentTypeError("empty path")
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
            if not (math.isfinite(dwell) and dwell >= 0):
                raise _UsageError(f"dwell {dwell_s!r} in --policies must be finite and >= 0")
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
    report, trace = args.report, args.trace
    if report and trace:  # one regular file, or one path not made yet, would lose the trace; a device may take both
        if os.path.exists(report) and os.path.exists(trace):
            same = os.path.samefile(report, trace) and os.path.isfile(report)  # samefile also sees a hard link
        else:
            same = os.path.realpath(report) == os.path.realpath(trace)
        if same:
            raise _UsageError(f"--report and --trace both name {report!r}")
    scenario = load_scenario(args.scenario)
    if args.trace:  # opened before the run, so a bad path fails first; each chunk of rows is written as it is sampled
        with trace_writer(args.trace) as write_span:
            report = run_scenario(scenario, write_span)
    else:
        report = run_scenario(scenario)
    if args.report:
        write_report(report, args.report)
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
    policies = _parse_policies(args.policies)  # a usage error is reported before the file is read
    comparison = compare_policies(load_scenario(args.scenario), policies)
    print(format_comparison_table(comparison))
    if args.report:
        write_comparison(comparison, args.report)
    return EXIT_OK


def cmd_sweep(args) -> int:
    # every usage error is reported before the file is read
    kind = sweep_kind(args.param)
    if kind not in (None, "number", "integer"):  # None is left for the schema
        raise _UsageError(f"--param {args.param} holds a JSON {kind}, not a number")
    if not args.values.strip():
        raise _UsageError("--values is empty")
    if not all(item.strip() for item in args.values.split(",")):
        raise _UsageError(f"empty value in --values {args.values!r}")
    try:
        values = [float(v) for v in args.values.split(",")]
    except ValueError:
        raise _UsageError(f"bad --values {args.values!r}") from None
    policies = _parse_policies(args.policies) if args.policies is not None else []
    if policies and args.param.startswith("policy."):
        raise _UsageError(f"--policies sets the policy, so --param {args.param} would have no effect")
    doc = read_document(args.scenario)
    shock_only = args.param.partition(".")[0] == "wear"  # these keys reach a run only through its hops' shock

    def runs():
        first = None  # (label, report) of each policy's run on the first value, when later values re-price it
        for value in values:
            set_sweep_param(doc, args.param, value)  # each value overwrites the same key
            scenario = parse_scenario(doc)  # every value is validated, as its own run would be
            if first is None:
                done = run_policies(scenario, policies) if policies else [(None, run_scenario(scenario))]
                first = done if shock_only else None
            else:
                done = []
                for label, report in first:
                    try:
                        done.append((label, reprice(report, scenario.spec.wear)))
                    except DomainError as exc:  # tagged with its policy, as run_policies tags a run's failure
                        if label is None:
                            raise
                        raise PolicyRunError(label, exc) from exc
            for label, report in done:
                yield value, label, report

    if args.out:
        write_sweep(runs(), args.out, bool(policies))
    else:
        sys.stdout.write(format_sweep(runs(), bool(policies)))
    return EXIT_OK


_PATH_FLAGS = ("--scenario", "--report", "--trace", "--out")

# Each subcommand: its help line, its handler, and its options as (flag, required, help), in help order.
_COMMANDS = {
    "validate": ("check a scenario file, listing every violation", cmd_validate, (("--scenario", True, None),)),
    "simulate": ("run one scenario and optionally write report/trace", cmd_simulate, (
        ("--scenario", True, None),
        ("--report", False, "write the run report (JSON) here"),
        ("--trace", False, "write the sampled trace (CSV) here"),
    )),
    "compare": ("run the scenario under several transition policies", cmd_compare, (
        ("--scenario", True, None),
        ("--policies", True, "e.g. direct,stepped or direct,stepped:0.05"),
        ("--report", False, "write the comparison (JSON) here"),
    )),
    "sweep": ("re-run the scenario across values of one parameter", cmd_sweep, (
        ("--scenario", True, None),
        ("--param", True, "dotted scenario key, e.g. wear.alpha"),
        ("--values", True, "comma-separated numbers"),
        ("--policies", False, "run each value under each policy, as compare does; adds a policy column"),
        ("--out", False, "write the sweep CSV here instead of stdout"),
    )),
}


def build_parser(commands=_COMMANDS) -> _Parser:
    """The top-level parser with the named subcommands, by default all of them."""
    parser = _Parser(prog="dvfsim", description="DVFS energy/temperature/wear co-simulator")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name in commands:
        help_line, func, options = _COMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        for flag, required, help_text in options:
            p.add_argument(flag, required=required, help=help_text, type=_path if flag in _PATH_FLAGS else None)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a shell pays this build on every call, so a named subcommand gets its parser alone
    parser = build_parser(argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS)
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "func", None):
            raise _UsageError("a subcommand is required")
        return args.func(args)
    except SystemExit as exc:  # -h/--help: argparse prints the help, then exits 0
        return exc.code
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
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
