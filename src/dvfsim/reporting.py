"""Deterministic serialization of reports, comparisons, and traces.

Writers emit byte-identical output for identical inputs: stable key order,
shortest round-trippable float repr (Python's default), LF newlines, and a
final newline. Unbounded lifetimes serialize as the string "unbounded", and a
lifetime delta of -inf (a bounded run against an unbounded baseline) as "-unbounded".
Task rows (TASK_BLOCK at a time) and trace rows are streamed, not held whole.
"""

from __future__ import annotations

import json
import math
import os
import stat
from contextlib import contextmanager, suppress
from json.encoder import encode_basestring_ascii

from .engine import ComparisonReport, SimReport

SCHEMA_VERSION = 1

TRACE_HEADER = "time_s,freq_hz,power_w,temp_c,cum_wear"
SWEEP_HEADER = "value,energy_j,shock_wear,thermal_wear,projected_lifetime_s"
SWEEP_POLICY_HEADER = "value,policy,energy_j,shock_wear,thermal_wear,projected_lifetime_s"
_TASKS_MARKER = "\0tasks"  # no other string in a report holds a NUL
TASK_BLOCK = 512  # task rows rendered per write of a report: about 100 kB of text


def format_lifetime(value: float, spec: str | None = ".9g"):
    """Lifetime text: "unbounded" for inf, "-unbounded" for -inf (a delta from an unbounded baseline), else
    ``format(value, spec)``; ``spec=None`` keeps the float."""
    if math.isinf(value):
        return "unbounded" if value > 0 else "-unbounded"
    return value if spec is None else format(value, spec)


def comparison_to_dict(comparison: ComparisonReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "baseline": comparison.runs[0].label,
        "policies": [
            {
                "policy": {"kind": r.policy.kind, "dwell_s": r.policy.dwell},
                "label": r.label,
                "energy_total_j": r.report.energy.total_j,
                "deadline_misses": r.report.deadline_misses,
                "thermal_wear": r.report.ledger.thermal_wear,
                "shock_wear": r.report.ledger.shock_wear,
                "projected_lifetime_s": format_lifetime(r.report.projected_lifetime, None),
                "delta_energy_j": r.delta_energy_j,
                "delta_lifetime_s": format_lifetime(r.delta_lifetime_s, None),
                "newly_missed": list(r.newly_missed),
                "newly_met": list(r.newly_met),
            }
            for r in comparison.runs
        ],
    }


@contextmanager
def _opened(path):
    """``path`` opened for writing text, newlines untranslated.

    Any OSError, from opening to closing, reads "cannot write PATH: ...". If the
    body raises, a regular file at ``path`` is removed, so a failed write or run
    leaves no partial output; a device, a pipe or a symlink is left in place.
    """
    made = None
    try:
        with open(path, "w", encoding="utf-8", newline="") as f:
            made = os.fstat(f.fileno())
            yield f
    except BaseException as exc:
        with suppress(OSError):
            if made is not None and stat.S_ISREG(made.st_mode) and os.path.samestat(made, os.lstat(path)):
                os.remove(path)
        if isinstance(exc, OSError):
            raise OSError(f"cannot write {path}: {exc}") from exc
        raise


def _write(path, chunks) -> None:
    """Write an iterable of text chunks to ``path``."""
    with _opened(path) as f:
        f.writelines(chunks)


def _write_json(doc: dict, path) -> None:
    _write(path, (json.dumps(doc, indent=2), "\n"))


def write_report(report: SimReport, path) -> None:
    """The run report as JSON, laid out as ``_write_json`` lays it out. The task rows are rendered by an f-string,
    laid out as json.dumps(..., indent=2) lays them out, not built as dicts, and written TASK_BLOCK rows at a
    time, so only one block's text is in memory whatever the task count."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "energy": {
            "active_j": report.energy.active_j,
            "idle_j": report.energy.idle_j,
            "total_j": report.energy.total_j,
        },
        "cost_usd": report.cost_usd,
        "tasks": _TASKS_MARKER if report.per_task else [],
        "transitions": {
            "count": report.transition_count,
            "total_delta_f_hz": report.total_delta_f_hz,
        },
        "time": {
            "active_s": report.active_s,
            "idle_s": report.idle_s,
        },
        "temperature": {
            "peak_c": report.peak_temp,
            "average_c": report.avg_temp,
        },
        "wear": {
            "thermal": report.ledger.thermal_wear,
            "shock": report.ledger.shock_wear,
            "total": report.ledger.total,
            "elapsed_s": report.ledger.elapsed,
        },
        "projected_lifetime_s": format_lifetime(report.projected_lifetime, None),
    }
    if not report.per_task:
        return _write_json(doc, path)
    encode = encode_basestring_ascii
    head, tail = json.dumps(doc, indent=2).split(encode(_TASKS_MARKER))

    def chunks():
        yield head + "[\n"
        for first in range(0, len(report.per_task), TASK_BLOCK):
            if first:
                yield ",\n"  # the separator one join over all the rows would put here
            yield ",\n".join([
                f'    {{\n      "id": {encode(id_)},\n      "level_index": {index},\n      "start_s": {start!r},\n'
                f'      "finish_s": {finish!r},\n      "deadline_met": {"true" if met else "false"},\n'
                f'      "infeasible": {"true" if infeasible else "false"}\n    }}'
                for id_, index, start, finish, met, infeasible in report.per_task[first : first + TASK_BLOCK]
            ])
        yield "\n  ]" + tail + "\n"

    _write(path, chunks())


def write_comparison(comparison: ComparisonReport, path) -> None:
    _write_json(comparison_to_dict(comparison), path)


@contextmanager
def trace_writer(path):
    """Open the trace CSV at ``path`` and yield a sink that writes a chunk of a span's trace points as rows.

    The sink takes ``(freq, power, times, temps, wears)``, as ``engine.run_scenario``
    calls it: one span's freq and power and three equal-length columns. It
    writes one row per point with one write: freq and power are rendered once.
    Each float is its repr, the columns are in TRACE_HEADER's order, the header
    is written first and every row ends in a newline. Pass it to ``run_scenario``
    to stream a run's trace: only the chunk at hand is in memory, and a run that
    fails leaves no file behind.
    """
    with _opened(path) as f:
        write = f.write
        write(TRACE_HEADER + "\n")

        def write_span(freq, power, times, temps, wears) -> None:
            shared = f",{freq!r},{power!r},"  # the freq and power columns between their commas
            write("".join([f"{time!r}{shared}{temp!r},{wear!r}\n" for time, temp, wear in zip(times, temps, wears)]))

        yield write_span


def format_sweep(runs, by_policy: bool = False) -> str:
    """CSV of (value, policy label, SimReport) rows, every float as its shortest repr; labels only ``by_policy``."""
    lines = [SWEEP_POLICY_HEADER if by_policy else SWEEP_HEADER]
    for value, label, report in runs:
        key = f"{value!r},{label}" if by_policy else repr(value)
        lines.append(
            f"{key},{report.energy.total_j!r},{report.ledger.shock_wear!r},"
            f"{report.ledger.thermal_wear!r},{format_lifetime(report.projected_lifetime, '')}"
        )
    return "\n".join(lines) + "\n"


def write_sweep(runs, path, by_policy: bool = False) -> None:
    _write(path, (format_sweep(runs, by_policy),))


def format_comparison_table(comparison: ComparisonReport) -> str:
    """Fixed-width side-by-side table; deltas are against the first row."""
    headers = (
        "policy",
        "energy_j",
        "misses",
        "thermal_wear",
        "shock_wear",
        "lifetime_s",
        "d_energy_j",
        "d_lifetime_s",
    )
    rows = [headers]
    for r in comparison.runs:
        rows.append(
            (
                r.label,
                format(r.report.energy.total_j, ".9g"),
                str(r.report.deadline_misses),
                format(r.report.ledger.thermal_wear, ".9g"),
                format(r.report.ledger.shock_wear, ".9g"),
                format_lifetime(r.report.projected_lifetime),
                format(r.delta_energy_j, ".9g"),
                format_lifetime(r.delta_lifetime_s),
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(headers))]
    out = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() for row in rows]
    for r in comparison.runs[1:]:
        if r.newly_missed:
            out.append(f"{r.label}: newly missed deadlines: {', '.join(r.newly_missed)}")
        if r.newly_met:
            out.append(f"{r.label}: newly met deadlines: {', '.join(r.newly_met)}")
    return "\n".join(out)
