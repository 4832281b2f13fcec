"""Deterministic serialization of reports, comparisons, and traces.

Writers emit byte-identical output for identical inputs: stable key order,
shortest round-trippable float repr (Python's default), LF newlines, and a
final newline. Unbounded lifetimes serialize as the string "unbounded".
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .engine import ComparisonReport, SimReport

SCHEMA_VERSION = 1

TRACE_HEADER = "time_s,freq_hz,power_w,temp_c,cum_wear"
SWEEP_HEADER = "value,energy_j,shock_wear,thermal_wear,projected_lifetime_s"


def format_lifetime(value: float, spec: str | None = ".9g"):
    """Lifetime text: "unbounded" if infinite, else ``format(value, spec)``; ``spec=None`` keeps the float."""
    if math.isinf(value):
        return "unbounded"
    return value if spec is None else format(value, spec)


def report_to_dict(report: SimReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "energy": {
            "active_j": report.energy.active_j,
            "idle_j": report.energy.idle_j,
            "total_j": report.energy.total_j,
        },
        "cost_usd": report.cost_usd,
        "tasks": [
            {
                "id": t.id,
                "level_index": t.level_index,
                "start_s": t.start,
                "finish_s": t.finish,
                "deadline_met": t.deadline_met,
                "infeasible": t.infeasible,
            }
            for t in report.per_task
        ],
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


def _write(path, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _write_json(doc: dict, path) -> None:
    _write(path, json.dumps(doc, indent=2) + "\n")


def write_report(report: SimReport, path) -> None:
    _write_json(report_to_dict(report), path)


def write_comparison(comparison: ComparisonReport, path) -> None:
    _write_json(comparison_to_dict(comparison), path)


def read_report(path) -> dict:
    """Parse a written report back into a plain dict (floats round-trip exactly)."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


def write_trace(trace, path) -> None:
    """CSV with one row per trace point and a newline-terminated final row."""
    lines = [TRACE_HEADER]
    for p in trace:
        lines.append(f"{p.time!r},{p.freq!r},{p.power!r},{p.temp!r},{p.cum_wear!r}")
    _write(path, "\n".join(lines) + "\n")


def format_sweep(runs) -> str:
    """CSV of (swept value, SimReport) pairs, every float as its shortest repr."""
    lines = [SWEEP_HEADER]
    for value, report in runs:
        lines.append(
            f"{value!r},{report.energy.total_j!r},{report.ledger.shock_wear!r},"
            f"{report.ledger.thermal_wear!r},{format_lifetime(report.projected_lifetime, '')}"
        )
    return "\n".join(lines) + "\n"


def write_sweep(runs, path) -> None:
    _write(path, format_sweep(runs))


def format_comparison_table(comparison: ComparisonReport, bold=None) -> str:
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
    out = []
    for k, row in enumerate(rows):
        line = "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        if k == 0 and bold is not None:
            line = bold(line)
        out.append(line)
    for r in comparison.runs[1:]:
        if r.newly_missed:
            out.append(f"{r.label}: newly missed deadlines: {', '.join(r.newly_missed)}")
        if r.newly_met:
            out.append(f"{r.label}: newly met deadlines: {', '.join(r.newly_met)}")
    return "\n".join(out)
