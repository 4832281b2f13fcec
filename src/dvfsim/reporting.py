"""Deterministic serialization of reports, comparisons, and traces.

Writers emit byte-identical output for identical inputs: stable key order,
shortest round-trippable float repr (Python's default), LF newlines, and a
final newline. Unbounded lifetimes serialize as the string "unbounded", and a
lifetime delta of -inf (a bounded run against an unbounded baseline) as "-unbounded".
Task rows (TASK_BLOCK at a time) and trace rows are streamed, not held whole.
"""

from __future__ import annotations

import json
import marshal
import math
import os
import stat
import sys
from contextlib import contextmanager, suppress
from json.encoder import encode_basestring_ascii

from . import engine
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
    renders one row per point with one write: freq and power are rendered once.
    Each float is its repr, the columns are in TRACE_HEADER's order, the header
    is written first and every row ends in a newline. Pass it to ``run_scenario``
    to stream a run's trace: only the chunks at hand are in memory, and a run that
    fails leaves no file behind.

    The rows are rendered in this process until they reach ``engine.TRACE_CHUNK``.
    Past that, if ``os.fork`` exists, at least two CPUs are usable and no other
    thread runs, one forked child renders every later row while the run keeps
    sampling: the sink ships the chunks to it over a pipe, batched to at least
    TRACE_CHUNK points, and the writer reaps the child before it returns or
    raises, on every path. The bytes, the errors and their text are those of the
    in-process path. A write error wins: if a row sampled before the run failed
    cannot be written, the writer raises that OSError, whether or not the run
    also failed, with the run's exception as its context. This holds on both
    paths, since closing the file flushes the rows the run sampled.
    """
    with _opened(path) as f:
        write = f.write
        write(TRACE_HEADER + "\n")

        def write_span(freq, power, times, temps, wears) -> None:
            shared = f",{freq!r},{power!r},"  # the freq and power columns between their commas
            write("".join([f"{time!r}{shared}{temp!r},{wear!r}\n" for time, temp, wear in zip(times, temps, wears)]))

        rows, child = 0, None
        switch = engine.TRACE_CHUNK

        def sink(freq, power, times, temps, wears) -> None:
            nonlocal rows, child
            if child is not None:  # copied, as the caller may reuse its lists before they are shipped
                child.send((freq, power, list(times), list(temps), list(wears)))
                return
            write_span(freq, power, times, temps, wears)
            if rows < switch:
                rows += len(times)
                if rows >= switch and _may_fork():
                    f.flush()  # the child writes after the rows already written
                    with suppress(OSError):  # no pipe or process to be had: the rows stay in this process
                        child = _RowChild(write_span, f.flush, switch)

        failed = True
        try:
            yield sink
            failed = False
        finally:
            if child is not None:
                child.finish(failed)


def _may_fork() -> bool:
    """Whether one child may render rows beside the run: fork exists, two CPUs are usable and no other thread runs,
    since a fork copies only the calling thread."""
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or (threading is not None and threading.active_count() > 1):
        return False
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return cpus >= 2


class _RowChild:
    """One forked child that renders shipped chunks with the parent's ``write_span``, in order.

    The parent ships lists of chunks as ``marshal`` frames, each after its length
    as 8 little-endian bytes, over one pipe. The child reports a write error as
    its OSError's arguments, ``(errno, strerror)``, on a second pipe, and always
    ends with ``os._exit``, so it never flushes the parent's buffers or runs its
    exit handlers.
    """

    def __init__(self, write_span, flush, batch: int):
        fds = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        data_r, data_w, error_r, error_w = fds
        if pid == 0:
            _render_shipped(fds, write_span, flush)  # never returns
        os.close(data_r)
        os.close(error_w)
        self.pid, self.errors, self.out = pid, error_r, open(data_w, "wb")
        self.batch, self.pending, self.points = batch, [], 0

    def send(self, chunk) -> None:
        self.pending.append(chunk)
        self.points += len(chunk[2])
        if self.points >= self.batch:
            try:
                self._ship()
            except BrokenPipeError:  # the child has stopped: finish raises its reason
                self.finish(False)
                raise

    def _ship(self) -> None:
        data = marshal.dumps(self.pending)
        self.pending, self.points = [], 0
        self.out.write(len(data).to_bytes(8, "little"))
        self.out.write(data)
        self.out.flush()

    def finish(self, failed: bool) -> None:
        """Ship the chunks left, close the pipe and reap the child, once. Raise the write error the child reported;
        unless the run ``failed``, also raise an OSError if the child ended otherwise than by the end of its rows."""
        if self.pid is None:
            return
        try:
            if self.pending:
                self._ship()
        except BrokenPipeError:
            pass  # the child has stopped, and its status or report says why
        finally:
            with suppress(OSError):
                self.out.close()
            status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
            self.pid = None
            with open(self.errors, "rb") as errors:
                report = errors.read()
        if report:
            raise OSError(*marshal.loads(report))
        if status and not failed:
            raise OSError(f"the process rendering the rows ended with status {status}")


def _render_shipped(fds, write_span, flush) -> None:
    """The forked child's whole run, on the pipes ``(data_r, data_w, error_r, error_w)``: render each shipped
    chunk in order, flush, and exit."""
    data_r, data_w, error_r, error_w = fds
    status = 1
    try:
        os.close(data_w)  # else the data pipe would never reach its end
        os.close(error_r)
        with open(data_r, "rb") as frames:
            while head := frames.read(8):
                for chunk in marshal.loads(frames.read(int.from_bytes(head, "little"))):
                    write_span(*chunk)
        flush()
        status = 0
    except OSError as exc:
        os.write(error_w, marshal.dumps(exc.args))
    finally:
        os._exit(status)


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
