"""Strict JSON scenario files: explicit units in key names, unknown keys rejected.

``_TABLE`` declares each key once, with its JSON kind and whether it is required,
for the top-level object, each section, a ladder level and a task entry. The only
unit conversion is l_base_hours -> seconds; wear.f_span_hz defaults to the
ladder's full frequency span when omitted.
"""

from __future__ import annotations

import json
import sys
from operator import itemgetter
from pathlib import Path

from .engine import Scenario
from .errors import ScenarioError
from .power import FrequencyLevel, ProcessorSpec
from .thermal import ThermalParams
from .transitions import TransitionPolicy, WearParams, full_span
from .workload import GovernorPolicy, Task

_FLOAT_MAX = sys.float_info.max
# (JSON kind, required); a section is an object read against its own table, under its own name
_SECTION, _ARRAY, _NUM, _STR = ("section", True), ("array", True), ("number", True), ("string", True)
# Each object's keys; its kind problems are listed in this order.
_TABLE = {
    "scenario": {
        "processor": _SECTION, "thermal": _SECTION, "wear": _SECTION, "tasks": _ARRAY,
        "governor": _SECTION, "policy": _SECTION, "sim": _SECTION,
    },
    "processor": {"levels": _ARRAY, "coeff_a": _NUM, "coeff_b": _NUM, "p_device_w": _NUM, "p_idle_w": _NUM},
    "level": {"freq_hz": _NUM, "vdd_v": _NUM},
    "thermal": {"r_th_k_per_w": _NUM, "c_th_j_per_k": _NUM, "t_amb_c": _NUM, "t_ref_c": _NUM, "l_base_hours": _NUM},
    "wear": {"f_span_hz": ("number", False), "k_shock": _NUM, "alpha": _NUM},
    "task": {"id": _STR, "cycles": _NUM, "arrival_s": _NUM, "deadline_s": _NUM},
    "governor": {"kind": _STR, "fixed_index": ("integer", False)},
    "policy": {"kind": _STR, "dwell_s": ("number", False)},
    "sim": {"duration_s": _NUM, "trace_dt_s": _NUM, "cost_rate_usd_per_mwh": _NUM, "dwell_stalls": ("boolean", False)},
}
# JSON kind -> the Python types that hold it, and its name in a problem; a bool is only ever a boolean
_KINDS = {
    "number": ((int, float), "a number"),
    "integer": (int, "an integer"),
    "string": (str, "a string"),
    "boolean": (bool, "a boolean"),
    "array": (list, "an array"),
}
_TASK_KEYS = _TABLE["task"].keys()


def sweep_kind(param: str) -> str | None:
    """The JSON kind of the section key a dotted ``param`` names ("number" for ``wear.alpha``); None if none."""
    section_name, _, key = param.partition(".")
    if _TABLE["scenario"].get(section_name) != _SECTION or key not in _TABLE[section_name]:
        return None
    return _TABLE[section_name][key][0]


def set_sweep_param(doc, param: str, value: float) -> None:
    """Set a dotted key such as ``wear.alpha``; a non-object section is left for the schema to report."""
    if (kind := sweep_kind(param)) is None:
        raise ScenarioError("schema", [f"sweep parameter '{param}' is not a scenario key"])
    section_name, _, key = param.partition(".")
    if kind == "integer":
        if not float(value).is_integer():
            raise ScenarioError("schema", [f"sweep parameter '{param}' needs integer values"])
        value = int(value)
    section = doc.get(section_name) if isinstance(doc, dict) else None
    if isinstance(section, dict):
        section[key] = value


def _read(obj, where: str, table: dict, problems: list[str]) -> dict:
    """Check a JSON object against ``table`` and return the values that passed, numbers as floats.

    Appends its problems in order: not an object; missing keys, then unknown keys, each sorted; each key's kind.
    """
    if not isinstance(obj, dict):
        problems.append(f"{where}: expected an object")
        return {}
    values, missing, wrong = {}, [], []
    for key, (kind, required) in table.items():
        if key not in obj:
            if required:
                missing.append(key)
            continue
        value = obj[key]
        if kind == "section":
            values[key] = value
        elif isinstance(value, bool) != (kind == "boolean") or not isinstance(value, _KINDS[kind][0]):
            wrong.append(f"{where}.{key}: expected {_KINDS[kind][1]}")
        elif kind != "number":
            values[key] = value
        elif -_FLOAT_MAX <= value <= _FLOAT_MAX:
            values[key] = float(value)
        else:  # inf from 1e400, an integer beyond it, or NaN
            wrong.append(f"{where}.{key}: expected a finite number")
    for key in sorted(missing):
        problems.append(f"{where}: missing key '{key}'")
    for key in sorted(obj.keys() - table.keys()):
        problems.append(f"{where}: unknown key '{key}'")
    problems += wrong
    return values


def _plain(value) -> bool:
    """Whether ``_read`` takes ``value`` as a number as it is: exactly an int or a float, within the float range."""
    return (type(value) is float or type(value) is int) and -_FLOAT_MAX <= value <= _FLOAT_MAX


def parse_scenario(doc) -> Scenario:
    """Build a Scenario from a parsed JSON document: schema problems first, then validation.

    Sections are read in file order, each section's entries right after it. A
    section that is missing, or in a document that is not an object, has had its
    one problem listed, so none of its keys is read.
    """
    problems: list[str] = []
    top = _read(doc, "scenario", _TABLE["scenario"], problems)

    def section(name: str) -> dict:
        return _read(top[name], name, _TABLE[name], problems) if name in top else {}

    proc = section("processor")
    levels = []
    for i, entry in enumerate(proc.get("levels", ())):
        lv = _read(entry, f"processor.levels[{i}]", _TABLE["level"], problems)
        if not problems:  # after the first problem nothing is built: the parse raises
            levels.append(FrequencyLevel(i, lv["freq_hz"], lv["vdd_v"]))
    th = section("thermal")
    wear = section("wear")
    tasks = []
    for i, entry in enumerate(top.get("tasks", ())):
        if type(entry) is dict and entry.keys() == _TASK_KEYS:  # a well-formed entry skips _read, to the same Task
            tid, cycles, arrival, deadline = entry["id"], entry["cycles"], entry["arrival_s"], entry["deadline_s"]
            if type(tid) is str and _plain(cycles) and _plain(arrival) and _plain(deadline):
                tasks.append(tuple.__new__(Task, (tid, float(cycles), float(arrival), float(deadline))))
                continue
        t = _read(entry, f"tasks[{i}]", _TABLE["task"], problems)
        if not problems:  # built as its entry is read, so no entry's dict outlives it
            tasks.append(Task(t["id"], t["cycles"], t["arrival_s"], t["deadline_s"]))
    governor = section("governor")
    policy = section("policy")
    sim = section("sim")
    if problems:  # before the Scenario exists, since building one validates it
        raise ScenarioError("schema", problems)

    spec = ProcessorSpec(
        tuple(levels),
        proc["coeff_a"], proc["coeff_b"], proc["p_device_w"], proc["p_idle_w"],
        ThermalParams(
            th["r_th_k_per_w"], th["c_th_j_per_k"], th["t_amb_c"], th["t_ref_c"], th["l_base_hours"] * 3600.0
        ),
        WearParams(wear["k_shock"], wear["alpha"], wear.get("f_span_hz", full_span(levels) if levels else 0.0)),
    )
    return Scenario(
        spec,
        tuple(sorted(tasks, key=itemgetter(2))),  # by arrival, stable: FIFO ties keep file order
        GovernorPolicy(governor["kind"], governor.get("fixed_index")),
        TransitionPolicy(policy["kind"], policy.get("dwell_s", 0.0)),
        sim["duration_s"], sim["trace_dt_s"], sim["cost_rate_usd_per_mwh"], sim.get("dwell_stalls", False),
    )


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} is not allowed")


def read_document(path):
    """Read and decode a scenario file's JSON without building a Scenario.

    NaN and Infinity, text that is not UTF-8 and nesting too deep to decode are
    parse errors; number literals beyond the float range decode, and the schema
    rejects them. I/O errors propagate as OSError.
    """
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ScenarioError("parse", [f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"]) from exc
    except (ValueError, RecursionError) as exc:  # NaN or Infinity, an over-long integer, bad UTF-8, deep nesting
        raise ScenarioError("parse", [f"{path}: {exc}"]) from None


def load_scenario(path) -> Scenario:
    """Read, parse, and validate a scenario file. I/O errors propagate as OSError."""
    return parse_scenario(read_document(path))
