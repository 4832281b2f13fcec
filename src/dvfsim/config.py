"""Strict JSON scenario files: explicit units in key names, unknown keys rejected.

Sections: processor, thermal, wear, tasks, governor, policy, sim. The only unit
conversion is l_base_hours -> seconds; wear.f_span_hz defaults to the ladder's
full frequency span when omitted.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from .engine import Scenario, validate_scenario
from .errors import ScenarioError
from .power import FrequencyLevel, ProcessorSpec
from .thermal import ThermalParams
from .transitions import TransitionPolicy, WearParams, full_span
from .workload import GovernorPolicy, Task

_TOP = ("processor", "thermal", "wear", "tasks", "governor", "policy", "sim")
_SECTION_KEYS = {
    "processor": ({"levels", "coeff_a", "coeff_b", "p_device_w", "p_idle_w"}, set()),
    "thermal": ({"r_th_k_per_w", "c_th_j_per_k", "t_amb_c", "t_ref_c", "l_base_hours"}, set()),
    "wear": ({"k_shock", "alpha"}, {"f_span_hz"}),
    "governor": ({"kind"}, {"fixed_index"}),
    "policy": ({"kind"}, {"dwell_s"}),
    "sim": ({"duration_s", "trace_dt_s", "cost_rate_usd_per_mwh"}, {"dwell_stalls"}),
}
_LEVEL_KEYS = {"freq_hz", "vdd_v"}
_FLOAT_MAX = sys.float_info.max
_TASK_KEYS = {"id", "cycles", "arrival_s", "deadline_s"}


def set_sweep_param(doc, param: str, value: float) -> None:
    """Set a dotted key such as ``wear.alpha``; a non-object section is left for the schema to report."""
    section_name, _, key = param.partition(".")
    known = _SECTION_KEYS.get(section_name)
    if not key or known is None or key not in (known[0] | known[1]):
        raise ScenarioError("schema", [f"sweep parameter '{param}' is not a scenario key"])
    if key == "fixed_index":
        if not float(value).is_integer():
            raise ScenarioError("schema", [f"sweep parameter '{param}' needs integer values"])
        value = int(value)
    section = doc.get(section_name) if isinstance(doc, dict) else None
    if isinstance(section, dict):
        section[key] = value


class _Schema:
    """Collects every schema problem in the document before giving up."""

    def __init__(self):
        self.problems: list[str] = []

    def mapping(self, value, where: str, required: set, optional: set = frozenset()):
        if not isinstance(value, dict):
            self.problems.append(f"{where}: expected an object")
            return {}
        for key in sorted(required - value.keys()):
            self.problems.append(f"{where}: missing key '{key}'")
        for key in sorted(value.keys() - required - optional):
            self.problems.append(f"{where}: unknown key '{key}'")
        return value

    def number(self, section: dict, where: str, key: str, default=None):
        if key not in section:
            return default
        value = section[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.problems.append(f"{where}.{key}: expected a number")
            return default
        if not -_FLOAT_MAX <= value <= _FLOAT_MAX:  # inf from 1e400, an integer beyond it, or NaN
            self.problems.append(f"{where}.{key}: expected a finite number")
            return default
        return float(value)

    def integer(self, section: dict, where: str, key: str, default=None):
        if key not in section:
            return default
        value = section[key]
        if isinstance(value, bool) or not isinstance(value, int):
            self.problems.append(f"{where}.{key}: expected an integer")
            return default
        return value

    def string(self, section: dict, where: str, key: str, default=""):
        if key not in section:
            return default
        value = section[key]
        if not isinstance(value, str):
            self.problems.append(f"{where}.{key}: expected a string")
            return default
        return value

    def boolean(self, section: dict, where: str, key: str, default=False):
        if key not in section:
            return default
        value = section[key]
        if not isinstance(value, bool):
            self.problems.append(f"{where}.{key}: expected a boolean")
            return default
        return value

    def array(self, section: dict, where: str, key: str):
        value = section.get(key, [])
        if not isinstance(value, list):
            self.problems.append(f"{where}.{key}: expected an array")
            return []
        return value


def parse_scenario(doc) -> Scenario:
    """Build and fully validate a Scenario from a parsed JSON document."""
    s = _Schema()
    top = s.mapping(doc, "scenario", set(_TOP))

    proc = s.mapping(top.get("processor", {}), "processor", *_SECTION_KEYS["processor"])
    levels = []
    for i, entry in enumerate(s.array(proc, "processor", "levels")):
        where = f"processor.levels[{i}]"
        lv = s.mapping(entry, where, _LEVEL_KEYS)
        levels.append(
            FrequencyLevel(i, s.number(lv, where, "freq_hz", 0.0), s.number(lv, where, "vdd_v", 0.0))
        )

    th_sec = s.mapping(top.get("thermal", {}), "thermal", *_SECTION_KEYS["thermal"])
    thermal = ThermalParams(
        r_th=s.number(th_sec, "thermal", "r_th_k_per_w", 0.0),
        c_th=s.number(th_sec, "thermal", "c_th_j_per_k", 0.0),
        t_amb=s.number(th_sec, "thermal", "t_amb_c", 0.0),
        t_ref=s.number(th_sec, "thermal", "t_ref_c", 0.0),
        l_base=s.number(th_sec, "thermal", "l_base_hours", 0.0) * 3600.0,
    )

    wear_sec = s.mapping(top.get("wear", {}), "wear", *_SECTION_KEYS["wear"])
    f_span = s.number(wear_sec, "wear", "f_span_hz")
    if f_span is None and levels:
        f_span = full_span(tuple(levels))
    wear = WearParams(
        k_shock=s.number(wear_sec, "wear", "k_shock", 0.0),
        alpha=s.number(wear_sec, "wear", "alpha", 1.0),
        f_span=f_span if f_span is not None else 0.0,
    )

    tasks = []
    for i, entry in enumerate(s.array(top, "scenario", "tasks")):
        where = f"tasks[{i}]"
        t = s.mapping(entry, where, _TASK_KEYS)
        tasks.append(
            Task(
                id=s.string(t, where, "id", f"task{i}"),
                cycles=s.number(t, where, "cycles", 0.0),
                arrival=s.number(t, where, "arrival_s", 0.0),
                deadline=s.number(t, where, "deadline_s", 0.0),
            )
        )
    tasks.sort(key=lambda t: t.arrival)  # stable: FIFO ties keep file order

    gov_sec = s.mapping(top.get("governor", {}), "governor", *_SECTION_KEYS["governor"])
    governor = GovernorPolicy(
        kind=s.string(gov_sec, "governor", "kind"),
        fixed_index=s.integer(gov_sec, "governor", "fixed_index"),
    )

    pol_sec = s.mapping(top.get("policy", {}), "policy", *_SECTION_KEYS["policy"])
    policy = TransitionPolicy(
        kind=s.string(pol_sec, "policy", "kind"),
        dwell=s.number(pol_sec, "policy", "dwell_s", 0.0),
    )

    sim_sec = s.mapping(top.get("sim", {}), "sim", *_SECTION_KEYS["sim"])
    scenario = Scenario(
        spec=ProcessorSpec(
            levels=tuple(levels),
            coeff_a=s.number(proc, "processor", "coeff_a", 0.0),
            coeff_b=s.number(proc, "processor", "coeff_b", 0.0),
            p_device=s.number(proc, "processor", "p_device_w", 0.0),
            p_idle=s.number(proc, "processor", "p_idle_w", 0.0),
            thermal=thermal,
            wear=wear,
        ),
        tasks=tuple(tasks),
        governor=governor,
        policy=policy,
        duration=s.number(sim_sec, "sim", "duration_s", 0.0),
        trace_dt=s.number(sim_sec, "sim", "trace_dt_s", 0.0),
        cost_rate=s.number(sim_sec, "sim", "cost_rate_usd_per_mwh", 0.0),
        dwell_stalls=s.boolean(sim_sec, "sim", "dwell_stalls", False),
    )

    if s.problems:
        raise ScenarioError("schema", s.problems)
    result = validate_scenario(scenario)
    if not result.ok:
        raise ScenarioError("validation", [str(v) for v in result.violations])
    return scenario


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} is not allowed")


def read_document(path):
    """Read and decode a scenario file's JSON without building a Scenario.

    NaN and Infinity are parse errors; number literals beyond the float range
    decode, and the schema rejects them. I/O errors propagate as OSError.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ScenarioError("parse", [f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"]) from exc
    except ValueError as exc:  # a NaN or Infinity constant, or an integer too long to convert
        raise ScenarioError("parse", [f"{path}: {exc}"]) from None


def load_scenario(path) -> Scenario:
    """Read, parse, and validate a scenario file. I/O errors propagate as OSError."""
    return parse_scenario(read_document(path))
