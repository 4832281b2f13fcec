"""Shared builders for test scenarios, with defaults that mirror the shipped demo config, and the two ways tests
drive the CLI: in-process (`call_cli`) and as a process (`run_cli`)."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

from dvfsim import (
    FrequencyLevel,
    GovernorPolicy,
    ProcessorSpec,
    Scenario,
    SteadyState,
    Task,
    ThermalParams,
    TracePoint,
    TransitionPolicy,
    WearParams,
)
from dvfsim import cli

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"

TRACE_ROW = "%r,%r,%r,%r,%r\n"  # the reference for one trace row: TRACE_ROW % point


def joined_points(chunks) -> tuple[TracePoint, ...]:
    """The TracePoints of sink calls' arguments ``(freq, power, times, temps, wears)``, in call order."""
    return tuple(
        TracePoint(time, freq, power, temp, wear)
        for freq, power, times, temps, wears in chunks
        for time, temp, wear in zip(times, temps, wears)
    )

TURION_FREQS = (800e6, 1000e6, 1200e6, 1400e6, 1600e6, 1800e6)
TURION_VDDS = (0.90, 0.96, 1.02, 1.08, 1.14, 1.20)


def turion_levels() -> tuple[FrequencyLevel, ...]:
    return tuple(FrequencyLevel(i, f, v) for i, (f, v) in enumerate(zip(TURION_FREQS, TURION_VDDS)))


def source_env() -> dict:
    """This process's environment with this checkout's sources first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, (str(SRC_DIR), os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path)


def left_sum(values):
    """``values`` added one at a time from the left, from 0: the order the run adds them in. The built-in ``sum``
    of floats is a compensated sum from Python 3.12 on, so it can differ in the last bit."""
    total = 0
    for value in values:
        total += value
    return total


CliRun = namedtuple("CliRun", "returncode stdout stderr")


def call_cli(*args) -> CliRun:
    """``cli.main(args)`` in this process: the exit code it returns and the text it prints to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(args))
    return CliRun(code, out.getvalue(), err.getvalue())


def run_cli(*args, **options):
    """Run ``python -m dvfsim *args`` as a process on this checkout's sources, whether or not the package is
    installed; ``options`` go to ``subprocess.run``, over capturing stdout and stderr as text."""
    options = {"capture_output": True, "text": True, "timeout": 120, "env": source_env(), **options}
    return subprocess.run([sys.executable, "-m", "dvfsim", *args], **options)


def active_power(spec, level) -> float:
    """The reference active power ``coeff_a*f*vdd**2 + coeff_b*vdd + p_device`` of ``level``, from the spec's raw
    coefficients, not read from its table."""
    return spec.coeff_a * level.freq * level.vdd**2 + spec.coeff_b * level.vdd + spec.p_device


def load_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def make_thermal(r_th=2.0, c_th=2.5, t_amb=25.0, t_ref=45.0, l_base=3.6e7) -> ThermalParams:
    return ThermalParams(r_th, c_th, t_amb, t_ref, l_base)


def steady_wear_factors(params: ThermalParams, temp: float) -> tuple[float, float]:
    """The Arrhenius factor 2^((temp - t_ref)/10), as the wear of s seconds held at ``temp`` per s / l_base.

    The interval starts at its own steady state (ambient ``temp``, no power).
    One factor comes from each thermal path: s = tau/50 takes the short-swing
    expansion, s = 2 * tau the series.
    """
    steady = SteadyState(params._replace(t_amb=temp), 0.0)
    return tuple(steady.step(temp, s)[1] / (s / params.l_base) for s in (params.tau / 50.0, 2.0 * params.tau))


def make_wear(k_shock=1e-4, alpha=2.0, f_span=1e9) -> WearParams:
    return WearParams(k_shock, alpha, f_span)


def make_spec(
    levels=None,
    coeff_a=4e-9,
    coeff_b=0.5,
    p_device=2.0,
    p_idle=0.8,
    thermal=None,
    wear=None,
) -> ProcessorSpec:
    return ProcessorSpec(
        levels=turion_levels() if levels is None else tuple(levels),
        coeff_a=coeff_a,
        coeff_b=coeff_b,
        p_device=p_device,
        p_idle=p_idle,
        thermal=thermal or make_thermal(),
        wear=wear or make_wear(),
    )


def make_task(id="t", cycles=1.8e9, arrival=0.0, deadline=10.0) -> Task:
    return Task(id, cycles, arrival, deadline)


def make_scenario(
    spec=None,
    tasks=(),
    governor=GovernorPolicy("lowest_feasible"),
    policy=TransitionPolicy("direct"),
    duration=120.0,
    trace_dt=0.5,
    cost_rate=100.0,
    dwell_stalls=False,
) -> Scenario:
    return Scenario(
        spec=spec or make_spec(),
        tasks=tuple(tasks),
        governor=governor,
        policy=policy,
        duration=duration,
        trace_dt=trace_dt,
        cost_rate=cost_rate,
        dwell_stalls=dwell_stalls,
    )


def trace_probe_scenario() -> Scenario:
    """Long single-task run whose trace_dt is exactly tau/50 (binary-exact grid).

    Start and finish deliberately fall at different fractions of the sampling
    interval, so when a test integrates the sampled power by the trapezoid
    rule, the errors it makes at the two power jumps cannot cancel.
    """
    thermal = make_thermal(r_th=2.0, c_th=0.78125)  # tau = 1.5625 s
    spec = make_spec(thermal=thermal)
    task = make_task(id="long", cycles=1.2806e11, arrival=5.0125, deadline=85.55)
    return make_scenario(spec=spec, tasks=(task,), duration=100.0, trace_dt=thermal.tau / 50.0)


def report_to_dict(report) -> dict:
    """The report document, task rows included, as dicts: ``json.dumps(report_to_dict(report), indent=2)`` and a
    newline are the bytes ``write_report`` must write."""
    lifetime = report.projected_lifetime
    return {
        "schema_version": 1,
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
        "projected_lifetime_s": "unbounded" if math.isinf(lifetime) else lifetime,
    }
