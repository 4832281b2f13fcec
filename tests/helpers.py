"""Shared builders for test scenarios; defaults mirror the shipped demo config."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from dvfsim import (
    FrequencyLevel,
    GovernorPolicy,
    ProcessorSpec,
    Scenario,
    Task,
    ThermalParams,
    TransitionPolicy,
    WearParams,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"

TURION_FREQS = (800e6, 1000e6, 1200e6, 1400e6, 1600e6, 1800e6)
TURION_VDDS = (0.90, 0.96, 1.02, 1.08, 1.14, 1.20)


def turion_levels() -> tuple[FrequencyLevel, ...]:
    return tuple(FrequencyLevel(i, f, v) for i, (f, v) in enumerate(zip(TURION_FREQS, TURION_VDDS)))


def run_cli(*args):
    """Run ``python -m dvfsim`` from this checkout's sources, whether or not the package is installed."""
    path = os.pathsep.join(filter(None, (str(SRC_DIR), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-m", "dvfsim", *args], capture_output=True, text=True, timeout=120, env=env)


def make_thermal(r_th=2.0, c_th=2.5, t_amb=25.0, t_ref=45.0, l_base=3.6e7) -> ThermalParams:
    return ThermalParams(r_th, c_th, t_amb, t_ref, l_base)


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
    interval so the trapezoid error at the two power jumps cannot cancel.
    """
    thermal = make_thermal(r_th=2.0, c_th=0.78125)  # tau = 1.5625 s
    spec = make_spec(thermal=thermal)
    task = make_task(id="long", cycles=1.2806e11, arrival=5.0125, deadline=85.55)
    return make_scenario(spec=spec, tasks=(task,), duration=100.0, trace_dt=thermal.tau / 50.0)
