"""Hypothesis strategies producing valid ladders, specs, and tasks."""

from __future__ import annotations

import random

import hypothesis.strategies as st

from dvfsim import FrequencyLevel, ProcessorSpec, Task, validate_spec

from helpers import make_thermal, make_wear


@st.composite
def ladders(draw, min_levels=2, max_levels=7):
    n = draw(st.integers(min_levels, max_levels))
    base_f = draw(st.floats(2e8, 1e9))
    f_steps = draw(st.lists(st.floats(5e7, 5e8), min_size=n - 1, max_size=n - 1))
    base_v = draw(st.floats(0.7, 0.9))
    v_steps = draw(st.lists(st.floats(0.02, 0.2), min_size=n - 1, max_size=n - 1))
    levels = [FrequencyLevel(0, base_f, base_v)]
    for i in range(1, n):
        prev = levels[-1]
        levels.append(FrequencyLevel(i, prev.freq + f_steps[i - 1], prev.vdd + v_steps[i - 1]))
    return tuple(levels)


@st.composite
def specs(draw, min_levels=2, max_levels=7, zero_static=False):
    """Valid ProcessorSpec; coeff_a > 0 keeps active power strictly rising."""
    levels = draw(ladders(min_levels, max_levels))
    coeff_a = draw(st.floats(1e-10, 1e-8))
    if zero_static:
        coeff_b = p_device = p_idle = 0.0
    else:
        coeff_b = draw(st.floats(0.0, 1.0))
        p_device = draw(st.floats(0.0, 6.0))
        p_idle = draw(st.floats(0.0, 2.0))
    spec = ProcessorSpec(
        levels=levels,
        coeff_a=coeff_a,
        coeff_b=coeff_b,
        p_device=p_device,
        p_idle=p_idle,
        thermal=make_thermal(),
        wear=make_wear(f_span=levels[-1].freq - levels[0].freq),
    )
    assert validate_spec(spec) == ()
    return spec


@st.composite
def tasks_for(draw, spec, slack_min=0.3, slack_max=5.0):
    """Task whose deadline window is a multiple of its top-level execution time."""
    cycles = draw(st.floats(1e8, 1e10))
    arrival = draw(st.floats(0.0, 10.0))
    fastest = cycles / spec.levels[-1].freq
    window = fastest * draw(st.floats(slack_min, slack_max))
    return Task("t", cycles, arrival, arrival + window)


@st.composite
def workloads(draw, spec, min_tasks=100, max_tasks=1000):
    """Many FIFO tasks: simultaneous, queued, short gaps, and idle gaps of 1-4 tau.

    The tasks come from one drawn seed, so a thousand of them cost hypothesis
    one draw, not thousands.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(min_tasks, max_tasks))
    tau = spec.thermal.tau
    top = spec.levels[-1].freq
    arrival = 0.0
    tasks = []
    for i in range(n):
        kind = rng.random()
        if kind < 0.15:
            gap = 0.0
        elif kind < 0.6:
            gap = rng.uniform(0.0, 0.5)
        else:
            gap = rng.uniform(tau, 4.0 * tau)
        arrival += gap
        cycles = rng.uniform(1e8, 3e9)
        window = cycles / top * rng.uniform(0.3, 5.0)
        tasks.append(Task(f"t{i}", cycles, arrival, arrival + window))
    return tuple(tasks)
