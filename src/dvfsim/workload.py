"""Deadline-constrained tasks and per-task frequency-selection governors.

Work is measured in processor cycles, so execution time is cycles/frequency and
lowering the frequency stretches a task into its slack. The governor picks one
level per task at its start; there is no mid-task re-selection.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import DomainError, InfeasibleError
from .power import FrequencyLevel, ProcessorSpec

GOVERNOR_KINDS = ("lowest_feasible", "min_energy", "fixed")


class Task(namedtuple("_TaskFields", "id cycles arrival deadline")):
    """Work item: cycles > 0, arrival >= 0, absolute deadline > arrival (seconds)."""

    __slots__ = ()


class GovernorPolicy(namedtuple("_GovernorPolicyFields", "kind fixed_index", defaults=(None,))):
    """Frequency selection rule; ``fixed_index`` applies only to kind "fixed"."""

    __slots__ = ()


def _required_hz(task: Task, window: float) -> float:
    return task.cycles / window if window > 0 else math.inf


def lowest_feasible_level(spec: ProcessorSpec, task: Task, start: float) -> FrequencyLevel:
    """Slowest ladder level that still meets the deadline from ``start``."""
    if start < task.arrival:
        raise DomainError(f"start {start} precedes arrival {task.arrival}")
    window = task.deadline - start
    for level in spec.levels:
        if task.cycles / level.freq <= window:
            return level
    raise InfeasibleError(task.id, _required_hz(task, window))


def min_energy_level(spec: ProcessorSpec, task: Task, start: float) -> FrequencyLevel:
    """Feasible level minimizing energy over the deadline window; ties go low.

    Energy charges active power for the execution time and idle power for the
    remainder of the window, so with nonzero device or idle power racing to a
    higher level and idling can beat stretching.
    """
    return _min_energy_rule(spec)(spec, task, start)


def _min_energy_rule(spec: ProcessorSpec):
    """``min_energy_level`` for ``spec``, its (level, power, freq) table built once; the rule ignores the spec it
    is called with."""
    table = tuple(zip(spec.levels, spec.active_w, [level.freq for level in spec.levels]))
    p_idle = spec.p_idle

    def rule(_spec, task: Task, start: float) -> FrequencyLevel:
        if start < task.arrival:
            raise DomainError(f"start {start} precedes arrival {task.arrival}")
        window = task.deadline - start
        best = None
        best_energy = math.inf
        cycles = task.cycles
        for level, power, freq in table:
            t_run = cycles / freq
            if t_run > window:
                continue
            energy = power * t_run + p_idle * (window - t_run)
            if energy < best_energy:
                best = level
                best_energy = energy
        if best is None:
            raise InfeasibleError(task.id, _required_hz(task, window))
        return best

    return rule


def governor_rule(spec: ProcessorSpec, governor: GovernorPolicy):
    """The governor's selection rule, called as ``rule(spec, task, start)``; resolved once a run."""
    if governor.kind == "fixed":
        if governor.fixed_index is None or not (0 <= governor.fixed_index < len(spec.levels)):
            raise DomainError(f"fixed governor index {governor.fixed_index} outside ladder")
        level = spec.levels[governor.fixed_index]
        return lambda spec, task, start: level
    if governor.kind == "lowest_feasible":
        return lowest_feasible_level
    if governor.kind == "min_energy":
        return _min_energy_rule(spec)
    raise DomainError(f"unknown governor kind {governor.kind!r}")


def select_level(spec: ProcessorSpec, task: Task, start: float, governor: GovernorPolicy) -> FrequencyLevel:
    """Apply the governor's selection rule. Raises InfeasibleError like the rules do."""
    return governor_rule(spec, governor)(spec, task, start)
