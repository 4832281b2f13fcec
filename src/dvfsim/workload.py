"""Deadline-constrained tasks and per-task frequency-selection governors.

Work is measured in processor cycles, so execution time is cycles/frequency and
lowering the frequency stretches a task into its slack. The governor picks one
level per task at its start; there is no mid-task re-selection. ``min_energy``
weighs stretching against racing at a higher level and idling out the window,
which wins when device or idle power is high; ties go low.
``validate_governor`` holds the GovernorPolicy rules that a Scenario and
``governor_rule`` check.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import DomainError, Violation
from .power import ProcessorSpec


class Task(namedtuple("_TaskFields", "id cycles arrival deadline")):
    """Work item: cycles > 0, arrival >= 0, absolute deadline > arrival (seconds)."""

    __slots__ = ()


class GovernorPolicy(namedtuple("_GovernorPolicyFields", "kind fixed_index", defaults=(None,))):
    """Frequency selection rule; ``fixed_index`` applies only to kind "fixed"."""

    __slots__ = ()


def validate_governor(governor: GovernorPolicy, n_levels: int) -> list[Violation]:
    """Every GovernorPolicy rule on a ladder of ``n_levels`` levels, as Violations; empty when it is valid."""
    kind, index = governor
    if kind not in ("lowest_feasible", "min_energy", "fixed"):
        return [Violation("governor.kind", f"unknown kind {kind!r}")]
    if kind != "fixed":
        return [] if index is None else [Violation("governor.fixed_index", "only valid for the fixed governor")]
    if index is None:
        return [Violation("governor.fixed_index", "required for the fixed governor")]
    if type(index) is not int:  # a bool is no index either, as in the schema
        return [Violation("governor.fixed_index", "must be an integer")]
    if not 0 <= index < n_levels:
        return [Violation("governor.fixed_index", f"outside ladder bounds 0..{n_levels - 1}")]
    return []


def governor_rule(spec: ProcessorSpec, governor: GovernorPolicy):
    """The governor's rule for ``spec``, called as ``rule(task, start)``; resolved once a run.

    ``min_energy`` gives the feasible level of least energy over the window from ``start`` to the deadline, active
    power while the task runs and idle power after, ties going low; ``lowest_feasible`` is the same scan with every
    level costing nothing, so the slowest feasible level; ``fixed`` gives its level, feasible or not. The scan gives
    None when no level fits. A run never starts a task before its arrival and a Scenario's governor is valid, so the
    DomainErrors for such a ``start`` and with ``validate_governor``'s line guard a direct call.
    """
    if violations := validate_governor(governor, len(spec.levels)):
        raise DomainError("; ".join(map(str, violations)))
    if governor.kind == "fixed":
        level = spec.levels[governor.fixed_index]
        return lambda task, start: level
    costed = governor.kind == "min_energy"
    powers = spec.active_w if costed else [0.0] * len(spec.levels)
    table = tuple(zip(spec.levels, powers, [level.freq for level in spec.levels]))  # built once, read per task
    p_idle = spec.p_idle if costed else 0.0

    def rule(task: Task, start: float):
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
        return best

    return rule
