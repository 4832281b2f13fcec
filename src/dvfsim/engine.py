"""Event-driven timeline composing governor, transitions, power, heat, and wear.

One processor serves tasks FIFO in arrival order. The timeline is a chain of
piecewise-constant-power intervals delimited by arrivals, hops, dwell ends, and
completions; temperature advances by the exact closed form on each interval, so
there is no global timestep. The run is one pass: each interval's thermal
Segment advances the ledger and also serves the trace samples that fall in it,
so sampling is purely observational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import DomainError, InfeasibleError, PolicyRunError, ScenarioError
from .power import (
    DEFAULT_COST_RATE,
    EnergyBreakdown,
    FrequencyLevel,
    ProcessorSpec,
    ValidationResult,
    Violation,
    active_power,
    energy_cost,
    idle_power,
    validate_spec,
)
from .thermal import Segment, ThermalParams, WearLedger, project_lifetime
from .transitions import POLICY_KINDS, Hop, TransitionPolicy, plan_transition, shock_wear
from .workload import GOVERNOR_KINDS, GovernorPolicy, Task, select_level

MAX_TRACE_POINTS = 10**6  # about 200 MB of trace; a run past it is refused, not truncated


@dataclass(frozen=True)
class Scenario:
    """One complete simulation setup.

    ``duration`` is the horizon in seconds (must cover every deadline);
    ``trace_dt`` the observation sampling interval; ``cost_rate`` is $/MWh.
    ``dwell_stalls`` switches stepped-transition dwells from doing useful work
    to stalling at the intermediate level.
    """

    spec: ProcessorSpec
    tasks: tuple[Task, ...]
    governor: GovernorPolicy
    policy: TransitionPolicy
    duration: float
    trace_dt: float
    cost_rate: float = DEFAULT_COST_RATE
    dwell_stalls: bool = False


@dataclass(frozen=True)
class TaskOutcome:
    id: str
    level_index: int
    start: float
    finish: float
    deadline_met: bool
    infeasible: bool = False


@dataclass(frozen=True)
class TransitionEvent:
    """One executed hop: when, between which clocks, and the shock it cost."""

    time: float
    from_hz: float
    to_hz: float
    delta_f: float
    wear: float


@dataclass(frozen=True)
class TracePoint:
    time: float
    freq: float
    power: float
    temp: float
    cum_wear: float


@dataclass(frozen=True)
class SimReport:
    energy: EnergyBreakdown
    cost_usd: float
    per_task: tuple[TaskOutcome, ...]
    transition_count: int
    total_delta_f_hz: float
    peak_temp: float
    avg_temp: float
    active_s: float
    idle_s: float
    ledger: WearLedger
    projected_lifetime: float  # seconds; inf means unbounded
    transition_log: tuple[TransitionEvent, ...]

    @property
    def deadline_misses(self) -> int:
        return sum(1 for t in self.per_task if not t.deadline_met)


@dataclass(frozen=True)
class PolicyOutcome:
    """One policy's run plus its deltas against the first (baseline) policy."""

    policy: TransitionPolicy
    label: str
    report: SimReport
    delta_energy_j: float
    delta_lifetime_s: float
    delta_misses: int
    newly_missed: tuple[str, ...]
    newly_met: tuple[str, ...]


@dataclass(frozen=True)
class ComparisonReport:
    runs: tuple[PolicyOutcome, ...]


def validate_scenario(scenario: Scenario) -> ValidationResult:
    """Every scenario invariant in one list: spec, tasks, governor, policy, sim."""
    v = list(validate_spec(scenario.spec).violations)
    n_levels = len(scenario.spec.levels)

    seen_ids: set[str] = set()
    prev_arrival = -math.inf
    for i, t in enumerate(scenario.tasks):
        where = f"tasks[{i}]"
        if not (math.isfinite(t.cycles) and t.cycles > 0):
            v.append(Violation(f"{where}.cycles", "must be finite and > 0"))
        if not (math.isfinite(t.arrival) and t.arrival >= 0):
            v.append(Violation(f"{where}.arrival", "must be finite and >= 0"))
        if not (math.isfinite(t.deadline) and t.deadline > t.arrival):
            v.append(Violation(f"{where}.deadline", "must be finite and > arrival"))
        if t.arrival < prev_arrival:
            v.append(Violation(f"{where}.arrival", "tasks must be sorted by arrival"))
        prev_arrival = t.arrival
        if t.id in seen_ids:
            v.append(Violation(f"{where}.id", f"duplicate task id {t.id!r}"))
        seen_ids.add(t.id)

    g = scenario.governor
    if g.kind not in GOVERNOR_KINDS:
        v.append(Violation("governor.kind", f"unknown kind {g.kind!r}"))
    elif g.kind == "fixed":
        if g.fixed_index is None:
            v.append(Violation("governor.fixed_index", "required for the fixed governor"))
        elif not (0 <= g.fixed_index < n_levels):
            v.append(Violation("governor.fixed_index", f"outside ladder bounds 0..{n_levels - 1}"))
    elif g.fixed_index is not None:
        v.append(Violation("governor.fixed_index", "only valid for the fixed governor"))

    p = scenario.policy
    if p.kind not in POLICY_KINDS:
        v.append(Violation("policy.kind", f"unknown kind {p.kind!r}"))
    if not (math.isfinite(p.dwell) and p.dwell >= 0):
        v.append(Violation("policy.dwell", "must be finite and >= 0"))

    if not (math.isfinite(scenario.duration) and scenario.duration > 0):
        v.append(Violation("sim.duration", "must be finite and > 0"))
    elif scenario.tasks:
        horizon = max(t.deadline for t in scenario.tasks)
        if scenario.duration < horizon:
            v.append(Violation("sim.duration", f"must cover the latest deadline ({horizon:g} s)"))
    if not (math.isfinite(scenario.trace_dt) and scenario.trace_dt > 0):
        v.append(Violation("sim.trace_dt", "must be finite and > 0"))
    elif scenario.duration / scenario.trace_dt > MAX_TRACE_POINTS:
        v.append(Violation("sim.trace_dt", f"gives more than {MAX_TRACE_POINTS} trace points over sim.duration"))
    if not (math.isfinite(scenario.cost_rate) and scenario.cost_rate >= 0):
        v.append(Violation("sim.cost_rate", "must be finite and >= 0"))

    return ValidationResult(tuple(v))


class _Timeline:
    """Mutable run state: clock, temperature, wear, energy, transition log, and trace.

    Each span's Segment serves both the ledger and the trace points that fall in it.
    """

    def __init__(self, thermal: ThermalParams, wear_params, trace_dt: float):
        self.thermal = thermal
        self.wear_params = wear_params
        self.trace_dt = trace_dt
        self.now = 0.0
        self.temp = thermal.t_amb
        self.thermal_acc = 0.0
        self.shock_acc = 0.0
        self.active_j = 0.0
        self.idle_j = 0.0
        self.active_t = 0.0
        self.idle_t = 0.0
        self.peak = thermal.t_amb
        self.temp_integral = 0.0
        self.log: list[TransitionEvent] = []
        self.trace: list[TracePoint] = []
        self.span = None  # (t0, freq, power, Segment, wear at t0) of the latest span

    def run(self, length: float, level: FrequencyLevel, power: float, active: bool, until: float | None = None):
        """Hold ``power`` for ``length`` seconds; ``until`` pins the end to an event time."""
        if length <= 0.0:
            return
        end = self.now + length if until is None else until
        if end > MAX_TRACE_POINTS * self.trace_dt:
            raise DomainError(f"the run reaches {end:g} s, beyond {MAX_TRACE_POINTS} trace points of sim.trace_dt")
        seg = Segment(self.thermal, self.temp, power)
        self.span = (self.now, level.freq, power, seg, self.thermal_acc + self.shock_acc)
        end_temp, wear, temp_integral = seg.advance(length)
        self.sample(end)
        self.temp_integral += temp_integral
        self.peak = max(self.peak, self.temp, end_temp)
        if active:
            self.active_j += power * length
            self.active_t += length
        else:
            self.idle_j += power * length
            self.idle_t += length
        self.thermal_acc += wear
        self.temp = end_temp
        self.now = end

    def sample(self, until: float) -> None:
        """Trace the latest span at each k * trace_dt before ``until``, so a sample on an
        event time reports the span that starts there."""
        t0, freq, power, seg, wear0 = self.span
        k = len(self.trace)
        time = k * self.trace_dt
        while time < until:
            offset = time - t0
            self.trace.append(TracePoint(time, freq, power, seg.temp_at(offset), wear0 + seg.wear_at(offset)))
            k += 1
            time = k * self.trace_dt

    def hop(self, hop: Hop) -> None:
        wear = shock_wear(self.wear_params, hop.delta_f)
        self.shock_acc += wear
        self.log.append(TransitionEvent(self.now, hop.from_level.freq, hop.to_level.freq, hop.delta_f, wear))


def _choose(spec: ProcessorSpec, task: Task, start: float, governor: GovernorPolicy):
    """Governor decision at task start; infeasible tasks fall back to the top level."""
    try:
        return select_level(spec, task, start, governor), False
    except InfeasibleError:
        return spec.levels[-1], True


def simulate(scenario: Scenario) -> tuple[SimReport, tuple[TracePoint, ...]]:
    """Run one scenario to completion and report energy, heat, wear, and deadlines.

    Timeline semantics:
      * the processor starts at the lowest level, ambient temperature, no wear;
      * at each task start the governor picks a level and the transition policy
        walks there, accruing one shock per hop; dwells at intermediate levels
        execute task cycles at active power (or stall, if ``dwell_stalls``);
      * execution draws active power at the current level, everything else
        draws idle power;
      * when an idle gap follows a completion, the processor transitions back
        down to the lowest level under the same policy (those hops shock too),
        and a task arriving during that walk waits for it to end; back-to-back
        tasks transition directly between their levels;
      * a task whose deadline no level can meet runs at the top level and is
        flagged; misses are recorded, never fatal.
    """
    result = validate_scenario(scenario)
    if not result.ok:
        raise ScenarioError("validation", [str(x) for x in result.violations])

    spec = scenario.spec
    p_idle = idle_power(spec)
    tl = _Timeline(spec.thermal, spec.wear, scenario.trace_dt)
    level = spec.levels[0]
    outcomes: list[TaskOutcome] = []
    tasks = scenario.tasks

    for i, task in enumerate(tasks):
        if task.arrival > tl.now:
            tl.run(task.arrival - tl.now, level, p_idle, active=False, until=task.arrival)
        start = tl.now
        target, infeasible = _choose(spec, task, start, scenario.governor)
        cycles_left = task.cycles
        finished = False
        for hop in plan_transition(spec, level, target, scenario.policy).hops:
            tl.hop(hop)
            level = hop.to_level
            dwell = hop.dwell_after
            if dwell <= 0.0:
                continue
            if scenario.dwell_stalls:
                tl.run(dwell, level, active_power(spec, level), active=True)
                continue
            capacity = dwell * level.freq
            if cycles_left <= capacity:
                tl.run(cycles_left / level.freq, level, active_power(spec, level), active=True)
                finished = True  # task ended mid-dwell; abandon the rest of the climb
                break
            tl.run(dwell, level, active_power(spec, level), active=True)
            cycles_left -= capacity
        if not finished:
            tl.run(cycles_left / level.freq, level, active_power(spec, level), active=True)
        finish = tl.now
        outcomes.append(TaskOutcome(task.id, target.index, start, finish, finish <= task.deadline, infeasible))

        next_arrival = tasks[i + 1].arrival if i + 1 < len(tasks) else None
        if next_arrival is None or next_arrival > tl.now:
            # Idle gap ahead: pace back down to the bottom of the ladder.
            for hop in plan_transition(spec, level, spec.levels[0], scenario.policy).hops:
                tl.hop(hop)
                level = hop.to_level
                if hop.dwell_after > 0.0:
                    tl.run(hop.dwell_after, level, p_idle, active=False)

    if tl.now < scenario.duration:
        tl.run(scenario.duration - tl.now, level, p_idle, active=False, until=scenario.duration)
    end = tl.now
    tl.sample(math.nextafter(end, math.inf))  # only the last span also serves a sample on its end

    energy = EnergyBreakdown(tl.active_j, tl.idle_j)
    ledger = WearLedger(tl.thermal_acc, tl.shock_acc, end)
    cost = energy_cost(energy.total_j / end / 1e6, end / 3600.0, scenario.cost_rate)
    report = SimReport(
        energy=energy,
        cost_usd=cost,
        per_task=tuple(outcomes),
        transition_count=len(tl.log),
        total_delta_f_hz=sum(e.delta_f for e in tl.log),
        peak_temp=tl.peak,
        avg_temp=tl.temp_integral / end,
        active_s=tl.active_t,
        idle_s=tl.idle_t,
        ledger=ledger,
        projected_lifetime=project_lifetime(ledger),
        transition_log=tuple(tl.log),
    )
    return report, tuple(tl.trace)


def policy_label(policy: TransitionPolicy) -> str:
    if policy.kind == "stepped" and policy.dwell > 0:
        return f"stepped:{policy.dwell:g}"
    return policy.kind


def _lifetime_delta(a: float, b: float) -> float:
    if math.isinf(a) and math.isinf(b):
        return 0.0
    return a - b


def compare_policies(scenario: Scenario, policies) -> ComparisonReport:
    """Simulate the same scenario under each policy; deltas are against the first.

    ``newly_missed``/``newly_met`` flag per-task deadline changes relative to
    the baseline policy. Run failures are re-raised tagged with the policy.
    """
    policies = tuple(policies)
    if len(policies) < 2:
        raise DomainError("compare_policies needs at least 2 policies")
    reports: list[SimReport] = []
    for p in policies:
        try:
            rep, _ = simulate(replace(scenario, policy=p))
        except Exception as exc:
            raise PolicyRunError(policy_label(p), exc) from exc
        reports.append(rep)

    base = reports[0]
    base_missed = {t.id for t in base.per_task if not t.deadline_met}
    runs = []
    for p, rep in zip(policies, reports):
        missed = {t.id for t in rep.per_task if not t.deadline_met}
        runs.append(
            PolicyOutcome(
                policy=p,
                label=policy_label(p),
                report=rep,
                delta_energy_j=rep.energy.total_j - base.energy.total_j,
                delta_lifetime_s=_lifetime_delta(rep.projected_lifetime, base.projected_lifetime),
                delta_misses=len(missed) - len(base_missed),
                newly_missed=tuple(sorted(missed - base_missed)),
                newly_met=tuple(sorted(base_missed - missed)),
            )
        )
    return ComparisonReport(tuple(runs))
