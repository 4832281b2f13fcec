"""Event-driven timeline composing governor, transitions, power, heat, and wear.

One processor serves tasks FIFO in arrival order. The timeline is a chain of
piecewise-constant-power intervals delimited by arrivals, hops, dwell ends, and
completions; temperature advances by the exact closed form on each interval, so
there is no global timestep. The run is one pass, and each interval is one
thermal step, its power's ``SteadyState.step``, traced or not.
``run_scenario`` samples the trace only when it is given a sink: the same
record's span trace query, ``SteadyState.trace``, then gives the trace points
that fall in the interval; they go to the sink as lists of at most TRACE_CHUNK
points of one span, so sampling is purely observational.
``simulate`` collects them. A run resolves its governor's rule, each power's
thermal SteadyState and each level pair's hops with their shock once, and
makes no span of zero length. Validation takes the governor's and the policy's
rules from ``workload.validate_governor`` and ``transitions.validate_policy``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

from .errors import DomainError, PolicyRunError, ScenarioError, Violation, _finite, _real
from .power import (
    DEFAULT_COST_RATE,
    EnergyBreakdown,
    FrequencyLevel,
    ProcessorSpec,
    energy_cost,
    validate_spec,
)
from .thermal import SteadyState, TracePoint, WearLedger, project_lifetime
from .transitions import Hop, TransitionPolicy, plan_transition, shock_wear, validate_policy
from .workload import GovernorPolicy, Task, governor_rule, validate_governor

MAX_TRACE_POINTS = 10**6  # bounds run time and trace size, sampled or not; a run past it is refused, not truncated
TRACE_CHUNK = 4096  # the most trace points in one sink call, so a long span is never held whole


@dataclass(frozen=True)
class Scenario:
    """One complete simulation setup.

    ``duration`` is the horizon in seconds (must cover every deadline);
    ``trace_dt`` the observation sampling interval; ``cost_rate`` is $/MWh.
    ``dwell_stalls`` switches stepped-transition dwells from doing useful work
    to stalling at the intermediate level. Building one that breaks an
    invariant raises ScenarioError("validation") listing every violation.
    """

    spec: ProcessorSpec
    tasks: tuple[Task, ...]
    governor: GovernorPolicy
    policy: TransitionPolicy
    duration: float
    trace_dt: float
    cost_rate: float = DEFAULT_COST_RATE
    dwell_stalls: bool = False

    def __post_init__(self):
        violations = _validate_scenario(self)
        if violations:
            raise ScenarioError("validation", [str(v) for v in violations])


TaskOutcome = namedtuple("TaskOutcome", "id level_index start finish deadline_met infeasible", defaults=(False,))


class TransitionEvent(namedtuple("_TransitionEventFields", "time from_hz to_hz delta_f wear")):
    """One executed hop: when, between which clocks, and the shock it cost."""

    __slots__ = ()


class SimReport(
    namedtuple(
        "_SimReportFields",
        "energy cost_usd per_task peak_temp avg_temp active_s idle_s ledger projected_lifetime transition_log",
    )
):
    """One run's totals: an EnergyBreakdown, the cost, one TaskOutcome per task, temperatures, busy and idle
    seconds, the WearLedger, the projected lifetime in seconds (inf means unbounded) and the TransitionEvents."""

    __slots__ = ()

    @property
    def deadline_misses(self) -> int:
        return sum(1 for t in self.per_task if not t.deadline_met)

    @property
    def transition_count(self) -> int:
        return len(self.transition_log)

    @property
    def total_delta_f_hz(self) -> float:
        total = 0  # a left fold in log order, as the ledger's shock wear: Python 3.12's float sum is compensated
        for event in self.transition_log:
            total += event.delta_f
        return total


class PolicyOutcome(
    namedtuple("_PolicyOutcomeFields", "policy label report delta_energy_j delta_lifetime_s newly_missed newly_met")
):
    """One policy's run plus its deltas against the first (baseline) policy."""

    __slots__ = ()


ComparisonReport = namedtuple("ComparisonReport", "runs")  # one PolicyOutcome per policy, the baseline first


def _validate_scenario(scenario: Scenario) -> list[Violation]:
    """Every scenario invariant in one list: spec, tasks, governor, policy, sim."""
    v = list(validate_spec(scenario.spec))

    seen_ids: set[str] = set()
    prev_arrival = -math.inf
    for i, (tid, cycles, arrival, deadline) in enumerate(scenario.tasks):
        # a clean task passes every rule below at once (NaN fails each comparison); only a broken one is spelled out
        try:
            clean = (0.0 < cycles < math.inf and prev_arrival <= arrival < deadline < math.inf and arrival >= 0.0
                     and type(tid) is str and tid not in seen_ids)
        except TypeError:  # a non-number where a number belongs
            clean = False
        if not clean:
            where = f"tasks[{i}]"
            arrival = _real(arrival)
            if not (_finite(cycles) and cycles > 0):
                v.append(Violation(f"{where}.cycles", "must be finite and > 0"))
            if not (_finite(arrival) and arrival >= 0):
                v.append(Violation(f"{where}.arrival", "must be finite and >= 0"))
            if not (_finite(deadline) and deadline > arrival):
                v.append(Violation(f"{where}.deadline", "must be finite and > arrival"))
            if arrival < prev_arrival:
                v.append(Violation(f"{where}.arrival", "tasks must be sorted by arrival"))
            if not isinstance(tid, str):
                v.append(Violation(f"{where}.id", "must be a string"))
                tid = None  # hashable, and equal to no string id
            elif tid in seen_ids:
                v.append(Violation(f"{where}.id", f"duplicate task id {tid!r}"))
        prev_arrival = arrival
        seen_ids.add(tid)

    v += validate_governor(scenario.governor, len(scenario.spec.levels))
    v += validate_policy(scenario.policy)

    if not (_finite(scenario.duration) and scenario.duration > 0):
        v.append(Violation("sim.duration", "must be finite and > 0"))
    elif scenario.tasks:
        try:
            horizon = _real(max(t.deadline for t in scenario.tasks))
        except TypeError:  # some deadline is not a number; its own line is listed above
            horizon = max(_real(t.deadline) for t in scenario.tasks)
        if scenario.duration < horizon:
            v.append(Violation("sim.duration", f"must cover the latest deadline ({horizon:g} s)"))
    if not (_finite(scenario.trace_dt) and scenario.trace_dt > 0):
        v.append(Violation("sim.trace_dt", "must be finite and > 0"))
    elif _real(scenario.duration) > MAX_TRACE_POINTS * scenario.trace_dt:  # the bound _Timeline.run enforces
        v.append(Violation("sim.trace_dt", f"gives more than {MAX_TRACE_POINTS} trace points over sim.duration"))
    if not (_finite(scenario.cost_rate) and scenario.cost_rate >= 0):
        v.append(Violation("sim.cost_rate", "must be finite and >= 0"))
    return v


class _Timeline:
    """Mutable run state: clock, temperature, wear, energy, and transition log.

    A span's power follows from its level and whether the processor is busy,
    and that power's ``SteadyState.step`` gives the ledger the span's end state.
    Given a ``sink``, the same record's ``trace`` gives the trace points that
    fall in the span, from its entry temperature, handed over as lists of at
    most TRACE_CHUNK consecutive points that share the span's freq and power.
    """

    def __init__(self, spec: ProcessorSpec, trace_dt: float, sink):
        self.active = [(power, SteadyState(spec.thermal, power)) for power in spec.active_w]  # by ladder index
        self.idle = (spec.p_idle, SteadyState(spec.thermal, spec.p_idle))
        self.trace_dt = trace_dt
        self.end_cap = MAX_TRACE_POINTS * trace_dt  # no span may end past the trace cap
        self.now = 0.0
        self.temp = spec.thermal.t_amb
        self.thermal_acc = 0.0
        self.shock_acc = 0.0
        self.active_j = 0.0
        self.idle_j = 0.0
        self.active_t = 0.0
        self.idle_t = 0.0
        self.peak = spec.thermal.t_amb
        self.temp_integral = 0.0
        self.log: list[TransitionEvent] = []
        self.sink = sink
        self.samples = 0  # trace points passed to the sink so far
        self.span = None  # (t0, length, freq, power, SteadyState, temp0, thermal wear at t0) of a sampled span

    def run(self, length: float, level: FrequencyLevel, active: bool, until: float | None = None):
        """Hold ``level`` for ``length`` seconds, busy or idle; ``until`` pins the end to an event time."""
        if length <= 0.0:
            return
        power, steady = self.active[level.index] if active else self.idle
        end = self.now + length if until is None else until
        if end > self.end_cap:
            raise DomainError(f"the run reaches {end:g} s, beyond {MAX_TRACE_POINTS} trace points of sim.trace_dt")
        end_temp, wear, temp_integral = steady.step(self.temp, length)
        if self.sink is not None:
            self.span = (self.now, length, level.freq, power, steady, self.temp, self.thermal_acc)
            self.sample(end)
        self.temp_integral += temp_integral
        if end_temp > self.peak:  # the span's entry temperature is the previous span's end, counted already
            self.peak = end_temp
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
        event time reports the span that starts there; the points go to the sink
        TRACE_CHUNK at a time, the last call holding the rest."""
        t0, length, freq, power, steady, temp0, thermal0 = self.span
        # hops fall only between spans, so the closing sample on the run's end also counts those logged there
        wear0 = thermal0 + self.shock_acc
        dt = self.trace_dt
        k = self.samples
        m = max(k, math.ceil(until / dt))  # the first index at or past until: i * dt grows with i, so adjust by steps
        while m > k and (m - 1) * dt >= until:
            m -= 1
        while m * dt < until:
            m += 1
        for c in range(k, m, TRACE_CHUNK):
            self.sink(steady.trace(temp0, t0, length, dt, c, min(c + TRACE_CHUNK, m), freq, power, wear0))
        self.samples = m

    def hop(self, hop: Hop, wear: float) -> None:
        self.shock_acc += wear
        event = (self.now, hop.from_level.freq, hop.to_level.freq, hop.delta_f, wear)
        self.log.append(tuple.__new__(TransitionEvent, event))


def run_scenario(scenario: Scenario, sink=None) -> SimReport:
    """Run one scenario to completion and report energy, heat, wear, and deadlines.

    The trace is sampled only if ``sink`` is given: it is called with lists of
    TracePoints in time order, each list non-empty, at most TRACE_CHUNK long and
    from one span, so its points share one freq and one power. The report is
    the same either way.

    Raises DomainError if a missed deadline carries the run past the trace cap,
    or if a report total (energy, cost, average temperature, wear, frequency
    span) overflows a float.

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
        flagged; misses are recorded, never fatal;
      * the trace's closing sample, at the run's end, shows the last span's
        freq, power and temperature; its cum_wear also counts every hop logged
        at that end, so it equals the ledger total up to rounding (the two add
        the same parts in different orders; within a relative 1e-12).
    """
    return _run(scenario, scenario.policy, sink)


def _run(scenario: Scenario, policy: TransitionPolicy, sink) -> SimReport:
    """``run_scenario`` under ``policy`` in place of the scenario's own, which a caller has validated."""
    spec = scenario.spec
    tl = _Timeline(spec, scenario.trace_dt, sink)
    level = spec.levels[0]
    outcomes: list[TaskOutcome] = []
    tasks = scenario.tasks
    rule = governor_rule(spec, scenario.governor)
    new = tuple.__new__  # builds a TaskOutcome without the Python-level call of TaskOutcome(...)
    plans: dict[tuple[int, int], tuple] = {}  # (from, to) index -> its (hop, shock wear) pairs, planned once a run

    def plan(a: FrequencyLevel, b: FrequencyLevel) -> tuple[tuple[Hop, float], ...]:
        key = (a.index, b.index)
        if key not in plans:
            plans[key] = tuple((hop, shock_wear(spec.wear, hop.delta_f)) for hop in plan_transition(spec, a, b, policy))
        return plans[key]

    # a zero-length span changes nothing, so the idle gap before a queued task and a zero dwell are skipped here
    for i, task in enumerate(tasks):
        if task.arrival > tl.now:
            tl.run(task.arrival - tl.now, level, active=False, until=task.arrival)
        start = tl.now
        target, infeasible = rule(task, start), False
        if target is None:  # no level meets the deadline: run at the top and flag it
            target, infeasible = spec.levels[-1], True
        cycles_left = task.cycles
        for hop, wear in plan(level, target):
            tl.hop(hop, wear)
            level = hop.to_level
            dwell = hop.dwell_after
            if dwell <= 0.0:  # a direct hop, a stepped climb's last, or any hop of a policy without dwell
                continue
            if scenario.dwell_stalls:
                tl.run(dwell, level, active=True)
                continue
            capacity = dwell * level.freq
            if cycles_left <= capacity:
                break  # the task ends mid-dwell, at this level; abandon the rest of the climb
            tl.run(dwell, level, active=True)
            cycles_left -= capacity
        tl.run(cycles_left / level.freq, level, active=True)
        finish = tl.now
        outcomes.append(new(TaskOutcome, (task.id, target.index, start, finish, finish <= task.deadline, infeasible)))

        if i + 1 == len(tasks) or tasks[i + 1].arrival > tl.now:
            # Idle gap ahead: pace back down to the bottom of the ladder.
            for hop, wear in plan(level, spec.levels[0]):
                tl.hop(hop, wear)
                level = hop.to_level
                if hop.dwell_after > 0.0:
                    tl.run(hop.dwell_after, level, active=False)

    tl.run(scenario.duration - tl.now, level, active=False, until=scenario.duration)
    end = tl.now
    if sink is not None:
        tl.sample(math.nextafter(end, math.inf))  # only the last span also serves a sample on its end

    energy = EnergyBreakdown(tl.active_j, tl.idle_j)
    ledger = WearLedger(tl.thermal_acc, tl.shock_acc, end)
    cost = energy_cost(energy.total_j / end / 1e6, end / 3600.0, scenario.cost_rate)
    report = SimReport(
        energy=energy,
        cost_usd=cost,
        per_task=tuple(outcomes),
        peak_temp=tl.peak,
        avg_temp=tl.temp_integral / end,
        active_s=tl.active_t,
        idle_s=tl.idle_t,
        ledger=ledger,
        projected_lifetime=project_lifetime(ledger),
        transition_log=tuple(tl.log),
    )
    totals = {
        "energy_total_j": energy.total_j,
        "cost_usd": cost,
        "avg_temp_c": report.avg_temp,
        "wear_total": ledger.total,
        "total_delta_f_hz": report.total_delta_f_hz,
    }
    for name, value in totals.items():
        if not math.isfinite(value):  # a report is strict JSON: no Infinity or NaN
            raise DomainError(f"{name} is {value!r}: a model value overflows a float")
    return report


def simulate(scenario: Scenario) -> tuple[SimReport, tuple[TracePoint, ...]]:
    """``run_scenario`` with the trace kept in memory: returns (report, trace)."""
    trace: list[TracePoint] = []
    report = run_scenario(scenario, trace.extend)
    return report, tuple(trace)


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
            if violations := validate_policy(p):  # the rest of the scenario was validated when it was built
                raise ScenarioError("validation", [str(v) for v in violations])
            rep = _run(scenario, p, None)
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
                newly_missed=tuple(sorted(missed - base_missed)),
                newly_met=tuple(sorted(base_missed - missed)),
            )
        )
    return ComparisonReport(tuple(runs))
