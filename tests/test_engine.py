import math

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from dvfsim import (
    DomainError,
    GovernorPolicy,
    PolicyRunError,
    ScenarioError,
    Task,
    TransitionPolicy,
    active_power,
    compare_policies,
    idle_power,
    shock_wear,
    simulate,
    validate_scenario,
)
from dvfsim.engine import MAX_TRACE_POINTS

from helpers import TURION_FREQS, make_scenario, make_spec, make_task, make_wear
from strategies import specs, workloads

DIRECT = TransitionPolicy("direct")
STEPPED = TransitionPolicy("stepped")


def active_power_inline(spec, level):
    return spec.coeff_a * level.freq * level.vdd**2 + spec.coeff_b * level.vdd + spec.p_device


class TestValidation:
    def test_duration_must_cover_deadlines(self):
        sc = make_scenario(tasks=(make_task(deadline=500.0),), duration=100.0)
        result = validate_scenario(sc)
        assert any(v.field == "sim.duration" for v in result.violations)
        with pytest.raises(ScenarioError) as err:
            simulate(sc)
        assert err.value.kind == "validation"

    def test_unsorted_tasks_rejected(self):
        tasks = (make_task(id="a", arrival=5.0, deadline=10.0), make_task(id="b", arrival=1.0, deadline=8.0))
        result = validate_scenario(make_scenario(tasks=tasks))
        assert any("sorted by arrival" in v.rule for v in result.violations)

    def test_duplicate_task_ids_rejected(self):
        tasks = (make_task(id="x", arrival=0.0), make_task(id="x", arrival=1.0, deadline=11.0))
        result = validate_scenario(make_scenario(tasks=tasks))
        assert any("duplicate task id" in v.rule for v in result.violations)

    def test_fixed_governor_needs_index_in_bounds(self):
        sc = make_scenario(governor=GovernorPolicy("fixed", 17))
        assert any(v.field == "governor.fixed_index" for v in validate_scenario(sc).violations)

    def test_non_finite_task_fields_rejected(self):
        tasks = (Task("a", math.inf, 0.0, 5.0), Task("b", 1e9, math.nan, 5.0), Task("c", 1e9, 1.0, math.inf))
        fields = {v.field for v in validate_scenario(make_scenario(tasks=tasks)).violations}
        assert {"tasks[0].cycles", "tasks[1].arrival", "tasks[2].deadline"} <= fields

    def test_trace_sample_count_is_capped(self):
        assert validate_scenario(make_scenario(duration=float(MAX_TRACE_POINTS), trace_dt=1.0)).ok
        for duration, trace_dt in ((MAX_TRACE_POINTS + 1.0, 1.0), (120.0, 1e-7), (120.0, 1e-320)):
            result = validate_scenario(make_scenario(duration=duration, trace_dt=trace_dt))
            assert [v.field for v in result.violations] == ["sim.trace_dt"]

    def test_a_run_overrunning_the_trace_cap_raises(self):
        # validation passes: the task misses its deadline and runs for 1e7 s, past 1e6 samples of 1 s
        sc = make_scenario(tasks=(Task("big", 1.8e16, 0.0, 5.0),), duration=10.0, trace_dt=1.0)
        assert validate_scenario(sc).ok
        with pytest.raises(DomainError, match="trace points"):
            simulate(sc)

    def test_negative_dwell_rejected(self):
        sc = make_scenario(policy=TransitionPolicy("stepped", -0.5))
        assert any(v.field == "policy.dwell" for v in validate_scenario(sc).violations)


class TestSingleTaskEnergy:
    def test_matches_closed_form(self):
        spec = make_spec()
        task = make_task(cycles=2.7e9, arrival=3.0, deadline=10.0)
        sc = make_scenario(spec=spec, tasks=(task,), governor=GovernorPolicy("fixed", 2), duration=60.0)
        report, _ = simulate(sc)

        t_active = 2.7e9 / 1200e6
        expected = active_power_inline(spec, spec.levels[2]) * t_active + spec.p_idle * (60.0 - t_active)
        assert report.energy.total_j == pytest.approx(expected, rel=1e-9)
        assert report.active_s == pytest.approx(t_active, rel=1e-12)
        assert report.per_task[0].deadline_met

    def test_empty_workload_is_pure_idle(self):
        spec = make_spec()
        report, trace = simulate(make_scenario(spec=spec, duration=50.0))
        assert report.energy.total_j == pytest.approx(spec.p_idle * 50.0, rel=1e-12)
        assert report.energy.active_j == 0.0
        assert report.transition_count == 0
        assert report.ledger.shock_wear == 0.0
        assert all(p.freq == spec.levels[0].freq for p in trace)


class TestTimelineMechanics:
    def test_time_conservation(self):
        sc = make_scenario(tasks=(make_task(id="a", deadline=5.0), make_task(id="b", arrival=8.0, deadline=20.0)))
        report, _ = simulate(sc)
        assert report.active_s + report.idle_s == pytest.approx(sc.duration, abs=1e-9)

    def test_gap_triggers_descent_back_to_bottom(self):
        task = make_task(cycles=3.6e9, deadline=2.0)  # needs the top level
        report, _ = simulate(make_scenario(tasks=(task,), duration=30.0))
        assert report.transition_count == 2  # climb plus descent
        assert report.transition_log[0].to_hz == 1800e6
        assert report.transition_log[1].from_hz == 1800e6
        assert report.transition_log[1].to_hz == 800e6

    def test_back_to_back_tasks_skip_the_descent(self):
        tasks = (
            make_task(id="a", cycles=3.6e9, arrival=0.0, deadline=2.0),  # 1800 MHz
            make_task(id="b", cycles=1.2e9, arrival=0.5, deadline=3.0),  # queued before "a" ends, 1200 MHz
        )
        report, _ = simulate(make_scenario(tasks=tasks, duration=30.0))
        b = report.per_task[1]
        assert b.start == report.per_task[0].finish  # FIFO hand-off
        # direct hop 1800 -> chosen level of b, no detour through 800
        hops = report.transition_log
        assert hops[1].from_hz == 1800e6 and hops[1].to_hz == 1200e6
        assert len(hops) == 3  # climb, hand-off, final descent

    def test_fifo_order_for_simultaneous_arrivals(self):
        tasks = (
            make_task(id="first", cycles=8e8, arrival=0.0, deadline=50.0),
            make_task(id="second", cycles=8e8, arrival=0.0, deadline=50.0),
        )
        report, _ = simulate(make_scenario(tasks=tasks, duration=50.0))
        assert [t.id for t in report.per_task] == ["first", "second"]
        assert report.per_task[1].start == report.per_task[0].finish

    def test_arrival_during_descent_waits_for_it(self):
        policy = TransitionPolicy("stepped", 1.0)
        tasks = (
            make_task(id="a", cycles=1.8e10, arrival=0.0, deadline=20.0),
            make_task(id="b", cycles=8e8, arrival=12.0, deadline=30.0),
        )
        sc = make_scenario(tasks=tasks, governor=GovernorPolicy("fixed", 5), policy=policy, duration=60.0)
        report, _ = simulate(sc)
        a, b = report.per_task
        # a: 4 working dwells on the way up, remainder at 1800 MHz
        assert a.finish == pytest.approx(4.0 + (1.8e10 - 5.2e9) / 1800e6, rel=1e-12)
        # b arrives mid-descent and must wait for the processor to reach bottom
        assert b.start == pytest.approx(a.finish + 4.0, rel=1e-12)
        assert b.start > tasks[1].arrival

    def test_idle_span_ends_exactly_at_the_arrival(self):
        # A running sum of span lengths ended this idle gap one ulp before the
        # second arrival, and lowest_feasible then refused the early start.
        tasks = (
            make_task(id="s0", cycles=724364673.5542415, arrival=0.7519755185973926, deadline=1.3837209668968635),
            make_task(id="s1", cycles=1835230059.0615435, arrival=9.597112511859242, deadline=12.075763349351714),
        )
        sc = make_scenario(tasks=tasks, policy=TransitionPolicy("stepped", 0.05), duration=30.0, trace_dt=0.1)
        report, _ = simulate(sc)
        assert report.per_task[1].start == 9.597112511859242

    @given(st.floats(1e8, 3e9), st.floats(2.0, 50.0), st.sampled_from([DIRECT, TransitionPolicy("stepped", 0.05)]))
    @settings(max_examples=200, deadline=None)
    def test_an_arrival_after_idle_starts_exactly_on_time(self, cycles, lateness, policy):
        # the idle gap is longer than the clock so far, the case a running sum rounds
        first = make_task(id="a", cycles=cycles, arrival=0.0, deadline=10.0)
        report, _ = simulate(make_scenario(tasks=(first,), governor=GovernorPolicy("fixed", 3), policy=policy))
        idle_from = report.per_task[0].finish + 3 * policy.dwell  # any descent from level 3 is over
        arrival = idle_from * lateness
        second = make_task(id="b", cycles=1e8, arrival=arrival, deadline=arrival + 10.0)
        sc = make_scenario(
            tasks=(first, second), governor=GovernorPolicy("fixed", 3), policy=policy, duration=arrival + 20.0
        )
        report, _ = simulate(sc)
        assert report.per_task[1].start == arrival

    def test_task_finishing_mid_dwell_abandons_the_climb(self):
        sc = make_scenario(
            tasks=(make_task(cycles=4e8, deadline=10.0),),
            governor=GovernorPolicy("fixed", 5),
            policy=TransitionPolicy("stepped", 1.0),
            duration=30.0,
        )
        report, _ = simulate(sc)
        assert report.per_task[0].finish == pytest.approx(0.4, rel=1e-12)  # 4e8 cycles at 1 GHz
        # only one climb hop happened; descent starts from the level reached
        assert report.transition_log[0].to_hz == 1000e6
        assert report.transition_log[1].from_hz == 1000e6
        assert report.transition_log[1].to_hz == 800e6

    def test_stalled_dwells_do_no_work(self):
        task = make_task(cycles=3.6e9, deadline=20.0)
        base = make_scenario(
            tasks=(task,), governor=GovernorPolicy("fixed", 5), policy=TransitionPolicy("stepped", 0.5), duration=30.0
        )
        working, _ = simulate(base)
        stalled, _ = simulate(make_scenario(
            tasks=(task,), governor=GovernorPolicy("fixed", 5), policy=TransitionPolicy("stepped", 0.5),
            duration=30.0, dwell_stalls=True,
        ))
        assert stalled.per_task[0].finish == pytest.approx(4 * 0.5 + 3.6e9 / 1800e6, rel=1e-12)
        assert working.per_task[0].finish < stalled.per_task[0].finish

    def test_infeasible_task_runs_flagged_at_top_level(self):
        task = make_task(cycles=1e10, deadline=1.0)  # would need 10 GHz
        report, _ = simulate(make_scenario(tasks=(task,), duration=60.0))
        outcome = report.per_task[0]
        assert outcome.infeasible
        assert outcome.level_index == 5
        assert not outcome.deadline_met
        assert outcome.finish == pytest.approx(1e10 / 1800e6, rel=1e-12)


class TestWearAccounting:
    def test_shock_ledger_equals_log_sum_exactly(self):
        sc = make_scenario(tasks=(make_task(cycles=3.6e9, deadline=2.0),), policy=STEPPED, duration=30.0)
        report, _ = simulate(sc)
        assert report.ledger.shock_wear == sum(e.wear for e in report.transition_log)
        for event in report.transition_log:
            assert event.wear == shock_wear(sc.spec.wear, event.delta_f)

    def test_zero_dwell_stepping_only_changes_shock_wear(self):
        task = make_task(cycles=3.6e9, deadline=2.0)
        direct_report, direct_trace = simulate(make_scenario(tasks=(task,), policy=DIRECT, duration=30.0))
        stepped_report, stepped_trace = simulate(make_scenario(tasks=(task,), policy=STEPPED, duration=30.0))
        assert stepped_report.energy == direct_report.energy
        assert stepped_report.ledger.thermal_wear == direct_report.ledger.thermal_wear
        assert stepped_report.ledger.shock_wear < direct_report.ledger.shock_wear
        # timing, power, and temperature are untouched; only shock wear moved
        for s, d in zip(stepped_trace, direct_trace):
            assert (s.time, s.freq, s.power, s.temp) == (d.time, d.freq, d.power, d.temp)

    def test_linear_shock_exponent_makes_policies_equal(self):
        spec = make_spec(wear=make_wear(alpha=1.0))
        task = make_task(cycles=3.6e9, deadline=2.0)
        direct_report, _ = simulate(make_scenario(spec=spec, tasks=(task,), policy=DIRECT, duration=30.0))
        stepped_report, _ = simulate(make_scenario(spec=spec, tasks=(task,), policy=STEPPED, duration=30.0))
        assert stepped_report.ledger.shock_wear == pytest.approx(direct_report.ledger.shock_wear, rel=1e-12)
        assert stepped_report.energy.total_j == direct_report.energy.total_j
        assert stepped_report.ledger.thermal_wear == direct_report.ledger.thermal_wear

    def test_total_delta_f_matches_log(self):
        sc = make_scenario(tasks=(make_task(cycles=3.6e9, deadline=2.0),), duration=30.0)
        report, _ = simulate(sc)
        assert report.total_delta_f_hz == sum(e.delta_f for e in report.transition_log)
        assert report.transition_count == len(report.transition_log)


class TestTrace:
    def test_sampling_grid_and_monotone_wear(self):
        sc = make_scenario(tasks=(make_task(cycles=3.6e9, deadline=2.0),), policy=STEPPED, duration=30.0, trace_dt=0.25)
        report, trace = simulate(sc)
        assert len(trace) == 121
        for i, point in enumerate(trace):
            assert point.time == pytest.approx(i * 0.25, abs=1e-9)
            assert point.freq in TURION_FREQS
        wears = [p.cum_wear for p in trace]
        assert all(a <= b for a, b in zip(wears, wears[1:]))
        assert wears[-1] == pytest.approx(report.ledger.total, rel=1e-12)

    def test_a_sample_on_an_arrival_reports_the_level_hopped_to(self):
        task = make_task(cycles=1.8e9, arrival=2.0, deadline=10.0)
        sc = make_scenario(tasks=(task,), governor=GovernorPolicy("fixed", 5), duration=30.0, trace_dt=0.5)
        _, trace = simulate(sc)
        before, at = trace[3], trace[4]
        assert (before.time, at.time) == (1.5, 2.0)
        assert (before.freq, before.power) == (800e6, idle_power(sc.spec))
        assert (at.freq, at.power) == (1800e6, active_power(sc.spec, sc.spec.levels[5]))

    def test_a_run_past_the_horizon_is_sampled_through_its_end(self):
        # the infeasible task ends the run at 10 s, after sim.duration and on a sample time
        task = make_task(cycles=1.8e10, deadline=1.0)
        report, trace = simulate(make_scenario(tasks=(task,), duration=5.0, trace_dt=0.25))
        end = report.ledger.elapsed
        assert end == 10.0 and report.per_task[0].infeasible
        assert len(trace) == math.floor(end / 0.25) + 1
        assert trace[-1].time == end
        assert trace[-1].freq == 1800e6  # served by the task's own span, not the descent after it

    def test_temperature_stays_between_ambient_and_peak(self):
        report, trace = simulate(make_scenario(tasks=(make_task(cycles=3.6e9, deadline=2.0),), duration=30.0))
        for point in trace:
            assert 25.0 - 1e-9 <= point.temp <= report.peak_temp + 1e-9
        assert 25.0 <= report.avg_temp <= report.peak_temp


class TestDeterminism:
    def test_identical_scenarios_give_identical_results(self):
        sc = make_scenario(tasks=(make_task(cycles=3.6e9, deadline=2.0),), policy=TransitionPolicy("stepped", 0.1), duration=30.0)
        r1, t1 = simulate(sc)
        r2, t2 = simulate(sc)
        assert r1 == r2
        assert t1 == t2


class TestComparePolicies:
    def test_needs_two_policies(self):
        with pytest.raises(DomainError):
            compare_policies(make_scenario(duration=10.0), [DIRECT])

    def test_baseline_deltas_are_zero_and_order_is_preserved(self):
        sc = make_scenario(tasks=(make_task(cycles=3.6e9, deadline=2.0),), duration=30.0)
        comparison = compare_policies(sc, [DIRECT, STEPPED, TransitionPolicy("stepped", 0.5)])
        labels = [r.label for r in comparison.runs]
        assert labels == ["direct", "stepped", "stepped:0.5"]
        base = comparison.runs[0]
        assert base.delta_energy_j == 0.0 and base.delta_lifetime_s == 0.0 and base.delta_misses == 0

    def test_dwell_shifts_energy_and_flags_new_misses(self):
        task = make_task(cycles=3.24e9, deadline=2.0)  # feasible only at 1800 MHz
        sc = make_scenario(tasks=(task,), duration=30.0)
        comparison = compare_policies(sc, [DIRECT, TransitionPolicy("stepped", 0.5)])
        slow = comparison.runs[1]
        assert slow.delta_energy_j != 0.0
        assert slow.newly_missed == ("t",)
        assert slow.delta_misses == 1

    def test_failures_are_annotated_with_the_policy(self):
        sc = make_scenario(tasks=(make_task(),), duration=30.0)
        with pytest.raises(PolicyRunError) as err:
            compare_policies(sc, [DIRECT, TransitionPolicy("stepped", -1.0)])
        assert "stepped" in str(err.value)


class TestFeasibleWorkloadsNeverMiss:
    @given(specs(), st.data())
    @settings(max_examples=50, deadline=None)
    def test_sequential_slack_meets_all_deadlines(self, spec, data):
        # build tasks whose windows never overlap, so each starts at its arrival
        n = data.draw(st.integers(1, 4))
        tasks = []
        clock = 0.0
        for i in range(n):
            clock += data.draw(st.floats(0.1, 5.0))
            cycles = data.draw(st.floats(1e8, 5e9))
            window = cycles / spec.levels[-1].freq * data.draw(st.floats(1.05, 4.0))
            tasks.append(Task(f"t{i}", cycles, clock, clock + window))
            clock += window
        sc = make_scenario(spec=spec, tasks=tuple(tasks), duration=clock + 10.0, trace_dt=5.0)
        report, _ = simulate(sc)
        assert report.deadline_misses == 0


class TestManyTaskInvariants:
    @given(specs(), st.data())
    @settings(max_examples=20, deadline=None)
    def test_invariants_hold_over_hundreds_of_tasks(self, spec, data):
        tasks = data.draw(workloads(spec))
        governor = data.draw(
            st.sampled_from([GovernorPolicy("lowest_feasible"), GovernorPolicy("min_energy")])
            | st.integers(0, len(spec.levels) - 1).map(lambda i: GovernorPolicy("fixed", i))
        )
        policy = data.draw(st.sampled_from([DIRECT, STEPPED, TransitionPolicy("stepped", 0.05)]))
        trace_dt = 0.5
        # room for every task at the bottom clock plus every dwell, so the run ends at the horizon
        work = sum(t.cycles for t in tasks) / spec.levels[0].freq + 2 * len(tasks) * len(spec.levels) * policy.dwell
        horizon = max(max(t.deadline for t in tasks), tasks[-1].arrival + work) + 1.0
        duration = math.ceil(horizon / trace_dt) * trace_dt
        sc = make_scenario(
            spec=spec, tasks=tasks, governor=governor, policy=policy, duration=duration, trace_dt=trace_dt,
            dwell_stalls=data.draw(st.booleans()),
        )
        report, trace = simulate(sc)

        finish = 0.0
        for task, outcome in zip(tasks, report.per_task):
            assert outcome.start >= task.arrival
            assert outcome.start >= finish
            finish = outcome.finish
        assert report.ledger.elapsed == duration
        assert report.active_s + report.idle_s == pytest.approx(duration, rel=1e-12)
        assert report.ledger.shock_wear == sum(e.wear for e in report.transition_log)

        assert len(trace) == int(duration / trace_dt) + 1
        assert trace[-1].time == duration
        wears = [p.cum_wear for p in trace]
        assert all(a <= b for a, b in zip(wears, wears[1:]))
        assert wears[-1] == pytest.approx(report.ledger.total, rel=1e-12, abs=0.0)
        assert max(p.temp for p in trace) <= report.peak_temp
