import dataclasses
import math
import os
import re
import types
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

import dvfsim
from dvfsim import (
    ComparisonReport,
    DomainError,
    EnergyBreakdown,
    FrequencyLevel,
    GovernorPolicy,
    Hop,
    PolicyOutcome,
    PolicyRunError,
    ProcessorSpec,
    Scenario,
    ScenarioError,
    SimReport,
    Task,
    TaskOutcome,
    ThermalParams,
    TracePoint,
    TransitionEvent,
    TransitionPolicy,
    Violation,
    WearLedger,
    WearParams,
    compare_policies,
    load_scenario,
    plan_transition,
    run_scenario,
    simulate,
)
from dvfsim import engine, reporting, thermal
from dvfsim.engine import MAX_TRACE_POINTS, TRACE_CHUNK
from dvfsim.reporting import TRACE_HEADER, trace_writer
from dvfsim.transitions import shock_wear

from helpers import (
    SCENARIO_DIR,
    TRACE_ROW,
    TURION_FREQS,
    active_power,
    joined_points,
    left_sum,
    make_scenario,
    make_spec,
    make_task,
    make_thermal,
    make_wear,
)
from strategies import specs, workloads

DIRECT = TransitionPolicy("direct")
STEPPED = TransitionPolicy("stepped")


def fields(err) -> list[str]:
    """The field of each problem a ScenarioError lists, in order."""
    return [p.partition(": ")[0] for p in err.value.problems]


class TestValidation:
    def test_trace_sample_count_is_capped(self):
        make_scenario(duration=float(MAX_TRACE_POINTS), trace_dt=1.0)
        for duration, trace_dt in (
            (MAX_TRACE_POINTS + 1.0, 1.0),
            (120.0, 1e-7),
            (120.0, 1e-320),
            # duration / trace_dt rounds to exactly 10**6, yet the run's bound 10**6 * trace_dt is below duration
            (519051.8283284591, 0.5190518283284591),
        ):
            with pytest.raises(ScenarioError) as err:
                make_scenario(duration=duration, trace_dt=trace_dt)
            assert fields(err) == ["sim.trace_dt"]

    @pytest.mark.parametrize("trace_dt", [1e-3, 0.1, 0.5190518283284591, 0.3, 7.0])
    def test_validation_uses_the_runs_trace_bound(self, trace_dt):
        bound = MAX_TRACE_POINTS * trace_dt  # the end time past which _Timeline.run refuses a span
        make_scenario(duration=bound, trace_dt=trace_dt)
        with pytest.raises(ScenarioError) as err:
            make_scenario(duration=math.nextafter(bound, math.inf), trace_dt=trace_dt)
        assert fields(err) == ["sim.trace_dt"]

    def test_a_run_overrunning_the_trace_cap_raises(self):
        # validation passes: the task misses its deadline and runs for 1e7 s, past 1e6 samples of 1 s
        sc = make_scenario(tasks=(Task("big", 1.8e16, 0.0, 5.0),), duration=10.0, trace_dt=1.0)
        with pytest.raises(DomainError, match="trace points"):
            simulate(sc)

    def test_negative_dwell_rejected(self):
        with pytest.raises(ScenarioError) as err:
            make_scenario(policy=TransitionPolicy("stepped", -0.5))
        assert "policy.dwell" in fields(err)

    def test_a_replaced_field_is_validated_too(self):
        sc = make_scenario(tasks=(make_task(),))
        with pytest.raises(ScenarioError) as err:
            replace(sc, duration=5.0)
        assert err.value.kind == "validation"
        assert err.value.problems == ("sim.duration: must cover the latest deadline (10 s)",)

    @pytest.mark.parametrize("change, line", [
        ({"duration": "5"}, "sim.duration: must be finite and > 0"),
        ({"trace_dt": None}, "sim.trace_dt: must be finite and > 0"),
        ({"cost_rate": "1"}, "sim.cost_rate: must be finite and >= 0"),
        ({"policy": TransitionPolicy("stepped", "x")}, "policy.dwell: must be finite and >= 0"),
        ({"tasks": (Task("t", "x", 0.0, 10.0),)}, "tasks[0].cycles: must be finite and > 0"),
        ({"tasks": (Task("t", 1e9, None, 10.0),)}, "tasks[0].arrival: must be finite and >= 0"),
        ({"tasks": (Task("t", 1e9, 0.0, "x"),)}, "tasks[0].deadline: must be finite and > arrival"),
        ({"tasks": (Task(7, 1e9, 0.0, 10.0),)}, "tasks[0].id: must be a string"),
        ({"tasks": (Task(["t"], 1e9, 0.0, 10.0), Task("u", 1e9, 1.0, 10.0))}, "tasks[0].id: must be a string"),
        ({"governor": GovernorPolicy("fixed", 2.0)}, "governor.fixed_index: must be an integer"),
        ({"governor": GovernorPolicy("fixed", True)}, "governor.fixed_index: must be an integer"),
        ({"spec": make_spec(levels=[FrequencyLevel(0, 8e8, 0.9), FrequencyLevel(1, "1e9", 1.0)])},
         "levels[1].freq: frequency must be finite and > 0"),
        ({"spec": make_spec(levels=[FrequencyLevel(0, 8e8, None), FrequencyLevel(1, 1e9, 1.0)])},
         "levels[0].vdd: voltage must be finite and > 0"),
    ])
    def test_a_value_of_the_wrong_type_is_a_validation_error(self, change, line):
        # a value of a type the schema refuses gets its field's line, not a TypeError later in the run or the report
        sc = make_scenario(tasks=(make_task(),))
        with pytest.raises(ScenarioError) as err:
            replace(sc, **change)
        assert err.value.kind == "validation"
        assert line in err.value.problems


    # every task rule broken after clean tasks, and a clean task after broken ones
    CLEAN = [Task(f"c{i}", 1e9, float(i), i + 5.0) for i in range(4)]
    BROKEN = [
        Task("nan", math.nan, 4.0, 9.0), Task("neg", 1e9, -1.0, 9.0), Task("late", 1e9, 6.0, 12.0),
        Task("early", 1e9, 5.0, 11.0), Task("c1", 1e9, 7.0, 12.0), Task("clean", 1e9, 8.0, 13.0),
        Task("inf", 1e9, 9.0, math.inf), Task("c2", -1.0, math.nan, 5.0),
    ]

    def test_each_broken_task_gets_the_lines_of_every_rule_it_breaks_in_order(self):
        with pytest.raises(ScenarioError) as err:
            make_scenario(tasks=self.CLEAN + self.BROKEN)
        assert err.value.problems == (
            "tasks[4].cycles: must be finite and > 0",
            "tasks[5].arrival: must be finite and >= 0",
            "tasks[5].arrival: tasks must be sorted by arrival",
            "tasks[7].arrival: tasks must be sorted by arrival",
            "tasks[8].id: duplicate task id 'c1'",
            "tasks[10].deadline: must be finite and > arrival",
            "tasks[11].cycles: must be finite and > 0",
            "tasks[11].arrival: must be finite and >= 0",
            "tasks[11].deadline: must be finite and > arrival",
            "tasks[11].id: duplicate task id 'c2'",
            "sim.duration: must cover the latest deadline (inf s)",
        )

    @given(st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c", "d"]),
            *[st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, 3.0, math.inf, -math.inf, math.nan])] * 3,
        ),
        max_size=8,
    ))
    @example([("a", math.inf, 0.0, 5.0), ("b", 1e9, math.nan, 5.0), ("c", 1e9, 1.0, math.inf)])
    @settings(max_examples=300)
    def test_task_lines_are_those_of_each_rule_checked_alone(self, entries):
        expected, seen, prev = [], set(), -math.inf
        for i, (tid, cycles, arrival, deadline) in enumerate(entries):
            if not (math.isfinite(cycles) and cycles > 0):
                expected.append(f"tasks[{i}].cycles: must be finite and > 0")
            if not (math.isfinite(arrival) and arrival >= 0):
                expected.append(f"tasks[{i}].arrival: must be finite and >= 0")
            if not (math.isfinite(deadline) and deadline > arrival):
                expected.append(f"tasks[{i}].deadline: must be finite and > arrival")
            if arrival < prev:
                expected.append(f"tasks[{i}].arrival: tasks must be sorted by arrival")
            if tid in seen:
                expected.append(f"tasks[{i}].id: duplicate task id {tid!r}")
            prev = arrival
            seen.add(tid)
        try:
            make_scenario(tasks=[Task(*entry) for entry in entries], duration=10.0, trace_dt=1.0)
            got = []
        except ScenarioError as err:
            got = [p for p in err.problems if p.startswith("tasks[")]
        assert got == expected


class TestSingleTaskEnergy:
    def test_matches_closed_form(self):
        spec = make_spec()
        task = make_task(cycles=2.7e9, arrival=3.0, deadline=10.0)
        sc = make_scenario(spec=spec, tasks=(task,), governor=GovernorPolicy("fixed", 2), duration=60.0)
        report, _ = simulate(sc)

        t_active = 2.7e9 / 1200e6
        expected = active_power(spec, spec.levels[2]) * t_active + spec.p_idle * (60.0 - t_active)
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

    def test_a_hop_the_task_abandons_is_never_priced(self):
        # the climb to 5 GHz is planned as 0.8 -> 1 -> 5 GHz, but the task ends in its dwell at 1 GHz; at alpha 50
        # the 4 GHz hop's shock would overflow a float, and the run prices only the hops it takes
        levels = (FrequencyLevel(0, 800e6, 0.9), FrequencyLevel(1, 1e9, 0.96), FrequencyLevel(2, 5e9, 1.2))
        wear = make_wear(k_shock=1e-4, alpha=50.0, f_span=1e3)
        sc = make_scenario(spec=make_spec(levels=levels, wear=wear), tasks=(make_task(cycles=1e8, deadline=0.03),),
                           policy=TransitionPolicy("stepped", 0.5))
        report = run_scenario(sc)
        assert [(e.from_hz, e.to_hz) for e in report.transition_log] == [(800e6, 1e9), (1e9, 800e6)]
        assert report.ledger.shock_wear == 2 * shock_wear(wear, 2e8)
        with pytest.raises(DomainError, match=r"^the shock wear of a 4e\+09 Hz hop overflows a float$"):
            shock_wear(wear, 4e9)

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
        assert report.total_delta_f_hz == left_sum(e.delta_f for e in report.transition_log)
        assert report.transition_count == len(report.transition_log)


    @given(specs(), st.data())
    @settings(max_examples=15, deadline=None)
    def test_each_logged_hop_costs_the_shock_of_its_jump(self, spec, data):
        sc, _ = draw_many_task_scenario(spec, data.draw)
        for event in run_scenario(sc).transition_log:
            assert event.wear == shock_wear(spec.wear, event.delta_f)
            assert event.delta_f == abs(event.to_hz - event.from_hz)

    @given(specs(), st.data())
    @settings(max_examples=10, deadline=None)
    def test_a_repriced_report_is_the_run_under_its_wear(self, spec, data):
        sc, _ = draw_many_task_scenario(spec, data.draw)
        base = run_scenario(sc)
        drawn = data.draw(st.builds(WearParams, st.floats(0.0, 1e3), st.floats(1.0, 80.0), st.floats(1e2, 1e10)))
        # besides the drawn params: a power of a jump that overflows, and finite powers that k_shock takes past the
        # float range
        for wear in (drawn, WearParams(1.0, 1e3, 1.0), WearParams(1e308, 1.0, 1.0)):
            try:
                want = run_scenario(replace(sc, spec=spec._replace(wear=wear)))
            except DomainError as exc:
                with pytest.raises(DomainError) as got:
                    engine.reprice(base, wear)
                assert str(got.value) == str(exc)
            else:
                assert engine.reprice(base, wear) == want


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
        assert (before.freq, before.power) == (800e6, sc.spec.p_idle)
        assert (at.freq, at.power) == (1800e6, sc.spec.active_w[5])

    def test_a_run_past_the_horizon_is_sampled_through_its_end(self):
        # the infeasible task ends the run at 10 s, after sim.duration and on a sample time
        task = make_task(cycles=1.8e10, deadline=1.0)
        report, trace = simulate(make_scenario(tasks=(task,), duration=5.0, trace_dt=0.25))
        end = report.ledger.elapsed
        assert end == 10.0 and report.per_task[0].infeasible
        assert len(trace) == math.floor(end / 0.25) + 1
        assert trace[-1].time == end
        assert trace[-1].freq == 1800e6  # served by the task's own span, not the descent after it
        assert report.transition_log[-1].time == end  # the descent's shock counts in the closing sample
        assert trace[-1].cum_wear == pytest.approx(report.ledger.total, rel=1e-12, abs=0.0)

    def test_the_closing_sample_counts_the_descent_of_a_task_that_ends_on_the_horizon(self):
        task = make_task(cycles=1.8e9, deadline=1.0)
        sc = make_scenario(tasks=(task,), governor=GovernorPolicy("fixed", 5), duration=1.0, trace_dt=0.25)
        report, trace = simulate(sc)
        assert [e.time for e in report.transition_log] == [0.0, 1.0]
        assert trace[-1].time == 1.0
        assert (trace[-1].freq, trace[-1].power) == (1800e6, sc.spec.active_w[5])
        assert trace[-1].cum_wear == pytest.approx(report.ledger.total, rel=1e-12, abs=0.0)

    def test_a_sample_the_clock_puts_past_its_span_reads_the_span_end(self):
        # 2^18 s + (0.5 s - 2^-36 s) of work rounds up to 2^18 + 0.5 s, the horizon, so the closing
        # sample falls 2^-36 s past the heating span that serves it and must not read hotter than its end
        t0 = 2.0**18
        task = make_task(cycles=800e6 * (0.5 - 2.0**-36), arrival=t0, deadline=t0 + 0.5)
        report, trace = simulate(make_scenario(tasks=(task,), duration=t0 + 0.5, trace_dt=t0 + 0.5))
        length = task.cycles / 800e6
        assert report.ledger.elapsed == trace[-1].time == t0 + 0.5 and t0 + 0.5 - t0 > length
        assert trace[-1].temp == report.peak_temp
        assert trace[-1].cum_wear == pytest.approx(report.ledger.total, rel=1e-15, abs=0.0)

    def test_temperature_stays_between_ambient_and_peak(self):
        report, trace = simulate(make_scenario(tasks=(make_task(cycles=3.6e9, deadline=2.0),), duration=30.0))
        for point in trace:
            assert 25.0 - 1e-9 <= point.temp <= report.peak_temp + 1e-9
        assert 25.0 <= report.avg_temp <= report.peak_temp


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
        assert base.delta_energy_j == 0.0 and base.delta_lifetime_s == 0.0
        assert base.newly_missed == base.newly_met == ()

    def test_dwell_shifts_energy_and_flags_new_misses(self):
        task = make_task(cycles=3.24e9, deadline=2.0)  # feasible only at 1800 MHz
        sc = make_scenario(tasks=(task,), duration=30.0)
        comparison = compare_policies(sc, [DIRECT, TransitionPolicy("stepped", 0.5)])
        slow = comparison.runs[1]
        assert slow.delta_energy_j != 0.0
        assert slow.newly_missed == ("t",)
        assert slow.newly_met == ()
        assert (comparison.runs[0].report.deadline_misses, slow.report.deadline_misses) == (0, 1)

    @pytest.mark.parametrize(
        "policy, message",
        [
            (TransitionPolicy("bogus"), "policy.kind: unknown kind 'bogus'"),
            (TransitionPolicy("stepped", math.nan), "policy.dwell: must be finite and >= 0"),
            (TransitionPolicy("stepped", "x"), "policy.dwell: must be finite and >= 0"),
        ],
        ids=["kind", "dwell", "non-number-dwell"],
    )
    def test_a_bad_policy_fails_as_a_scenario_built_with_it_would(self, policy, message):
        sc = make_scenario(tasks=(make_task(),), duration=30.0)
        with pytest.raises(PolicyRunError) as err:
            compare_policies(sc, [DIRECT, policy])
        assert str(err.value) == f"simulation failed for policy '{policy.kind}': validation error: {message}"
        assert isinstance(err.value.__cause__, ScenarioError) and err.value.__cause__.kind == "validation"
        with pytest.raises(ScenarioError) as built:
            replace(sc, policy=policy)
        assert built.value.problems == (message,)


    @pytest.mark.parametrize("name", ["turion6.json", "step_demo.json"])
    def test_each_policy_gets_the_transition_log_of_its_own_run(self, name):
        sc = load_scenario(SCENARIO_DIR / name)
        policies = [DIRECT, STEPPED, TransitionPolicy("stepped", 0.05)]
        with mock.patch.object(engine, "plan_transition", wraps=plan_transition) as planner:
            runs = compare_policies(sc, policies).runs
        logs = [run.report.transition_log for run in runs]
        assert logs == [run_scenario(replace(sc, policy=p)).transition_log for p in policies]
        assert logs[0] != logs[1] != logs[2]  # a plan kept from one policy would show in the next
        for p in policies:  # each (from, to) pair is planned once per run
            pairs = [(c.args[1].index, c.args[2].index) for c in planner.call_args_list if c.args[3] == p]
            assert pairs and len(pairs) == len(set(pairs))


class TestRecords:
    """Every record but Scenario is a named tuple with the fields, in order, that it had as a dataclass."""

    FIELDS = {
        Task: ("id", "cycles", "arrival", "deadline"),
        TaskOutcome: ("id", "level_index", "start", "finish", "deadline_met", "infeasible"),
        TransitionEvent: ("time", "from_hz", "to_hz", "delta_f", "wear"),
        Hop: ("from_level", "to_level", "delta_f", "dwell_after"),
        FrequencyLevel: ("index", "freq", "vdd"),
        ProcessorSpec: ("levels", "coeff_a", "coeff_b", "p_device", "p_idle", "thermal", "wear"),
        EnergyBreakdown: ("active_j", "idle_j"),
        Violation: ("field", "rule"),
        ThermalParams: ("r_th", "c_th", "t_amb", "t_ref", "l_base"),
        WearLedger: ("thermal_wear", "shock_wear", "elapsed"),
        TransitionPolicy: ("kind", "dwell"),
        WearParams: ("k_shock", "alpha", "f_span"),
        GovernorPolicy: ("kind", "fixed_index"),
        SimReport: (
            "energy", "cost_usd", "per_task", "peak_temp", "avg_temp", "active_s", "idle_s", "ledger",
            "projected_lifetime", "transition_log",
        ),
        PolicyOutcome: (
            "policy", "label", "report", "delta_energy_j", "delta_lifetime_s", "newly_missed", "newly_met",
        ),
        ComparisonReport: ("runs",),
        TracePoint: ("time", "freq", "power", "temp", "cum_wear"),
    }

    @pytest.mark.parametrize("record", FIELDS, ids=lambda record: record.__name__)
    def test_fields_keep_their_names_and_order(self, record):
        assert record._fields == self.FIELDS[record]

    @pytest.mark.parametrize("record", FIELDS, ids=lambda record: record.__name__)
    def test_attributes_cannot_be_assigned(self, record):
        rec = record(*range(len(self.FIELDS[record])))
        for name in (*self.FIELDS[record], "extra"):
            with pytest.raises(AttributeError):
                setattr(rec, name, -1)
        assert rec == tuple(range(len(self.FIELDS[record])))

    def test_a_task_outcome_is_feasible_unless_flagged(self):
        assert TaskOutcome("t", 0, 0.0, 1.0, True).infeasible is False
        assert TaskOutcome("t", 0, 0.0, 1.0, True, True).infeasible is True

    def test_replace_varies_one_field(self):
        task = Task("t", 1e9, 0.0, 5.0)
        assert task._replace(deadline=6.0) == Task("t", 1e9, 0.0, 6.0)

    @pytest.mark.parametrize("record", FIELDS, ids=lambda record: record.__name__)
    def test_a_record_is_no_dataclass_and_replace_gives_a_varied_copy(self, record):
        n = len(self.FIELDS[record])
        rec = record(*range(n))
        assert not dataclasses.is_dataclass(rec)
        for i, name in enumerate(self.FIELDS[record]):
            copy = rec._replace(**{name: -1})
            assert type(copy) is record
            assert copy == (*range(i), -1, *range(i + 1, n))
        assert rec == tuple(range(n))

    def test_scenario_is_the_only_dataclass_exported(self):
        classes = [name for name, value in vars(dvfsim).items() if isinstance(value, type)]
        assert [name for name in classes if dataclasses.is_dataclass(getattr(dvfsim, name))] == ["Scenario"]
        assert Scenario.__dataclass_params__.frozen


README_PYTHON_API = (
    (SCENARIO_DIR.parent / "README.md").read_text(encoding="utf-8").split("## Python API", 1)[1].split("\n## ", 1)[0]
)


class TestReadmePythonApi:
    """README's "Python API" section runs as written and names every name ``dvfsim`` exports."""

    def test_the_example_runs_from_the_repository_root(self, monkeypatch, capsys):
        block = README_PYTHON_API.split("```python\n", 1)[1].split("```", 1)[0]
        monkeypatch.chdir(SCENARIO_DIR.parent)
        exec(compile(block, "README.md", "exec"), {})
        report = simulate(load_scenario(SCENARIO_DIR / "turion6.json"))[0]
        first, second = capsys.readouterr().out.splitlines()
        assert first == f"{report.energy.total_j} {report.projected_lifetime}"
        assert float(second) > 0.0  # stepping lengthens the lifetime

    def test_every_export_is_named_in_the_section(self):
        exported = [name for name, value in vars(dvfsim).items()
                    if not name.startswith("_") and not isinstance(value, types.ModuleType)]
        assert "simulate" in exported
        assert [name for name in exported if not re.search(rf"\b{name}\b", README_PYTHON_API)] == []


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


def draw_many_task_scenario(spec, draw):
    """A scenario of hundreds of tasks under any governor and policy, and whether it ends idle at its horizon.

    ``draw`` is a hypothesis draw function, such as ``data.draw``.
    """
    tasks = draw(workloads(spec))
    governor = draw(
        st.sampled_from([GovernorPolicy("lowest_feasible"), GovernorPolicy("min_energy")])
        | st.integers(0, len(spec.levels) - 1).map(lambda i: GovernorPolicy("fixed", i))
    )
    policy = draw(st.sampled_from([DIRECT, STEPPED, TransitionPolicy("stepped", 0.05)]))
    roomy = draw(st.booleans())
    if roomy:
        # room for every task at the bottom clock plus every dwell, so the run ends idle at the horizon
        work = sum(t.cycles for t in tasks) / spec.levels[0].freq + 2 * len(tasks) * len(spec.levels) * policy.dwell
        horizon = max(max(t.deadline for t in tasks), tasks[-1].arrival + work) + 1.0
        duration = math.ceil(horizon / 0.5) * 0.5
    else:
        # the horizon is the last deadline, so a late task or the descent after it can end the run
        duration = max(t.deadline for t in tasks)
    sc = make_scenario(
        spec=spec, tasks=tasks, governor=governor, policy=policy, duration=duration, trace_dt=duration,
        dwell_stalls=draw(st.booleans()),
    )
    return sc, roomy


@st.composite
def sampled_scenarios(draw):
    """A many-task scenario whose trace_dt samples it 1, 7, 64 or 1,000 times."""
    sc, _ = draw_many_task_scenario(draw(specs()), draw)
    return replace(sc, trace_dt=sc.duration / draw(st.sampled_from([1, 7, 64, 1000])))


def hot_scenario():
    """Tasks on a part whose top level heats it by over 100 degC (r_th = 10 K/W, tau = 5 s): a long task
    heats by more than 29 degC in one span (the E1 wear route), an idle gap cools (the series), and a short
    task and the stepped dwells take the short-swing expansion."""
    tasks = (
        make_task("long", 3.6e9, 0.0, 2.5),
        make_task("short", 1e7, 12.0, 13.0),
        make_task("queued", 1.8e9, 12.0, 16.0),
        make_task("late", 2.4e9, 30.0, 32.0),
    )
    spec = make_spec(thermal=make_thermal(r_th=10.0, c_th=0.5))
    return make_scenario(
        spec=spec, tasks=tasks, policy=TransitionPolicy("stepped", 0.05), duration=60.0, trace_dt=60.0 / 7
    )


class TestManyTaskInvariants:
    @given(specs(), st.data())
    @settings(max_examples=20, deadline=None)
    def test_invariants_hold_over_hundreds_of_tasks(self, spec, data):
        sc, roomy = draw_many_task_scenario(spec, data.draw)
        tasks, duration = sc.tasks, sc.duration
        report, _ = simulate(sc)
        end = report.ledger.elapsed
        # a power-of-two fraction of the run puts the last sample exactly on its end
        trace_dt = end / 2 ** max(0, math.ceil(math.log2(end / 0.5)))
        resampled, trace = simulate(replace(sc, trace_dt=trace_dt))
        assert resampled == report  # sampling never perturbs the run

        finish = 0.0
        for task, outcome in zip(tasks, report.per_task):
            assert outcome.start >= task.arrival
            assert outcome.start >= finish
            finish = outcome.finish
        assert end == duration if roomy else end >= max(duration, finish)
        assert report.active_s + report.idle_s == pytest.approx(end, rel=1e-12)
        assert report.ledger.shock_wear == left_sum(e.wear for e in report.transition_log)

        assert len(trace) == int(end / trace_dt) + 1
        assert trace[-1].time == end
        wears = [p.cum_wear for p in trace]
        assert all(a <= b for a, b in zip(wears, wears[1:]))
        assert wears[-1] == pytest.approx(report.ledger.total, rel=1e-12, abs=0.0)
        assert max(p.temp for p in trace) <= report.peak_temp

    @given(sampled_scenarios())
    @example(hot_scenario())
    @settings(max_examples=10, deadline=None)
    def test_the_run_does_not_depend_on_its_sink(self, sc):
        calls = []
        sunk = run_scenario(sc, lambda *chunk: calls.append(chunk))
        report, trace = simulate(sc)
        assert repr(run_scenario(sc)) == repr(sunk) == repr(report)
        assert joined_points(calls) == trace

    def test_the_hot_example_takes_every_wear_route_unsampled(self):
        with (
            mock.patch.object(thermal, "_short_swing", wraps=thermal._short_swing) as short,
            mock.patch.object(thermal, "_series_tail_sums", wraps=thermal._series_tail_sums) as series,
            mock.patch.object(thermal, "_scaled_e1", wraps=thermal._scaled_e1) as e1,
        ):
            run_scenario(hot_scenario())
        assert short.called and series.called and e1.called


@st.composite
def traced_scenarios(draw):
    """A many-task scenario sampled 7, 64 or 1,000 times; on a hot part (r_th = 10 K/W, tau = 5 s) in half of
    them, where a long task heats by more than 29 degC in one span and its trace points take the E1 route."""
    spec = draw(specs())
    if draw(st.booleans()):
        spec = spec._replace(thermal=make_thermal(r_th=10.0, c_th=0.5))
    sc, _ = draw_many_task_scenario(spec, draw)
    return replace(sc, trace_dt=sc.duration / draw(st.sampled_from([7, 64, 1000])))


class TestSinkContract:
    """The sink gets the trace as columns of at most TRACE_CHUNK consecutive points of one span."""

    @given(specs(), st.data())
    @settings(max_examples=15, deadline=None)
    def test_each_call_is_a_short_run_of_one_span(self, spec, data):
        sc, _ = draw_many_task_scenario(spec, data.draw)
        sc = replace(sc, trace_dt=sc.duration / data.draw(st.sampled_from([1, 7, 64, 1000])))
        cap = data.draw(st.sampled_from([1, 2, 3, 17, TRACE_CHUNK]))
        operating_points = {(lv.freq, p) for lv, p in zip(spec.levels, spec.active_w)}
        operating_points |= {(lv.freq, spec.p_idle) for lv in spec.levels}
        calls = []
        with mock.patch.object(engine, "TRACE_CHUNK", cap):
            run_scenario(sc, lambda *chunk: calls.append(chunk))
        for freq, power, times, temps, wears in calls:
            assert (freq, power) in operating_points  # one span's: a level's clock, busy or idle
            assert 0 < len(times) == len(temps) == len(wears) <= cap
            assert all(a < b for a, b in zip(times, times[1:]))
        joined = joined_points(calls)
        assert joined == simulate(sc)[1]
        assert all(a.time < b.time for a, b in zip(joined, joined[1:]))

    def test_a_long_span_is_cut_at_the_cap(self):
        sc = make_scenario(duration=(3 * TRACE_CHUNK + 1) * 0.5, trace_dt=0.5)  # no task: one idle span
        calls = []
        run_scenario(sc, lambda *chunk: calls.append(chunk))
        # the span serves every point before its end, and the closing sample on the end comes on its own
        assert [len(times) for _, _, times, _, _ in calls] == [TRACE_CHUNK] * 3 + [1, 1]
        assert calls[-1][2][-1] == sc.duration

    @given(traced_scenarios(), st.sampled_from([1, 2, 3, 17]))
    # every 0.01 s: the stepped descents' idle dwells give chunks of one power at different clocks in a row
    @example(replace(hot_scenario(), trace_dt=0.01), 3)
    @example(make_scenario(duration=5.0, trace_dt=0.5), 3)  # one idle span: the switch falls after its first chunk
    @settings(max_examples=15, deadline=None)
    def test_the_streamed_csv_is_the_rows_of_the_simulated_trace(self, tmp_path_factory, sc, cap):
        path = tmp_path_factory.mktemp("trace") / "t.csv"
        # the writer reads the patched cap too, so a draw's rows past it are rendered by a forked child
        with mock.patch.object(engine, "TRACE_CHUNK", cap), mock.patch.object(os, "fork", wraps=os.fork) as fork:
            with trace_writer(path) as write_span:
                run_scenario(sc, write_span)
            _, trace = simulate(sc)
        assert fork.call_count == (len(trace) >= cap and reporting._may_fork())
        assert path.read_bytes() == (TRACE_HEADER + "\n" + "".join(TRACE_ROW % p for p in trace)).encode()
