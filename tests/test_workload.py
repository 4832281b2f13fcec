import math

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from dvfsim import (
    DomainError,
    FrequencyLevel,
    GovernorPolicy,
    ProcessorSpec,
    ScenarioError,
    Task,
    governor_rule,
    run_scenario,
)

from helpers import active_power, make_scenario, make_spec, make_thermal, make_wear
from strategies import specs, tasks_for


LOWEST = GovernorPolicy("lowest_feasible")
MIN_ENERGY = GovernorPolicy("min_energy")


def two_level_spec(**kw):
    levels = [FrequencyLevel(0, 1.0e9, 1.0), FrequencyLevel(1, 2.0e9, 1.4)]
    return make_spec(levels=levels, **kw)


def run_time(spec, task, level):
    """``finish - start`` of ``task``, arriving at 0, run alone at ``level`` by the fixed governor."""
    governor = GovernorPolicy("fixed", level.index)
    outcome = run_scenario(make_scenario(spec=spec, tasks=(task,), governor=governor, duration=task.deadline))
    return outcome.per_task[0].finish - outcome.per_task[0].start


class TestExecutionTime:
    """A task runs for cycles / frequency seconds, in the run and in the governor's feasibility test."""

    def test_equal_cycles_and_frequency(self):
        spec = make_spec()
        task = Task("t", 1.8e9, 0.0, 1.0)
        assert run_time(spec, task, spec.levels[5]) == 1.0
        assert governor_rule(spec, LOWEST)(task, 0.0) == spec.levels[5]

    def test_desk_division(self):
        spec = make_spec()
        task = Task("t", 9e8, 0.0, 1.125)
        assert run_time(spec, task, spec.levels[0]) == 1.125
        assert governor_rule(spec, LOWEST)(task, 0.0) == spec.levels[0]

    def test_doubling_frequency_halves_execution(self):
        levels = [FrequencyLevel(0, 1.0e9, 1.0), FrequencyLevel(1, 2.0e9, 1.2)]
        spec = make_spec(levels=levels)
        task = Task("t", 3e9, 0.0, 3.0)
        assert run_time(spec, task, spec.levels[1]) == run_time(spec, task, spec.levels[0]) / 2.0

    @given(specs(), st.floats(1e6, 1e12))
    @settings(deadline=None)
    def test_work_is_frequency_invariant(self, spec, cycles):
        for level in spec.levels:
            # a window of exactly cycles / freq: the level fits it and the one below does not
            task = Task("t", cycles, 0.0, cycles / level.freq)
            assert math.isclose(run_time(spec, task, level) * level.freq, cycles, rel_tol=1e-12)
            assert governor_rule(spec, LOWEST)(task, 0.0) == level


class TestLowestFeasible:
    def test_needs_one_gigahertz(self):
        spec = make_spec()
        task = Task("t", 1.0e9, 0.0, 1.0)
        assert governor_rule(spec, LOWEST)(task, 0.0).freq == 1000e6

    def test_abundant_slack_picks_bottom(self):
        spec = make_spec()
        task = Task("t", 1.0e9, 0.0, 1e6)
        assert governor_rule(spec, LOWEST)(task, 0.0).index == 0

    def test_no_level_fitting_gives_none(self):
        spec = make_spec()
        task = Task("t", 1.0e9, 0.0, 0.5)  # needs 2 GHz, above the 1.8 GHz top level
        assert governor_rule(spec, LOWEST)(task, 0.0) is None

    def test_closed_window_requires_infinite_frequency(self):
        spec = make_spec()
        task = Task("t", 1.0e9, 0.0, 1.0)
        assert governor_rule(spec, LOWEST)(task, 2.0) is None


class TestMinEnergy:
    def test_stretching_wins_without_static_power(self):
        spec = two_level_spec(coeff_a=1e-9, coeff_b=0.0, p_device=0.0, p_idle=0.0)
        task = Task("t", 1e9, 0.0, 2.0)
        # 1 GHz: 1 W for 1 s = 1 J; 2 GHz: 3.92 W for 0.5 s = 1.96 J
        assert governor_rule(spec, MIN_ENERGY)(task, 0.0).freq == 1.0e9

    def test_race_to_idle_wins_with_static_power(self):
        spec = two_level_spec(coeff_a=1e-9, coeff_b=0.0, p_device=5.0, p_idle=0.5)
        task = Task("t", 1e9, 0.0, 2.0)
        # 1 GHz: 6 W * 1 s + 0.5 W * 1 s = 6.5 J; 2 GHz: 8.92 * 0.5 + 0.5 * 1.5 = 5.21 J
        assert governor_rule(spec, MIN_ENERGY)(task, 0.0).freq == 2.0e9

    def test_tie_breaks_toward_lower_index(self):
        # with only the supply-linear term, energy = b*vdd*cycles/f is equal here
        levels = [FrequencyLevel(0, 1.0e9, 1.0), FrequencyLevel(1, 2.0e9, 2.0)]
        spec = make_spec(levels=levels, coeff_a=0.0, coeff_b=1.0, p_device=0.0, p_idle=0.0)
        task = Task("t", 1e9, 0.0, 2.0)
        assert governor_rule(spec, MIN_ENERGY)(task, 0.0).index == 0

    def test_no_level_fitting_gives_none(self):
        spec = two_level_spec()
        assert governor_rule(spec, MIN_ENERGY)(Task("t", 4.1e9, 0.0, 2.0), 0.0) is None

    @given(specs(zero_static=True), st.data())
    @settings(max_examples=60)
    def test_equals_lowest_feasible_without_static_power(self, spec, data):
        # slack floor stays above 1 so float noise in arrival+window cannot flip feasibility
        task = data.draw(tasks_for(spec, slack_min=1.05, slack_max=8.0))
        assert governor_rule(spec, MIN_ENERGY)(task, task.arrival) == governor_rule(spec, LOWEST)(task, task.arrival)


@st.composite
def governor_cases(draw):
    """(spec, task, start, ties): a 2-8 level ladder with random coefficients, and a task whose
    window from ``start`` is tight, loose or infeasible at the top clock.

    In a ``ties`` ladder clock, supply and active power all double from level to level and
    nothing else draws power, so every level that fits the window costs exactly the same energy.
    """
    n = draw(st.integers(2, 8))
    ties = draw(st.booleans())
    if ties:
        f0, v0 = draw(st.sampled_from([2.5e8, 5e8, 1e9])), draw(st.sampled_from([0.5, 0.75, 1.0]))
        levels = [FrequencyLevel(i, f0 * 2**i, v0 * 2**i) for i in range(n)]
        coeffs = (0.0, draw(st.floats(0.1, 2.0)), 0.0, 0.0)
    else:
        freq, vdd = draw(st.floats(1e8, 2e9)), draw(st.floats(0.5, 1.2))
        levels = []
        for i in range(n):
            levels.append(FrequencyLevel(i, freq, vdd))
            freq += draw(st.floats(1e6, 1e9))
            vdd += draw(st.floats(1e-3, 0.3))
        coeffs = tuple(draw(st.floats(0.0, hi)) for hi in (1e-8, 2.0, 10.0, 5.0))
    spec = ProcessorSpec(tuple(levels), *coeffs, thermal=make_thermal(), wear=make_wear())
    cycles = draw(st.floats(1e6, 1e11))
    arrival = draw(st.floats(0.0, 100.0))
    start = arrival + draw(st.floats(0.0, 10.0))
    slack = draw(st.one_of(st.floats(1.0, 1.1), st.floats(1.1, 1e3), st.floats(1e-3, 0.999)))
    return spec, Task("t", cycles, arrival, start + cycles / levels[-1].freq * slack), start, ties


def brute_force(spec, task, start):
    """(lowest feasible index, least-energy index with ties to the lower index), or None if no level fits."""
    window = task.deadline - start
    energies = {}
    for lv in spec.levels:
        t_run = task.cycles / lv.freq
        if t_run <= window:
            energies[lv.index] = active_power(spec, lv) * t_run + spec.p_idle * (window - t_run)
    if not energies:
        return None
    return min(energies), min(energies, key=lambda i: (energies[i], i))


class TestGovernorsAgainstBruteForce:
    @given(governor_cases())
    @settings(max_examples=300)
    def test_both_governors_match_a_brute_force_search(self, case):
        spec, task, start, ties = case
        for level in spec.levels:
            assert spec.active_w[level.index] == active_power(spec, level)
        expected = brute_force(spec, task, start)
        if expected is None:
            for governor in (LOWEST, MIN_ENERGY):
                assert governor_rule(spec, governor)(task, start) is None
            return
        lowest, cheapest = expected
        assert governor_rule(spec, LOWEST)(task, start).index == lowest
        assert governor_rule(spec, MIN_ENERGY)(task, start).index == cheapest
        if ties:  # every feasible level ties, and the tie goes to the lowest of them
            assert cheapest == lowest


class TestGovernorRule:
    @given(governor_cases(), st.integers(-2, 9))
    @settings(max_examples=200)
    def test_each_kind_resolves_to_its_rule(self, case, index):
        spec, task, start, _ = case
        # the lowest_feasible and min_energy rules are checked against a brute-force search above
        governor = GovernorPolicy("fixed", index)
        if 0 <= index < len(spec.levels):
            assert governor_rule(spec, governor)(task, start) is spec.levels[index]  # whether or not it fits
        else:  # refused with the line a Scenario's validation gives
            with pytest.raises(DomainError) as err:
                governor_rule(spec, governor)
            assert str(err.value) == f"governor.fixed_index: outside ladder bounds 0..{len(spec.levels) - 1}"
        for kind in ("lowest_feasible", "min_energy"):  # an index belongs to the fixed governor alone
            with pytest.raises(DomainError) as err:
                governor_rule(spec, GovernorPolicy(kind, index))
            assert str(err.value) == "governor.fixed_index: only valid for the fixed governor"

    def test_a_bad_governor_is_refused_when_it_is_resolved(self):
        spec = make_spec()
        for governor, message in (
            (GovernorPolicy("fixed"), "governor.fixed_index: required for the fixed governor"),
            (GovernorPolicy("fixed", len(spec.levels)), "governor.fixed_index: outside ladder bounds 0..5"),
            (GovernorPolicy("fixed", 2.0), "governor.fixed_index: must be an integer"),
            (GovernorPolicy("fixed", True), "governor.fixed_index: must be an integer"),
            (GovernorPolicy("min_energy", 3), "governor.fixed_index: only valid for the fixed governor"),
            (GovernorPolicy("race"), "governor.kind: unknown kind 'race'"),
        ):
            with pytest.raises(DomainError) as err:
                governor_rule(spec, governor)
            assert str(err.value) == message
            with pytest.raises(ScenarioError) as err:  # the same line as validation gives
                make_scenario(spec=spec, governor=governor)
            assert err.value.problems == (message,)

    def test_start_before_arrival_rejected(self):
        spec = make_spec()
        task = Task("t", 1e9, 5.0, 10.0)
        for governor in (LOWEST, MIN_ENERGY):
            with pytest.raises(DomainError, match="start 0.0 precedes arrival 5.0"):
                governor_rule(spec, governor)(task, 0.0)
