import math

import pytest
from hypothesis import given
import hypothesis.strategies as st

from dvfsim import (
    DomainError,
    FrequencyLevel,
    GovernorPolicy,
    UnknownLevelError,
    governor_rule,
    run_scenario,
    simulate,
    validate_spec,
)
from dvfsim.power import energy_cost

from helpers import make_scenario, make_spec, make_task, turion_levels
from strategies import specs


class TestValidateSpec:
    def test_six_level_turion_ladder_ok(self):
        assert validate_spec(make_spec()) == ()

    def test_duplicate_frequency(self):
        levels = list(turion_levels())
        levels[1] = FrequencyLevel(1, levels[0].freq, levels[1].vdd)
        result = validate_spec(make_spec(levels=levels))
        assert result
        assert any("duplicate frequency" in v.rule for v in result)

    def test_negative_coefficient(self):
        result = validate_spec(make_spec(coeff_a=-1.0))
        assert any(v.field == "coeff_a" and "negative coefficient" in v.rule for v in result)

    def test_out_of_order_frequencies(self):
        levels = list(turion_levels())
        levels[1], levels[2] = (
            FrequencyLevel(1, levels[2].freq, levels[1].vdd),
            FrequencyLevel(2, levels[1].freq, levels[2].vdd),
        )
        result = validate_spec(make_spec(levels=levels))
        assert any("not strictly increasing" in v.rule for v in result)

    def test_single_level_rejected(self):
        result = validate_spec(make_spec(levels=turion_levels()[:1]))
        assert any("at least 2 levels" in v.rule for v in result)

    def test_flat_active_power_rejected(self):
        # equal power on every level defeats frequency selection
        result = validate_spec(make_spec(coeff_a=0.0, coeff_b=0.0, p_device=3.0))
        assert any("active power" in v.rule for v in result)

    def test_violations_are_collected_not_raised(self):
        result = validate_spec(make_spec(coeff_a=-1.0, coeff_b=-2.0))
        assert len(result) >= 2


class TestActivePower:
    def test_coefficients_zeroed_gives_device_power(self):
        spec = make_spec(coeff_a=0.0, coeff_b=0.0, p_device=3.0, p_idle=0.0)
        # flat power is invalid as a spec, but the formula itself is still defined
        assert spec.active_w[0] == 3.0
        assert spec.active_w[5] == 3.0

    def test_desk_value_at_top_level(self):
        levels = [FrequencyLevel(0, 1.0e9, 1.0), FrequencyLevel(1, 1.8e9, 1.2)]
        spec = make_spec(levels=levels, coeff_a=1e-9, coeff_b=0.5, p_device=1.0)
        assert spec.active_w[1] == pytest.approx(4.192, rel=1e-12)

    def test_desk_value_dynamic_only(self):
        levels = [FrequencyLevel(0, 1.0e9, 1.0), FrequencyLevel(1, 2.0e9, 1.2)]
        spec = make_spec(levels=levels, coeff_a=1e-9, coeff_b=0.0, p_device=0.0)
        assert spec.active_w[0] == pytest.approx(1.0, rel=1e-12)

    def test_unknown_level_rejected(self):
        spec = make_spec()
        with pytest.raises(UnknownLevelError):
            spec.require_level(FrequencyLevel(2, 1.3e9, 1.0))

    def test_a_varied_copy_has_the_power_of_its_own_coefficients(self):
        spec = make_spec()
        before = spec.active_w  # read first, so that a table kept from the original would show in the copy
        for changes in ({"coeff_a": spec.coeff_a * 2}, {"coeff_b": 0.0, "p_device": 7.5}, {"levels": spec.levels[:2]}):
            copy = spec._replace(**changes)
            assert copy.active_w == make_spec(**{**spec._asdict(), **changes}).active_w != before

    @given(specs())
    def test_matches_independent_reevaluation(self, spec):
        for level in spec.levels:
            expected = spec.coeff_a * level.freq * level.vdd * level.vdd + spec.coeff_b * level.vdd + spec.p_device
            assert math.isclose(spec.active_w[level.index], expected, rel_tol=1e-12)

    @given(specs())
    def test_strictly_increasing_across_ladder(self, spec):
        powers = spec.active_w
        assert all(a < b for a, b in zip(powers, powers[1:]))


def idle_draws(spec) -> set[float]:
    """The power of every trace sample of a run with no tasks, which idles throughout."""
    _, trace = simulate(make_scenario(spec=spec, tasks=(), duration=10.0, trace_dt=1.0))
    return {point.power for point in trace}


class TestIdlePower:
    def test_constant_value(self):
        assert idle_draws(make_spec(p_idle=0.8)) == {0.8}

    def test_zero(self):
        assert idle_draws(make_spec(p_idle=0.0)) == {0.0}

    def test_independent_of_ladder(self):
        a = make_spec(levels=turion_levels())
        b = make_spec(levels=turion_levels()[:3])
        assert idle_draws(a) == idle_draws(b)


def one_task_energy(spec, level, t_active, t_idle):
    """The EnergyBreakdown of a run that holds ``level`` for one task of ``t_active`` s from time 0, then idles ``t_idle`` s."""
    horizon = t_active + t_idle
    task = make_task(cycles=t_active * level.freq, deadline=horizon)
    return run_scenario(
        make_scenario(spec=spec, tasks=(task,), governor=GovernorPolicy("fixed", level.index), duration=horizon)
    ).energy


class TestTaskEnergy:
    """A task's energy: active power over its run plus idle power over the rest of the window."""

    def test_desk_breakdown(self):
        levels = [FrequencyLevel(0, 1.0e9, 1.0), FrequencyLevel(1, 1.8e9, 1.2)]
        spec = make_spec(levels=levels, coeff_a=1e-9, coeff_b=0.5, p_device=1.0, p_idle=0.8)
        e = one_task_energy(spec, spec.levels[1], 10.0, 5.0)
        assert e.active_j == pytest.approx(41.92, rel=1e-12)
        assert e.idle_j == pytest.approx(4.0, rel=1e-12)
        assert e.total_j == pytest.approx(45.92, rel=1e-12)

    def test_zero_times(self):
        spec = make_spec()
        # no task: no active time, no active energy; a task filling the horizon: no idle time, no idle energy
        assert run_scenario(make_scenario(spec=spec, duration=5.0)).energy.active_j == 0.0
        assert one_task_energy(spec, spec.levels[0], 2.0, 0.0).idle_j == 0.0

    def test_all_power_terms_zero(self):
        levels = [FrequencyLevel(0, 1e9, 1.0), FrequencyLevel(1, 2e9, 1.1)]
        spec = make_spec(levels=levels, coeff_a=1e-12, coeff_b=0.0, p_device=0.0, p_idle=0.0)
        assert one_task_energy(spec, spec.levels[0], 1.0, 1.0).idle_j == 0.0

    def test_negative_time_rejected(self):
        spec = make_spec()
        task = make_task(cycles=1.8e9, deadline=1.0)  # only the top level runs it in its window
        min_energy = governor_rule(spec, GovernorPolicy("min_energy"))
        # a level that overruns the window would leave a negative idle time, so it is never chosen
        assert min_energy(task, 0.0) == spec.levels[-1]
        assert min_energy(task, 0.5) is None
        with pytest.raises(DomainError):
            min_energy(make_task(arrival=1.0), 0.0)  # a start before arrival

    @given(specs(), st.floats(1e-3, 1e4), st.floats(0.0, 1e4))
    def test_linear_in_both_times(self, spec, t_active, t_idle):
        level = spec.levels[0]
        single = one_task_energy(spec, level, t_active, t_idle)
        double = one_task_energy(spec, level, 2.0 * t_active, 2.0 * t_idle)
        assert single.active_j > 0.0 and single.idle_j >= 0.0
        assert math.isclose(double.total_j, 2.0 * single.total_j, rel_tol=1e-12, abs_tol=1e-30)


class TestEnergyCost:
    def test_supercomputer_hourly_figures(self):
        assert energy_cost(12.0, 1.0, 100.0) == 1200.0
        assert energy_cost(100.0, 1.0, 100.0) == 10000.0

    def test_zero_power_is_free(self):
        assert energy_cost(0.0, 5.0, 100.0) == 0.0

    def test_default_rate(self):
        assert energy_cost(12.0, 1.0) == 1200.0
