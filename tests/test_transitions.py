import math

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from dvfsim import (
    DomainError,
    FrequencyLevel,
    TransitionPolicy,
    UnknownLevelError,
    WearParams,
    full_span,
    plan_transition,
    shock_wear,
)

from helpers import make_spec, make_wear
from strategies import specs

DIRECT = TransitionPolicy("direct")
STEPPED = TransitionPolicy("stepped")


class TestPlanTransition:
    def test_direct_full_span_is_one_hop(self):
        spec = make_spec()
        hops = plan_transition(spec, spec.levels[0], spec.levels[5], DIRECT)
        assert len(hops) == 1
        assert hops[0].delta_f == 1.0e9
        assert hops[0].dwell_after == 0.0

    def test_stepped_full_span_walks_adjacent_levels(self):
        spec = make_spec()
        hops = plan_transition(spec, spec.levels[0], spec.levels[5], STEPPED)
        assert len(hops) == 5
        assert all(h.delta_f == 2.0e8 for h in hops)

    def test_dwell_applies_to_all_but_last_hop(self):
        spec = make_spec()
        hops = plan_transition(spec, spec.levels[0], spec.levels[3], TransitionPolicy("stepped", 0.25))
        assert [h.dwell_after for h in hops] == [0.25, 0.25, 0.0]

    def test_same_level_is_empty_plan(self):
        spec = make_spec()
        for policy in (DIRECT, STEPPED):
            assert plan_transition(spec, spec.levels[2], spec.levels[2], policy) == ()

    def test_downward_stepped_plan(self):
        spec = make_spec()
        hops = plan_transition(spec, spec.levels[5], spec.levels[0], STEPPED)
        assert len(hops) == 5
        assert hops[0].from_level == spec.levels[5]
        assert hops[-1].to_level == spec.levels[0]

    def test_unknown_level_rejected(self):
        spec = make_spec()
        alien = FrequencyLevel(1, 1.1e9, 1.0)
        with pytest.raises(UnknownLevelError):
            plan_transition(spec, alien, spec.levels[0], DIRECT)

    def test_a_level_of_another_ladder_is_rejected(self):
        spec = make_spec()
        other = make_spec(levels=[lv._replace(freq=lv.freq * 2) for lv in spec.levels])
        level = spec.levels[1]
        plain = (level.index, level.freq, level.vdd)  # equal to the level as a tuple, but not a FrequencyLevel
        for alien in (other.levels[1], level._replace(vdd=level.vdd + 0.01), plain):
            for policy in (DIRECT, STEPPED):
                with pytest.raises(UnknownLevelError):
                    plan_transition(spec, alien, spec.levels[0], policy)
                with pytest.raises(UnknownLevelError):
                    plan_transition(spec, spec.levels[0], alien, policy)
                with pytest.raises(UnknownLevelError):
                    plan_transition(spec, alien, alien, policy)

    def test_an_equal_copy_of_a_ladder_level_is_accepted(self):
        spec = make_spec()
        copies = [lv._replace() for lv in spec.levels]
        assert all(c == lv and c is not lv for c, lv in zip(copies, spec.levels))
        for policy in (DIRECT, STEPPED, TransitionPolicy("stepped", 0.25)):
            for a, b in ((0, 5), (5, 0), (2, 3), (4, 4)):
                assert plan_transition(spec, copies[a], copies[b], policy) == plan_transition(
                    spec, spec.levels[a], spec.levels[b], policy
                )

    def test_unknown_policy_kind_rejected(self):
        spec = make_spec()
        with pytest.raises(DomainError):
            plan_transition(spec, spec.levels[0], spec.levels[1], TransitionPolicy("teleport"))

    @given(specs(), st.data())
    @settings(max_examples=100)
    def test_chain_and_delta_sum_invariants(self, spec, data):
        a = data.draw(st.integers(0, len(spec.levels) - 1))
        b = data.draw(st.integers(0, len(spec.levels) - 1))
        policy = data.draw(st.sampled_from([DIRECT, STEPPED]))
        hops = plan_transition(spec, spec.levels[a], spec.levels[b], policy)
        for prev, nxt in zip(hops, hops[1:]):
            assert prev.to_level == nxt.from_level
        assert all(h.delta_f > 0 for h in hops)
        total = abs(spec.levels[b].freq - spec.levels[a].freq)
        assert math.isclose(sum(h.delta_f for h in hops), total, rel_tol=1e-12, abs_tol=1e-9)
        if policy.kind == "stepped":
            assert len(hops) == abs(b - a)


class TestShockWear:
    def test_full_span_hop(self):
        assert shock_wear(make_wear(k_shock=1e-4, alpha=2.0, f_span=1e9), 1e9) == pytest.approx(1e-4, rel=1e-12)

    def test_zero_delta_is_free(self):
        assert shock_wear(make_wear(alpha=3.0), 0.0) == 0.0

    def test_linear_exponent_desk_value(self):
        assert shock_wear(make_wear(k_shock=1e-4, alpha=1.0), 2e8) == pytest.approx(2e-5, rel=1e-12)

    def test_negative_delta_rejected(self):
        with pytest.raises(DomainError):
            shock_wear(make_wear(), -1.0)

    @given(st.floats(1.0, 4.0), st.floats(0.0, 1e9), st.floats(0.0, 2.0))
    def test_power_law_scaling(self, alpha, delta_f, scale):
        params = make_wear(alpha=alpha)
        scaled = shock_wear(params, scale * delta_f)
        expected = scale**alpha * shock_wear(params, delta_f)
        assert math.isclose(scaled, expected, rel_tol=1e-9, abs_tol=1e-300)

    @given(st.floats(1.0, 4.0), st.floats(0.0, 1e9), st.floats(0.0, 1e9))
    def test_monotone_in_delta(self, alpha, d1, d2):
        params = make_wear(alpha=alpha)
        lo, hi = sorted((d1, d2))
        assert shock_wear(params, lo) <= shock_wear(params, hi)


class TestPlanWear:
    def test_stepping_divides_full_span_wear_by_hop_count(self):
        spec = make_spec()
        params = make_wear(k_shock=1e-4, alpha=2.0, f_span=1e9)
        direct = sum(
            shock_wear(params, h.delta_f) for h in plan_transition(spec, spec.levels[0], spec.levels[5], DIRECT)
        )
        stepped = sum(
            shock_wear(params, h.delta_f) for h in plan_transition(spec, spec.levels[0], spec.levels[5], STEPPED)
        )
        assert direct == pytest.approx(1e-4, rel=1e-12)
        assert stepped == pytest.approx(2e-5, rel=1e-12)

    def test_linear_exponent_makes_stepping_neutral(self):
        spec = make_spec()
        params = make_wear(k_shock=1e-4, alpha=1.0, f_span=1e9)
        direct = sum(
            shock_wear(params, h.delta_f) for h in plan_transition(spec, spec.levels[0], spec.levels[5], DIRECT)
        )
        stepped = sum(
            shock_wear(params, h.delta_f) for h in plan_transition(spec, spec.levels[0], spec.levels[5], STEPPED)
        )
        assert math.isclose(direct, stepped, rel_tol=1e-12)

    def test_empty_plan_has_no_wear(self):
        spec = make_spec()
        hops = plan_transition(spec, spec.levels[1], spec.levels[1], DIRECT)
        assert sum(shock_wear(make_wear(), h.delta_f) for h in hops) == 0.0

    @given(specs(min_levels=3), st.data(), st.floats(1.01, 4.0))
    @settings(max_examples=100)
    def test_stepping_strictly_helps_for_convex_exponent(self, spec, data, alpha):
        a = data.draw(st.integers(0, len(spec.levels) - 3))
        b = data.draw(st.integers(a + 2, len(spec.levels) - 1))
        if data.draw(st.booleans()):
            a, b = b, a
        params = WearParams(k_shock=1e-4, alpha=alpha, f_span=full_span(spec.levels))
        direct = sum(
            shock_wear(params, h.delta_f) for h in plan_transition(spec, spec.levels[a], spec.levels[b], DIRECT)
        )
        stepped = sum(
            shock_wear(params, h.delta_f) for h in plan_transition(spec, spec.levels[a], spec.levels[b], STEPPED)
        )
        assert stepped < direct
