import math
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from dvfsim import (
    DomainError,
    ThermalParams,
    Segment,
    SteadyState,
    WearLedger,
    project_lifetime,
    steady_state_temp,
)

from helpers import steady_wear_factors

# the documented transient: tau = 5 s, 20 W from ambient, one time constant
TRANSIENT = ThermalParams(r_th=0.5, c_th=10.0, t_amb=25.0, t_ref=25.0, l_base=1000.0)


def oracle_trapezoid_wear(params, temp0, power, dt, n):
    """Independent fine-grid trapezoid of the wear rate on the exact trajectory."""
    tau = params.r_th * params.c_th
    t_ss = params.t_amb + power * params.r_th
    h = dt / n
    total = 0.0
    for k in range(n + 1):
        temp = t_ss + (temp0 - t_ss) * math.exp(-(k * h) / tau)
        rate = 2.0 ** ((temp - params.t_ref) / 10.0) / params.l_base
        total += rate if 0 < k < n else rate / 2.0
    return total * h


def decimal_wear(params, temp0, power, dt):
    """Wear by the Ei power series (A&S 5.1.10) in decimal arithmetic.

    On constant power the wear is rate_ss * (dt + tau * sum_k a^k (1 - u^k) / (k*k!))
    with a = ln2/10 * (T0 - T_ss) and u = exp(-dt/tau). Forty digits are kept
    beyond the ones the alternating series loses to cancellation (about
    0.87 * |a|).
    """
    digits = 40 + int(abs(temp0 - params.t_amb - power * params.r_th) * math.log(2.0) / 10.0) + 5
    with localcontext() as ctx:
        ctx.prec = digits
        t_ss = Decimal(params.t_amb) + Decimal(power) * Decimal(params.r_th)
        tau = Decimal(params.r_th) * Decimal(params.c_th)
        a = Decimal(2).ln() / 10 * (Decimal(temp0) - t_ss)
        u = (-Decimal(dt) / tau).exp()
        rate_ss = Decimal(2) ** ((t_ss - Decimal(params.t_ref)) / 10) / Decimal(params.l_base)
        tiny = Decimal(10) ** -digits
        total, c, uk, k = Decimal(0), Decimal(1), Decimal(1), 0
        while True:
            k += 1
            c = c * a / k
            uk *= u
            term = c * (1 - uk) / k
            total += term
            if k > abs(a) and abs(term) <= tiny:
                return float(rate_ss * (Decimal(dt) + tau * total))


def simpson(f, end, n):
    """Composite Simpson rule of f over [0, end] with n (even) intervals, summed with fsum."""
    h = end / n
    weights = (1 if k in (0, n) else 4 if k % 2 else 2 for k in range(n + 1))
    return math.fsum(w * f(k * h) for k, w in enumerate(weights)) * h / 3.0


def wear_rate_on_trajectory(params, temp0, power):
    tau = params.r_th * params.c_th
    t_ss = params.t_amb + power * params.r_th
    return lambda t: 2.0 ** ((t_ss + (temp0 - t_ss) * math.exp(-t / tau) - params.t_ref) / 10.0) / params.l_base


class TestArrheniusFactor:
    def test_reference_point(self):
        assert steady_wear_factors(TRANSIENT, 25.0) == (1.0, 1.0)

    def test_plus_ten_doubles_wear_rate(self):
        assert steady_wear_factors(TRANSIENT, 35.0) == pytest.approx((2.0, 2.0), rel=1e-12)

    def test_minus_ten_halves_wear_rate(self):
        assert steady_wear_factors(TRANSIENT, 15.0) == pytest.approx((0.5, 0.5), rel=1e-12)

    def test_fractional_step(self):
        assert steady_wear_factors(TRANSIENT, 40.0) == pytest.approx((2.0**1.5, 2.0**1.5), rel=1e-12)

    @given(st.integers(-8, 8))
    def test_exact_powers_of_two(self, k):
        for factor in steady_wear_factors(TRANSIENT, TRANSIENT.t_ref + 10.0 * k):
            assert math.isclose(factor, 2.0**k, rel_tol=1e-12)


class TestSteadyState:
    def test_no_power_sits_at_ambient(self):
        assert steady_state_temp(TRANSIENT, 0.0) == 25.0

    def test_desk_value(self):
        assert steady_state_temp(TRANSIENT, 20.0) == 35.0

    def test_rise_linear_in_power(self):
        rise1 = steady_state_temp(TRANSIENT, 10.0) - TRANSIENT.t_amb
        rise2 = steady_state_temp(TRANSIENT, 20.0) - TRANSIENT.t_amb
        assert rise2 == pytest.approx(2.0 * rise1, rel=1e-12)

    def test_negative_power_rejected(self):
        with pytest.raises(DomainError):
            steady_state_temp(TRANSIENT, -1.0)


class TestThermalStep:
    def test_equilibrium_is_fixed_point(self):
        assert Segment(TRANSIENT, 25.0, 0.0).advance(7.0)[0] == 25.0

    def test_one_time_constant_desk_value(self):
        temp, _, _ = Segment(TRANSIENT, 25.0, 20.0).advance(5.0)
        assert temp == pytest.approx(35.0 - 10.0 * math.exp(-1.0), rel=1e-12)

    def test_long_step_reaches_steady_state(self):
        temp, _, _ = Segment(TRANSIENT, 25.0, 20.0).advance(100.0 * TRANSIENT.tau)
        assert abs(temp - 35.0) < 1e-9

    @given(st.floats(0.0, 60.0), st.floats(0.0, 40.0), st.floats(-20.0, 120.0))
    def test_half_steps_compose(self, dt, power, temp0):
        full = Segment(TRANSIENT, temp0, power).advance(dt)[0]
        half = Segment(TRANSIENT, temp0, power).advance(dt / 2.0)[0]
        composed = Segment(TRANSIENT, half, power).advance(dt / 2.0)[0]
        assert math.isclose(composed, full, rel_tol=1e-12, abs_tol=1e-12)

    @given(st.floats(0.0, 100.0), st.floats(0.0, 40.0), st.floats(-20.0, 120.0))
    def test_never_overshoots(self, dt, power, temp0):
        t_ss = steady_state_temp(TRANSIENT, power)
        after, _, _ = Segment(TRANSIENT, temp0, power).advance(dt)
        lo, hi = sorted((temp0, t_ss))
        assert lo - 1e-9 <= after <= hi + 1e-9


class TestIntegrateThermalWear:
    def test_constant_reference_temperature(self):
        # unit wear rate for 100 s against a 1000 s baseline
        params = ThermalParams(r_th=0.5, c_th=10.0, t_amb=50.0, t_ref=50.0, l_base=1000.0)
        temp, wear, _ = Segment(params, 50.0, 0.0).advance(100.0)
        assert wear == pytest.approx(0.1, rel=1e-12)
        assert temp == pytest.approx(50.0, abs=1e-12)

    def test_constant_ten_above_reference(self):
        params = ThermalParams(r_th=0.5, c_th=10.0, t_amb=60.0, t_ref=50.0, l_base=1000.0)
        _, wear, _ = Segment(params, 60.0, 0.0).advance(100.0)
        assert wear == pytest.approx(0.2, rel=1e-12)

    def test_transient_matches_fine_grid_oracle(self):
        temp, wear, _ = Segment(TRANSIENT, 25.0, 20.0).advance(5.0)
        reference = oracle_trapezoid_wear(TRANSIENT, 25.0, 20.0, 5.0, 10**4)
        assert wear == pytest.approx(reference, rel=1e-6)
        assert temp == pytest.approx(35.0 - 10.0 * math.exp(-1.0), rel=1e-12)

    def test_end_state_is_the_exact_exponential(self):
        temp, _, _ = Segment(TRANSIENT, 28.0, 12.0).advance(7.5)
        assert temp == pytest.approx(31.0 - 3.0 * math.exp(-1.5), rel=1e-15)

    def test_closed_form_matches_decimal_oracle(self):
        # heating and cooling, |a| = ln2/10 * |T0 - T_ss| from 0 to 45, dt/tau from 1e-6 to 50
        params = ThermalParams(r_th=1.0, c_th=5.0, t_amb=25.0, t_ref=45.0, l_base=1000.0)
        for a in (0.0, 1e-3, 0.5, 1.0, 1.9, 2.1, 3.0, 5.545, 10.0, 20.0, 30.0, 40.0, 45.0):
            for sign in (1.0, -1.0):
                temp0 = 45.0 + sign * a * 10.0 / math.log(2.0)  # steady state is 45 degC at 20 W
                for x in (1e-6, 1e-4, 0.01, 0.05, 0.2, 0.4, 1.0, 3.0, 10.0, 50.0):
                    dt = x * params.tau
                    _, wear, _ = Segment(params, temp0, 20.0).advance(dt)
                    reference = decimal_wear(params, temp0, 20.0, dt)
                    assert wear == pytest.approx(reference, rel=1e-12, abs=0.0), (sign * a, x)

    def test_large_swing_at_40_w_matches_oracle(self):
        params = ThermalParams(2.0, 2.5, 25.0, 45.0, 3.6e7)
        _, wear, _ = Segment(params, 25.0, 40.0).advance(2.0)
        assert wear == pytest.approx(decimal_wear(params, 25.0, 40.0, 2.0), rel=1e-12, abs=0.0)

    def test_steady_tail_is_integrated_analytically(self):
        # far beyond the transient the rate is constant; a huge dt must stay cheap and exact
        _, wear, _ = Segment(TRANSIENT, 25.0, 20.0).advance(1e6)
        tail = (1e6 - 40 * TRANSIENT.tau) * 2.0 ** ((35.0 - 25.0) / 10.0) / 1000.0
        assert wear == pytest.approx(tail, rel=1e-3)

    @given(st.floats(0.0, 50.0), st.floats(0.0, 50.0), st.floats(0.0, 40.0))
    @settings(max_examples=60)
    def test_monotone_in_duration(self, d1, d2, power):
        lo, hi = sorted((d1, d2))
        seg = Segment(TRANSIENT, 25.0, power)
        assert seg.advance(lo)[1] <= seg.advance(hi)[1] * (1 + 1e-12)

    def test_zero_duration(self):
        temp, wear, _ = Segment(TRANSIENT, 30.0, 5.0).advance(0.0)
        assert wear == 0.0
        assert temp == 30.0

    def test_negative_duration_rejected(self):
        with pytest.raises(DomainError):
            Segment(TRANSIENT, 25.0, 5.0).advance(-1.0)


class TestSegment:
    @given(st.floats(-50.0, 300.0), st.floats(0.0, 150.0), st.floats(0.0, 60.0), st.floats(0.0, 60.0))
    @settings(max_examples=200)
    def test_wear_is_additive_across_a_split(self, temp0, power, s1, s2):
        # the split point lands in a different evaluation route than the whole more often than not
        seg = Segment(TRANSIENT, temp0, power)
        temp1, wear1, _ = seg.advance(s1)
        rest = Segment(TRANSIENT, temp1, power)
        temp, whole, _ = seg.advance(s1 + s2)
        temp2, wear2, _ = rest.advance(s2)
        assert wear1 + wear2 == pytest.approx(whole, rel=1e-11, abs=1e-300)
        assert temp2 == pytest.approx(temp, rel=1e-12, abs=1e-12)

    def test_temperature_integral_matches_simpson(self):
        seg = Segment(TRANSIENT, 80.0, 3.0)
        reference = simpson(lambda s: seg.advance(s)[0], 12.0, 2000)
        assert seg.advance(12.0)[2] == pytest.approx(reference, rel=1e-12)

    def test_starts_at_its_entry_temperature_and_settles_at_steady_state(self):
        seg = Segment(TRANSIENT, 28.0, 20.0)
        assert seg.advance(0.0)[:2] == (28.0, 0.0)
        assert seg.advance(100.0 * TRANSIENT.tau)[0] == pytest.approx(35.0, rel=1e-12)

    def test_overflowing_wear_is_a_domain_error(self):
        hot = ThermalParams(r_th=2000.0, c_th=1.0, t_amb=25.0, t_ref=45.0, l_base=1.0)
        with pytest.raises(DomainError, match="overflows"):
            Segment(hot, 20025.0, 10.0).advance(1.0)  # held at 20,025 degC: 2^1998 overflows
        edge = ThermalParams(r_th=1.0, c_th=1.0, t_amb=10045.0, t_ref=45.0, l_base=1.0)
        with pytest.raises(DomainError, match="overflows"):
            Segment(edge, 10045.0, 0.0).advance(1e10)  # rate 2^1000 per s is finite; its integral is not
        with pytest.raises(DomainError, match="beyond float range"):
            Segment(TRANSIENT, 1.1e4, 0.0).advance(10.0)  # cooling from 11,000 degC: e^760 terms
        with pytest.raises(DomainError, match="not finite"):
            Segment(TRANSIENT, 25.0, math.inf)

    def test_unreached_hot_steady_state_does_not_overflow(self):
        # heading for 100,025 degC but only 1 ms into a 5,000 s time constant
        slow = ThermalParams(r_th=5000.0, c_th=1.0, t_amb=25.0, t_ref=45.0, l_base=1000.0)
        seg = Segment(slow, 25.0, 20.0)
        reference = simpson(wear_rate_on_trajectory(slow, 25.0, 20.0), 1e-3, 1000)
        temp, wear, _ = seg.advance(1e-3)
        assert wear == pytest.approx(reference, rel=1e-12, abs=0.0)
        assert temp == pytest.approx(25.0 + 20.0 * 1e-3, rel=1e-9)


class TestSteadyStateRecord:
    """One SteadyState per power serves every interval at that power, as Segment(params, temp0, power) would."""

    # (entry temperature, power, duration): short swing, series, and E1 for heating by more than about 29 degC
    ROUTES = {"short": (40.0, 10.0, 0.1), "series": (60.0, 10.0, 8.0), "e1": (25.0, 120.0, 20.0)}

    @pytest.mark.parametrize("route", ROUTES)
    def test_each_route_is_taken(self, route):
        temp0, power, s = self.ROUTES[route]
        seg = Segment(TRANSIENT, temp0, power)
        g = -math.expm1(-s / seg.tau)
        short = abs(seg.a) * g <= 1.0 and (g <= 1.0 / 16.0 or seg.a < -2.0)
        assert (short, not short and seg.a >= -2.0, not short and seg.a < -2.0) == (
            route == "short", route == "series", route == "e1")

    @given(
        st.sampled_from(sorted(ROUTES)),
        st.floats(0.5, 4.0),
        st.floats(0.1, 10.0),
        st.floats(0.5, 2.0),
        st.floats(-20.0, 60.0),
        st.floats(1e3, 1e9),
    )
    @settings(max_examples=150)
    def test_a_segment_from_the_record_is_the_segment(self, route, r_th, c_th, scale, t_ref, l_base):
        temp0, power, s = self.ROUTES[route]
        params = ThermalParams(r_th, c_th, 25.0, t_ref, l_base)
        power *= 0.5 / r_th  # the same rise over ambient whatever r_th, so the route's swing is kept
        steady = SteadyState(params, power)
        seg = steady.segment(temp0)
        direct = Segment(params, temp0, power)
        assert type(seg) is Segment and seg == direct
        t_ss = 25.0 + power * r_th
        assert steady == (t_ss, r_th * c_th, math.log(2.0) / 10.0 * (t_ss - t_ref), r_th * c_th / l_base)
        d0 = temp0 - t_ss
        assert seg == (temp0, t_ss, r_th * c_th, d0, math.log(2.0) / 10.0 * d0, steady.exponent_ss, steady.wear_scale)
        duration = s * seg.tau / 5.0 * scale  # the routes are set for tau = 5 s
        assert seg.advance(duration) == direct.advance(duration)
        # the step of an interval no trace samples is the Segment's advance, bit for bit
        assert steady.step(temp0, duration) == seg.advance(duration)
        assert steady.step(temp0, 0.0) == seg.advance(0.0)

    def test_the_step_fails_as_advance_does(self):
        hot = ThermalParams(r_th=2000.0, c_th=1.0, t_amb=25.0, t_ref=45.0, l_base=1.0)
        edge = ThermalParams(r_th=1.0, c_th=1.0, t_amb=10045.0, t_ref=45.0, l_base=1.0)
        cases = (
            (SteadyState(TRANSIENT, 20.0), math.inf, 1.0, "not finite"),
            (SteadyState(TRANSIENT, 20.0), math.nan, 1.0, "not finite"),
            (SteadyState(TRANSIENT, math.inf), 25.0, 1.0, "not finite"),
            (SteadyState(TRANSIENT, 20.0), 30.0, -1.0, "must be >= 0"),
            (SteadyState(hot, 10.0), 20025.0, 1.0, "overflows"),  # held at 20,025 degC: 2^1998 overflows
            (SteadyState(edge, 0.0), 10045.0, 1e10, "overflows"),  # a finite rate whose integral is not
            (SteadyState(TRANSIENT, 0.0), 1.1e4, 10.0, "beyond float range"),  # cooling with a > 709
        )
        for steady, temp0, s, kind in cases:
            with pytest.raises(DomainError, match=kind) as want:
                steady.segment(temp0).advance(s)
            with pytest.raises(DomainError) as got:
                steady.step(temp0, s)
            assert str(got.value) == str(want.value)

    @given(st.sampled_from(sorted(ROUTES)), st.floats(0.0, 100.0), st.floats(0.5, 1.5), st.integers(1, 60))
    @settings(max_examples=150)
    def test_the_span_trace_query_is_advance_at_each_point(self, route, t0, reach, n):
        temp0, power, length = self.ROUTES[route]
        seg = Segment(TRANSIENT, temp0, power)
        dt = reach * length / n  # the offsets reach up to half a length past the span's end, where they clamp
        k = math.ceil(t0 / dt)
        while k * dt < t0:
            k += 1
        points = seg.trace(t0, length, dt, k, k + n + 1, 8e8, power, 0.25)
        assert [p[:3] for p in points] == [(i * dt, 8e8, power) for i in range(k, k + n + 1)]
        for p in points:
            temp, wear = seg.advance(min(p.time - t0, length))[:2]
            assert (p.temp, p.cum_wear) == (temp, 0.25 + wear)

    def test_the_span_trace_query_fails_as_advance_does(self):
        hot = ThermalParams(r_th=2000.0, c_th=1.0, t_amb=25.0, t_ref=45.0, l_base=1.0)
        edge = ThermalParams(r_th=1.0, c_th=1.0, t_amb=10045.0, t_ref=45.0, l_base=1.0)
        for seg, s in ((Segment(hot, 20025.0, 10.0), 1.0), (Segment(edge, 10045.0, 0.0), 1e10),
                       (Segment(TRANSIENT, 1.1e4, 0.0), 10.0)):
            with pytest.raises(DomainError) as want:
                seg.advance(s)
            with pytest.raises(DomainError) as got:
                seg.trace(0.0, s, s, 1, 2, 8e8, 0.0, 0.0)
            assert str(got.value) == str(want.value)
        slow = ThermalParams(r_th=5000.0, c_th=1.0, t_amb=25.0, t_ref=45.0, l_base=1000.0)
        seg = Segment(slow, 25.0, 20.0)  # a hot steady state that the span does not reach: no overflow
        assert seg.trace(0.0, 1e-3, 1e-3, 1, 2, 8e8, 20.0, 0.0)[0][3:] == seg.advance(1e-3)[:2]
        with pytest.raises(DomainError, match="precedes"):
            seg.trace(1.0, 1e-3, 0.5, 1, 2, 8e8, 20.0, 0.0)

    def test_one_record_serves_many_entry_temperatures(self):
        steady = SteadyState(TRANSIENT, 20.0)
        for temp0 in (25.0, 35.0, 80.0, 400.0):
            assert steady.segment(temp0).advance(3.0) == Segment(TRANSIENT, temp0, 20.0).advance(3.0)
        with pytest.raises(DomainError, match="not finite"):
            steady.segment(math.inf)


class TestProjectLifetime:
    def test_linear_extrapolation(self):
        assert project_lifetime(WearLedger(0.1, 0.0, 100.0)) == pytest.approx(1000.0, rel=1e-12)

    def test_no_wear_is_unbounded(self):
        assert math.isinf(project_lifetime(WearLedger(0.0, 0.0, 100.0)))

    def test_zero_elapsed_rejected(self):
        with pytest.raises(DomainError):
            project_lifetime(WearLedger(0.1, 0.0, 0.0))

    def test_shock_and_thermal_wear_both_count(self):
        combined = project_lifetime(WearLedger(0.05, 0.05, 100.0))
        assert combined == pytest.approx(1000.0, rel=1e-12)

    def test_ten_degrees_cooler_doubles_projection(self):
        hot = ThermalParams(r_th=0.5, c_th=10.0, t_amb=50.0, t_ref=50.0, l_base=1000.0)
        cool = ThermalParams(r_th=0.5, c_th=10.0, t_amb=40.0, t_ref=50.0, l_base=1000.0)
        _, wear_hot, _ = Segment(hot, 50.0, 0.0).advance(200.0)
        _, wear_cool, _ = Segment(cool, 40.0, 0.0).advance(200.0)
        ratio = project_lifetime(WearLedger(wear_cool, 0.0, 200.0)) / project_lifetime(
            WearLedger(wear_hot, 0.0, 200.0)
        )
        assert ratio == pytest.approx(2.0, rel=1e-9)
