import math
import random
import subprocess
import sys
from decimal import Decimal, localcontext

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from dvfsim import DomainError, SteadyState, ThermalParams, WearLedger, validate_spec
from dvfsim.thermal import (
    _scaled_e1, _series_tail_sums, _short_swing, project_lifetime, steady_state_temp, validate_thermal)

from helpers import make_spec, make_wear, source_env, steady_wear_factors

# the documented transient: tau = 5 s, 20 W from ambient, one time constant
TRANSIENT = ThermalParams(r_th=0.5, c_th=10.0, t_amb=25.0, t_ref=25.0, l_base=1000.0)


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


def wear_bound(steady: SteadyState, temp0: float, x: float, base: float = 8.0) -> float:
    """The wear's bound in ulps of the exact wear, base + 2|a| + 3|E| (the module notes), for the interval entered at
    ``temp0``, x = s/tau into it: a is its swing and E the exponent of the rate its route scales by. ``base`` is 8 on
    every route, SERIES_BASE on the series route wherever it is taken."""
    a = swing(steady, temp0)
    g = -math.expm1(-x)
    exponent = steady.exponent_ss + {"short": a, "series": 0.0, "e1": a - a * g}[route_of(a, x)]
    return base + 2.0 * abs(a) + 3.0 * abs(exponent)


SERIES_BASE = 40.0


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
        assert SteadyState(TRANSIENT, 0.0).step(25.0, 7.0)[0] == 25.0

    def test_one_time_constant_desk_value(self):
        temp, _, _ = SteadyState(TRANSIENT, 20.0).step(25.0, 5.0)
        assert temp == pytest.approx(35.0 - 10.0 * math.exp(-1.0), rel=1e-12)

    def test_end_state_is_the_exact_exponential(self):
        temp, _, _ = SteadyState(TRANSIENT, 12.0).step(28.0, 7.5)
        assert temp == pytest.approx(31.0 - 3.0 * math.exp(-1.5), rel=1e-15)

    @given(st.floats(0.0, 100.0), st.floats(0.0, 40.0), st.floats(-20.0, 120.0))
    def test_never_overshoots(self, dt, power, temp0):
        t_ss = steady_state_temp(TRANSIENT, power)
        after, _, _ = SteadyState(TRANSIENT, power).step(temp0, dt)
        lo, hi = sorted((temp0, t_ss))
        assert lo - 1e-9 <= after <= hi + 1e-9


class TestStepWear:
    """The wear that one ``SteadyState.step`` books."""

    def test_constant_reference_temperature(self):
        # unit wear rate for 100 s against a 1000 s baseline
        params = ThermalParams(r_th=0.5, c_th=10.0, t_amb=50.0, t_ref=50.0, l_base=1000.0)
        temp, wear, _ = SteadyState(params, 0.0).step(50.0, 100.0)
        assert wear == pytest.approx(0.1, rel=1e-12)
        assert temp == pytest.approx(50.0, abs=1e-12)

    def test_constant_ten_above_reference(self):
        params = ThermalParams(r_th=0.5, c_th=10.0, t_amb=60.0, t_ref=50.0, l_base=1000.0)
        _, wear, _ = SteadyState(params, 0.0).step(60.0, 100.0)
        assert wear == pytest.approx(0.2, rel=1e-12)

    def test_closed_form_matches_decimal_oracle(self):
        # heating and cooling, |a| = ln2/10 * |T0 - T_ss| from 0 to the 709 limit, dt/tau from 1e-6 to 50, and each
        # side of the route boundaries: g = 1/16, |a| * g = 1 and a = -2; at a = 2 and g just under 1/16 a short-swing
        # sum that stopped at its first tiny term read 4e11 ulp off
        params = ThermalParams(r_th=1.0, c_th=5.0, t_amb=25.0, t_ref=45.0, l_base=1000.0)
        steady = SteadyState(params, 20.0)
        g16 = -math.log1p(-1.0 / 16.0)  # x where g = 1/16
        routes = set()
        sizes = (0.0, 1e-3, 0.5, 1.0, 1.9, 1.999999999, 2.0, 2.000000001, 2.1, 3.0, 5.545, 10.0, 16.0, 20.0, 30.0,
                 40.0, 45.0, 100.0, 300.0, 708.99)
        for size in sizes:
            # x where |a| * g = 1, and where g = 1/16 while that can bound the short swing; the oracle's cost grows
            # as |a|^2, so the largest swings take fewer points
            edges = (-math.log1p(-1.0 / size),) if size > 1.0 else ()
            edges += (g16,) if size <= 16.0 else ()
            grid = (1e-6, 1e-4, 0.01, 0.05, 0.2, 0.4, 1.0, 3.0, 10.0, 50.0) if size < 100.0 else (1e-6, 1.0, 50.0)
            xs = (*grid, *(y for x in edges for y in (math.nextafter(x, 0.0), x, math.nextafter(x, 1.0))))
            for sign in (1.0, -1.0):
                temp0 = 45.0 + sign * size * 10.0 / math.log(2.0)  # steady state is 45 degC at 20 W
                for x in xs:
                    routes.add(self.assert_within_bound(steady, params, temp0, x * params.tau))
        assert routes == {"short", "series", "e1"}
        # z = 1 + 6e-9, where the forward continued fraction read 129 ulp off, and a = -526.36 at s/tau = 0.0031,
        # where an exponent of exponent_ss - z, with z rounded, read 1,666 ulp off
        for temp0, x in ((45.0 - 2.1017405842277257 * 10.0 / math.log(2.0), 0.7427658450269158),
                         (-7548.806357617312, 0.0031146418509276)):
            assert self.assert_within_bound(steady, params, temp0, x * params.tau) == "e1"

    def test_the_series_route_where_its_terms_cancel(self):
        # heating with a from -2 to -0.5 past the short-swing route: the series' alternating terms cancel, and the
        # roundings of its Horner steps add up by chance; a = -1.96 at s/tau = 0.079 reads 18 ulp
        params = ThermalParams(r_th=1.0, c_th=5.0, t_amb=25.0, t_ref=45.0, l_base=1000.0)
        steady = SteadyState(params, 20.0)  # steady state 45 degC
        assert self.assert_within_bound(steady, params, 16.719337846561697, 0.392980017792613, SERIES_BASE) == "series"
        rng = random.Random(1)
        for _ in range(4000):
            temp0 = 45.0 + rng.uniform(-2.0, -0.5) * 10.0 / math.log(2.0)
            x = math.exp(rng.uniform(math.log(0.065), math.log(50.0)))  # g > 1/16 from x = 0.0646
            assert self.assert_within_bound(steady, params, temp0, x * params.tau, SERIES_BASE) == "series"

    def test_the_series_truncation_is_within_its_stated_bound(self):
        # the series keeps K terms; the rest, sum_{k>K} a^k (1 - u^k)/(k*k!), is at most e/(e-1) * |a|/(K+1-|a|) *
        # 2^-56 of the integral x + sum_k a^k (1 - u^k)/(k*k!) (its notes), and that factor is below 5 up to a = 709
        for a in (-2.0, -1.999999999, -1.0, -1e-3, 0.5, 1.0, 2.0, 5.545, 16.0, 45.0, 100.0, 300.0, 708.99):
            size = abs(a)
            tails = _series_tail_sums(a)
            factor = math.e / (math.e - 1.0) * size / (len(tails) + 1 - size)
            assert factor < 5.0, a
            for x in (0.05, 0.2, 1.0, 3.0, 50.0, 2.0 / size if size > 2.0 else 0.0):
                if route_of(a, x) != "series":
                    continue
                with localcontext() as ctx:
                    ctx.prec = 50
                    u = (-Decimal(x)).exp()
                    c, uk, integral, rest = Decimal(1), Decimal(1), Decimal(x), Decimal(0)
                    for k in range(1, 2 * len(tails) + 40):
                        c = c * Decimal(a) / k
                        uk *= u
                        term = c * (1 - uk) / k
                        integral += term
                        if k > len(tails):
                            rest += term
                    assert abs(rest) <= Decimal(factor) * Decimal(2) ** -56 * integral, (a, x)

    @staticmethod
    def assert_within_bound(steady, params, temp0, dt, base=8.0):
        """Assert that ``steady.step(temp0, dt)``'s wear is within ``wear_bound`` of ``decimal_wear``'s.

        Returns the route the wear took."""
        a = swing(steady, temp0)
        x = dt / steady.tau
        route = route_of(a, x)
        _, wear, _ = steady.step(temp0, dt)
        reference = decimal_wear(params, temp0, (steady.t_ss - params.t_amb) / params.r_th, dt)
        assert abs(wear - reference) <= wear_bound(steady, temp0, x, base) * math.ulp(reference), (a, x, route)
        return route

    def test_steady_tail_is_integrated_analytically(self):
        # far beyond the transient the rate is constant; a huge dt must stay cheap and exact
        _, wear, _ = SteadyState(TRANSIENT, 20.0).step(25.0, 1e6)
        tail = (1e6 - 40 * TRANSIENT.tau) * 2.0 ** ((35.0 - 25.0) / 10.0) / 1000.0
        assert wear == pytest.approx(tail, rel=1e-3)

    @given(st.floats(0.0, 50.0), st.floats(0.0, 50.0), st.floats(0.0, 40.0))
    @settings(max_examples=60)
    def test_monotone_in_duration(self, d1, d2, power):
        lo, hi = sorted((d1, d2))
        steady = SteadyState(TRANSIENT, power)
        assert steady.step(25.0, lo)[1] <= steady.step(25.0, hi)[1] * (1 + 1e-12)


class TestStepChain:
    """``SteadyState.step`` on one constant-power interval and on a chain of them, each entered at the previous one's
    end temperature."""

    @given(st.floats(-50.0, 300.0), st.floats(0.0, 150.0), st.floats(0.0, 60.0), st.floats(0.0, 60.0))
    @settings(max_examples=200)
    def test_wear_is_additive_across_a_split(self, temp0, power, s1, s2):
        # the split point lands in a different evaluation route than the whole more often than not
        steady = SteadyState(TRANSIENT, power)
        temp1, wear1, _ = steady.step(temp0, s1)
        temp, whole, _ = steady.step(temp0, s1 + s2)
        temp2, wear2, _ = steady.step(temp1, s2)
        assert wear1 + wear2 == pytest.approx(whole, rel=1e-11, abs=1e-300)
        assert temp2 == pytest.approx(temp, rel=1e-12, abs=1e-12)

    def test_temperature_integral_matches_simpson(self):
        steady = SteadyState(TRANSIENT, 3.0)
        reference = simpson(lambda s: steady.step(80.0, s)[0], 12.0, 2000)
        assert steady.step(80.0, 12.0)[2] == pytest.approx(reference, rel=1e-12)

    def test_starts_at_its_entry_temperature_and_settles_at_steady_state(self):
        steady = SteadyState(TRANSIENT, 20.0)
        assert steady.step(28.0, 0.0)[:2] == (28.0, 0.0)
        assert steady.step(28.0, 100.0 * TRANSIENT.tau)[0] == pytest.approx(35.0, rel=1e-12)

    def test_overflowing_wear_is_a_domain_error(self):
        hot = ThermalParams(r_th=2000.0, c_th=1.0, t_amb=25.0, t_ref=45.0, l_base=1.0)
        with pytest.raises(DomainError, match="overflows"):
            SteadyState(hot, 10.0).step(20025.0, 1.0)  # held at 20,025 degC: 2^1998 overflows
        edge = ThermalParams(r_th=1.0, c_th=1.0, t_amb=10045.0, t_ref=45.0, l_base=1.0)
        with pytest.raises(DomainError, match="overflows"):
            SteadyState(edge, 0.0).step(10045.0, 1e10)  # rate 2^1000 per s is finite; its integral is not
        with pytest.raises(DomainError, match="beyond float range"):
            SteadyState(TRANSIENT, 0.0).step(1.1e4, 10.0)  # cooling from 11,000 degC: e^760 terms
        with pytest.raises(DomainError, match="not finite"):
            SteadyState(TRANSIENT, math.inf).step(25.0, 1.0)

    def test_unreached_hot_steady_state_does_not_overflow(self):
        # heading for 100,025 degC but only 1 ms into a 5,000 s time constant
        slow = ThermalParams(r_th=5000.0, c_th=1.0, t_amb=25.0, t_ref=45.0, l_base=1000.0)
        reference = simpson(wear_rate_on_trajectory(slow, 25.0, 20.0), 1e-3, 1000)
        temp, wear, _ = SteadyState(slow, 20.0).step(25.0, 1e-3)
        assert wear == pytest.approx(reference, rel=1e-12, abs=0.0)
        assert temp == pytest.approx(25.0 + 20.0 * 1e-3, rel=1e-9)


def swing(steady: SteadyState, temp0: float) -> float:
    """a = ln2/10 * (temp0 - T_ss), the wear rate's log-swing over an interval entered at ``temp0``."""
    return math.log(2.0) / 10.0 * (temp0 - steady.t_ss)


def route_of(a: float, x: float) -> str:
    """The route the wear of an interval with swing ``a``, ``x = s / tau`` into it, takes (module notes)."""
    g = -math.expm1(-x)
    if abs(a) * g <= 1.0 and (g <= 1.0 / 16.0 or a < -2.0):
        return "short"
    return "series" if a >= -2.0 else "e1"


class TestSteadyStateRecord:
    """One SteadyState per power serves every interval at that power, as a fresh record per interval would."""

    # (entry temperature, power, duration): short swing, series, and E1 for heating by more than about 29 degC
    ROUTES = {"short": (40.0, 10.0, 0.1), "series": (60.0, 10.0, 8.0), "e1": (25.0, 120.0, 20.0)}

    @pytest.mark.parametrize("route", ROUTES)
    def test_each_route_is_taken(self, route):
        temp0, power, s = self.ROUTES[route]
        steady = SteadyState(TRANSIENT, power)
        assert route_of(swing(steady, temp0), s / steady.tau) == route

    @given(
        st.sampled_from(sorted(ROUTES)),
        st.floats(0.5, 4.0),
        st.floats(0.1, 10.0),
        st.floats(0.5, 2.0),
        st.floats(-200.0, 200.0),
        st.floats(1e3, 1e9),
    )
    @example("e1", 1.9821177476365865, 0.1015625, 0.5, 1.9821177476365865, 1000.0)  # 18 ulp, past 8 + 2|a|
    @settings(max_examples=150)
    def test_the_record_steps_an_interval_from_its_fields(self, route, r_th, c_th, scale, t_ref, l_base):
        temp0, power, s = self.ROUTES[route]
        params = ThermalParams(r_th, c_th, 25.0, t_ref, l_base)
        power *= 0.5 / r_th  # the same rise over ambient whatever r_th, so the route's swing is kept
        steady = SteadyState(params, power)
        t_ss = 25.0 + power * r_th
        assert steady == (t_ss, r_th * c_th, math.log(2.0) / 10.0 * (t_ss - t_ref), r_th * c_th / l_base)
        duration = s * steady.tau / 5.0 * scale  # the routes are set for tau = 5 s
        assert route_of(swing(steady, temp0), duration / steady.tau) == route
        temp, wear, integral = steady.step(temp0, duration)
        g = -math.expm1(-duration / steady.tau)
        d0 = temp0 - t_ss
        assert (temp, integral) == (temp0 - d0 * g, t_ss * duration + d0 * steady.tau * g)
        reference = decimal_wear(params, temp0, power, duration)
        assert abs(wear - reference) <= wear_bound(steady, temp0, duration / steady.tau) * math.ulp(reference)
        assert steady.step(temp0, 0.0) == (temp0, 0.0, 0.0)

    def test_the_step_fails_with_the_message_of_its_cause(self):
        hot = ThermalParams(r_th=2000.0, c_th=1.0, t_amb=25.0, t_ref=45.0, l_base=1.0)
        edge = ThermalParams(r_th=1.0, c_th=1.0, t_amb=10045.0, t_ref=45.0, l_base=1.0)
        cases = (
            (SteadyState(TRANSIENT, 20.0), math.inf, 1.0, "temperature inf degC or steady state 35 degC is not finite"),
            (SteadyState(TRANSIENT, 20.0), math.nan, 1.0, "temperature nan degC or steady state 35 degC is not finite"),
            (SteadyState(TRANSIENT, math.inf), 25.0, 1.0, "temperature 25 degC or steady state inf degC is not finite"),
            (SteadyState(TRANSIENT, 20.0), 30.0, -1.0, "duration must be >= 0 (got -1.0)"),
            (SteadyState(TRANSIENT, 20.0), 30.0, math.nan, "duration must be >= 0 (got nan)"),
            # held at 20,025 degC: 2^1998 overflows
            (SteadyState(hot, 10.0), 20025.0, 1.0, "thermal wear from 20025 degC toward 20025 degC overflows"),
            # a finite rate whose integral is not
            (SteadyState(edge, 0.0), 10045.0, 1e10, "thermal wear from 10045 degC toward 10045 degC overflows"),
            # cooling with a > 709
            (SteadyState(TRANSIENT, 0.0), 1.1e4, 10.0, "cooling from 11000 degC toward 25 degC is beyond float range"),
        )
        for steady, temp0, s, message in cases:
            with pytest.raises(DomainError) as got:
                steady.step(temp0, s)
            assert str(got.value) == message

    @given(st.sampled_from(sorted(ROUTES)), st.floats(0.0, 100.0), st.floats(0.5, 1.5), st.integers(1, 60))
    @settings(max_examples=150)
    def test_the_span_trace_query_is_the_step_at_each_point(self, route, t0, reach, n):
        temp0, power, length = self.ROUTES[route]
        steady = SteadyState(TRANSIENT, power)
        dt = reach * length / n  # the offsets reach up to half a length past the span's end, where they clamp
        k = math.ceil(t0 / dt)
        while k * dt < t0:
            k += 1
        times = [i * dt for i in range(k, k + n + 1)]
        temps, wears = steady.trace(temp0, t0, length, times, 0.25)
        assert len(temps) == len(wears) == len(times)
        for time, temp, wear in zip(times, temps, wears):
            want_temp, want_wear = steady.step(temp0, min(time - t0, length))[:2]
            assert (temp, wear) == (want_temp, 0.25 + want_wear)

    def test_the_span_trace_query_fails_as_the_step_does(self):
        hot = ThermalParams(r_th=2000.0, c_th=1.0, t_amb=25.0, t_ref=45.0, l_base=1.0)
        edge = ThermalParams(r_th=1.0, c_th=1.0, t_amb=10045.0, t_ref=45.0, l_base=1.0)
        # (record, entry temperature, s, the first trace index): the query traces the points at 0 (if k is 0) and s
        cases = (
            (SteadyState(hot, 10.0), 20025.0, 1.0, 1),
            (SteadyState(edge, 0.0), 10045.0, 1e10, 1),
            (SteadyState(TRANSIENT, 0.0), 1.1e4, 10.0, 1),
            # the trace query has no swing check of its own: every route's fallback is the step's, from s = 0 on
            *((SteadyState(TRANSIENT, 20.0), t, 1.0, k) for t in (math.inf, -math.inf, math.nan) for k in (0, 1)),
            *((SteadyState(TRANSIENT, math.inf), 25.0, 1.0, k) for k in (0, 1)),
        )
        for steady, temp0, s, k in cases:
            with pytest.raises(DomainError) as want:
                steady.step(temp0, s)
            with pytest.raises(DomainError) as got:
                steady.trace(temp0, 0.0, s, [i * s for i in range(k, 2)], 0.0)
            assert str(got.value) == str(want.value)
        slow = ThermalParams(r_th=5000.0, c_th=1.0, t_amb=25.0, t_ref=45.0, l_base=1000.0)
        steady = SteadyState(slow, 20.0)  # a hot steady state that the span does not reach: no overflow
        temp, wear = steady.step(25.0, 1e-3)[:2]
        assert steady.trace(25.0, 0.0, 1e-3, [1e-3], 0.0) == ([temp], [wear])
        with pytest.raises(DomainError, match="precedes"):
            steady.trace(25.0, 1.0, 1e-3, [0.5], 0.0)

    def test_one_record_serves_many_entry_temperatures(self):
        steady = SteadyState(TRANSIENT, 20.0)
        for temp0 in (25.0, 35.0, 80.0, 400.0, 25.0):
            assert steady.step(temp0, 3.0) == SteadyState(TRANSIENT, 20.0).step(temp0, 3.0)
            times = [0.0, 1.0, 2.0, 3.0]
            assert steady.trace(temp0, 0.0, 3.0, times, 0.0) == SteadyState(TRANSIENT, 20.0).trace(
                temp0, 0.0, 3.0, times, 0.0)
        with pytest.raises(DomainError, match="not finite"):
            steady.step(math.inf, 3.0)


GOMPERTZ = Decimal("0.5963473623231940743410784993692793760742")  # e * E1(1), OEIS A073003


def scaled_e1_near_one(z: float) -> Decimal:
    """e^z E1(z) by its Taylor series about z = 1, in decimal, for 1 <= z < 1.5.

    With f = e^z E1(z), f' = f - 1/z, so f^(n)(1) = f^(n-1)(1) + (-1)^n (n-1)!
    and f(1) is the Gompertz constant.
    """
    with localcontext() as ctx:
        ctx.prec = 45
        d = Decimal(z) - 1
        derivative, total, power, n = GOMPERTZ, GOMPERTZ, Decimal(1), 0
        while True:
            n += 1
            derivative += (-1) ** n * math.factorial(n - 1)
            power = power * d / n
            term = derivative * power
            total += term
            if abs(term) < Decimal(10) ** -42:
                return total


def scaled_e1_by_fraction(z: float) -> Decimal:
    """e^z E1(z) from A&S 5.1.22 evaluated from the tail up, 3000 levels deep, in 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        tail = Decimal(0)
        for i in range(3000, 0, -1):
            tail = Decimal(i * i) / (Decimal(z) + 2 * i + 1 - tail)
        return 1 / (Decimal(z) + 1 - tail)


def scaled_e1_from_tail(z: float, depth: int) -> float:
    """e^z E1(z) from A&S 5.1.22 evaluated from the tail up, ``depth`` levels deep, in floats as ``_scaled_e1`` does."""
    tail = 0.0
    for i in range(depth, 0, -1):
        tail = i * i / (z + (2 * i + 1) - tail)
    return 1.0 / (z + 1.0 - tail)


def ulps_off(z: float, reference: Decimal) -> float:
    """How many units in the last place ``_scaled_e1(z)`` reads from ``reference``."""
    return float((Decimal(_scaled_e1(z, math.log(z))) - reference) / Decimal(math.ulp(float(reference))))


def scaled_e1_by_series(z: float, log_z: float, depth: int) -> float:
    """e^z E1(z) from A&S 5.1.11 through ``depth`` terms, in floats as ``_scaled_e1`` does for z <= 1."""
    t, total = 1.0, 0.0
    for k in range(1, depth + 1):
        t *= -z / k
        total += t / k
    return math.exp(z) * (-0.5772156649015329 - log_z - total)


class TestScaledE1:
    """``_scaled_e1`` reads within the ulp bounds its comment states."""

    def test_at_one_and_the_float_after_it(self):
        assert abs(ulps_off(1.0, GOMPERTZ)) <= 6.0  # the series: 5.0 ulp
        after = math.nextafter(1.0, 2.0)  # the continued fraction's deepest region
        assert abs(ulps_off(after, scaled_e1_near_one(after))) <= 3.0

    @given(st.floats(-16.0, -0.5))
    @settings(max_examples=200)
    def test_the_fraction_just_above_one(self, exponent):
        z = 1.0 + 10.0**exponent  # 1.0 itself below about 1e-16, where the series reads 5.0 ulp
        assert abs(ulps_off(z, scaled_e1_near_one(z))) <= (6.0 if z == 1.0 else 3.0)

    @given(st.floats(2.0, 709.0))
    @settings(max_examples=30, deadline=None)
    def test_the_fraction_beyond_two(self, z):
        assert abs(ulps_off(z, scaled_e1_by_fraction(z))) <= 3.0

    def test_the_series_gives_the_float_of_sixty_terms(self):
        # z <= 1 sums 17 terms (its comment): at 1, the float below it, subnormals, 2^-30 and 40,000 seeded z
        rng = random.Random(1)
        zs = (1.0, math.nextafter(1.0, 0.0), 5e-324, 2.0**-1022, 2.0**-30, *(1.0 - rng.random() for _ in range(20_000)),
              *(math.exp(rng.uniform(-744.0, 0.0)) for _ in range(20_000)))
        for z in zs:
            log_z = math.log(z)
            assert _scaled_e1(z, log_z) == scaled_e1_by_series(z, log_z, 60), z

    def test_the_fraction_settles_within_its_step_bound(self):
        # the fraction's depth, 16 + ceil(128/z), gives the float 300 levels give: at the float after 1, at
        # 1.0000001666959315, where the forward evaluation took the most steps (104), at 1.0006305444336965, where
        # the least depth that gives 300 levels' float is the greatest found (141), and on a grid up to 709
        grid = (math.nextafter(1.0, 2.0), 1.0000001666959315, 1.0006305444336965,
                *(1.0 + 10.0 ** (-j / 4) for j in range(64)), *(709.0 ** (j / 64) for j in range(1, 65)))
        assert grid[-1] == 709.0
        for z in grid:
            value = _scaled_e1(z, math.log(z))
            assert value == scaled_e1_from_tail(z, 300), z
            assert 1.0 / (z + 1.0) < value <= 1.0 / z  # A&S 5.1.19


class TestShortSwing:
    """``_short_swing``'s stop rule (its notes) in 60-digit decimals, and its result against a deeper evaluation."""

    @staticmethod
    def points():
        """(a, g) on the short-swing route: |a| * g <= 1, and g <= 1/16 unless a < -2."""
        for a in (-709.0, -100.0, -16.0, -2.5, -2.0000001, -2.0, -1.0, -0.3, 0.3, 1.0, 1.5, 2.0, 5.0, 16.0, 709.0):
            edge = 1.0 / abs(a) if a < -2.0 else min(1.0 / 16.0, 1.0 / abs(a))
            for g in (edge, edge / 2.0, edge * 1e-3):
                yield a, g

    def test_the_stop_bounds_carry_to_every_later_term(self):
        # (Q_m, r_m) by the notes' recurrence for m = 2 .. 61; at each m, the least T with |Q_m| <= m*T and
        # g*|r_m| <= m*T bounds Q_(m+1) and r_(m+1) the same way, and for a <= 1, g*|r_m| <= |Q_m|
        with localcontext() as ctx:
            ctx.prec = 60
            for a, g in self.points():
                ag, g, r, q, prev = -Decimal(a) * Decimal(g), Decimal(g), Decimal(1), Decimal(0), None
                for m in range(2, 62):
                    r *= ag / (m - 1)
                    q = g * (q + r)
                    if prev is not None:
                        t = max(abs(prev[0]), g * abs(prev[1])) / (m - 1)
                        assert abs(q) <= m * t and g * abs(r) <= m * t, (a, g, m)
                    assert a > 1.0 or g * abs(r) <= abs(q), (a, g, m)
                    prev = q, r

    @staticmethod
    def fixed_depth(a: float, x: float, g: float, depth: int = 120) -> float:
        """The notes' recurrence in floats through m = depth + 1, with no stop test."""
        ag, r, q, total = -a * g, 1.0, 0.0, x
        for m in range(2, depth + 2):
            r *= ag / (m - 1)
            q = g * (q + r)
            total += q / m
        return total

    def test_the_stop_gives_the_float_of_a_fixed_depth(self):
        # one point in four at a near 2 with g just under 1/16, where Q_3 is 0 at a = 2 and a sum that stopped at
        # its first tiny term read 4e11 ulp off; the rest over the route, |a| from 1e-8 to 709
        rng = random.Random(1)
        g16 = -math.log1p(-1.0 / 16.0)  # x where g = 1/16
        seen = 0
        while seen < 100_000:
            if seen % 4 == 0:
                a = 2.0 if seen % 8 == 0 else rng.uniform(1.9, 2.1)
                x = g16 * (1.0 - 10.0 ** rng.uniform(-15.0, -1.0))
            else:
                a = math.copysign(math.exp(rng.uniform(math.log(1e-8), math.log(709.0))), rng.random() - 0.5)
                edge = 1.0 / abs(a) if a < -2.0 else min(1.0 / 16.0, 1.0 / abs(a))
                x = -math.log1p(-edge * 10.0 ** rng.uniform(-12.0, 0.0))
            if route_of(a, x) == "short":
                g = -math.expm1(-x)
                assert _short_swing(a, x, g) == self.fixed_depth(a, x, g), (a, x)
                seen += 1

    def test_a_negative_or_nan_x_ends(self):
        # a negative x made the total, and so the stop test's bound, negative, and a NaN a or g made it NaN: the
        # loop never ended. Each call must raise DomainError; a hang is caught by running the calls in a process
        # with a time limit
        code = """if True:
            import math
            from dvfsim.errors import DomainError
            from dvfsim.thermal import _short_swing
            calls = ((0.5, -0.01, -math.expm1(0.01)), (0.5, math.nan, math.nan), (0.5, math.nan, 0.01),
                     (math.nan, 0.01, -math.expm1(-0.01)), (0.5, 0.01, math.nan))
            for a, x, g in calls:
                try:
                    _short_swing(a, x, g)
                except DomainError:
                    continue
                raise SystemExit(f"no DomainError for {(a, x, g)}")
        """
        done = subprocess.run([sys.executable, "-c", code], env=source_env(), capture_output=True, text=True, timeout=30)
        assert (done.returncode, done.stderr) == (0, "")


class TestValidateThermal:
    """ThermalParams' rules live in ``validate_thermal``, which ``validate_spec`` and ``SteadyState`` both apply."""

    BAD = ThermalParams(0.0, math.inf, math.nan, "x", -1.0)
    BAD_LINES = [
        "thermal.r_th: must be finite and > 0",
        "thermal.c_th: must be finite and > 0",
        "thermal.t_amb: must be a finite number",
        "thermal.t_ref: must be a finite number",
        "thermal.l_base: must be finite and > 0",
    ]

    def test_every_rule_is_a_line(self):
        assert [str(v) for v in validate_thermal(self.BAD)] == self.BAD_LINES
        assert validate_thermal(TRANSIENT) == []

    def test_validate_spec_lists_them_between_the_power_and_the_wear_lines(self):
        spec = make_spec(p_idle=-1.0, thermal=self.BAD, wear=make_wear(alpha=0.5))
        assert [str(v) for v in validate_spec(spec)] == [
            "p_idle: negative coefficient", *self.BAD_LINES, "wear.alpha: must be finite and >= 1"]

    def test_a_steady_state_refuses_what_validation_refuses(self):
        # l_base = 0 divided tau by 0 as the record was built, and c_th = 0 divided s by tau = 0 in its step
        cases = (
            (ThermalParams(1.0, 1.0, 25.0, 45.0, 0.0), "thermal.l_base: must be finite and > 0"),
            (ThermalParams(1.0, 0.0, 25.0, 45.0, 1.0), "thermal.c_th: must be finite and > 0"),
            (self.BAD, "; ".join(self.BAD_LINES)),
        )
        for params, message in cases:
            with pytest.raises(DomainError) as got:
                SteadyState(params, 5.0).step(30.0, 1.0)
            assert str(got.value) == message


class TestProjectLifetime:
    def test_linear_extrapolation(self):
        assert project_lifetime(WearLedger(0.1, 0.0, 100.0)) == pytest.approx(1000.0, rel=1e-12)

    def test_no_wear_is_unbounded(self):
        assert math.isinf(project_lifetime(WearLedger(0.0, 0.0, 100.0)))

    def test_shock_and_thermal_wear_both_count(self):
        combined = project_lifetime(WearLedger(0.05, 0.05, 100.0))
        assert combined == pytest.approx(1000.0, rel=1e-12)
