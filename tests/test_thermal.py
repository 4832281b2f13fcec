import math
import random
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from dvfsim import DomainError, SteadyState, ThermalParams, WearLedger, validate_spec
from dvfsim.thermal import _scaled_e1, _short_swing, project_lifetime, steady_state_temp, validate_thermal

from helpers import make_spec, make_wear, steady_wear_factors

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


def wear_bound(a: float, base: float = 8.0) -> float:
    """The wear's bound in ulps of the exact wear, base + 2|a| (the module notes): 8 on every route on the tests'
    grid, SERIES_BASE on the series route wherever it is taken."""
    return base + 2.0 * abs(a)


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
        assert SteadyState(TRANSIENT, 0.0).step(25.0, 7.0)[0] == 25.0

    def test_one_time_constant_desk_value(self):
        temp, _, _ = SteadyState(TRANSIENT, 20.0).step(25.0, 5.0)
        assert temp == pytest.approx(35.0 - 10.0 * math.exp(-1.0), rel=1e-12)

    def test_long_step_reaches_steady_state(self):
        temp, _, _ = SteadyState(TRANSIENT, 20.0).step(25.0, 100.0 * TRANSIENT.tau)
        assert abs(temp - 35.0) < 1e-9

    @given(st.floats(0.0, 60.0), st.floats(0.0, 40.0), st.floats(-20.0, 120.0))
    def test_half_steps_compose(self, dt, power, temp0):
        full = SteadyState(TRANSIENT, power).step(temp0, dt)[0]
        half = SteadyState(TRANSIENT, power).step(temp0, dt / 2.0)[0]
        composed = SteadyState(TRANSIENT, power).step(half, dt / 2.0)[0]
        assert math.isclose(composed, full, rel_tol=1e-12, abs_tol=1e-12)

    @given(st.floats(0.0, 100.0), st.floats(0.0, 40.0), st.floats(-20.0, 120.0))
    def test_never_overshoots(self, dt, power, temp0):
        t_ss = steady_state_temp(TRANSIENT, power)
        after, _, _ = SteadyState(TRANSIENT, power).step(temp0, dt)
        lo, hi = sorted((temp0, t_ss))
        assert lo - 1e-9 <= after <= hi + 1e-9


class TestIntegrateThermalWear:
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

    def test_transient_matches_fine_grid_oracle(self):
        temp, wear, _ = SteadyState(TRANSIENT, 20.0).step(25.0, 5.0)
        reference = oracle_trapezoid_wear(TRANSIENT, 25.0, 20.0, 5.0, 10**4)
        assert wear == pytest.approx(reference, rel=1e-6)
        assert temp == pytest.approx(35.0 - 10.0 * math.exp(-1.0), rel=1e-12)

    def test_end_state_is_the_exact_exponential(self):
        temp, _, _ = SteadyState(TRANSIENT, 12.0).step(28.0, 7.5)
        assert temp == pytest.approx(31.0 - 3.0 * math.exp(-1.5), rel=1e-15)

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

    @staticmethod
    def assert_within_bound(steady, params, temp0, dt, base=8.0):
        """Assert that ``steady.step(temp0, dt)``'s wear is within ``wear_bound(a, base)`` of ``decimal_wear``'s.

        Returns the route the wear took."""
        a = swing(steady, temp0)
        route = route_of(a, dt / steady.tau)
        _, wear, _ = steady.step(temp0, dt)
        reference = decimal_wear(params, temp0, (steady.t_ss - params.t_amb) / params.r_th, dt)
        assert abs(wear - reference) <= wear_bound(a, base) * math.ulp(reference), (a, dt / steady.tau, route)
        return route

    def test_large_swing_at_40_w_matches_oracle(self):
        params = ThermalParams(2.0, 2.5, 25.0, 45.0, 3.6e7)
        assert self.assert_within_bound(SteadyState(params, 40.0), params, 25.0, 2.0) == "e1"

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

    def test_zero_duration(self):
        temp, wear, _ = SteadyState(TRANSIENT, 5.0).step(30.0, 0.0)
        assert wear == 0.0
        assert temp == 30.0

    def test_negative_duration_rejected(self):
        with pytest.raises(DomainError):
            SteadyState(TRANSIENT, 5.0).step(25.0, -1.0)


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
        st.floats(-20.0, 60.0),
        st.floats(1e3, 1e9),
    )
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
        assert abs(wear - reference) <= wear_bound(swing(steady, temp0)) * math.ulp(reference)
        assert steady.step(temp0, 0.0) == (temp0, 0.0, 0.0)

    def test_the_step_fails_as_advance_does(self):
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
    def test_the_span_trace_query_is_advance_at_each_point(self, route, t0, reach, n):
        temp0, power, length = self.ROUTES[route]
        steady = SteadyState(TRANSIENT, power)
        dt = reach * length / n  # the offsets reach up to half a length past the span's end, where they clamp
        k = math.ceil(t0 / dt)
        while k * dt < t0:
            k += 1
        points = steady.trace(temp0, t0, length, dt, k, k + n + 1, 8e8, power, 0.25)
        assert [p[:3] for p in points] == [(i * dt, 8e8, power) for i in range(k, k + n + 1)]
        for p in points:
            temp, wear = steady.step(temp0, min(p.time - t0, length))[:2]
            assert (p.temp, p.cum_wear) == (temp, 0.25 + wear)

    def test_the_span_trace_query_fails_as_advance_does(self):
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
                steady.trace(temp0, 0.0, s, s, k, 2, 8e8, 0.0, 0.0)
            assert str(got.value) == str(want.value)
        slow = ThermalParams(r_th=5000.0, c_th=1.0, t_amb=25.0, t_ref=45.0, l_base=1000.0)
        steady = SteadyState(slow, 20.0)  # a hot steady state that the span does not reach: no overflow
        assert steady.trace(25.0, 0.0, 1e-3, 1e-3, 1, 2, 8e8, 20.0, 0.0)[0][3:] == steady.step(25.0, 1e-3)[:2]
        with pytest.raises(DomainError, match="precedes"):
            steady.trace(25.0, 1.0, 1e-3, 0.5, 1, 2, 8e8, 20.0, 0.0)

    def test_one_record_serves_many_entry_temperatures(self):
        steady = SteadyState(TRANSIENT, 20.0)
        for temp0 in (25.0, 35.0, 80.0, 400.0, 25.0):
            assert steady.step(temp0, 3.0) == SteadyState(TRANSIENT, 20.0).step(temp0, 3.0)
            assert steady.trace(temp0, 0.0, 3.0, 1.0, 0, 4, 8e8, 20.0, 0.0) == SteadyState(TRANSIENT, 20.0).trace(
                temp0, 0.0, 3.0, 1.0, 0, 4, 8e8, 20.0, 0.0)
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
    """The claims of ``_short_swing``'s notes, on the route's edges and inside them, in 60-digit decimals."""

    @staticmethod
    def points():
        """(a, g) on the short-swing route: |a| * g <= 1, and g <= 1/16 unless a < -2."""
        for a in (-709.0, -100.0, -16.0, -2.5, -2.0000001, -2.0, -1.0, -0.3, 0.3, 1.0, 1.5, 2.0, 5.0, 16.0, 709.0):
            edge = 1.0 / abs(a) if a < -2.0 else min(1.0 / 16.0, 1.0 / abs(a))
            for g in (edge, edge / 2.0, edge * 1e-3):
                yield a, g

    @staticmethod
    def q_terms(a: float, g: float) -> list[Decimal]:
        """Q_m = sum_{n=1}^{m-1} g^(m-n) (-a*g)^n/n! for m = 2 .. 61, from that sum."""
        with localcontext() as ctx:
            ctx.prec = 60
            a, g = Decimal(a), Decimal(g)
            return [sum(g ** (m - n) * (-a * g) ** n / math.factorial(n) for n in range(1, m)) for m in range(2, 62)]

    def test_q_stays_below_e(self):
        for a, g in self.points():
            assert max(abs(q) for q in self.q_terms(a, g)) < Decimal(math.e), (a, g)

    def test_on_cooling_the_terms_sum_to_at_most_e_to_the_2_a_g_times_the_total(self):
        # the integrand, exp(-a * (1 - e^-t)), lies between e^(-|a|g) and 1, while the terms' magnitudes are the
        # terms of the integral of exp(|a| * (1 - e^-t)), which lies between 1 and e^(|a|g)
        seen = 0
        for a, g in self.points():
            if a > 1.0:
                x = Decimal(-math.log1p(-g))
                terms = [q / m for m, q in enumerate(self.q_terms(a, g), 2)]
                total = x + sum(terms)
                assert x + sum(map(abs, terms)) <= Decimal(2.0 * a * g).exp() * total, (a, g)
                assert float(total) == pytest.approx(_short_swing(a, float(x), g), rel=1e-15)
                seen += 1
        assert seen == 15


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

    def test_ten_degrees_cooler_doubles_projection(self):
        hot = ThermalParams(r_th=0.5, c_th=10.0, t_amb=50.0, t_ref=50.0, l_base=1000.0)
        cool = ThermalParams(r_th=0.5, c_th=10.0, t_amb=40.0, t_ref=50.0, l_base=1000.0)
        _, wear_hot, _ = SteadyState(hot, 0.0).step(50.0, 200.0)
        _, wear_cool, _ = SteadyState(cool, 0.0).step(40.0, 200.0)
        ratio = project_lifetime(WearLedger(wear_cool, 0.0, 200.0)) / project_lifetime(
            WearLedger(wear_hot, 0.0, 200.0)
        )
        assert ratio == pytest.approx(2.0, rel=1e-9)
