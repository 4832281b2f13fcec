"""Lumped single-node thermal model and exact thermal-wear integration.

Temperature follows ``c_th * dT/dt = P - (T - t_amb)/r_th``. Under constant power
it relaxes as ``T(t) = T_ss + d0 * exp(-t/tau)`` (``T_ss = t_amb + P * r_th``,
``tau = r_th * c_th``), so piecewise-constant power has no integrator error.
Wear accrues at ``2^((T - t_ref)/10) / l_base`` per second: lifetime halves per
+10 degC. On one interval that rate is ``rate_ss * exp(a * u)``, with
``a = ln2/10 * d0`` and ``u = exp(-t/tau)``, and its integral over [0, s] is the
exponential-integral difference (Abramowitz & Stegun 5.1.10)

    rate_ss * tau * [Ei(a) - Ei(a*u)] = rate_ss * (s + tau * sum_k a^k (1 - u^k) / (k * k!)).

``SteadyState(params, power)`` is the one thermal record: what every interval
at one power shares, so a run builds one per power. Its ``step(temp0, s)``, the
interval query, gives the temperature, this wear and the temperature integral
s seconds into an interval entered at temp0; its ``trace``, the span trace
query, gives the same temperature and wear, bit for bit, at each point of a
run of trace grid times, working out the interval's constants once. The wear
is evaluated in closed form: over a short interval (``|a| * (1 - u) <= 1``,
and ``1 - u <= 1/16`` unless ``a < -2``) by an expansion in ``1 - u``;
otherwise for ``a >= -2`` by the series above, in Horner form; otherwise,
heating by more than about 29 degC, where the series' alternating terms would
cancel, as ``E1(|a|*u) - E1(|a|)`` (A&S 5.1.11, and the continued fraction
5.1.22 from its tail). Against a decimal evaluation of the exact integral for
the float temperatures and duration given (the tests' grid, which reaches
|a| = 709 and both sides of each route boundary, and 22,500 random points, |a|
up to 709, s/tau from 1e-6 to 50, 7,500 on E1), the wear read within 4 + 2|a|
ulp on the short-swing and E1 routes. The series is held to 40 + 2|a|, a
measured bound: heating with a from -2 to -0.5, its alternating terms cancel
and the roundings of its Horner steps add up by chance, most just past the
short-swing route; 4,200,000 seeded points there read up to 32.1 + 2|a| ulp (36
ulp at a = -1.94, s/tau = 0.074), each further 5 ulp holding about a tenth as
many points as the 5 before. The part that grows with |a| comes from rounding
a, s/tau and the exponents, each of which moves exp(a*u) by |a| times its
relative error. The tests hold every route to 8 + 2|a| ulp on their grid, and
the series to 40 + 2|a| on 4,000 seeded points of that kind. ``step`` is the
one place the swing is checked and the E1 route is taken; ``trace`` repeats the
other two routes, bit for bit, with their constants hoisted, and calls ``step``
for E1 and for any failure.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from itertools import accumulate

from .errors import DomainError, Violation, _finite

_LN2_OVER_10 = math.log(2.0) / 10.0
_EULER_GAMMA = 0.5772156649015329
_EPS = 2.0**-56  # relative truncation of every series
_SERIES_MIN_A = -2.0  # below this the plain series loses digits to cancellation
_SHORT_G = 1.0 / 16.0  # up to this rise the short-swing expansion needs few terms
_MAX_A = 709.0  # the series' terms reach e^a / sqrt(2*pi*a), which overflows beyond this


class ThermalParams(namedtuple("_ThermalParamsFields", "r_th c_th t_amb t_ref l_base")):
    """Thermal resistance/capacitance, ambient, and the wear reference point.

    r_th in K/W, c_th in J/K, temperatures in degC, l_base in seconds of
    baseline lifetime at the reference temperature.
    """

    __slots__ = ()

    @property
    def tau(self) -> float:
        """Thermal time constant r_th * c_th in seconds."""
        return self.r_th * self.c_th


def validate_thermal(params: ThermalParams) -> list[Violation]:
    """Every ThermalParams rule, as Violations; empty when it is valid. The two temperatures must be finite
    numbers and the other fields finite and > 0."""
    v = []
    for name, value in zip(params._fields, params):
        if name in ("t_amb", "t_ref"):
            if not _finite(value):
                v.append(Violation(f"thermal.{name}", "must be a finite number"))
        elif not _finite(value) or value <= 0:
            v.append(Violation(f"thermal.{name}", "must be finite and > 0"))
    return v


class WearLedger(namedtuple("_WearLedgerFields", "thermal_wear shock_wear elapsed", defaults=(0.0, 0.0, 0.0))):
    """Accumulated wear fractions; a component fails when the total reaches 1."""

    __slots__ = ()

    @property
    def total(self) -> float:
        return self.thermal_wear + self.shock_wear


def steady_state_temp(params: ThermalParams, power: float) -> float:
    """Equilibrium temperature under constant power: t_amb + P * r_th."""
    if power < 0:
        raise DomainError(f"power must be >= 0 (got {power})")
    return params.t_amb + power * params.r_th


TracePoint = namedtuple("TracePoint", "time freq power temp cum_wear")  # a span's operating point and thermal state


class SteadyState(namedtuple("_SteadyStateFields", "t_ss tau exponent_ss wear_scale")):
    """The thermal record of every interval at one power, built from (params, power): the steady state,
    ``tau``, the steady-state wear rate's exponent and ``tau / l_base``. Immutable. The rate is kept as its
    exponent, ``exp(exponent_ss) / l_base``, so that only rates a trajectory actually reaches are formed.

    ``step(temp0, s)`` is the interval query and ``trace(...)`` the span trace query; both take the
    interval's entry temperature, so one record serves every interval at its power.
    """

    __slots__ = ()

    def __new__(cls, params: ThermalParams, power: float):
        if violations := validate_thermal(params):
            raise DomainError("; ".join(map(str, violations)))
        t_ss = steady_state_temp(params, power)
        tau = params.tau
        return tuple.__new__(cls, (t_ss, tau, _LN2_OVER_10 * (t_ss - params.t_ref), tau / params.l_base))

    def step(self, temp0: float, s: float) -> tuple[float, float, float]:
        """(temperature, wear fraction, temperature integral in degC * s) s >= 0 seconds into the interval
        at this power entered at ``temp0``, from a single exponential. Chain intervals by entering the next
        at ``step(temp0, s)[0]``. Raises DomainError if the swing is not finite, ``s < 0`` or the wear is not
        finite.

        The wear is routed as in the module notes, to exp(exponent) * tau/l_base * integral; ``trace`` repeats
        the short-swing and series routes and calls ``step`` for the rest.
        """
        t_ss, tau, exponent_ss, wear_scale = self
        d0 = temp0 - t_ss
        a = _LN2_OVER_10 * d0
        if not math.isfinite(a):
            raise DomainError(f"temperature {temp0:g} degC or steady state {t_ss:g} degC is not finite")
        if not s >= 0:  # NaN too
            raise DomainError(f"duration must be >= 0 (got {s})")
        x = s / tau
        g = -math.expm1(-x)  # the fraction of the way from temp0 to t_ss
        if abs(a) * g <= 1.0 and (g <= _SHORT_G or a < _SERIES_MIN_A):
            exponent = exponent_ss + a  # the rate at temp0
            integral = _short_swing(a, x, g)
        elif a >= _SERIES_MIN_A:
            if a > _MAX_A:
                raise DomainError(f"cooling from {temp0:g} degC toward {t_ss:g} degC is beyond float range")
            # x + sum_k a^k (1 - u^k)/(k*k!) = x + g * sum_j T_j u^j with T_j = sum_{k>j} a^k/(k*k!)
            u = 1.0 - g
            q = 0.0
            for t in _series_tail_sums(a):
                q = q * u + t
            exponent = exponent_ss
            integral = x + g * q
        else:
            # E1(z) - E1(b) = e^-z * (e^z E1(z) - e^(a*g) * e^b E1(b)), with b = -a and z = b*u = b + a*g; the
            # exponent takes -z as a - a*g, because z rounded to a float would move the rate by up to |a| ulp
            b = -a
            ag = a * g
            log_b = math.log(b)
            exponent = exponent_ss + a - ag  # the rate at the end of the interval
            integral = _scaled_e1(b * math.exp(-x), log_b - x) - math.exp(ag) * _scaled_e1(b, log_b)
        wear = _scale(exponent, wear_scale) * integral
        if not math.isfinite(wear):
            raise DomainError(f"thermal wear from {temp0:g} degC toward {t_ss:g} degC overflows")
        return temp0 - d0 * g, wear, t_ss * s + d0 * tau * g

    def trace(self, temp0: float, t0: float, length: float, dt: float, k: int, m: int, freq, power,
              wear0: float) -> list[TracePoint]:
        """The span trace query: ``TracePoint(i * dt, freq, power, temp, wear0 + wear)`` for each ``k <= i < m``,
        where the interval was entered at ``temp0`` at time ``t0 <= k * dt``, lasts ``length`` seconds, and
        (temp, wear) is ``step(temp0, min(i * dt - t0, length))[:2]`` bit for bit.

        The route flags, the series' sums and each route's scale, ``exp(exponent) * wear_scale``, are worked
        out once per call, a route's scale only when a point first takes that route; the E1 route and every
        non-finite swing or wear go through ``step``'s own routing, so a failure is the DomainError it raises.
        """
        if k * dt < t0:
            raise DomainError(f"trace time {k * dt:g} s precedes the interval's start {t0:g} s")
        t_ss, tau, exponent_ss, wear_scale = self
        d0 = temp0 - t_ss
        a = _LN2_OVER_10 * d0
        size = abs(a)
        steep = a < _SERIES_MIN_A  # only the short-swing route or E1
        series = not steep and a <= _MAX_A  # False for a swing that is NaN or inf: those fall through to step
        short_g = _SHORT_G
        expm1 = math.expm1
        inf = math.inf
        new = tuple.__new__  # builds a TracePoint without the Python-level call of TracePoint(...)
        short_scale = series_scale = tails = None
        points = []
        append = points.append
        for i in range(k, m):
            time = i * dt
            s = time - t0
            if s > length:  # only where the clock rounded the span's end up
                s = length
            x = s / tau
            g = -expm1(-x)
            if size * g <= 1.0 and (g <= short_g or steep):
                if short_scale is None:
                    short_scale = _scale(exponent_ss + a, wear_scale)
                wear = short_scale * _short_swing(a, x, g)
            elif series:
                if tails is None:
                    tails = _series_tail_sums(a)
                    series_scale = _scale(exponent_ss, wear_scale)
                u = 1.0 - g
                q = 0.0
                for t in tails:
                    q = q * u + t
                wear = series_scale * (x + g * q)
            else:
                wear = inf  # the E1 route, which only the step takes
            if not wear < inf:  # E1, or a wear that is not finite: the step's routing, or its DomainError
                wear = self.step(temp0, s)[1]
            append(new(TracePoint, (time, freq, power, temp0 - d0 * g, wear0 + wear)))
        return points


def _scale(exponent: float, wear_scale: float) -> float:
    """exp(exponent) * wear_scale, the factor of a route's wear integral; inf if the exponential overflows."""
    try:
        return math.exp(exponent) * wear_scale
    except OverflowError:
        return math.inf


@lru_cache(maxsize=1)  # a traced span's step and its trace queries share one interval's sums
def _series_tail_sums(a: float) -> tuple[float, ...]:
    """Suffix sums T_j = sum_{k>j} a^k/(k*k!), highest j first, for Horner's rule.

    The series stops once a^k/k! falls below 2^-56 of the partial sum of e^a,
    which bounds the truncation relative to the wear integral.
    """
    terms = []
    size = abs(a)
    c = 1.0  # a^k / k!
    exp_a = 1.0  # partial sum of e^a
    k = 0
    while True:
        k += 1
        c *= a / k
        exp_a += c
        terms.append(c / k)
        if k > size and abs(c) <= _EPS * exp_a:
            return tuple(accumulate(reversed(terms)))


def _short_swing(a: float, x: float, g: float) -> float:
    """e^-a times the integral of exp(a * e^-t) over [0, x], for |a| * g <= 1 and g = 1 - e^-x.

    Expanding exp(-a * (1 - e^-t)) in powers of g gives
    x + sum_{m>=2} g^m/m * sum_{n=1}^{m-1} (-a)^n/n!, summed here through
    Q_m = sum_n g^(m-n) (-a*g)^n/n!, which stays below e whatever the size of a.
    On heating (a < 0) the terms are all positive and fall at least as fast as
    g + 1/m, and for 0 <= a <= 1 the partial sums of e^-a - 1 lie between -a and
    -a + a^2/2, at least a/2 from 0, so the sum ends at the first term below the
    tolerance. Beyond, the terms' magnitudes sum to at most e^(2*|a|*g) <= e^2
    times the total, but a partial sum that cancels to near 0 by chance makes
    one term tiny and the next not (at a = 2, Q_3 is 0), so the sum ends at the
    second such term in a row; a term below the tolerance is below a quarter ulp
    of the total and leaves it as it is.
    """
    ag = -a * g
    r = 1.0  # (-a*g)^(m-1) / (m-1)!
    q = 0.0
    total = x
    single = a <= 1.0  # one small term ends the sum
    prev = math.inf  # the term before this one
    m = 1
    while True:
        m += 1
        r *= ag / (m - 1)
        q = g * (q + r)
        term = q / m
        total += term
        tol = _EPS * total
        if -tol <= term <= tol and (single or -tol <= prev <= tol):
            return total
        prev = term


def _scaled_e1(z: float, log_z: float) -> float:
    """e^z * E1(z) for z > 0; ``log_z`` stays exact if z underflows."""
    if z <= 1.0:  # A&S 5.1.11
        t = 1.0
        total = 0.0
        k = 0
        while True:
            k += 1
            t *= -z / k
            total += t / k
            if abs(t) <= _EPS * abs(total):
                return math.exp(z) * (-_EULER_GAMMA - log_z - total)
    # A&S 5.1.22, 1/(z + 1 - 1/(z + 3 - 4/(z + 5 - ...))), evaluated from its tail 16 + ceil(128/z) levels deep:
    # there the truncation is below 2^-64 of e^z E1(z) on (1, 709], least at the float after 1 (2^-64.8; 141
    # levels are the fewest that reach 2^-64 there). That depth gave the float 300 levels give on 14,000 z, and
    # the result read within 2.3 ulp of a 50-digit evaluation. The series above reads 5.0 ulp high at z = 1.
    t = 0.0
    for i in range(16 + math.ceil(128.0 / z), 0, -1):
        t = i * i / (z + (2 * i + 1) - t)
    return 1.0 / (z + 1.0 - t)


def project_lifetime(ledger: WearLedger) -> float:
    """Extrapolate time-to-failure from the run's average wear rate.

    Returns elapsed/total_wear, i.e. the time at which cumulative wear reaches 1
    if the run's average rate persisted; ``inf`` when no wear accrued. A run's ``elapsed`` is > 0.
    """
    if ledger.total <= 0:
        return math.inf
    return ledger.elapsed / ledger.total
