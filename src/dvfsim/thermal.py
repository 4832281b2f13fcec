"""Lumped single-node thermal model and exact thermal-wear integration.

Temperature follows ``c_th * dT/dt = P - (T - t_amb)/r_th``. Under constant power
it relaxes as ``T(t) = T_ss + d0 * exp(-t/tau)`` (``T_ss = t_amb + P * r_th``,
``tau = r_th * c_th``), so piecewise-constant power has no integrator error.
Wear accrues at ``2^((T - t_ref)/10) / l_base`` per second: lifetime halves per
+10 degC. On one interval that rate is ``rate_ss * exp(a * u)``, with
``a = ln2/10 * d0`` and ``u = exp(-t/tau)``, and its integral over [0, s] is the
exponential-integral difference (Abramowitz & Stegun 5.1.10)

    rate_ss * tau * [Ei(a) - Ei(a*u)] = rate_ss * (s + tau * sum_k a^k (1 - u^k) / (k * k!)).

``SteadyState(params, power)`` is the one thermal record: what every interval at
one power shares, so a run builds one per power. Its ``step(temp0, s)``, the
interval query, gives the temperature, this wear and the temperature integral s
seconds into an interval entered at temp0; its ``trace``, the span trace query,
gives the same temperature and wear, bit for bit, at each of a list of trace
grid times, as two columns (temperatures and cumulative wears), working out the
interval's constants once; it builds no record, as the times, freq and power of
the trace points are the caller's. The wear is evaluated in closed form: over a
short interval (``|a| * (1 - u) <= 1``, and ``1 - u <= 1/16`` unless
``a < -2``) by an expansion in ``1 - u``; otherwise for
``a >= -2`` by the series above, in Horner form; otherwise, heating by more than
about 29 degC, where the series' alternating terms would cancel, as
``E1(|a|*u) - E1(|a|)`` (A&S 5.1.11, and the continued fraction 5.1.22 from its
tail). Against a decimal evaluation of the exact integral for the float inputs
given, the wear reads within 8 + 2|a| + 3|E| ulp on the short-swing and E1
routes, E being the exponent of the rate the route scales by (exponent_ss + a;
on the series exponent_ss; on E1 exponent_ss + a - a*g): rounding a and s/tau
moves exp(a*u) by |a| times their relative error, and exp turns E's absolute
error, about |E| * 2^-53 per rounding, into the same relative error of the wear.
Measured on the tests' grid (|a| up to 709, both sides of each route boundary)
and 850,000 seeded points, t_ref from -200 to 200 degC and |E| up to 49; the
worst of 397,598 on E1 read 70 ulp at a = -4.16, E = 18.8. The series is held to
40 + 2|a| + 3|E|, also measured: heating with a from -2 to -0.5, just past the
short-swing route, its alternating terms cancel and its Horner roundings add up
by chance; 4,200,000 seeded points there, at E = 0, read up to 32.1 + 2|a| ulp
(36 at a = -1.94, s/tau = 0.074). The tests hold these bounds on their grid and
on random points. ``step`` alone checks the swing and takes the E1 route;
``trace`` repeats the other two routes, bit for bit, with their constants
hoisted, and calls ``step`` for E1 and any failure.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from itertools import accumulate

from .errors import DomainError, Violation, _finite

_LN2_OVER_10 = math.log(2.0) / 10.0
_EULER_GAMMA = 0.5772156649015329
_EPS = 2.0**-56  # relative truncation of the short swing and the series
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


class SteadyState(namedtuple("_SteadyStateFields", "t_ss tau exponent_ss wear_scale")):
    """The thermal record of every interval at one power, built from (params, power): the steady state,
    ``tau``, the steady-state wear rate's exponent and ``tau / l_base``. Immutable. The rate is kept as its
    exponent, ``exp(exponent_ss) / l_base``, so that only rates a trajectory actually reaches are formed.

    ``step(temp0, s)`` is the interval query and ``trace(temp0, t0, length, times, wear0)`` the span trace
    query; both take the interval's entry temperature, so one record serves every interval at its power.
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

    def trace(self, temp0: float, t0: float, length: float, times, wear0: float) -> tuple[list[float], list[float]]:
        """The span trace query: (temps, wears), one of each per time in ``times``, a non-empty ascending list,
        where the interval was entered at ``temp0`` at time ``t0 <= times[0]`` and lasts ``length`` seconds, and
        each (temp, wear - wear0) is ``step(temp0, min(time - t0, length))[:2]`` bit for bit.

        The route flags, the series' sums and each route's scale, ``exp(exponent) * wear_scale``, are worked
        out once per call, a route's scale only when a point first takes that route; the E1 route and every
        non-finite swing or wear go through ``step``'s own routing, so a failure is the DomainError it raises.
        """
        if times[0] < t0:
            raise DomainError(f"trace time {times[0]:g} s precedes the interval's start {t0:g} s")
        t_ss, tau, exponent_ss, wear_scale = self
        d0 = temp0 - t_ss
        a = _LN2_OVER_10 * d0
        size = abs(a)
        steep = a < _SERIES_MIN_A  # only the short-swing route or E1
        series = not steep and a <= _MAX_A  # False for a swing that is NaN or inf: those fall through to step
        short_g = _SHORT_G
        expm1 = math.expm1
        inf = math.inf
        short_scale = series_scale = tails = None
        temps = []
        wears = []
        temp_append = temps.append
        wear_append = wears.append
        for time in times:
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
            temp_append(temp0 - d0 * g)
            wear_append(wear0 + wear)
        return temps, wears


def _scale(exponent: float, wear_scale: float) -> float:
    """exp(exponent) * wear_scale, the factor of a route's wear integral; inf if the exponential overflows."""
    try:
        return math.exp(exponent) * wear_scale
    except OverflowError:
        return math.inf


@lru_cache(maxsize=1)  # a traced span's step and its trace queries share one interval's sums
def _series_tail_sums(a: float) -> tuple[float, ...]:
    """Suffix sums T_j = sum_{k>j} a^k/(k*k!), highest j first, for Horner's rule.

    They keep k = 1 .. K, K the first k > |a| where a^k/k! is below 2^-56 of e^a's partial sum. As
    1 - u^k <= min(1, k*g), the rest of the integral I = x + sum_k a^k (1 - u^k)/(k*k!) is at most
    min(g, 1/(K+1)) * 2^-56 e^a * |a|/(K+1-|a|), while I >= g*e^a for a <= 0, I >= e^a (1 - e^(-a*g))/a for a > 0,
    and min(a*g, a/(K+1)) <= e/(e-1) * (1 - e^(-a*g)). So the truncation is at most e/(e-1) * |a|/(K+1-|a|) * 2^-56
    of I, below 5 * 2^-56 for a up to 709.
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

    Expanding exp(-a * (1 - e^-t)) in powers of g gives x + sum_{m>=2} Q_m/m, with Q_m = g^m S_(m-1) and
    S_n = sum_{k=1}^{n} (-a)^k/k!, summed through r_m = (-a*g)^(m-1)/(m-1)! and Q_m = g * (Q_(m-1) + r_m). The sum
    stops once |Q_m| <= m*T and g*|r_m| <= m*T, T = 2^-56 * total. Both then hold at m + 1: |r_(m+1)| <= |r_m|/m as
    |a|*g <= 1, so g*|r_(m+1)| <= T, and |Q_(m+1)| <= g*m*T + T <= (m + 1)*T as g < 1. So every later term is below
    T, under a quarter ulp of the total, and leaves it as it is. For a <= 1 the first bound gives the second:
    g*|r_m| is g^m times S_(m-1)'s last term, no larger than |S_(m-1)| (for a < 0 all the terms are positive; for
    0 < a <= 1, S_n lies in [-a, -a + a^2/2] and the terms past the first are at most a^2/2). For finite x >= 0 the
    terms fall to 0 and the total does not, so the loop ends. A negative or NaN x, or a NaN a or g, would make the
    stop test fail forever, so one comparison before the loop raises DomainError unless x >= 0 and a * g is finite.
    """
    ag = -a * g
    if not x >= 0.0 * ag:  # 0.0 * ag is +-0.0, or NaN where a * g is not finite, and NaN compares false
        raise DomainError(f"the short swing needs x >= 0 and a finite a * g (got a={a!r}, x={x!r}, g={g!r})")
    r = 1.0  # r_m
    q = 0.0  # Q_m
    total = x
    m = 1
    while True:
        m += 1
        r *= ag / (m - 1)
        q = g * (q + r)
        term = q / m
        total += term
        tol = _EPS * total
        if -tol <= term <= tol and (a <= 1.0 or -m * tol <= g * r <= m * tol):
            return total


def _scaled_e1(z: float, log_z: float) -> float:
    """e^z * E1(z) for z > 0; ``log_z`` stays exact if z underflows."""
    if z <= 1.0:
        # A&S 5.1.11 through k = 17: the sum of (-z)^k/(k*k!) is at least 3z/4 in size and its k-th term at most
        # z/(k*k!), so from k = 18 on, as 18*18! > 2^56 * 4/3, each term is below 2^-56 of it and leaves it as it is
        t = 1.0
        total = 0.0
        for k in range(1, 18):
            t *= -z / k
            total += t / k
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
