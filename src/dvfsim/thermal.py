"""Lumped single-node thermal model and exact thermal-wear integration.

Temperature follows ``c_th * dT/dt = P - (T - t_amb)/r_th``. Under constant power
it relaxes as ``T(t) = T_ss + d0 * exp(-t/tau)`` (``T_ss = t_amb + P * r_th``,
``tau = r_th * c_th``), so piecewise-constant power has no integrator error.
Wear accrues at ``2^((T - t_ref)/10) / l_base`` per second: lifetime halves per
+10 degC. On one interval that rate is ``rate_ss * exp(a * u)``, with
``a = ln2/10 * d0`` and ``u = exp(-t/tau)``, and its integral over [0, s] is the
exponential-integral difference (Abramowitz & Stegun 5.1.10)

    rate_ss * tau * [Ei(a) - Ei(a*u)] = rate_ss * (s + tau * sum_k a^k (1 - u^k) / (k * k!)).

``Segment.advance(s)``, the interval's query, gives the temperature, this wear
and the temperature integral s seconds into an interval; ``Segment.trace``, the
span trace query beside it, gives the same temperature and wear, bit for bit, at
each point of a run of trace grid times, working out the interval's constants
once. Both evaluate the wear in closed form, to a few units of rounding error:
over a short interval
(``|a| * (1 - u) <= 1``, and ``1 - u <= 1/16`` unless ``a < -2``) by an
expansion in ``1 - u``; otherwise for ``a >= -2`` by the series above, in
Horner form; otherwise, heating by more than about 29 degC, where the series'
alternating terms would cancel, as ``E1(|a|*u) - E1(|a|)`` (A&S 5.1.11, and
the continued fraction 5.1.22).
``SteadyState(params, power).segment(temp0)`` builds the Segment from what
every interval at one power shares, so a run computes that once per power; its
``step(temp0, s)`` is ``segment(temp0).advance(s)``, bit for bit, without
building the Segment, for an interval that no trace samples. ``advance``,
``step`` and ``trace``'s fallback all route the wear through one function.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from itertools import accumulate

from .errors import DomainError

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
    """What every interval at one power shares, built from (params, power): the steady
    state, ``tau``, the steady-state wear rate's exponent and ``tau / l_base``.
    Immutable; ``segment(temp0)`` starts an interval at this power, and ``step(temp0, s)``
    steps one without building its Segment."""

    __slots__ = ()

    def __new__(cls, params: ThermalParams, power: float):
        t_ss = steady_state_temp(params, power)
        tau = params.tau
        return tuple.__new__(cls, (t_ss, tau, _LN2_OVER_10 * (t_ss - params.t_ref), tau / params.l_base))

    def segment(self, temp0: float) -> Segment:
        """The interval at this power entered at ``temp0``; raises DomainError if the swing is not finite."""
        t_ss, tau, exponent_ss, wear_scale = self
        d0 = temp0 - t_ss
        a = _LN2_OVER_10 * d0
        if not math.isfinite(a):
            raise _not_finite(temp0, t_ss)
        return tuple.__new__(Segment, (temp0, t_ss, tau, d0, a, exponent_ss, wear_scale))

    def step(self, temp0: float, s: float) -> tuple[float, float, float]:
        """``segment(temp0).advance(s)``, bit for bit and with its DomainErrors, without building the Segment:
        the query for an interval that no trace samples."""
        t_ss, tau, exponent_ss, wear_scale = self
        d0 = temp0 - t_ss
        a = _LN2_OVER_10 * d0
        if not math.isfinite(a):
            raise _not_finite(temp0, t_ss)
        return _advance(temp0, t_ss, tau, d0, a, exponent_ss, wear_scale, s)


TracePoint = namedtuple("TracePoint", "time freq power temp cum_wear")  # a span's operating point and thermal state


class Segment(namedtuple("_SegmentFields", "temp0 t_ss tau d0 a exponent_ss wear_scale")):
    """Exact temperature and wear trajectory of one constant-power interval.

    Built by ``SteadyState(params, power).segment(temp0)``; ``s`` is the time in
    seconds since the interval began. Immutable. The steady-state wear rate is kept as
    its exponent, ``exp(exponent_ss) / l_base``, so that only rates the
    trajectory actually reaches are ever formed.
    """

    __slots__ = ()

    def advance(self, s: float) -> tuple[float, float, float]:
        """(temperature, wear fraction, temperature integral in degC * s) s >= 0 seconds in.

        The interval's query, from a single exponential; ``trace`` samples a span's trace. Chain intervals with
        ``SteadyState(params, power).segment(seg.advance(s)[0])``. Raises DomainError if the wear overflows.
        """
        return _advance(*self, s)

    def trace(self, t0: float, length: float, dt: float, k: int, m: int, freq, power, wear0: float) -> list[TracePoint]:
        """The span trace query: ``TracePoint(i * dt, freq, power, temp, wear0 + wear)`` for each ``k <= i < m``,
        where the interval began at time ``t0 <= k * dt``, lasts ``length`` seconds, and (temp, wear) is
        ``advance(min(i * dt - t0, length))[:2]`` bit for bit.

        The route flags, the series' sums and each route's scale, ``exp(exponent) * wear_scale``, are worked
        out once per call, a route's scale only when a point first takes that route; the E1 route and every
        non-finite wear go through ``advance``'s own routing, so a failure is the DomainError it raises.
        """
        if k * dt < t0:
            raise DomainError(f"trace time {k * dt:g} s precedes the interval's start {t0:g} s")
        temp0, _, tau, d0, a, exponent_ss, wear_scale = self
        size = abs(a)
        steep = a < _SERIES_MIN_A  # only the short-swing route or E1
        series = not steep and a <= _MAX_A
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
                wear = _advance(*self, s)[1]
            if not wear < inf:
                wear = _advance(*self, s)[1]  # the same product, not finite: raises the DomainError
            append(new(TracePoint, (time, freq, power, temp0 - d0 * g, wear0 + wear)))
        return points


def _advance(temp0, t_ss, tau, d0, a, exponent_ss, wear_scale, s: float) -> tuple[float, float, float]:
    """``Segment.advance(s)`` of the interval with these fields: the one place the wear is routed, as in the
    module notes, to exp(exponent) * tau/l_base * integral. Raises DomainError if ``s < 0`` or the wear
    is not finite."""
    if s < 0:
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
        # E1(z) - E1(b) = e^-z * (e^z E1(z) - e^(z-b) * e^b E1(b)), with z = b*u
        b = -a
        z = b * math.exp(-x)
        log_b = math.log(b)
        exponent = exponent_ss - z  # the rate at the end of the interval
        integral = _scaled_e1(z, log_b - x) - math.exp(z - b) * _scaled_e1(b, log_b)
    wear = _scale(exponent, wear_scale) * integral
    if not math.isfinite(wear):
        raise DomainError(f"thermal wear from {temp0:g} degC toward {t_ss:g} degC overflows")
    return temp0 - d0 * g, wear, t_ss * s + d0 * tau * g


def _not_finite(temp0: float, t_ss: float) -> DomainError:
    return DomainError(f"temperature {temp0:g} degC or steady state {t_ss:g} degC is not finite")


def _scale(exponent: float, wear_scale: float) -> float:
    """exp(exponent) * wear_scale, the factor of a route's wear integral; inf if the exponential overflows."""
    try:
        return math.exp(exponent) * wear_scale
    except OverflowError:
        return math.inf


@lru_cache(maxsize=1)  # a span's advance in the run and its trace query in a traced run share one segment's sums
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
    The terms fall at least as fast as g + 1/m; on heating (a < 0) they are all
    positive, and on cooling the partial sums cancel by at most e^(2*|a|*g).
    """
    ag = -a * g
    r = 1.0  # (-a*g)^(m-1) / (m-1)!
    q = 0.0
    total = x
    m = 1
    while True:
        m += 1
        r *= ag / (m - 1)
        q = g * (q + r)
        term = q / m
        total += term
        tol = _EPS * total
        if -tol <= term <= tol:
            return total


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
    # A&S 5.1.22 by the modified Lentz method: 1 / (z + 1 - 1/(z + 3 - 4/(z + 5 - ...))). Measured for z > 1
    # against a 50-digit evaluation: it stops within 102 steps (the most just above z = 1; 47 past z = 2) and
    # reads within 70 ulp of e^z E1(z) on (1, 2], 25 ulp on (2, 10] and 8 ulp beyond. The series above reads
    # 5.0 ulp high at z = 1, and the fraction 13.2 ulp low at the next float.
    den = z + 1.0
    c = 1.0 / 1e-300
    d = 1.0 / den
    h = d
    for i in range(1, 1000):
        num = -float(i * i)
        den += 2.0
        d = 1.0 / (num * d + den)
        c = den + num / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) <= 2.0**-52:
            break
    return h


def project_lifetime(ledger: WearLedger) -> float:
    """Extrapolate time-to-failure from the run's average wear rate.

    Returns elapsed/total_wear, i.e. the time at which cumulative wear reaches 1
    if the run's average rate persisted; ``inf`` when no wear accrued.
    """
    if ledger.elapsed <= 0:
        raise DomainError("lifetime projection needs elapsed > 0")
    if ledger.total <= 0:
        return math.inf
    return ledger.elapsed / ledger.total
