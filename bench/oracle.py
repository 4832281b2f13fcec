"""Reference model for checking dvfsim runs, written apart from the program.

It reads only a scenario document (the JSON the CLI was given) and a run's
public outputs: each task's start, finish and level, and the transition log.
From those it rebuilds the piecewise-constant power profile with its own copy
of the power formula, then integrates temperature and thermal wear over it
exactly, in 40-digit ``decimal`` arithmetic.

On one constant-power interval of length dt the temperature is
``T(t) = T_ss + d0*exp(-t/tau)`` and the wear rate is
``rate_ss * exp(a*exp(-t/tau))`` with ``a = ln2/10 * d0``. Its integral is the
exponential-integral difference ``rate_ss*tau*[Ei(a) - Ei(a*u)]``,
``u = exp(-dt/tau)``, which by the power series of Ei (Abramowitz & Stegun
5.1.10) is ``rate_ss*(dt + tau*sum_k a^k (1 - u^k) / (k*k!))``.

``python3 bench/oracle.py`` runs the self-test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext

PREC = 40
_TINY = Decimal(10) ** -(PREC + 5)
_MAX_A = 50  # the series needs ~|a| extra digits; beyond this use another method


@dataclass(frozen=True)
class Interval:
    t0: float
    t1: float
    freq: float
    power: float
    active: bool
    task: int | None  # index of the task executing, None when idle


@dataclass(frozen=True)
class Thermal:
    """Totals of the exact temperature and wear integration over a profile."""

    wear: float
    peak: float
    temp_integral: float
    start_temps: tuple[float, ...]  # temperature at each interval's start


def levels(doc) -> list[tuple[float, float]]:
    return [(lv["freq_hz"], lv["vdd_v"]) for lv in doc["processor"]["levels"]]


def active_power(doc, freq: float, vdd: float) -> float:
    p = doc["processor"]
    return p["coeff_a"] * freq * vdd**2 + p["coeff_b"] * vdd + p["p_device_w"]


def f_span(doc) -> float:
    ladder = levels(doc)
    return doc["wear"].get("f_span_hz", ladder[-1][0] - ladder[0][0])


def shock(doc, delta_f: float, alpha: float | None = None) -> float:
    w = doc["wear"]
    return w["k_shock"] * (delta_f / f_span(doc)) ** (w["alpha"] if alpha is None else alpha)


def governor_choice(doc, cycles: float, deadline: float, start: float) -> tuple[int, bool]:
    """(level index, infeasible) the scenario's governor should pick at ``start``.

    Infeasible tasks run at the top level. min_energy charges active power for
    the run time and idle power for the rest of the window; ties go low.
    """
    gov = doc["governor"]
    ladder = levels(doc)
    if gov["kind"] == "fixed":
        return gov["fixed_index"], False
    window = deadline - start
    feasible = [i for i, (f, _) in enumerate(ladder) if cycles / f <= window]
    if not feasible:
        return len(ladder) - 1, True
    if gov["kind"] == "lowest_feasible":
        return feasible[0], False
    p_idle = doc["processor"]["p_idle_w"]
    best, best_e = None, math.inf
    for i in feasible:
        f, vdd = ladder[i]
        t_run = cycles / f
        e = active_power(doc, f, vdd) * t_run + p_idle * (window - t_run)
        if e < best_e:
            best, best_e = i, e
    return best, False


def rebuild_profile(doc, tasks, log, end: float) -> list[Interval]:
    """Constant-power intervals from [(start, finish)] per task and the hop log.

    ``log`` is a sequence of (time, from_hz, to_hz). A hop at time t sets the
    clock for the interval that starts at t; the processor starts at the
    bottom level. A task is active on [start, finish).
    """
    ladder = levels(doc)
    vdd_of = dict(ladder)
    p_idle = doc["processor"]["p_idle_w"]
    cuts = {0.0, end}
    for start, finish in tasks:
        cuts.update((start, finish))
    cuts.update(t for t, _, _ in log)
    cuts = sorted(c for c in cuts if c <= end)
    order = sorted(range(len(tasks)), key=lambda i: tasks[i][0])
    freq = ladder[0][0]
    h = k = 0
    out = []
    for a, b in zip(cuts, cuts[1:]):
        while h < len(log) and log[h][0] <= a:
            freq = log[h][2]
            h += 1
        while k < len(order) and tasks[order[k]][1] <= a:
            k += 1
        running = order[k] if k < len(order) and tasks[order[k]][0] <= a else None
        power = active_power(doc, freq, vdd_of[freq]) if running is not None else p_idle
        out.append(Interval(a, b, freq, power, running is not None, running))
    return out


def _series(a: Decimal, u: Decimal) -> Decimal:
    """sum_{k>=1} a^k (1 - u^k) / (k*k!), i.e. Ei(a) - Ei(a*u) + ln(u)."""
    total = Decimal(0)
    ak = Decimal(1)  # a^k / k!
    uk = Decimal(1)
    k = 0
    while True:
        k += 1
        ak = ak * a / k
        uk *= u
        total += ak * (1 - uk) / k
        if abs(ak) < _TINY * (1 + abs(total)):
            return total


class _Exact:
    """Closed-form temperature, temperature integral and wear of one interval."""

    def __init__(self, thermal):
        self.r_th = Decimal(thermal["r_th_k_per_w"])
        self.tau = self.r_th * Decimal(thermal["c_th_j_per_k"])
        self.t_amb = Decimal(thermal["t_amb_c"])
        self.t_ref = Decimal(thermal["t_ref_c"])
        self.inv_life = 1 / (Decimal(thermal["l_base_hours"]) * 3600)
        self.c = Decimal(2).ln() / 10
        self._rate: dict[float, Decimal] = {}

    def interval(self, power: float, temp0: Decimal, dt: Decimal) -> tuple[Decimal, Decimal, Decimal]:
        """(wear, end temperature, integral of temperature) over dt at constant power."""
        t_ss = self.t_amb + Decimal(power) * self.r_th
        if power not in self._rate:
            self._rate[power] = (self.c * (t_ss - self.t_ref)).exp() * self.inv_life
        d0 = temp0 - t_ss
        a = self.c * d0
        if abs(a) > _MAX_A:
            raise ValueError(f"temperature swing {d0} K is beyond the series oracle")
        u = (-dt / self.tau).exp()
        wear = self._rate[power] * (dt + self.tau * _series(a, u))
        return wear, t_ss + d0 * u, t_ss * dt + d0 * self.tau * (1 - u)


def integrate(doc, profile: list[Interval]) -> Thermal:
    """Exact temperature trajectory and thermal wear over a power profile from ambient."""
    with localcontext() as ctx:
        ctx.prec = PREC
        exact = _Exact(doc["thermal"])
        temp = peak = exact.t_amb
        wear = temp_integral = Decimal(0)
        starts = []
        for iv in profile:
            starts.append(float(temp))
            w, temp, ti = exact.interval(iv.power, temp, Decimal(iv.t1) - Decimal(iv.t0))
            wear += w
            temp_integral += ti
            peak = max(peak, temp)
        return Thermal(float(wear), float(peak), float(temp_integral), tuple(starts))


def interval_wear(thermal, power: float, temp0: float, dt: float) -> float:
    """Exact wear of one constant-power interval starting at temp0."""
    with localcontext() as ctx:
        ctx.prec = PREC
        return float(_Exact(thermal).interval(power, Decimal(temp0), Decimal(dt))[0])


def temp_at(doc, iv: Interval, temp0: float, t: float) -> float:
    th = doc["thermal"]
    t_ss = th["t_amb_c"] + iv.power * th["r_th_k_per_w"]
    tau = th["r_th_k_per_w"] * th["c_th_j_per_k"]
    return t_ss + (temp0 - t_ss) * math.exp(-(t - iv.t0) / tau)


def _simpson_wear(thermal, power: float, temp0: float, dt: float, n: int = 20000) -> float:
    """Composite Simpson reference for one interval (self-test only)."""
    tau = thermal["r_th_k_per_w"] * thermal["c_th_j_per_k"]
    t_ss = thermal["t_amb_c"] + power * thermal["r_th_k_per_w"]
    life = thermal["l_base_hours"] * 3600.0

    def rate(t):
        temp = t_ss + (temp0 - t_ss) * math.exp(-t / tau)
        return 2.0 ** ((temp - thermal["t_ref_c"]) / 10.0) / life

    h = dt / n
    s = rate(0.0) + rate(dt)
    s += 4.0 * math.fsum(rate((2 * i - 1) * h) for i in range(1, n // 2 + 1))
    s += 2.0 * math.fsum(rate(2 * i * h) for i in range(1, n // 2))
    return s * h / 3.0


def selftest() -> None:
    """Check the oracle against quadrature and hand-built cases; raise on failure."""
    doc = {
        "processor": {
            "levels": [{"freq_hz": 1e9, "vdd_v": 1.0}, {"freq_hz": 2e9, "vdd_v": 1.2}],
            "coeff_a": 1e-9,
            "coeff_b": 0.5,
            "p_device_w": 1.0,
            "p_idle_w": 0.5,
        },
        "thermal": {
            "r_th_k_per_w": 2.0,
            "c_th_j_per_k": 2.5,
            "t_amb_c": 25.0,
            "t_ref_c": 45.0,
            "l_base_hours": 10000.0,
        },
        "wear": {"k_shock": 1e-4, "alpha": 2.0},
        "governor": {"kind": "lowest_feasible"},
    }
    th = doc["thermal"]
    # Heating, cooling, steady state (a = 0), a near-zero span, and many tau.
    for power, temp0, dt in [(40.0, 25.0, 2.0), (0.5, 90.0, 7.5), (10.0, 45.0, 30.0), (3.0, 20.0, 1e-3), (8.0, 70.0, 60.0)]:
        got = interval_wear(th, power, temp0, dt)
        ref = _simpson_wear(th, power, temp0, dt)
        if abs(got - ref) > 1e-12 * ref:
            raise AssertionError(f"series wear {got!r} != quadrature {ref!r} (P={power}, T0={temp0}, dt={dt})")
    # Hand-built run: a 1e9-cycle task at the top level from t=1 to 1.5 in a 3 s run.
    prof = rebuild_profile(doc, [(1.0, 1.5)], [(1.0, 1e9, 2e9), (1.5, 2e9, 1e9)], 3.0)
    got = [(iv.t0, iv.t1, iv.freq, iv.active, iv.power) for iv in prof]
    p_top = 1e-9 * 2e9 * 1.2**2 + 0.5 * 1.2 + 1.0
    want = [(0.0, 1.0, 1e9, False, 0.5), (1.0, 1.5, 2e9, True, p_top), (1.5, 3.0, 1e9, False, 0.5)]
    if got != want:
        raise AssertionError(f"profile {got} != {want}")
    # Over a profile, wear chains through each interval's end temperature.
    want, temp = 0.0, 25.0
    for iv in prof:
        dt = iv.t1 - iv.t0
        want += _simpson_wear(th, iv.power, temp, dt)
        t_ss = 25.0 + iv.power * 2.0
        temp = t_ss + (temp - t_ss) * math.exp(-dt / 5.0)
    if abs(integrate(doc, prof).wear - want) > 1e-12 * want:
        raise AssertionError("profile wear does not chain its intervals")
    # 1e9 cycles from t=1: a 1 s window fits the bottom level exactly, 0.4 s fits none.
    if governor_choice(doc, 1e9, 2.0, 1.0) != (0, False):
        raise AssertionError("lowest_feasible: bottom level meets an exact window")
    if governor_choice(doc, 1e9, 1.4, 1.0) != (1, True):
        raise AssertionError("infeasible task runs at the top level")
    # min_energy: 2.5 J at the bottom level against 4.48 W * 0.5 s + 0.5 W * 0.5 s = 2.49 J.
    doc["governor"] = {"kind": "min_energy"}
    if governor_choice(doc, 1e9, 2.0, 1.0) != (1, False):
        raise AssertionError("min_energy: racing to idle wins here")


if __name__ == "__main__":
    selftest()
    print("oracle self-test passed")
