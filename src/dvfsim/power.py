"""Frequency/voltage ladder of a DVFS processor and its power/energy model.

Active power at an operating point is ``coeff_a*f*vdd^2 + coeff_b*vdd + p_device``
(dynamic switching term, supply-linear term, frequency-independent device draw).
That formula lives only in ``ProcessorSpec.active_w``, the spec's table of
active power per level; idle power is a single level-independent constant.
"""

from __future__ import annotations

from collections import namedtuple
from contextlib import suppress

from .errors import UnknownLevelError, Violation, _finite, _real
from .thermal import steady_state_temp, validate_thermal

DEFAULT_COST_RATE = 100.0  # $/MWh


class FrequencyLevel(namedtuple("_FrequencyLevelFields", "index freq vdd")):
    """One discrete operating point: 0-based ladder index, clock in Hz, supply in V."""

    __slots__ = ()


class ProcessorSpec(namedtuple("_ProcessorSpecFields", "levels coeff_a coeff_b p_device p_idle thermal wear")):
    """Ladder of operating points plus power, thermal, and wear parameters.

    Levels must be strictly increasing in both frequency and supply voltage;
    coefficients are in W/(Hz*V^2), W/V, W, W respectively.
    """

    __slots__ = ()

    @property
    def active_w(self) -> tuple[float, ...]:
        """Active power in watts at each level, by ladder index; computed from the fields at each read, so a copy
        from ``_replace`` has its own (a run reads it once or twice)."""
        return tuple(self.coeff_a * lv.freq * lv.vdd**2 + self.coeff_b * lv.vdd + self.p_device for lv in self.levels)

    def require_level(self, level: FrequencyLevel) -> None:
        """Raise UnknownLevelError unless ``level`` is one of this ladder's levels; a tuple of the same items that
        is not a FrequencyLevel is not one."""
        levels = self.levels
        i = level.index if isinstance(level, FrequencyLevel) else -1  # a plain tuple's .index is a method
        if not (0 <= i < len(levels) and (levels[i] is level or levels[i] == level)):  # identity first: the usual case
            raise UnknownLevelError(f"level {level} is not part of this processor spec")


class EnergyBreakdown(namedtuple("_EnergyBreakdownFields", "active_j idle_j")):
    """Joules split into active (task executing) and idle portions."""

    __slots__ = ()

    @property
    def total_j(self) -> float:
        return self.active_j + self.idle_j


def validate_spec(spec: ProcessorSpec) -> tuple[Violation, ...]:
    """Check every ProcessorSpec invariant, returning all violations found.

    Violations are collected rather than raised so a scenario author sees the
    full list in one pass; an empty tuple means the spec is valid.
    """
    v: list[Violation] = []

    if len(spec.levels) < 2:
        v.append(Violation("levels", "ladder needs at least 2 levels"))
    for i, lv in enumerate(spec.levels):
        if lv.index != i:
            v.append(Violation(f"levels[{i}].index", f"index must equal ladder position (got {lv.index})"))
        if not _finite(lv.freq) or lv.freq <= 0:
            v.append(Violation(f"levels[{i}].freq", "frequency must be finite and > 0"))
        if not _finite(lv.vdd) or lv.vdd <= 0:
            v.append(Violation(f"levels[{i}].vdd", "voltage must be finite and > 0"))
    for i in range(1, len(spec.levels)):
        lo, hi = spec.levels[i - 1], spec.levels[i]
        if _real(hi.freq) == _real(lo.freq):  # a non-number breaks no order rule: its own line flags it
            v.append(Violation(f"levels[{i}].freq", "duplicate frequency"))
        elif _real(hi.freq) < _real(lo.freq):
            v.append(Violation(f"levels[{i}].freq", "ladder not strictly increasing in frequency"))
        if _real(hi.vdd) <= _real(lo.vdd):
            v.append(Violation(f"levels[{i}].vdd", "ladder not strictly increasing in voltage"))

    for name in ("coeff_a", "coeff_b", "p_device", "p_idle"):
        value = getattr(spec, name)
        if not _finite(value):
            v.append(Violation(name, "must be a finite number"))
        elif value < 0:
            v.append(Violation(name, "negative coefficient"))

    # Strictly rising active power is what makes "slower is cheaper" meaningful.
    powers = None
    if not v:
        with suppress(OverflowError):  # a level's vdd**2 is beyond float range
            powers = spec.active_w
        if powers is None or not all(map(_finite, powers)):  # or a level's sum rounds to inf
            v.append(Violation("levels", "active power overflows a float"))
            powers = None
        elif any(hi <= lo for lo, hi in zip(powers, powers[1:])):
            v.append(Violation("levels", "active power not strictly increasing across levels"))

    thermal = validate_thermal(spec.thermal)
    v.extend(thermal)
    if powers and not thermal and not _finite(steady_state_temp(spec.thermal, max(*powers, spec.p_idle))):
        v.append(Violation("thermal.r_th", "steady state t_amb + P * r_th overflows a float"))

    w = spec.wear
    if not _finite(w.k_shock) or w.k_shock < 0:
        v.append(Violation("wear.k_shock", "must be finite and >= 0"))
    if not _finite(w.alpha) or w.alpha < 1:
        v.append(Violation("wear.alpha", "must be finite and >= 1"))
    if not _finite(w.f_span) or w.f_span <= 0:
        v.append(Violation("wear.f_span", "must be finite and > 0"))

    return tuple(v)


def energy_cost(average_power_mw: float, duration_h: float, rate_usd_per_mwh: float = DEFAULT_COST_RATE) -> float:
    """Operating cost in dollars for a sustained average draw.

    Power is in megawatts, duration in hours, rate in $/MWh; a run passes none below 0.
    """
    return average_power_mw * duration_h * rate_usd_per_mwh
