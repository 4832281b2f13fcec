"""Frequency-transition planning and the transition-shock wear model.

A direct transition jumps straight to the target level; a stepped transition
walks the ladder one adjacent level at a time, optionally dwelling at each
intermediate level. Each hop shocks the component in proportion to a power of
the frequency jump, so for a shock exponent above 1 splitting a large jump into
small steps strictly reduces the total shock wear. ``validate_policy`` holds the
TransitionPolicy rules that a Scenario, ``compare_policies`` and ``plan_transition``
check.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import DomainError, Violation, _finite
from .power import FrequencyLevel, ProcessorSpec


class TransitionPolicy(namedtuple("_TransitionPolicyFields", "kind dwell", defaults=(0.0,))):
    """How to move between ladder levels: kind is "direct" or "stepped".

    ``dwell`` is the time in seconds spent operating at each intermediate level
    of a stepped transition (the final hop resumes normal operation at once).
    """

    __slots__ = ()


Hop = namedtuple("Hop", "from_level to_level delta_f dwell_after")


class WearParams(namedtuple("_WearParamsFields", "k_shock alpha f_span")):
    """Shock-wear model: wear per hop = k_shock * (delta_f / f_span)^alpha.

    f_span normalizes delta_f so k_shock is the wear fraction of one full-span
    jump regardless of the ladder's absolute frequencies; alpha >= 1 sets how
    strongly large jumps are penalized (alpha = 1 makes stepping neutral).
    """

    __slots__ = ()


def validate_policy(policy: TransitionPolicy) -> list[Violation]:
    """Every TransitionPolicy rule, as Violations; empty when it is valid."""
    v = []
    if policy.kind not in ("direct", "stepped"):
        v.append(Violation("policy.kind", f"unknown kind {policy.kind!r}"))
    if not (_finite(policy.dwell) and policy.dwell >= 0):
        v.append(Violation("policy.dwell", "must be finite and >= 0"))
    return v


def full_span(levels: tuple[FrequencyLevel, ...]) -> float:
    """Default wear normalization: frequency distance across the whole ladder."""
    return levels[-1].freq - levels[0].freq


def plan_transition(
    spec: ProcessorSpec,
    from_level: FrequencyLevel,
    to_level: FrequencyLevel,
    policy: TransitionPolicy,
) -> tuple[Hop, ...]:
    """Build the chained hops for moving between two ladder levels.

    direct: one hop covering the whole jump, no dwell. stepped: one hop per
    adjacent ladder level, dwelling ``policy.dwell`` seconds after every hop
    except the last. Same source and target yield no hops. A run plans only
    between its own ladder's levels under a valid policy, so the DomainError
    with ``validate_policy``'s lines and the UnknownLevelError for a level off
    ``spec``'s ladder guard a direct call.
    """
    if violations := validate_policy(policy):
        raise DomainError("; ".join(map(str, violations)))
    spec.require_level(from_level)
    spec.require_level(to_level)
    start, stop = from_level.index, to_level.index  # both on the ladder now, so a level is its index
    if start == stop:
        return ()
    if policy.kind == "direct":
        return (Hop(from_level, to_level, abs(to_level.freq - from_level.freq), 0.0),)
    step = 1 if stop > start else -1
    hops = []
    for i in range(start, stop, step):
        a = spec.levels[i]
        b = spec.levels[i + step]
        hops.append(Hop(a, b, abs(b.freq - a.freq), 0.0 if i + step == stop else policy.dwell))
    return tuple(hops)


def shock_wear(params: WearParams, delta_f: float) -> float:
    """Wear fraction of a single frequency jump of magnitude delta_f >= 0 (Hz), as a Hop's ``delta_f`` is."""
    return params.k_shock * (delta_f / params.f_span) ** params.alpha
