"""Exception types and the validation line shared across the simulator."""

from __future__ import annotations

import math
from collections import namedtuple


class DomainError(ValueError):
    """An argument lies outside the operation's valid domain."""


class UnknownLevelError(DomainError):
    """A frequency level does not belong to the processor spec it was used with."""


class ScenarioError(Exception):
    """A scenario failed parsing, schema checking, or semantic validation.

    ``kind`` is one of "parse", "schema", "validation"; ``problems`` lists every
    individual issue found, not just the first.
    """

    def __init__(self, kind: str, problems: list[str] | tuple[str, ...]):
        self.kind = kind
        self.problems = tuple(problems)
        super().__init__(f"{kind} error: " + "; ".join(self.problems))


class PolicyRunError(RuntimeError):
    """A policy-comparison run failed; carries which policy was being simulated."""

    def __init__(self, policy_label: str, cause: Exception):
        self.policy_label = policy_label
        super().__init__(f"simulation failed for policy '{policy_label}': {cause}")


class Violation(namedtuple("_ViolationFields", "field rule")):
    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.field}: {self.rule}"


def _real(x):
    """``x`` if it is a number, else NaN, so that a non-number fails every comparison, as NaN does."""
    return x if isinstance(x, (int, float)) else math.nan


def _finite(x) -> bool:
    return math.isfinite(_real(x))
