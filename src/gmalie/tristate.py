"""Three-valued verdicts for properties that are only semidecidable over
infinite fields, with Kleene combinators so Unknown never upgrades to Holds."""

from __future__ import annotations

import enum


class TriState(enum.Enum):
    HOLDS = "holds"
    FAILS = "fails"
    UNKNOWN = "unknown"

    @staticmethod
    def from_bool(value: bool) -> "TriState":
        return TriState.HOLDS if value else TriState.FAILS

    def __bool__(self):
        raise TypeError("TriState has no implicit truth value; compare explicitly")


def tri_all(states) -> TriState:
    """Kleene conjunction: any Fails wins, else any Unknown, else Holds."""
    out = TriState.HOLDS
    for s in states:
        if s is TriState.FAILS:
            return TriState.FAILS
        if s is TriState.UNKNOWN:
            out = TriState.UNKNOWN
    return out


def tri_any(states) -> TriState:
    """Kleene disjunction: any Holds wins, else any Unknown, else Fails."""
    out = TriState.FAILS
    for s in states:
        if s is TriState.HOLDS:
            return TriState.HOLDS
        if s is TriState.UNKNOWN:
            out = TriState.UNKNOWN
    return out
