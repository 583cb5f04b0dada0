"""Maximal executions as event sequences.

A trace is either finite (the machine deadlocks after the last event) or a
lasso: a finite prefix followed by a nonempty cycle repeated forever.  Only
event names are recorded; intermediate states play no role in property
evaluation.
"""
from __future__ import annotations

from dataclasses import dataclass

FINITE = "finite"
LASSO = "lasso"


@dataclass(frozen=True)
class Trace:
    kind: str  # FINITE | LASSO
    prefix: tuple[str, ...]
    cycle: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind == LASSO and not self.cycle:
            raise ValueError("a lasso needs a nonempty cycle")
        if self.kind == FINITE and self.cycle:
            raise ValueError("a finite trace has no cycle")

    @property
    def is_lasso(self) -> bool:
        return self.kind == LASSO

    def render(self) -> str:
        if self.is_lasso:
            head = ", ".join(self.prefix)
            return f"{head} | ({', '.join(self.cycle)})^ω"
        if not self.prefix:
            return "<empty> -| deadlock"
        return ", ".join(self.prefix) + " -| deadlock"

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "prefix": list(self.prefix), "cycle": list(self.cycle)}


def finite_trace(*events: str) -> Trace:
    return Trace(FINITE, tuple(events))


def lasso(prefix: tuple[str, ...], cycle: tuple[str, ...]) -> Trace:
    return Trace(LASSO, tuple(prefix), tuple(cycle))


def project_trace(u: Trace, beta) -> Trace:
    """Restrict a trace to the events in beta, pointwise.

    A lasso whose cycle loses all its events degenerates to the finite
    trace made of the filtered prefix.
    """
    keep = frozenset(beta)
    prefix = tuple(e for e in u.prefix if e in keep)
    if not u.is_lasso:
        return Trace(FINITE, prefix)
    cycle = tuple(e for e in u.cycle if e in keep)
    if not cycle:
        return Trace(FINITE, prefix)
    return Trace(LASSO, prefix, cycle)
