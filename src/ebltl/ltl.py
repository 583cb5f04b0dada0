"""Event-LTL over finite and ultimately periodic traces.

Satisfaction follows the suffix equations: an atom [x] holds when the trace
starts with x; Until asks for a witness suffix with the right-hand side
true and the left-hand side true before it; F and G quantify suffixes.

Finite traces arise from deadlocked executions, and the suffix u^i is then
defined for 0 <= i <= len(u) (the last one is the empty trace).  We read
the equations with exactly those defined suffixes:

  * an atom is false on the empty trace,
  * Until's witness position must be a defined suffix,
  * G ranges over all defined suffixes including the empty one, so G [x]
    is false on every finite trace.

A weak reading of G (stopping before the empty suffix) would also be
coherent; this package uses only the strong reading above, everywhere.

A trace has finitely many distinct suffixes, one per position of the word
prefix + cycle: a lasso has one per event, a finite trace one more, the
empty suffix.  Evaluation names each suffix by its position and is
memoized per (position, subformula).  The suffixes after position i are
the positions from i to the end and then, on a lasso, the cycle positions
before i.  A scan over them decides Until: if its right-hand side fails at
all of them, it fails on the whole word.

Model checking (`model_check`) is automaton-based: the negated property is
translated to a transition-labelled automaton over event letters and
paired with the state graph; accepting lassos refute the property on
infinite traces, and accepting paths into deadlock states refute it on
finite maximal traces.  Counterexamples are validated against
`holds_on_trace` before being returned, and are minimal-length among the
ones the search encounters.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import chain
from typing import Optional

from . import automata
from .errors import ToolkitBug
from .formulas import (
    And, Atom, Finally, Formula, Globally, Not, Or, TrueFormula, Until,
)
from .semantics import StateGraph
from .traces import Trace

__all__ = ["alphabet", "holds_on_trace", "Verdict", "model_check"]


def alphabet(phi: Formula) -> frozenset[str]:
    """Events a formula mentions; true contributes nothing, operators are
    transparent, binary operators take unions."""
    if isinstance(phi, TrueFormula):
        return frozenset()
    if isinstance(phi, Atom):
        return frozenset({phi.event})
    if isinstance(phi, (Not, Finally, Globally)):
        return alphabet(phi.operand)
    if isinstance(phi, (Or, And, Until)):
        return alphabet(phi.left) | alphabet(phi.right)
    raise TypeError(phi)


def holds_on_trace(u: Trace, phi: Formula) -> bool:
    """Does the trace satisfy the formula?

    Works for finite traces and lassos; see the module docstring for the
    finite-trace reading.  Position i stands for the suffix u^i; each
    (position, subformula) pair is evaluated once.
    """
    events = u.prefix + u.cycle
    if u.is_lasso:
        positions, loop = len(events), len(u.prefix)
    else:  # one more position, the empty suffix; scans do not wrap
        positions = loop = len(events) + 1
    # phi keeps every subformula alive, so no two share an id
    memo: dict[tuple[int, int], bool] = {}

    def sat(i: int, f: Formula) -> bool:
        key = (i, id(f))
        cached = memo.get(key)
        if cached is None:
            cached = memo[key] = compute(i, f)
        return cached

    def ahead(i: int):
        """The distinct suffixes of u^i, in order, as positions."""
        return chain(range(i, positions), range(loop, i))

    def compute(i: int, f: Formula) -> bool:
        if isinstance(f, TrueFormula):
            return True
        if isinstance(f, Atom):
            return i < len(events) and events[i] == f.event
        if isinstance(f, Not):
            return not sat(i, f.operand)
        if isinstance(f, Or):
            return sat(i, f.left) or sat(i, f.right)
        if isinstance(f, And):
            return sat(i, f.left) and sat(i, f.right)
        if isinstance(f, Finally):
            return any(sat(k, f.operand) for k in ahead(i))
        if isinstance(f, Globally):
            return all(sat(k, f.operand) for k in ahead(i))
        if isinstance(f, Until):
            # past all distinct suffixes the word only repeats, so no new
            # witness can appear
            for k in ahead(i):
                if sat(k, f.right):
                    return True
                if not sat(k, f.left):
                    return False
            return False
        raise TypeError(f)

    return sat(0, phi)


@dataclass
class Verdict:
    holds: bool
    counterexample: Optional[Trace] = None

    def to_json_dict(self) -> dict:
        return {
            "holds": self.holds,
            "counterexample": self.counterexample.to_json_dict() if self.counterexample else None,
            "counterexample_text": self.counterexample.render() if self.counterexample else None,
            "method": "automaton-product",
        }


def model_check(graph: StateGraph, phi: Formula,
                product_limit: int = 1_000_000) -> Verdict:
    """Does every maximal trace of the graph satisfy the formula?

    Foreign atoms (events outside the graph's alphabet) can never occur and
    simply never hold; a warning is emitted because they usually indicate a
    typo.  A returned counterexample is a genuine maximal trace of the
    graph and refutes the formula under holds_on_trace; between the finite
    and the lasso candidate the shorter one is preferred
    (`automata.shortest`).
    """
    foreign = alphabet(phi) - frozenset(graph.alphabet)
    if foreign:
        warnings.warn(
            f"formula mentions events outside the machine alphabet: "
            f"{', '.join(sorted(foreign))}", stacklevel=2)

    searcher = automata.CounterexampleSearch(graph, phi, product_limit)
    cex = automata.shortest([searcher.finite_counterexample(),
                             searcher.lasso_counterexample()])
    if cex is None:
        return Verdict(holds=True)
    if holds_on_trace(cex, phi):
        raise ToolkitBug(
            f"model_check produced a counterexample that satisfies the "
            f"formula: {cex.render()}")
    return Verdict(holds=False, counterexample=cex)
