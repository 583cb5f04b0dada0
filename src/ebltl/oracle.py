"""Brute-force cross-checking oracle and the bundled corpus.

Everything here exists to catch drift in the main checker, not to serve
users.  The two entry points reimplement satisfaction and model checking
with deliberately different algorithms:

  * `oracle_holds_on` labels every position of a trace with a column: the
    truth value of each subformula there, filled bottom-up.  It shares no
    code with `ltl.holds_on_trace`, which recurses top-down and evaluates
    a (position, subformula) pair only on demand.  The formula is first
    compiled (`_truth_program`) into its distinct subformulas in
    post-order, each naming its operands by index.  `_fill_truth_rows`
    fills every F, G and U row with one backward recurrence, Until's,
    swept twice over a lasso's cycle and once over its prefix, so a lasso
    with prefix u and cycle v takes time linear in |u| + |v| per
    subformula (Markey & Schnoebelen, "Model checking a path", CONCUR
    2003).  A finite trace is one backward sweep from its empty suffix.
  * `oracle_model_check` enumerates candidate executions of the graph
    directly -- deadlock-terminated walks and prefix+cycle lassos within
    length bounds -- and refutes on the first failing one.  No automaton is
    built anywhere in this module.  Each check compiles its formula once
    and memoises each cycle word's column and each (event, column) step,
    so a trace whose cycle and prefix steps were met before costs one
    lookup per prefix event; a `Trace` is built only for a counterexample.
    The closed walks at each state are listed once (`_closed_walks`) and
    replayed, step charges included, for every prefix that reaches it.

`cross_validate` runs both checkers over the corpus expectation table and
over seeded random (graph, formula) pairs.  When the main checker refutes
with a counterexample longer than the oracle's default horizon, the oracle
is re-run with bounds that cover the counterexample, and the counterexample
itself is replayed (realizability in the graph plus truth under the
oracle's own evaluator), so a disagreement always means a genuine bug in
one of the two sides.  Each graph's sorted move table and walk lists
(`_GraphTables`) are built once per `cross_validate` call and shared by
every comparison on that graph; nothing is kept between calls.

`_bounded_traces` lists every short trace over an alphabet; the tests
hold the beta-dependence decision against that enumeration.
"""
from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field, replace
from itertools import product as iproduct
from operator import and_, not_, or_
from pathlib import Path
from typing import Optional

from .errors import EbltlError, EnumerationBudgetError, ToolkitBug
from .formulas import (
    And, Atom, Finally, Formula, Globally, Not, Or, TrueFormula, Until,
    parse_property_file,
)
from .machine_ast import Machine
from .machine_parser import parse_machine_file
from .semantics import StateGraph, explore, make_graph, require_feasible
from .traces import FINITE, LASSO, Trace

# ---------------------------------------------------------------------------
# satisfaction, column by column


def oracle_holds_on(u: Trace, phi: Formula) -> bool:
    """Positionwise evaluation over the distinct suffixes of the trace."""
    program = _truth_program(phi)
    if u.is_lasso:
        return _fill_truth_rows(program, u.prefix, u.cycle)[-1][0]
    return _fill_truth_rows(program, (*u.prefix, None))[-1][0]


def _truth_program(phi: Formula) -> list[tuple]:
    """phi's distinct subformulas in post-order, each as (kind, left, right).

    `kind` is the formula class; `left` and `right` index the operands'
    entries (`left` holds an Atom's event, and an absent operand is None).
    Equal subformulas have equal entries, which are listed once; phi's own
    entry comes last.
    """
    program: list[tuple] = []
    index: dict[tuple, int] = {}

    def visit(f: Formula) -> int:
        kind = type(f)
        if kind is TrueFormula:
            entry = (kind, None, None)
        elif kind is Atom:
            entry = (kind, f.event, None)
        elif kind in (Not, Finally, Globally):
            entry = (kind, visit(f.operand), None)
        elif kind in (Or, And, Until):
            entry = (kind, visit(f.left), visit(f.right))
        else:
            raise TypeError(f)
        got = index.get(entry)
        if got is None:
            got = index[entry] = len(program)
            program.append(entry)
        return got

    visit(phi)
    return program


def _fill_truth_rows(program: list[tuple], prefix: tuple, cycle: tuple = (),
                     after: Optional[tuple] = None) -> list[list[bool]]:
    """One truth row per program entry over the positions of `prefix` and
    then `cycle`, filled bottom-up; their first entries are the column
    (each entry's truth value) at the first position.

    Every temporal row is one backward sweep of Until's recurrence,
    `later = row[i] = b[i] or (a[i] and later)`: for `x U y`, a is x's row
    and b is y's, from false; for `F x`, read as `true U x`, a is all true
    and b is x's row, from false; for `G x`, its dual, a is x's row and b
    is all false, from true.  A nonempty cycle repeats forever and is swept
    twice, from its last position back to its first: a witness never needs
    a second lap, so the first sweep is already exact at the cycle's first
    position, and the second is exact everywhere.  The prefix is swept
    once after it.  The starting value is also the value past a finite
    trace's end, which reads the event None and is followed by nothing:
    every G holds there and every F and U fails.  `after`, the column
    after a prefix with no cycle, replaces it; with one prefix event that
    is a single step.
    """
    p = len(prefix)
    n = p + len(cycle)
    events = prefix + cycle
    yes, no = [True] * n, [False] * n
    cycle_sweep = range(n - 1, p - 1, -1)
    sweep = [*cycle_sweep, *cycle_sweep, *range(p - 1, -1, -1)]
    rows: list[list[bool]] = []
    for kind, left, right in program:
        if kind is TrueFormula:
            row = yes
        elif kind is Atom:
            row = [e == left for e in events]
        elif kind is Not:
            row = list(map(not_, rows[left]))
        elif kind is Or:
            row = list(map(or_, rows[left], rows[right]))
        elif kind is And:
            row = list(map(and_, rows[left], rows[right]))
        else:
            if kind is Until:
                a, b, later = rows[left], rows[right], False
            elif kind is Finally:
                a, b, later = yes, rows[left], False
            else:  # Globally
                a, b, later = rows[left], no, True
            if after is not None and p == n:
                later = after[len(rows)]
            row = [False] * n
            for i in sweep:
                later = row[i] = b[i] or (a[i] and later)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# trace enumeration

def _bounded_traces(sigma: tuple[str, ...], prefix_bound: int, cycle_bound: int):
    """All traces over sigma in ascending total length: finite traces of
    length up to prefix+cycle, and lassos with prefix up to prefix_bound
    and cycle up to cycle_bound."""
    total_max = prefix_bound + cycle_bound
    for total in range(total_max + 1):
        for events in iproduct(sigma, repeat=total):
            yield Trace(FINITE, events)
        for plen in range(0, min(prefix_bound, total) + 1):
            clen = total - plen
            if not 1 <= clen <= cycle_bound:
                continue
            for prefix in iproduct(sigma, repeat=plen):
                for cycle in iproduct(sigma, repeat=clen):
                    yield Trace(LASSO, prefix, cycle)


# ---------------------------------------------------------------------------
# model checking by trace enumeration

@dataclass
class OracleBounds:
    prefix: int = 3
    cycle: int = 3
    finite: int = 6
    budget: int = 2_000_000  # enumeration step allowance

    def __post_init__(self):
        if min(self.prefix, self.finite) < 0 or min(self.cycle, self.budget) < 1:
            raise ValueError(f"{self} needs prefix and finite of at least 0 "
                             f"and cycle and budget of at least 1")


@dataclass
class OracleVerdict:
    holds: bool
    counterexample: Optional[Trace] = None
    traces_checked: int = 0

    def to_json_dict(self) -> dict:
        return {
            "holds": self.holds,
            "counterexample": self.counterexample.to_json_dict() if self.counterexample else None,
            "method": "lasso-enumeration",
            "traces_checked": self.traces_checked,
        }


def _sorted_moves(graph: StateGraph) -> list[list[tuple[str, int]]]:
    """Per state, its distinct (event, target) pairs, sorted, read from the
    firing record rather than from the checker's own `moves` view."""
    moves: list[set] = [set() for _ in graph.states]
    for src, event, _params, targets in graph.firings:
        moves[src].update((event, t) for t in targets)
    return [sorted(pairs) for pairs in moves]


class _GraphTables:
    """One graph's sorted move table, and its closed-walk lists built on
    first use, shared by every check on the graph that holds them.

    A walk list is kept with the step limit its DFS stopped at, or None when
    the DFS finished; it serves a later check only if that limit is None or
    at least the steps that check has left, and is rebuilt otherwise."""

    def __init__(self, graph: StateGraph):
        self.moves = _sorted_moves(graph)
        self._walks: dict[tuple[int, int], tuple[Optional[int], list]] = {}

    def walks(self, origin: int, cycle_bound: int,
              left: int) -> list[tuple[int, Optional[tuple[str, ...]]]]:
        key = (origin, cycle_bound)
        got = self._walks.get(key)
        if got is None or (got[0] is not None and got[0] < left):
            found, finished = _closed_walks(origin, self.moves, cycle_bound, left)
            got = self._walks[key] = (None if finished else left, found)
        return got[1]


def oracle_model_check(graph: StateGraph, phi: Formula,
                       bounds: OracleBounds | None = None) -> OracleVerdict:
    """Enumerate executions up to the bounds and refute on the first failure.

    Deadlock-terminated walks up to `bounds.finite` events and lassos with
    prefix up to `bounds.prefix` plus cycle up to `bounds.cycle` are all
    evaluated (deduplicated as event sequences).  If nothing refutes, the
    verdict is `holds` at these bounds.  Raises EnumerationBudgetError when
    the step allowance runs out, in which case no verdict is claimed.
    """
    program = _truth_program(phi)
    return _enumerate(graph, _GraphTables(graph), program, bounds or OracleBounds())


def _enumerate(graph: StateGraph, tables: _GraphTables, program: list[tuple],
               bounds: OracleBounds) -> OracleVerdict:
    """`oracle_model_check` over the graph's tables.  Within the check each
    cycle word's column and each `(event, column)` step are computed once."""
    moves = tables.moves
    deadlocks = set(graph.deadlocks)
    stepped: dict[tuple, tuple] = {}
    steps = 0
    checked = 0
    seen_traces: set[tuple] = set()

    def column_at(prefix: tuple, cycle: tuple = (),
                  after: Optional[tuple] = None) -> tuple:
        return tuple([row[0] for row in _fill_truth_rows(program, prefix, cycle, after)])

    # each cycle word's column; the empty word's is the end of a finite trace
    cycle_columns: dict[tuple[str, ...], tuple] = {(): column_at((None,))}

    def spend(k: int = 1):
        nonlocal steps
        steps += k
        if steps > bounds.budget:
            raise EnumerationBudgetError(
                f"oracle enumeration exceeded {bounds.budget} steps")

    def consider(prefix: tuple[str, ...],
                 cycle: tuple[str, ...]) -> Optional[OracleVerdict]:
        """An empty cycle stands for the finite trace `prefix`."""
        nonlocal checked
        key = (prefix, cycle)
        if key in seen_traces:
            return None
        seen_traces.add(key)
        checked += 1
        spend(4)
        column = cycle_columns.get(cycle)
        if column is None:
            column = cycle_columns[cycle] = column_at((), cycle)
        for event in reversed(prefix):
            before = stepped.get((event, column))
            if before is None:
                before = stepped[event, column] = column_at((event,), after=column)
            column = before
        if column[-1]:
            return None
        trace = Trace(LASSO, prefix, cycle) if cycle else Trace(FINITE, prefix)
        return OracleVerdict(False, trace, traces_checked=checked)

    # breadth-first walk enumeration from the initial states
    frontier = dict.fromkeys((s, ()) for s in graph.initial)
    horizon = max(bounds.prefix, bounds.finite)
    for depth in range(horizon + 1):
        next_frontier: dict[tuple[int, tuple[str, ...]], None] = {}
        for state, events in frontier:
            spend()
            if state in deadlocks and depth <= bounds.finite:
                verdict = consider(events, ())
                if verdict:
                    return verdict
            if depth <= bounds.prefix:
                for pops, cycle in tables.walks(state, bounds.cycle,
                                                bounds.budget - steps):
                    spend(pops)
                    if cycle is None:
                        break
                    verdict = consider(events, cycle)
                    if verdict:
                        return verdict
            if depth < horizon:
                for event, tgt in moves[state]:
                    next_frontier.setdefault((tgt, events + (event,)))
        frontier = next_frontier

    return OracleVerdict(True, traces_checked=checked)


def _closed_walks(origin: int, moves, cycle_bound: int, limit: int
                  ) -> tuple[list[tuple[int, Optional[tuple[str, ...]]]], bool]:
    """The closed walks at `origin` up to the cycle bound, in DFS order,
    and whether the DFS finished.

    Each walk comes paired with the number of DFS stack pops since the
    previous one, and a final `(pops, None)` counts the pops after the
    last walk, so charging `spend(pops)` before each walk charges the
    budget exactly as walking the DFS itself would.  The DFS stops after
    `limit + 1` pops, which a replay with at most `limit` steps left cannot
    get past; `_GraphTables` replays a list in every check on its graph
    that this rule allows.
    """
    found: list[tuple[int, Optional[tuple[str, ...]]]] = []
    pops = total = 0
    stack: list[tuple[int, tuple[str, ...]]] = [(origin, ())]
    while stack and total <= limit:
        state, events = stack.pop()
        pops += 1
        total += 1
        for event, tgt in reversed(moves[state]):
            cycle = events + (event,)
            if tgt == origin:
                found.append((pops, cycle))
                pops = 0
            if len(cycle) < cycle_bound:
                stack.append((tgt, cycle))
    found.append((pops, None))
    return found, not stack


# ---------------------------------------------------------------------------
# replaying traces against a graph

def trace_realizable(graph: StateGraph, trace: Trace) -> bool:
    """Is the trace an actual maximal execution of the graph?

    The set of states a run can be in is stepped event by event, which
    handles nondeterminism.  A finite trace must leave a deadlock in the
    final set.  A lasso reads its cycle word again and again: it is not
    realizable once the set is empty, and it is once the set repeats at a
    word boundary, or once the word has been read once per graph state,
    since a run that long revisits a state between two readings.
    """
    return _realizable(graph, _sorted_moves(graph), trace)


def _realizable(graph: StateGraph, moves, trace: Trace) -> bool:
    """`trace_realizable` over the graph's sorted move table."""
    def read(states: frozenset[int], word: tuple[str, ...]) -> frozenset[int]:
        for event in word:
            states = frozenset(t for s in states for ev, t in moves[s] if ev == event)
        return states

    states = read(frozenset(graph.initial), trace.prefix)
    if not trace.is_lasso:
        return not states.isdisjoint(graph.deadlocks)
    seen: set[frozenset[int]] = set()
    # with no graph state the loop never runs, and the empty set answers
    for _ in graph.states:
        if not states or states in seen:
            return bool(states)
        seen.add(states)
        states = read(states, trace.cycle)
    return bool(states)


# ---------------------------------------------------------------------------
# bundled corpus

def corpus_root() -> Path:
    override = os.environ.get("EBLTL_CORPUS")
    if override:
        return Path(override)
    return Path(__file__).parent / "corpus"


@dataclass
class ExpectedVerdict:
    machine: str
    prop: str
    holds: bool
    source: str


@dataclass
class CorpusEntry:
    name: str
    directory: Path
    machines: dict[str, Machine]
    properties: dict[str, Formula]
    verdicts: list[ExpectedVerdict]
    # explored graphs of this entry's machines, by machine name
    graphs: dict[str, StateGraph] = field(default_factory=dict, repr=False, compare=False)

    def graph(self, machine_name: str) -> StateGraph:
        if machine_name not in self.graphs:
            self.graphs[machine_name] = require_feasible(
                explore(self.machines[machine_name]))
        return self.graphs[machine_name]


def _verdict_well_formed(v) -> bool:
    return (isinstance(v, dict) and isinstance(v.get("machine"), str)
            and isinstance(v.get("property"), str) and isinstance(v.get("holds"), bool))


def load_entry(directory: Path) -> CorpusEntry:
    """Read one corpus entry: its `expected.json` names the machine files,
    the property file and the expected verdicts."""
    spec_path = directory / "expected.json"
    try:
        data = json.loads(spec_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise EbltlError(f"{spec_path} is not valid JSON: {exc}") from None
    if not (isinstance(data, dict) and isinstance(data.get("machines"), dict)
            and all(isinstance(p, str) for p in data["machines"].values())
            and isinstance(data.get("properties"), str)
            and isinstance(data.get("verdicts"), list)
            and all(map(_verdict_well_formed, data["verdicts"]))):
        raise EbltlError(
            f'{spec_path} needs a "machines" map of file names, a "properties" '
            f'file name and a "verdicts" list of objects with a "machine", a '
            f'"property" and a boolean "holds"')
    machines = {}
    for name, rel in sorted(data["machines"].items()):
        machines[name] = parse_machine_file(directory / rel)
    props = parse_property_file((directory / data["properties"]).read_text(encoding="utf-8"))
    for v in data["verdicts"]:
        for key, known in (("machine", machines), ("property", props)):
            if v[key] not in known:
                raise EbltlError(f"{spec_path}: a verdict names the unknown {key} {v[key]!r}")
    verdicts = [
        ExpectedVerdict(v["machine"], v["property"], v["holds"], v.get("source", "derived"))
        for v in data["verdicts"]
    ]
    return CorpusEntry(name=data.get("name", directory.name), directory=directory,
                       machines=machines, properties=props, verdicts=verdicts)


def load_corpus(root: Path | None = None) -> list[CorpusEntry]:
    """The entries of `root`, its subdirectories with an `expected.json`."""
    root = root or corpus_root()
    entries = [load_entry(sub) for sub in sorted(root.iterdir())
               if (sub / "expected.json").exists()]
    if not entries:
        raise EbltlError(f"no corpus entry under {root}: no subdirectory holds an expected.json")
    return entries


# ---------------------------------------------------------------------------
# differential run

@dataclass
class DifferentialRow:
    subject: str
    prop: str
    main_holds: bool
    oracle_holds: Optional[bool]  # None when the oracle withheld its verdict
    expected: Optional[bool]
    agree: bool
    note: str = ""

    def to_json_dict(self) -> dict:
        return {"subject": self.subject, "property": self.prop,
                "main": self.main_holds, "oracle": self.oracle_holds,
                "expected": self.expected, "agree": self.agree, "note": self.note}


@dataclass
class DifferentialReport:
    rows: list[DifferentialRow]

    @property
    def disagreements(self) -> list[DifferentialRow]:
        return [r for r in self.rows if not r.agree]

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def to_json_dict(self) -> dict:
        return {"rows": [r.to_json_dict() for r in self.rows],
                "disagreements": len(self.disagreements), "ok": self.ok}


def _compare_on(subject: str, prop_name: str, graph: StateGraph, phi: Formula,
                expected: Optional[bool], base_bounds: OracleBounds,
                tables: _GraphTables) -> DifferentialRow:
    # local import: the oracle must not depend on the machinery it checks,
    # except in this comparison driver
    from .ltl import holds_on_trace, model_check

    def replay(side: str, other: str, holds, cex: Trace):
        """A counterexample must fail under the other side's evaluator and
        be a trace of the graph."""
        if holds(cex, phi):
            raise ToolkitBug(
                f"{subject}/{prop_name}: {side} counterexample satisfies "
                f"the formula under the {other} evaluator: {cex.render()}")
        if not _realizable(graph, tables.moves, cex):
            raise ToolkitBug(
                f"{subject}/{prop_name}: {side} counterexample is not a "
                f"trace of the graph: {cex.render()}")

    main = model_check(graph, phi)
    bounds, cex = base_bounds, main.counterexample
    if cex is not None:
        bounds = replace(base_bounds, prefix=max(base_bounds.prefix, len(cex.prefix)),
                         cycle=max(base_bounds.cycle, len(cex.cycle)),
                         finite=max(base_bounds.finite, len(cex.prefix)))
        replay("main", "oracle", oracle_holds_on, cex)

    notes = []
    try:
        overdict = _enumerate(graph, tables, _truth_program(phi), bounds)
    except EnumerationBudgetError:
        # replay already validated main's counterexample, or main holds and
        # the oracle simply could not finish: only a refutation can be confirmed
        oracle_holds, agree = None, not main.holds
        notes.append("oracle verdict withheld (budget); counterexample replay used instead")
    else:
        oracle_holds, agree = overdict.holds, main.holds == overdict.holds
        if not overdict.holds:
            replay("oracle", "main", holds_on_trace, overdict.counterexample)
    if expected is not None and main.holds != expected:
        agree = False
        notes.append("main verdict contradicts the expectation table")
    return DifferentialRow(subject=subject, prop=prop_name, main_holds=main.holds,
                           oracle_holds=oracle_holds, expected=expected,
                           agree=agree, note="; ".join(notes))


def random_formula(rng: random.Random, alphabet: list[str], depth: int) -> Formula:
    if depth <= 0:
        roll = rng.random()
        if roll < 0.15:
            return TrueFormula()
        return Atom(rng.choice(alphabet))
    kind = rng.choice(["atom", "not", "or", "and", "until", "finally", "globally"])
    if kind == "atom":
        return Atom(rng.choice(alphabet))
    if kind in ("not", "finally", "globally"):
        operand = random_formula(rng, alphabet, depth - 1)
        return {"not": Not, "finally": Finally, "globally": Globally}[kind](operand)
    left = random_formula(rng, alphabet, depth - 1)
    right = random_formula(rng, alphabet, depth - 1)
    return {"or": Or, "and": And, "until": Until}[kind](left, right)


def random_graph(rng: random.Random, max_states: int, alphabet: list[str]) -> StateGraph:
    n = rng.randint(2, max_states)
    edges = []
    for s in range(n):
        degree = rng.choice([0, 1, 1, 2, 2, 3])
        for _ in range(degree):
            edges.append((s, rng.choice(alphabet), rng.randrange(n)))
    return make_graph(n, [0], sorted(set(edges)), alphabet)


def cross_validate(entries: list[CorpusEntry] | None = None,
                   random_pairs: int = 0, seed: int = 20240,
                   max_states: int = 12,
                   bounds: OracleBounds | None = None) -> DifferentialReport:
    """Run main and oracle checkers side by side; report every comparison.

    Each corpus graph's `_GraphTables` are built once and shared by all of
    its comparisons; they last for this call only."""
    bounds = bounds or OracleBounds()
    rows: list[DifferentialRow] = []
    if entries is None:
        entries = load_corpus()
    for entry in entries:
        tables: dict[str, _GraphTables] = {}
        for v in entry.verdicts:
            graph = entry.graph(v.machine)
            if v.machine not in tables:
                tables[v.machine] = _GraphTables(graph)
            phi = entry.properties[v.prop]
            rows.append(_compare_on(f"{entry.name}/{v.machine}", v.prop, graph,
                                    phi, v.holds, bounds, tables[v.machine]))
    rng = random.Random(seed)
    alphabet = ["a", "b", "c", "d"]
    for k in range(random_pairs):
        graph = random_graph(rng, max_states, alphabet)
        phi = random_formula(rng, alphabet, rng.randint(1, 5))
        rows.append(_compare_on(f"random-{k}", "phi", graph, phi, None, bounds,
                                _GraphTables(graph)))
    return DifferentialReport(rows)
