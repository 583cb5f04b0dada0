"""Brute-force cross-checking oracle and the bundled corpus.

Everything here exists to catch drift in the main checker, not to serve
users.  The two entry points reimplement satisfaction and model checking
with deliberately different algorithms:

  * `oracle_holds_on` fills truth tables bottom-up over subformulas, with a
    fixpoint for Until on the cycle positions.  It shares no code with
    `ltl.holds_on_trace`, which recurses over suffix traces.  The formula
    is first compiled (`_truth_program`) into its distinct subformulas in
    post-order, each naming its operands by index, and the tables are
    then filled by index (`_fill_truth_rows`).
  * `oracle_model_check` enumerates candidate executions of the graph
    directly -- deadlock-terminated walks and prefix+cycle lassos within
    length bounds -- and refutes on the first failing one.  No automaton is
    built anywhere in this module.  Each check compiles its formula once,
    and lists each state's closed walks once (`_closed_walks`), replaying
    that list, step charges included, for every prefix that reaches the
    state.

`cross_validate` runs both checkers over the corpus expectation table and
over seeded random (graph, formula) pairs.  When the main checker refutes
with a counterexample longer than the oracle's default horizon, the oracle
is re-run with bounds that cover the counterexample, and the counterexample
itself is replayed (realizability in the graph plus truth under the
oracle's own evaluator), so a disagreement always means a genuine bug in
one of the two sides.

`_bounded_traces` lists every short trace over an alphabet; the tests
hold the beta-dependence decision against that enumeration.
"""
from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from itertools import product as iproduct
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
# satisfaction, table-filling style


def oracle_holds_on(u: Trace, phi: Formula) -> bool:
    """Positionwise evaluation over the distinct suffixes of the trace."""
    return _fill_truth_rows(_truth_program(phi), u)


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


def _fill_truth_rows(program: list[tuple], u: Trace) -> bool:
    """Fill one truth row per program entry, bottom-up over the positions
    of u, with a fixpoint for the temporal operators on a lasso's cycle;
    the answer is phi's row at position 0."""
    if u.is_lasso:
        p = len(u.prefix)
        n = p + len(u.cycle)
        events = [*u.prefix, *u.cycle]
        succ = list(range(1, n + 1))
        succ[n - 1] = p
        finite = False
    else:
        n = len(u.prefix) + 1  # last position is the empty suffix
        events = [*u.prefix, None]
        finite = True

    rows: list[list[bool]] = []
    for kind, left, right in program:
        if kind is TrueFormula:
            row = [True] * n
        elif kind is Atom:
            row = [e == left for e in events]
        elif kind is Not:
            row = [not v for v in rows[left]]
        elif kind is Or:
            row = [x or y for x, y in zip(rows[left], rows[right])]
        elif kind is And:
            row = [x and y for x, y in zip(rows[left], rows[right])]
        elif kind is Finally:
            row = list(rows[left])
            if finite:
                for i in range(n - 2, -1, -1):
                    row[i] = row[i] or row[i + 1]
            else:
                changed = True
                while changed:
                    changed = False
                    for i in range(n - 1, -1, -1):
                        v = row[i] or row[succ[i]]
                        if v != row[i]:
                            row[i] = v
                            changed = True
        elif kind is Globally:
            row = list(rows[left])
            if finite:
                for i in range(n - 2, -1, -1):
                    row[i] = row[i] and row[i + 1]
            else:
                changed = True
                while changed:
                    changed = False
                    for i in range(n - 1, -1, -1):
                        v = row[i] and row[succ[i]]
                        if v != row[i]:
                            row[i] = v
                            changed = True
        else:  # Until
            a = rows[left]
            row = list(rows[right])
            if finite:
                for i in range(n - 2, -1, -1):
                    row[i] = row[i] or (a[i] and row[i + 1])
            else:
                changed = True
                while changed:
                    changed = False
                    for i in range(n - 1, -1, -1):
                        v = row[i] or (a[i] and row[succ[i]])
                        if v != row[i]:
                            row[i] = v
                            changed = True
        rows.append(row)
    return rows[-1][0]


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
    method: str = "lasso-enumeration"
    bounds: Optional[OracleBounds] = None
    traces_checked: int = 0

    def to_json_dict(self) -> dict:
        return {
            "holds": self.holds,
            "counterexample": self.counterexample.to_json_dict() if self.counterexample else None,
            "method": self.method,
            "traces_checked": self.traces_checked,
        }


def _sorted_moves(graph: StateGraph) -> list[list[tuple[str, int]]]:
    moves: list[list[tuple[str, int]]] = []
    for i in range(len(graph.states)):
        pairs = sorted({(e.event, e.tgt) for e in graph.out_edges(i)})
        moves.append(pairs)
    return moves


def oracle_model_check(graph: StateGraph, phi: Formula,
                       bounds: OracleBounds | None = None) -> OracleVerdict:
    """Enumerate executions up to the bounds and refute on the first failure.

    Deadlock-terminated walks up to `bounds.finite` events and lassos with
    prefix up to `bounds.prefix` plus cycle up to `bounds.cycle` are all
    evaluated (deduplicated as event sequences).  If nothing refutes, the
    verdict is `holds` at these bounds.  Raises EnumerationBudgetError when
    the step allowance runs out, in which case no verdict is claimed.
    """
    bounds = bounds or OracleBounds()
    program = _truth_program(phi)
    moves = _sorted_moves(graph)
    deadlocks = set(graph.deadlocks)
    walks: dict[int, list[tuple[int, Optional[tuple[str, ...]]]]] = {}
    steps = 0
    checked = 0
    seen_traces: set[tuple] = set()

    def spend(k: int = 1):
        nonlocal steps
        steps += k
        if steps > bounds.budget:
            raise EnumerationBudgetError(
                f"oracle enumeration exceeded {bounds.budget} steps")

    def consider(kind: str, prefix: tuple[str, ...],
                 cycle: tuple[str, ...]) -> Optional[OracleVerdict]:
        nonlocal checked
        key = (kind, prefix, cycle)
        if key in seen_traces:
            return None
        seen_traces.add(key)
        checked += 1
        spend(4)
        trace = Trace(kind, prefix, cycle)
        if not _fill_truth_rows(program, trace):
            return OracleVerdict(False, trace, bounds=bounds, traces_checked=checked)
        return None

    # breadth-first walk enumeration from the initial states
    frontier = dict.fromkeys((s, ()) for s in graph.initial)
    horizon = max(bounds.prefix, bounds.finite)
    for depth in range(horizon + 1):
        next_frontier: dict[tuple[int, tuple[str, ...]], None] = {}
        for state, events in frontier:
            spend()
            if state in deadlocks and depth <= bounds.finite:
                verdict = consider(FINITE, events, ())
                if verdict:
                    return verdict
            if depth <= bounds.prefix:
                if state not in walks:
                    walks[state] = _closed_walks(state, moves, bounds.cycle,
                                                 bounds.budget - steps)
                for pops, cycle in walks[state]:
                    spend(pops)
                    if cycle is None:
                        break
                    verdict = consider(LASSO, events, cycle)
                    if verdict:
                        return verdict
            if depth < horizon:
                for event, tgt in moves[state]:
                    next_frontier.setdefault((tgt, events + (event,)))
        frontier = next_frontier

    return OracleVerdict(True, bounds=bounds, traces_checked=checked)


def _closed_walks(origin: int, moves, cycle_bound: int,
                  limit: int) -> list[tuple[int, Optional[tuple[str, ...]]]]:
    """The closed walks at `origin` up to the cycle bound, in DFS order.

    Each walk comes paired with the number of DFS stack pops since the
    previous one, and a final `(pops, None)` counts the pops after the
    last walk, so charging `spend(pops)` before each walk charges the
    budget exactly as walking the DFS itself would.  The DFS stops after
    `limit + 1` pops, which a replay with at most `limit` steps left cannot
    get past.
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
    return found


# ---------------------------------------------------------------------------
# replaying traces against a graph

def trace_realizable(graph: StateGraph, trace: Trace) -> bool:
    """Is the trace an actual maximal execution of the graph?

    Subset stepping handles nondeterminism; for lassos the cycle must be
    repeatable forever, i.e. the cycle-word relation reached from the
    prefix must contain a cycle of graph states.
    """
    moves = _sorted_moves(graph)

    def step(states: set[int], event: str) -> set[int]:
        out = set()
        for s in states:
            for ev, tgt in moves[s]:
                if ev == event:
                    out.add(tgt)
        return out

    cur = set(graph.initial)
    for event in trace.prefix:
        cur = step(cur, event)
        if not cur:
            return False
    if not trace.is_lasso:
        return not cur.isdisjoint(graph.deadlocks)

    def cycle_step(s: int) -> set[int]:
        states = {s}
        for event in trace.cycle:
            states = step(states, event)
            if not states:
                return set()
        return states

    # find a cycle in the "one full cycle-word" relation, starting from cur
    reach: dict[int, set[int]] = {}
    work = list(cur)
    while work:
        s = work.pop()
        if s in reach:
            continue
        reach[s] = cycle_step(s)
        work.extend(reach[s])
    color: dict[int, int] = {}

    def has_cycle(s: int) -> bool:
        stack = [(s, iter(sorted(reach.get(s, ()))))]
        color[s] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for succ in it:
                if color.get(succ) == 1:
                    return True
                if succ not in color:
                    color[succ] = 1
                    stack.append((succ, iter(sorted(reach.get(succ, ())))))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                stack.pop()
        return False

    return any(has_cycle(s) for s in sorted(cur) if s not in color)


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
    raw: dict = field(default_factory=dict)
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
                       machines=machines, properties=props, verdicts=verdicts, raw=data)


def load_corpus(root: Path | None = None) -> list[CorpusEntry]:
    root = root or corpus_root()
    entries = []
    for sub in sorted(root.iterdir()):
        if (sub / "expected.json").exists():
            entries.append(load_entry(sub))
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
                expected: Optional[bool], base_bounds: OracleBounds) -> DifferentialRow:
    # local import: the oracle must not depend on the machinery it checks,
    # except in this comparison driver
    from .ltl import holds_on_trace, model_check

    main = model_check(graph, phi)
    note = ""

    bounds = base_bounds
    if not main.holds and main.counterexample is not None:
        cex = main.counterexample
        bounds = OracleBounds(
            prefix=max(base_bounds.prefix, len(cex.prefix)),
            cycle=max(base_bounds.cycle, len(cex.cycle)),
            finite=max(base_bounds.finite, len(cex.prefix)),
            budget=base_bounds.budget,
        )
        if oracle_holds_on(cex, phi):
            raise ToolkitBug(
                f"{subject}/{prop_name}: main counterexample satisfies the "
                f"formula under the oracle evaluator: {cex.render()}")
        if not trace_realizable(graph, cex):
            raise ToolkitBug(
                f"{subject}/{prop_name}: main counterexample is not a trace "
                f"of the graph: {cex.render()}")

    oracle_holds: Optional[bool]
    try:
        overdict = oracle_model_check(graph, phi, bounds)
        oracle_holds = overdict.holds
        if not overdict.holds:
            cex = overdict.counterexample
            if holds_on_trace(cex, phi):
                raise ToolkitBug(
                    f"{subject}/{prop_name}: oracle counterexample satisfies "
                    f"the formula under the main evaluator: {cex.render()}")
            if not trace_realizable(graph, cex):
                raise ToolkitBug(
                    f"{subject}/{prop_name}: oracle counterexample is not a "
                    f"trace of the graph: {cex.render()}")
    except EnumerationBudgetError:
        oracle_holds = None
        note = "oracle verdict withheld (budget); counterexample replay used instead"

    if oracle_holds is None:
        # replay already validated main's counterexample, or main holds and
        # the oracle simply could not finish: only a refutation can be confirmed
        agree = not main.holds
    else:
        agree = main.holds == oracle_holds
    if expected is not None and main.holds != expected:
        agree = False
        note = (note + "; " if note else "") + "main verdict contradicts the expectation table"
    return DifferentialRow(subject=subject, prop=prop_name, main_holds=main.holds,
                           oracle_holds=oracle_holds, expected=expected,
                           agree=agree, note=note)


def random_formula(rng: random.Random, alphabet: list[str], depth: int) -> Formula:
    if depth <= 0:
        roll = rng.random()
        if roll < 0.15:
            return TrueFormula()
        return Atom(rng.choice(alphabet))
    kind = rng.choice(["atom", "not", "or", "and", "until", "finally", "globally"])
    if kind == "atom":
        return Atom(rng.choice(alphabet))
    if kind == "not":
        return Not(random_formula(rng, alphabet, depth - 1))
    if kind == "finally":
        return Finally(random_formula(rng, alphabet, depth - 1))
    if kind == "globally":
        return Globally(random_formula(rng, alphabet, depth - 1))
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
    """Run main and oracle checkers side by side; report every comparison."""
    bounds = bounds or OracleBounds()
    rows: list[DifferentialRow] = []
    if entries is None:
        entries = load_corpus()
    for entry in entries:
        for v in entry.verdicts:
            graph = entry.graph(v.machine)
            phi = entry.properties[v.prop]
            rows.append(_compare_on(f"{entry.name}/{v.machine}", v.prop, graph,
                                    phi, v.holds, bounds))
    rng = random.Random(seed)
    alphabet = ["a", "b", "c", "d"]
    for k in range(random_pairs):
        graph = random_graph(rng, max_states, alphabet)
        phi = random_formula(rng, alphabet, rng.randint(1, 5))
        rows.append(_compare_on(f"random-{k}", "phi", graph, phi, None, bounds))
    return DifferentialReport(rows)
