"""Transition-system semantics for machines.

A typechecked machine is compiled once and kept on the machine
(`compile_machine`): one small translator (`_py`) writes Python source for
its initialisation, its events, its invariant and its variant, `_MEMBER`
gives the test of each declared domain, and `exec` turns that into
functions over state tuples.  An event with parameters is a comprehension
over its domain, resolved once; one without tests its guard, then fires.
Exploration and the refinement obligations both evaluate through those
functions; the gluing relation of a refinement pair is compiled the same
way (`compile_gluing`).

States are tuples of the declared variables' values in sorted name order,
and evaluation on a machine builds no name-to-value environment (only
`compile_expr` takes one).  `explore` computes the
breadth-first closure of the initial states under every enabled
(event, parameter) pair, checking the invariant and the declared domains
on every state it discovers.  The resulting graph is canonical: variables
are kept in sorted order, sets are canonical frozensets, and states are
numbered in discovery order, so two explorations of one machine produce
identical graphs.  Walking the ids in order is the breadth-first search:
`explore` records the edge that first reached each state, and the graph
keeps that tree as two lists indexed by state (`StateGraph.tree`).

The graph stores one record, `StateGraph.firings` (`FiringRecord`): every
enabled firing, once, in flat arrays with no tuple per firing, grouped by
source state (exploration order for an explored graph).  The successor
table that every product reads (`moves`), its labels, the deadlocks and the
edge views are all derived from it, in record order, and `explore`'s graph
reports (`cli`) are written as they are read from it and from the state
tuples, a bounded piece at a time; `StateGraph.to_json_dict` is the dict
form those reports are tested against, and no command builds it.  A
firing whose bounded choice admits no value has no after-state ids and
adds no transition, so one exploration serves both the commands that
reject it (`require_feasible`) and the refinement obligations, which read
the concrete machine only through the caller's graphs and report such a
firing as FIS_REF.
"""
from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from itertools import pairwise, product
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .errors import EvalError, ExplorationLimitError, InvariantViolation
from .machine_ast import (
    Assign, Binary, BoolLit, BoolType, Call, ElemType, Expr, IfExpr, IntLit,
    IntRangeType, Machine, Name, SetLit, SetType, Unary,
)
from .search import bfs, path_to
from .typecheck import resolve_type

Value = object  # int | bool | str (carrier element) | frozenset[str]


# ---------------------------------------------------------------------------
# compiled machines: generated Python functions over state tuples

def static_env(machine: Machine) -> dict:
    """Bindings that do not change between states: constants, elements,
    carrier sets."""
    env: dict = {}
    for carrier, elems in machine.sym.carrier_elems.items():
        env[carrier] = frozenset(elems)
        for e in elems:
            env[e] = e
    env.update(machine.sym.constants)
    return env


# operator -> (Python template, level); the operators of one nonzero level
# group left to right in Python as in the language, so a left-nested chain
# of them needs no inner parentheses (Python allows 200 nested ones)
_OPS = {op: (f"({{}} {py} {{}})", level) for op, py, level in (
    ("or", "or", 1), ("&", "and", 2), ("union", "|", 3), ("inter", "&", 4),
    ("+", "+", 5), ("-", "-", 5), ("diff", "-", 5), ("*", "*", 6),
    ("=", "==", 0), ("/=", "!=", 0), ("<", "<", 0), ("<=", "<=", 0), (">", ">", 0),
    (">=", ">=", 0), ("in", "in", 0), ("notin", "not in", 0), ("<:", "<=", 0))}
_OPS.update({"=>": ("((not {}) or {})", 0), "<=>": ("(bool({}) == bool({}))", 0)})
_CALLS = {"card": "len", "min": "min", "max": "max"}
_BUILTINS = {f.__name__: f for f in (frozenset, len, min, max, bool, isinstance, int)}
# resolved declared type -> a test that variable {v} holds one of its values;
# a bool passes an int range, as `isinstance(True, int)` holds
_MEMBER = {IntRangeType: "isinstance({v}, int) and {t.lo} <= {v} <= {t.hi}",
           BoolType: "isinstance({v}, bool)", ElemType: "{v} in k_{t.carrier}",
           SetType: "isinstance({v}, frozenset) and {v} <= k_{t.carrier}"}


def _py(e: Expr, name: Callable[[str], str]) -> str:
    """Parenthesized Python source for `e`.  `name` maps an identifier to
    its prefixed Python name; beyond those names the text holds only int
    and bool literals, the operators above and the builtins."""
    if isinstance(e, (IntLit, BoolLit)) and type(e.value) in (int, bool):
        return repr(e.value)
    if isinstance(e, Name):
        try:
            return name(e.name)
        except KeyError:
            raise EvalError(f"unbound name {e.name!r}") from None
    if isinstance(e, SetLit):
        return f"frozenset(({''.join(_py(i, name) + ', ' for i in e.items)}))"
    if isinstance(e, Unary) and e.op in ("neg", "not"):
        return f"({'-' if e.op == 'neg' else 'not '}{_py(e.operand, name)})"
    if isinstance(e, Binary) and e.op in _OPS:
        template, level = _OPS[e.op]
        left = _py(e.left, name)
        if level and isinstance(e.left, Binary) and _OPS.get(e.left.op, ("", 0))[1] == level:
            left = left[1:-1]
        return template.format(left, _py(e.right, name))
    if isinstance(e, Call) and e.fn in _CALLS:
        return f"{_CALLS[e.fn]}({', '.join(_py(a, name) for a in e.args)})"
    if isinstance(e, IfExpr):
        return f"({_py(e.then, name)} if {_py(e.cond, name)} else {_py(e.orelse, name)})"
    raise EvalError(f"cannot evaluate {e!r}")


def _compile(source: str, mode: str):
    try:
        return compile(source, "<ebltl>", mode)
    except (SyntaxError, RecursionError, MemoryError):  # Python's parser limits
        raise EvalError("expression nests too deeply to compile") from None


def _build(source: str, namespace: dict) -> dict:
    """`namespace`, holding the statics and domains `source` reads, after
    executing `source` in it."""
    namespace["__builtins__"] = _BUILTINS
    exec(_compile(source, "exec"), namespace)
    return namespace


def _unpack(prefix: str, names, arg: str) -> str:
    """A line binding every name of `names`, prefixed, from tuple `arg`."""
    return f"    {''.join(prefix + n + ', ' for n in names)}= {arg}\n" if names else ""


def compile_expr(e: Expr) -> Callable[[dict], Value]:
    """A function evaluating `e` in an environment of name bindings, through
    the translator the machines use: `&`, `or` and `=>` evaluate their right
    operand only when the left one leaves the result open, and an unbound
    name raises EvalError."""
    code = _compile(_py(e, "k_".__add__), "eval")

    def evaluate(env: dict) -> Value:
        try:
            return eval(code, {"__builtins__": _BUILTINS, **{"k_" + n: v for n, v in env.items()}})
        except NameError as exc:
            raise EvalError(f"unbound name {exc.name[2:]!r}") from None
    return evaluate


@dataclass(frozen=True)
class CompiledMachine:
    """A typechecked machine as functions over state tuples, which hold the
    variables' values in sorted name order.  `init()` lists the initial
    states.  `events[name](state, guarded=True)`, keyed and ordered by name,
    lists (valuation, [after-state]) for every parameter valuation whose
    guard holds, in canonical order, or for every valuation when `guarded`
    is false (a parameterless event tests its guard, then gives its one
    valuation `()`); an empty list of after-states means that a bounded
    choice admits no value.  `invariant` and `variant` evaluate at a state,
    and `out_of_domain` gives the state position of the first variable, in
    declaration order, outside its declared type, or -1."""

    init: Callable[[], list[tuple]]
    events: dict[str, Callable]
    invariant: Callable[[tuple], Value]
    variant: Optional[Callable[[tuple], Value]]
    out_of_domain: Callable[[tuple], int]


def compile_machine(machine: Machine) -> CompiledMachine:
    """The machine's compiled form, built on first use and kept on the
    machine next to its symbol table.

    Variables read `s_<name>`, statics `k_<name>` and the parameters of
    block k `p<k>_<name>`; each parameter block (an event's parameters or a
    bounded choice) is one comprehension clause over its domain, resolved
    once into a list of (valuation, values)."""
    if machine.compiled is not None:
        return machine.compiled
    sym = machine.sym
    if sym is None:
        raise EvalError(f"machine {machine.name} was not typechecked")
    static = static_env(machine)
    namespace = {"k_" + n: v for n, v in static.items()}
    scope = {n: "k_" + n for n in static}
    scope.update((v, "s_" + v) for v in sym.var_names)

    domains: list[list] = []  # d<k>: (valuation, values) of block k

    def block(params, test, scope, guarded=False):
        """Block k's comprehension clause and its scope."""
        k, names = len(domains), [p.name for p in params]
        domains.append([(tuple(zip(names, values)), values) for values in product(
            *(sym.domain(resolve_type(p.ptype, sym)) for p in params))])
        inner = {**scope, **{n: f"p{k}_{n}" for n in names}}
        clause = f" for v{k}, ({''.join(f'p{k}_{n}, ' for n in names)}) in d{k}"
        if test is not None:
            clause += f" if {'not guarded or ' if guarded else ''}{_py(test, inner.__getitem__)}"
        return k, clause, inner

    def after_states(actions, scope) -> str:
        """A list comprehension of the after-state tuples of `actions`."""
        values: dict[str, str] = {}
        clauses: list[str] = []

        def walk(actions, scope):
            for a in actions:
                if isinstance(a, Assign):
                    values[a.target] = _py(a.expr, scope.__getitem__)
                else:
                    _, clause, inner = block(a.params, a.where, scope)
                    clauses.append(clause)
                    walk(a.actions, inner)
        walk(actions, scope)
        state = "".join(values.get(v, "s_" + v) + ", " for v in sym.var_names)
        return f"[({state}){''.join(clauses)}]"

    unpack = _unpack("s_", sym.var_names, "s")
    events = sorted(machine.events, key=lambda e: e.name)
    source = [f"def init():\n    return {after_states(machine.init.actions, scope)}\n"]
    for i, event in enumerate(events):
        if event.params:
            k, clause, inner = block(event.params, event.guard, scope, guarded=True)
            body = f"return [(v{k}, {after_states(event.actions, inner)}){clause}]"
        else:  # no parameter block: the guard's test, then the one valuation
            test = "" if event.guard is None else \
                f"if guarded and not {_py(event.guard, scope.__getitem__)}:\n        return []\n    "
            body = f"{test}return [((), {after_states(event.actions, scope)})]"
        source.append(f"def e{i}(s, guarded=True):\n{unpack}    {body}\n")
    for fn, expr in (("invariant", machine.invariant or BoolLit(True)),
                     ("variant", machine.variant)):
        if expr is not None:
            source.append(f"def {fn}(s):\n{unpack}    return {_py(expr, scope.__getitem__)}\n")
    tests = "".join(f"    if not ({_MEMBER[type(t)].format(v='s_' + v, t=t)}):\n"
                    f"        return {sym.var_names.index(v)}\n" for v, t in sym.var_types.items())
    source.append(f"def out_of_domain(s):\n{unpack}{tests}    return -1\n")
    namespace.update((f"d{k}", d) for k, d in enumerate(domains))
    built = _build("".join(source), namespace)
    machine.compiled = CompiledMachine(
        init=built["init"],
        events={e.name: built[f"e{i}"] for i, e in enumerate(events)},
        invariant=built["invariant"], variant=built.get("variant"),
        out_of_domain=built["out_of_domain"])
    return machine.compiled


def compile_gluing(abstract: Machine, concrete: Machine,
                   linking: Expr | None) -> Callable[[tuple, tuple], Value]:
    """The gluing relation of a refinement pair, over (abstract state,
    concrete state): the shared variables are equal and the linking
    invariant holds.  A name in the linking invariant is the concrete
    variable, else the abstract variable, else a static of the concrete
    machine, else one of the abstract machine."""
    a_vars, c_vars = abstract.sym.var_names, concrete.sym.var_names
    static = {**static_env(abstract), **static_env(concrete)}
    scope = {n: "k_" + n for n in static}
    scope.update((v, "a_" + v) for v in a_vars)
    scope.update((v, "c_" + v) for v in c_vars)
    tests = [f"(a_{v} == c_{v})" for v in sorted(set(a_vars) & set(c_vars))]
    if linking is not None:
        tests.append(_py(linking, scope.__getitem__))
    source = (f"def glue(a, c):\n{_unpack('a_', a_vars, 'a')}{_unpack('c_', c_vars, 'c')}"
              f"    return {' and '.join(tests) or 'True'}\n")
    return _build(source, {"k_" + n: v for n, v in static.items()})["glue"]


def value_to_json(value: Value):
    if isinstance(value, frozenset):
        return sorted(value)
    return value


# ---------------------------------------------------------------------------
# graphs

class Edge(NamedTuple):
    src: int
    event: str
    params: tuple[tuple[str, Value], ...]
    tgt: int


@dataclass
class ExploreLimits:
    max_states: int = 100_000


class FiringRecord:
    """Every enabled firing of a graph, once, as flat columns with no tuple
    per firing, grouped by source state: `src` never decreases, so one
    state's firings are one run, found by bisecting `src`.  Firing i fires
    event `events[event[i]]` under valuation `params[i]` (a tuple an
    explored graph shares with the compiled parameter table) at state
    `src[i]`, and its after-state ids are `targets[start[i]:start[i + 1]]`,
    none for an empty bounded choice.  Read in order it yields `(src,
    event, params, targets)` tuples built as they are read."""

    def __init__(self, events=(), firings: Iterable[tuple] = ()):
        """A record over the event names `events`, holding the
        `(src, event, params, targets)` tuples `firings` stably sorted by
        source, so each source keeps its firings in input order.  `explore`
        starts empty and appends in source order."""
        self.src, self.event, self.params = array("i"), array("i"), []
        self.start, self.targets = array("i", [0]), array("i")
        ids = {name: e for e, name in enumerate(events)}
        for src, event, params, targets in sorted(firings, key=itemgetter(0)):
            self.src.append(src)
            self.event.append(ids.setdefault(event, len(ids)))
            self.params.append(params)
            self.targets.extend(targets)
            self.start.append(len(self.targets))
        self.events = list(ids)

    def __len__(self) -> int:
        return len(self.src)

    def __iter__(self):
        names, targets = self.events, self.targets
        for src, e, params, (a, b) in zip(self.src, self.event, self.params, pairwise(self.start)):
            yield src, names[e], params, tuple(targets[a:b])


@dataclass
class StateGraph:
    """One record, `firings` (`FiringRecord`), and the breadth-first tree
    from the initial states, `tree`: two lists indexed by state, `parent`
    (-1 at an initial state, -2 at a state no initial state reaches) and
    `via`, the event of the firing that first reached it, as
    `search.path_to` reads them.  `explore` writes both as it goes; the
    other graph data are views derived from the record, in record order,
    which runs by source state."""
    machine: Optional[Machine]
    var_names: tuple[str, ...]
    states: list[tuple]
    initial: tuple[int, ...]
    firings: FiringRecord
    alphabet: tuple[str, ...]
    bounds: dict = field(default_factory=dict)

    @property
    def edges(self) -> list[Edge]:
        """One edge per (firing, after-state), in record order, built per call."""
        return [Edge(src, event, params, t)
                for src, event, params, targets in self.firings for t in targets]

    def out_edges(self, state: int) -> list[Edge]:
        """The edges leaving `state`, in record order, built per call from
        the run of its firings."""
        record = self.firings
        src, start, targets = record.src, record.start, record.targets
        return [Edge(state, record.events[record.event[i]], record.params[i], t)
                for i in range(bisect_left(src, state), bisect_left(src, state + 1))
                for t in targets[start[i]:start[i + 1]]]

    @cached_property
    def moves(self) -> list[list[tuple[int, str]]]:
        """Per state, its distinct (target, event) pairs in record order:
        parameter choices with equal labels collapse.  The record runs by
        source, so one fresh set per source dedupes its run of firings."""
        record = self.firings
        names, targets = record.events, record.targets
        ids = list(range(len(self.states)))  # one int object per state, shared by its moves
        out: list[list] = [[] for _ in ids]
        last, seen = -1, set()
        for src, e, (a, b) in zip(record.src, record.event, pairwise(record.start)):
            if src != last:
                last, seen = src, set()
            for t in targets[a:b]:
                move = (ids[t], names[e])
                if move not in seen:
                    seen.add(move)
                    out[src].append(move)
        return out

    @cached_property
    def labels(self) -> frozenset[str]:
        """The events on the edges of `moves`, which a hand-built graph
        (`make_graph`) need not keep inside its alphabet."""
        return frozenset(label for out in self.moves for _, label in out)

    @cached_property
    def deadlocks(self) -> tuple[int, ...]:
        """The states without a firing that has an after-state."""
        record = self.firings
        live = {src for src, (a, b) in zip(record.src, pairwise(record.start)) if a != b}
        return tuple(i for i in range(len(self.states)) if i not in live)

    @cached_property
    def tree(self) -> tuple[array, list]:
        """The tree of a bare graph, from one `search.bfs` over `moves`."""
        parent, via, _ = bfs(self.initial, [[v for move in out for v in move] for out in self.moves])
        ids = range(len(self.states))
        return array("i", [parent.get(s, -2) for s in ids]), [via.get(s) for s in ids]

    def reached(self, state: int) -> bool:
        """Whether the tree reaches `state`; a state added later is not."""
        parent = self.tree[0]
        return 0 <= state < len(parent) and parent[state] != -2

    def state_json(self, i: int) -> dict:
        return {n: value_to_json(v) for n, v in zip(self.var_names, self.states[i])}

    def to_json_dict(self) -> dict:
        """The graph report's dict form: the reference that `cli`'s writer,
        which reads the record, is tested against."""
        return {
            "machine": self.machine.name if self.machine else None,
            "variables": list(self.var_names),
            "states": [self.state_json(i) for i in range(len(self.states))],
            "initial": list(self.initial),
            "edges": [
                {"src": src, "event": event,
                 "params": [[n, value_to_json(v)] for n, v in params], "tgt": t}
                for src, event, params, targets in self.firings for t in targets
            ],
            "deadlocks": list(self.deadlocks),
            "alphabet": list(self.alphabet),
            "bounds": self.bounds,
        }

    def edge_lines(self) -> Iterator[str]:
        """One `src event tgt` line per edge, in record order, for external
        graph tools, each built as it is read."""
        record = self.firings
        for src, e, (a, b) in zip(record.src, record.event, pairwise(record.start)):
            head = f"{src} {record.events[e]} "
            for t in record.targets[a:b]:
                yield f"{head}{t}\n"


def make_graph(n_states: int, initial: Iterable[int], edges: Iterable[tuple],
               alphabet: Iterable[str]) -> StateGraph:
    """A bare graph whose `(src, event, tgt)` edges are parameterless firings."""
    firings = FiringRecord(firings=((s, ev, (), (t,)) for s, ev, t in edges))
    return StateGraph(
        machine=None, var_names=(), states=[(i,) for i in range(n_states)],
        initial=tuple(initial), firings=firings, alphabet=tuple(sorted(alphabet)),
    )


def explore(machine: Machine, limits: ExploreLimits | None = None) -> StateGraph:
    """Breadth-first reachability closure of a typechecked machine.

    Raises InvariantViolation (with a witness event path) when a reachable
    state breaks the invariant or leaves a declared domain, and
    ExplorationLimitError past `limits.max_states`.  Each enabled firing
    is written to the record with the ids of its after-states; one whose
    bounded choice admits no value gets none; see `require_feasible`.
    """
    compiled = compile_machine(machine)
    limits = limits or ExploreLimits()
    var_names = machine.sym.var_names
    names, events = list(compiled.events), list(compiled.events.values())
    record = FiringRecord(names)
    fired, event_of, params, start, targets = (
        record.src, record.event, record.params, record.start, record.targets)

    index: dict[tuple, int] = {}
    states: list[tuple] = []
    parent, via = array("i"), []  # the breadth-first tree, as `search.path_to` reads it

    def add_state(state: tuple, src: int, event: str | None) -> int:  # a state not in index
        if len(states) >= limits.max_states:
            raise ExplorationLimitError(
                f"state count exceeded the limit of {limits.max_states}")
        idx = len(states)
        index[state] = idx
        states.append(state)
        parent.append(src)
        via.append(event)
        i = compiled.out_of_domain(state)
        if i >= 0 or not compiled.invariant(state):
            message = ("invariant is false" if i < 0 else
                       f"{var_names[i]} = {value_to_json(state[i])!r} leaves its declared domain")
            path = path_to(parent, via, idx)
            raise InvariantViolation(
                f"state {idx} of {machine.name}: {message}"
                + (f" (reached by {', '.join(path)})" if path else " (initial state)"),
                state=dict(zip(var_names, state)), path=path)
        return idx

    init_states = dict.fromkeys(compiled.init())  # each once, in order
    if not init_states:
        raise InvariantViolation(f"init of {machine.name} admits no state")
    initial = [add_state(state, -1, None) for state in init_states]

    src = 0  # ids are the discovery order, so walking them is breadth-first
    while src < len(states):
        state = states[src]
        for e, event in enumerate(events):
            for valuation, posts in event(state):
                for post in posts:
                    t = index.get(post)
                    targets.append(add_state(post, src, names[e]) if t is None else t)
                fired.append(src)
                event_of.append(e)
                params.append(valuation)
                start.append(len(targets))
        src += 1

    graph = StateGraph(
        machine=machine, var_names=var_names, states=states,
        initial=tuple(initial), firings=record, alphabet=machine.alphabet(),
        bounds={"max_states": limits.max_states, "reached_states": len(states)},
    )
    graph.tree = parent, via
    return graph


def require_feasible(graph: StateGraph) -> StateGraph:
    """The graph itself when every enabled firing has an after-state.

    Otherwise raises InvariantViolation for the first infeasible firing in
    exploration order, with a shortest event path to its state.  Commands
    that reject such machines call this right after `explore`.
    """
    record = graph.firings
    for src, e, (lo, hi) in zip(record.src, record.event, pairwise(record.start)):
        if lo == hi:
            raise InvariantViolation(
                f"event {record.events[e]} of {graph.machine.name} is enabled but has no "
                f"after-state at state {src} (empty bounded choice)",
                state=dict(zip(graph.var_names, graph.states[src])),
                path=find_path(graph, src))
    return graph


# ---------------------------------------------------------------------------
# machine-level obligations

@dataclass
class GraphVerdict:
    holds: bool
    witness_state: Optional[int] = None
    witness_path: Optional[list[str]] = None
    detail: str = ""

    def to_json_dict(self) -> dict:
        """The graph report's dict form: the reference that `cli`'s writer,
        which reads the record, is tested against."""
        return {"holds": self.holds, "witness_state": self.witness_state,
                "witness_path": self.witness_path, "detail": self.detail}


def check_deadlock_free(graph: StateGraph) -> GraphVerdict:
    """Judges the reachable deadlocks only; an explored graph has no other,
    but a bare graph may hold unreachable states without out-edges."""
    reachable = [s for s in graph.deadlocks if graph.reached(s)]
    if not reachable:
        return GraphVerdict(True, detail="no deadlocked states")
    return GraphVerdict(False, witness_state=reachable[0],
                        witness_path=find_path(graph, reachable[0]),
                        detail=f"{len(reachable)} deadlocked state(s)")


def find_path(graph: StateGraph, target: int) -> list[str]:
    """Shortest event path from an initial state to `target`, read from the
    graph's breadth-first tree."""
    if not graph.reached(target):
        raise EvalError(f"state {target} is not reachable")
    return path_to(*graph.tree, target)
