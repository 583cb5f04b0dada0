"""Transition-system semantics for machines.

A typechecked machine is compiled once and kept on the machine
(`compile_machine`): each event holds its parameter domains, resolved once,
and closures (`compile_expr`) for its guard and actions.  Exploration, the
invariant check and the refinement obligations all fire events that way.

States are valuations of the declared variables; `explore` computes the
breadth-first closure of the initial states under every enabled
(event, parameter) pair, checking the invariant and the declared domains
on every state it discovers.  The resulting graph is canonical: variables
are kept in sorted order, sets are canonical frozensets, and states are
numbered in discovery order, so two explorations of one machine produce
identical graphs.

Every enabled firing is recorded once, in `StateGraph.firings`, whether
or not it has an after-state.  A firing whose bounded choice admits no value
adds no transition, so one exploration serves both the commands that reject
it (`require_feasible`) and the refinement obligations, which read the
concrete machine only through the caller's graphs and report such a firing
as FIS_REF.
"""
from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterable, Optional

from .errors import EvalError, ExplorationLimitError, InvariantViolation
from .machine_ast import (
    AnyChoice, Assign, Binary, BoolLit, BoolType, Call, ElemType, Event, Expr,
    IfExpr, IntLit, IntRangeType, Machine, Name, SetLit, SetType, Unary,
)
from .search import bfs, path_to
from .typecheck import resolve_type

Value = object  # int | bool | str (carrier element) | frozenset[str]


# ---------------------------------------------------------------------------
# compiled expressions and events

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


# operators that evaluate both operands, left first
_VALUE_OPS = {
    "=": operator.eq, "/=": operator.ne,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "in": lambda l, r: l in r, "notin": lambda l, r: l not in r,
    "<:": operator.le,  # frozenset subset
    "union": operator.or_, "inter": operator.and_, "diff": operator.sub,
}

Compiled = Callable[[dict], Value]


def compile_expr(e: Expr) -> Compiled:
    """A closure evaluating `e` in an environment of name bindings.

    Each node is dispatched once, here; the closure raises EvalError for
    an unbound name.  `&`, `or` and `=>` evaluate their right operand only
    when the left one leaves the result open.
    """
    if isinstance(e, (IntLit, BoolLit)):
        value = e.value
        return lambda env: value
    if isinstance(e, Name):
        name = e.name

        def lookup(env):
            try:
                return env[name]
            except KeyError:
                raise EvalError(f"unbound name {name!r}") from None
        return lookup
    if isinstance(e, SetLit):
        items = tuple(map(compile_expr, e.items))
        return lambda env: frozenset(item(env) for item in items)
    if isinstance(e, Unary):
        operand = compile_expr(e.operand)
        if e.op == "neg":
            return lambda env: -operand(env)
        return lambda env: not operand(env)
    if isinstance(e, Binary):
        left, right = compile_expr(e.left), compile_expr(e.right)
        if e.op == "&":
            return lambda env: left(env) and right(env)
        if e.op == "or":
            return lambda env: left(env) or right(env)
        if e.op == "=>":
            return lambda env: (not left(env)) or right(env)
        if e.op == "<=>":
            return lambda env: bool(left(env)) == bool(right(env))
        fn = _VALUE_OPS.get(e.op)
        if fn is None:
            raise EvalError(f"unknown operator {e.op!r}")
        return lambda env: fn(left(env), right(env))
    if isinstance(e, Call):
        first = compile_expr(e.args[0])
        if e.fn == "card":
            return lambda env: len(first(env))
        second = compile_expr(e.args[1])
        fn = min if e.fn == "min" else max
        return lambda env: fn(first(env), second(env))
    if isinstance(e, IfExpr):
        cond, then, orelse = map(compile_expr, (e.cond, e.then, e.orelse))
        return lambda env: then(env) if cond(env) else orelse(env)
    raise EvalError(f"cannot evaluate {e!r}")


_TRUE = BoolLit(True)  # an absent guard or invariant


@dataclass(frozen=True)
class CompiledEvent:
    """An event, or a bounded choice block inside one, with its parameter
    domains resolved and its guard and actions compiled.  Environments
    passed in hold the static bindings, a state's variables and the
    parameters of enclosing blocks."""

    params: tuple[str, ...]
    domains: tuple[tuple, ...]
    guard: Compiled
    actions: Callable[[dict], list[dict]]

    def bindings(self, env: dict):
        """(valuation, env extended by it) for every parameter valuation in
        canonical order, the guard ignored."""
        for values in product(*self.domains):
            valuation = tuple(zip(self.params, values))
            inner = dict(env)
            inner.update(valuation)
            yield valuation, inner

    def enabled(self, env: dict):
        """(valuation, env extended by it) for every valuation whose guard
        holds."""
        guard = self.guard
        return ((v, inner) for v, inner in self.bindings(env) if guard(inner))

    def firings(self, env: dict):
        """(valuation, update dicts) for every enabled valuation; an empty
        list means the guard held but no after-state exists."""
        return ((v, self.actions(inner)) for v, inner in self.enabled(env))


def _compile_event(params, guard: Expr | None, actions, sym) -> CompiledEvent:
    return CompiledEvent(tuple(p.name for p in params),
                         tuple(sym.domain(resolve_type(p.ptype, sym)) for p in params),
                         compile_expr(guard or _TRUE), _compile_actions(actions, sym))


def _compile_actions(actions, sym) -> Callable[[dict], list[dict]]:
    """A closure giving every parallel-update dictionary the action list
    can produce in an environment.

    Bounded choice blocks multiply outcomes; a block with no admissible
    valuation yields no outcome at all (the event cannot fire).
    """
    assigns = tuple((a.target, compile_expr(a.expr))
                    for a in actions if isinstance(a, Assign))
    choices = tuple(_compile_event(a.params, a.where, a.actions, sym)
                    for a in actions if isinstance(a, AnyChoice))

    def outcomes(env: dict) -> list[dict]:
        result = [{target: expr(env) for target, expr in assigns}]
        for choice in choices:
            found = [upd for _, updates in choice.firings(env) for upd in updates]
            result = [{**o, **i} for o in result for i in found]
        return result
    return outcomes


@dataclass(frozen=True)
class CompiledMachine:
    """Everything evaluation needs from a typechecked machine: the static
    bindings, init's actions, the events keyed and ordered by name, and
    the invariant and variant."""

    static: dict
    init: Callable[[dict], list[dict]]
    events: dict[str, CompiledEvent]
    invariant: Compiled
    variant: Optional[Compiled]


def compile_machine(machine: Machine) -> CompiledMachine:
    """The machine's compiled form, built on first use and kept on the
    machine next to its symbol table."""
    if machine.compiled is None:
        sym = machine.sym
        if sym is None:
            raise EvalError(f"machine {machine.name} was not typechecked")
        machine.compiled = CompiledMachine(
            static=static_env(machine),
            init=_compile_actions(machine.init.actions, sym),
            events={e.name: _compile_event(e.params, e.guard, e.actions, sym)
                    for e in sorted(machine.events, key=lambda e: e.name)},
            invariant=compile_expr(machine.invariant or _TRUE),
            variant=None if machine.variant is None else compile_expr(machine.variant))
    return machine.compiled


def value_in_domain(value: Value, vtype, sym) -> bool:
    if isinstance(vtype, IntRangeType):
        return isinstance(value, int) and int(vtype.lo) <= value <= int(vtype.hi)
    if isinstance(vtype, BoolType):
        return isinstance(value, bool)
    if isinstance(vtype, ElemType):
        return value in sym.carrier_elems[vtype.carrier]
    if isinstance(vtype, SetType):
        return isinstance(value, frozenset) and value <= frozenset(sym.carrier_elems[vtype.carrier])
    return False


def value_to_json(value: Value):
    if isinstance(value, frozenset):
        return sorted(value)
    return value


def event_firings(machine: Machine, state_env: dict, event: Event):
    """`CompiledEvent.firings` of `event` in `state_env`, which holds the
    static bindings and a state's variables."""
    return compile_machine(machine).events[event.name].firings(state_env)


# ---------------------------------------------------------------------------
# graphs

@dataclass(frozen=True)
class Edge:
    src: int
    event: str
    params: tuple[tuple[str, Value], ...]
    tgt: int


@dataclass
class ExploreLimits:
    max_states: int = 100_000


@dataclass
class StateGraph:
    machine: Optional[Machine]
    var_names: tuple[str, ...]
    states: list[tuple]
    initial: tuple[int, ...]
    edges: list[Edge]
    deadlocks: tuple[int, ...]
    alphabet: tuple[str, ...]
    bounds: dict = field(default_factory=dict)
    # every enabled firing as (state, event, params, feasible), in
    # exploration order; not part of the JSON report
    firings: list[tuple] = field(default_factory=list)
    _out: list[list[int]] = field(default=None, repr=False)

    def __post_init__(self):
        if self._out is None:
            out: list[list[int]] = [[] for _ in self.states]
            for i, e in enumerate(self.edges):
                out[e.src].append(i)
            self._out = out

    def out_edges(self, state: int) -> list[Edge]:
        return [self.edges[i] for i in self._out[state]]

    def successors(self, state: int) -> list[tuple[int, str]]:
        return [(e.tgt, e.event) for e in self.out_edges(state)]

    def state_env(self, i: int) -> dict:
        return dict(zip(self.var_names, self.states[i]))

    def state_json(self, i: int) -> dict:
        return {n: value_to_json(v) for n, v in zip(self.var_names, self.states[i])}

    def to_json_dict(self) -> dict:
        return {
            "machine": self.machine.name if self.machine else None,
            "variables": list(self.var_names),
            "states": [self.state_json(i) for i in range(len(self.states))],
            "initial": list(self.initial),
            "edges": [
                {"src": e.src, "event": e.event,
                 "params": [[n, value_to_json(v)] for n, v in e.params],
                 "tgt": e.tgt}
                for e in self.edges
            ],
            "deadlocks": list(self.deadlocks),
            "alphabet": list(self.alphabet),
            "bounds": self.bounds,
        }

    def edge_list_text(self) -> str:
        """One `src event tgt` line per edge, for external graph tools."""
        lines = [f"{e.src} {e.event} {e.tgt}" for e in self.edges]
        return "\n".join(lines) + ("\n" if lines else "")


def make_graph(n_states: int, initial: Iterable[int], edges: Iterable[tuple],
               alphabet: Iterable[str]) -> StateGraph:
    """Build a bare graph (used by the random differential tests)."""
    edge_objs = [Edge(s, ev, (), t) for s, ev, t in edges]
    outgoing = {e.src for e in edge_objs}
    deadlocks = tuple(i for i in range(n_states) if i not in outgoing)
    return StateGraph(
        machine=None, var_names=(),
        states=[(i,) for i in range(n_states)],
        initial=tuple(initial), edges=edge_objs, deadlocks=deadlocks,
        alphabet=tuple(sorted(alphabet)),
    )


def _check_state(machine: Machine, env: dict) -> str | None:
    """Domain membership plus invariant truth in `env` (the static bindings
    and a state's variables); returns a message on failure."""
    for name, vtype in machine.sym.var_types.items():
        if not value_in_domain(env[name], vtype, machine.sym):
            return f"{name} = {value_to_json(env[name])!r} leaves its declared domain"
    if not compile_machine(machine).invariant(env):
        return "invariant is false"
    return None


def explore(machine: Machine, limits: ExploreLimits | None = None) -> StateGraph:
    """Breadth-first reachability closure of a typechecked machine.

    Raises InvariantViolation (with a witness event path) when a reachable
    state breaks the invariant or leaves a declared domain, and
    ExplorationLimitError past `limits.max_states`.  Every enabled firing is
    recorded in `firings`; one whose bounded choice admits no value is marked
    infeasible and adds no transition; see `require_feasible`.
    """
    compiled = compile_machine(machine)
    limits = limits or ExploreLimits()
    base = compiled.static
    var_names = machine.sym.var_names

    index: dict[tuple, int] = {}
    states: list[tuple] = []
    parents: dict[int, tuple[int, str]] = {}
    edges: list[Edge] = []
    firings: list[tuple] = []
    queue: deque[int] = deque()  # each new state, once, in discovery order

    def add_state(env: dict, parent: tuple[int, str] | None) -> int:
        key = tuple(env[v] for v in var_names)
        if key in index:
            return index[key]
        if len(states) >= limits.max_states:
            raise ExplorationLimitError(
                f"state count exceeded the limit of {limits.max_states}")
        idx = len(states)
        index[key] = idx
        states.append(key)
        if parent is not None:
            parents[idx] = parent
        message = _check_state(machine, {**base, **env})
        if message:
            path = path_to(parents, idx)
            raise InvariantViolation(
                f"state {idx} of {machine.name}: {message}"
                + (f" (reached by {', '.join(path)})" if path else " (initial state)"),
                state={n: env[n] for n in var_names}, path=path)
        queue.append(idx)
        return idx

    # initial states: fire init from an empty valuation
    init_outcomes = compiled.init(base)
    if not init_outcomes:
        raise InvariantViolation(f"init of {machine.name} admits no state")
    initial = []
    for upd in init_outcomes:
        idx = add_state(upd, None)
        if idx not in initial:
            initial.append(idx)

    while queue:
        src = queue.popleft()
        state = dict(zip(var_names, states[src]))
        env = {**base, **state}
        for name, event in compiled.events.items():
            for valuation, outcomes in event.firings(env):
                firings.append((src, name, valuation, bool(outcomes)))
                for upd in outcomes:
                    tgt = add_state({**state, **upd}, (src, name))
                    edges.append(Edge(src, name, valuation, tgt))

    outgoing = {e.src for e in edges}
    deadlocks = tuple(i for i in range(len(states)) if i not in outgoing)
    return StateGraph(
        machine=machine, var_names=var_names, states=states,
        initial=tuple(initial), edges=edges, deadlocks=deadlocks,
        alphabet=machine.alphabet(),
        bounds={"max_states": limits.max_states, "reached_states": len(states)},
        firings=firings,
    )


def require_feasible(graph: StateGraph) -> StateGraph:
    """The graph itself when every enabled firing has an after-state.

    Otherwise raises InvariantViolation for the first infeasible firing in
    exploration order, with a shortest event path to its state.  Commands
    that reject such machines call this right after `explore`.
    """
    for src, event, _params, feasible in graph.firings:
        if not feasible:
            raise InvariantViolation(
                f"event {event} of {graph.machine.name} is enabled but has no "
                f"after-state at state {src} (empty bounded choice)",
                state=graph.state_env(src), path=find_path(graph, src))
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
        return {"holds": self.holds, "witness_state": self.witness_state,
                "witness_path": self.witness_path, "detail": self.detail}


def check_invariant(graph: StateGraph) -> GraphVerdict:
    """Re-evaluate invariant and domains on every stored state."""
    machine = graph.machine
    if machine is None:
        return GraphVerdict(True, detail="bare graph, nothing to check")
    base = compile_machine(machine).static
    for i in range(len(graph.states)):
        message = _check_state(machine, {**base, **graph.state_env(i)})
        if message:
            try:
                path = find_path(graph, i)
            except EvalError:  # a hand-built graph may hold unreachable states
                path = None
            return GraphVerdict(False, witness_state=i,
                                witness_path=path, detail=message)
    return GraphVerdict(True, detail=f"{len(graph.states)} states re-checked")


def check_deadlock_free(graph: StateGraph) -> GraphVerdict:
    if not graph.deadlocks:
        return GraphVerdict(True, detail="no deadlocked states")
    first = graph.deadlocks[0]
    return GraphVerdict(False, witness_state=first,
                        witness_path=find_path(graph, first),
                        detail=f"{len(graph.deadlocks)} deadlocked state(s)")


def find_path(graph: StateGraph, target: int) -> list[str]:
    """Shortest event path from an initial state to `target` (BFS)."""
    if target in graph.initial:
        return []
    parent, hit = bfs(graph.initial, graph.successors, lambda s: s == target)
    if hit is None:
        raise EvalError(f"state {target} is not reachable")
    node, event, _ = hit
    return path_to(parent, node) + [event]
