"""Transition-system semantics for machines.

States are valuations of the declared variables; `explore` computes the
breadth-first closure of the initial states under every enabled
(event, parameter) pair, checking the invariant and the declared domains
on every state it discovers.  The resulting graph is canonical: variables
are kept in sorted order, sets are canonical frozensets, and states are
numbered in discovery order, so two explorations of one machine produce
identical graphs.

A firing whose guard holds but whose bounded choice admits no value adds
no transition and is recorded, so one exploration serves both the commands
that reject it (`require_feasible`) and the refinement obligations, which
report it as FIS_REF over the caller's graphs.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Optional

from .errors import EvalError, ExplorationLimitError, InvariantViolation
from .machine_ast import (
    Assign, Binary, BoolLit, BoolType, Call, ElemType, Event, Expr,
    IfExpr, IntLit, IntRangeType, Machine, Name, SetLit, SetType, Unary,
)
from .search import bfs, path_to

Value = object  # int | bool | str (carrier element) | frozenset[str]


# ---------------------------------------------------------------------------
# expression evaluation

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


def eval_expr(e: Expr, env: dict) -> Value:
    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, BoolLit):
        return e.value
    if isinstance(e, Name):
        try:
            return env[e.name]
        except KeyError:
            raise EvalError(f"unbound name {e.name!r}") from None
    if isinstance(e, SetLit):
        return frozenset(eval_expr(i, env) for i in e.items)
    if isinstance(e, Unary):
        v = eval_expr(e.operand, env)
        return -v if e.op == "neg" else (not v)
    if isinstance(e, Binary):
        op = e.op
        if op == "&":
            return eval_expr(e.left, env) and eval_expr(e.right, env)
        if op == "or":
            return eval_expr(e.left, env) or eval_expr(e.right, env)
        if op == "=>":
            return (not eval_expr(e.left, env)) or eval_expr(e.right, env)
        if op == "<=>":
            return bool(eval_expr(e.left, env)) == bool(eval_expr(e.right, env))
        l = eval_expr(e.left, env)
        r = eval_expr(e.right, env)
        if op == "=":
            return l == r
        if op == "/=":
            return l != r
        if op == "<":
            return l < r
        if op == "<=":
            return l <= r
        if op == ">":
            return l > r
        if op == ">=":
            return l >= r
        if op == "+":
            return l + r
        if op == "-":
            return l - r
        if op == "*":
            return l * r
        if op == "in":
            return l in r
        if op == "notin":
            return l not in r
        if op == "<:":
            return l <= r  # frozenset subset
        if op == "union":
            return l | r
        if op == "inter":
            return l & r
        if op == "diff":
            return l - r
        raise EvalError(f"unknown operator {op!r}")
    if isinstance(e, Call):
        if e.fn == "card":
            return len(eval_expr(e.args[0], env))
        l = eval_expr(e.args[0], env)
        r = eval_expr(e.args[1], env)
        return min(l, r) if e.fn == "min" else max(l, r)
    if isinstance(e, IfExpr):
        if eval_expr(e.cond, env):
            return eval_expr(e.then, env)
        return eval_expr(e.orelse, env)
    raise EvalError(f"cannot evaluate {e!r}")


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


# ---------------------------------------------------------------------------
# event firing

def _param_domains(params, sym):
    resolved = []
    for p in params:
        ptype = p.ptype
        if isinstance(ptype, IntRangeType) and isinstance(ptype.lo, str):
            ptype = IntRangeType(sym.constants[ptype.lo], ptype.hi)
        if isinstance(ptype, IntRangeType) and isinstance(ptype.hi, str):
            ptype = IntRangeType(ptype.lo, sym.constants[ptype.hi])
        resolved.append((p.name, sym.domain(ptype)))
    return resolved


def _action_outcomes(actions, env: dict, sym) -> list[dict]:
    """All parallel-update dictionaries an action list can produce.

    Bounded choice blocks multiply outcomes; a block with no admissible
    valuation yields no outcome at all (the event cannot fire).
    """
    outcomes: list[dict] = [{}]
    for a in actions:
        if isinstance(a, Assign):
            value = eval_expr(a.expr, env)
            for o in outcomes:
                o[a.target] = value
        else:  # AnyChoice
            inner: list[dict] = []
            for choice in product(*(dom for _, dom in _param_domains(a.params, sym))):
                env2 = dict(env)
                for (name, _), v in zip(_param_domains(a.params, sym), choice):
                    env2[name] = v
                if eval_expr(a.where, env2):
                    inner.extend(_action_outcomes(a.actions, env2, sym))
            outcomes = [dict(o, **i) for o in outcomes for i in inner]
    return outcomes


def event_firings(machine: Machine, state_env: dict, event: Event):
    """Yield (param_valuation, update_dicts) for every enabled valuation.

    `update_dicts` empty means the guard held but no after-state exists
    (an infeasible bounded choice) -- the caller decides whether that is
    an error or a feasibility finding.
    """
    sym = machine.sym
    domains = _param_domains(event.params, sym)
    for choice in product(*(dom for _, dom in domains)):
        env = dict(state_env)
        valuation = tuple((name, v) for (name, _), v in zip(domains, choice))
        env.update(dict(valuation))
        if event.guard is not None and not eval_expr(event.guard, env):
            continue
        yield valuation, _action_outcomes(event.actions, env, sym)


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
    # enabled firings without an after-state, as (state, event, params), in
    # exploration order; not part of the JSON report
    infeasible: list[tuple] = field(default_factory=list)
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


def _state_tuple(env: dict, var_names) -> tuple:
    return tuple(env[v] for v in var_names)


def _check_state(machine: Machine, env: dict, invariant_env: dict) -> str | None:
    """Domain membership plus invariant truth; returns a message on failure."""
    for name, vtype in machine.sym.var_types.items():
        if not value_in_domain(env[name], vtype, machine.sym):
            return f"{name} = {value_to_json(env[name])!r} leaves its declared domain"
    if machine.invariant is not None and not eval_expr(machine.invariant, invariant_env):
        return "invariant is false"
    return None


def explore(machine: Machine, limits: ExploreLimits | None = None) -> StateGraph:
    """Breadth-first reachability closure of a typechecked machine.

    Raises InvariantViolation (with a witness event path) when a reachable
    state breaks the invariant or leaves a declared domain, and
    ExplorationLimitError past `limits.max_states`.  A firing whose guard
    holds but whose bounded choice admits no value is recorded in
    `infeasible` and adds no transition; see `require_feasible`.
    """
    if machine.sym is None:
        raise EvalError(f"machine {machine.name} was not typechecked")
    limits = limits or ExploreLimits()
    sym = machine.sym
    base = static_env(machine)
    var_names = sym.var_names

    index: dict[tuple, int] = {}
    states: list[tuple] = []
    parents: dict[int, tuple[int, str]] = {}
    edges: list[Edge] = []
    infeasible: list[tuple] = []
    queue: deque[int] = deque()  # each new state, once, in discovery order

    def add_state(env: dict, parent: tuple[int, str] | None) -> int:
        key = _state_tuple(env, var_names)
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
        message = _check_state(machine, env, {**base, **env})
        if message:
            path = path_to(parents, idx)
            raise InvariantViolation(
                f"state {idx} of {machine.name}: {message}"
                + (f" (reached by {', '.join(path)})" if path else " (initial state)"),
                state={n: env[n] for n in var_names}, path=path)
        queue.append(idx)
        return idx

    # initial states: fire init from an empty valuation
    init_outcomes = _action_outcomes(machine.init.actions, dict(base), sym)
    if not init_outcomes:
        raise InvariantViolation(f"init of {machine.name} admits no state")
    initial = []
    for upd in init_outcomes:
        idx = add_state(upd, None)
        if idx not in initial:
            initial.append(idx)

    events = sorted(machine.events, key=lambda e: e.name)
    while queue:
        src = queue.popleft()
        env = {**base, **dict(zip(var_names, states[src]))}
        for event in events:
            for valuation, outcomes in event_firings(machine, env, event):
                if not outcomes:
                    infeasible.append((src, event.name, valuation))
                for upd in outcomes:
                    succ_env = dict(zip(var_names, states[src]))
                    succ_env.update(upd)
                    tgt = add_state(succ_env, (src, event.name))
                    edges.append(Edge(src, event.name, valuation, tgt))

    outgoing = {e.src for e in edges}
    deadlocks = tuple(i for i in range(len(states)) if i not in outgoing)
    return StateGraph(
        machine=machine, var_names=var_names, states=states,
        initial=tuple(initial), edges=edges, deadlocks=deadlocks,
        alphabet=machine.alphabet(),
        bounds={"max_states": limits.max_states, "reached_states": len(states)},
        infeasible=infeasible,
    )


def require_feasible(graph: StateGraph) -> StateGraph:
    """The graph itself when every enabled firing has an after-state.

    Otherwise raises InvariantViolation for the first infeasible firing in
    exploration order, with a shortest event path to its state.  Commands
    that reject such machines call this right after `explore`.
    """
    if graph.infeasible:
        src, event, _params = graph.infeasible[0]
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
    base = static_env(machine)
    for i in range(len(graph.states)):
        env = graph.state_env(i)
        message = _check_state(machine, env, {**base, **env})
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
