"""State graphs: exploration, invariants, deadlocks, determinism.

Expected shapes for VM0 and VM1 are derived here by independent hand
enumerations of the guards, not copied from the explorer's own output.
"""
from __future__ import annotations

import json

import pytest

from ebltl.errors import EvalError, ExplorationLimitError, InvariantViolation
from ebltl.machine_parser import parse_expression, parse_machine
from ebltl.semantics import (
    ExploreLimits, check_deadlock_free, check_invariant, compile_expr, explore,
    find_path, require_feasible, static_env,
)


def enumerate_vm1_by_hand():
    """Transition system of VM1 straight from the guard definitions:
    chosen ranges over subsets of {choc, biscuit}."""
    states = []
    for mask in range(4):
        chosen = frozenset(
            e for i, e in enumerate(["biscuit", "choc"]) if mask >> i & 1)
        states.append(chosen)
    edges = []
    for s in states:
        if "biscuit" not in s:
            edges.append((s, "selectBiscuit", s | {"biscuit"}))
        if "choc" not in s:
            edges.append((s, "selectChoc", s | {"choc"}))
        if "biscuit" in s:
            edges.append((s, "dispenseBiscuit", s - {"biscuit"}))
        if "choc" in s:
            edges.append((s, "dispenseChoc", s - {"choc"}))
    return states, edges


def test_vm1_graph_shape(vm_graphs):
    states, edges = enumerate_vm1_by_hand()
    g = vm_graphs["VM1"]
    assert len(g.states) == len(states) == 4
    assert len(g.edges) == len(edges) == 8
    assert g.deadlocks == ()
    got = {(g.states[e.src][0], e.event, g.states[e.tgt][0]) for e in g.edges}
    assert got == {(s, ev, t) for s, ev, t in edges}


def test_vm0_graph_shape(vm_graphs):
    # item in 0..3; selectItem fires from {0,1,2}, dispenseItem from {1,2,3}
    g = vm_graphs["VM0"]
    assert len(g.states) == 4
    assert len(g.edges) == 6
    assert g.deadlocks == ()
    selects = [e for e in g.edges if e.event == "selectItem"]
    dispenses = [e for e in g.edges if e.event == "dispenseItem"]
    assert sorted(g.states[e.src][0] for e in selects) == [0, 1, 2]
    assert sorted(g.states[e.src][0] for e in dispenses) == [1, 2, 3]


def test_init_invariant_violation_reported_at_depth_zero():
    bad = parse_machine(
        "machine Bad\nvariables\n  n : 0..3\ninvariant\n  n < 2\n"
        "events\n  event init then n := 3 end\nend")
    with pytest.raises(InvariantViolation, match="initial state"):
        explore(bad)


def test_successor_domain_violation_reports_path():
    bad = parse_machine(
        "machine Bad\nvariables\n  n : 0..2\n"
        "events\n  event init then n := 0 end\n"
        "  event up\n    status ordinary\n    when true then n := n + 1 end\nend")
    with pytest.raises(InvariantViolation) as err:
        explore(bad)
    assert err.value.path == ["up", "up", "up"]


def test_state_limit():
    m = parse_machine(
        "machine Big\nvariables\n  n : 0..99\n"
        "events\n  event init then n := 0 end\n"
        "  event up\n    status ordinary\n    when n < 99 then n := n + 1 end\nend")
    with pytest.raises(ExplorationLimitError):
        explore(m, ExploreLimits(max_states=10))


def test_infeasible_choice_is_an_error_by_default():
    m = parse_machine(
        "machine Stuck\ncarriers\n  IT = { a }\nvariables\n  s : set of IT\n"
        "events\n  event init then s := {} end\n"
        "  event go\n    status ordinary\n    when true\n"
        "    then any x : set of IT where card(x) > 1 then s := x end end\nend")
    g = explore(m)
    assert g.deadlocks == (0,)
    assert g.firings == [(0, "go", (), False)]
    assert "firings" not in g.to_json_dict()
    with pytest.raises(InvariantViolation, match="no after-state") as err:
        require_feasible(g)
    assert str(err.value) == ("event go of Stuck is enabled but has no "
                              "after-state at state 0 (empty bounded choice)")
    assert err.value.path == [] and err.value.state == {"s": frozenset()}


def test_infeasible_firing_then_later_error():
    """Exploration runs past an infeasible firing (state 0 here), so an
    invariant violation or state bound met later in BFS order is the error
    reported, not the firing."""
    m = parse_machine(
        "machine Late\ncarriers\n  IT = { a }\nvariables\n  n : 0..3\n"
        "  s : set of IT\ninvariant\n  n < 3\n"
        "events\n  event init then n := 0 || s := {} end\n"
        "  event go\n    status ordinary\n    when n = 0\n"
        "    then any x : set of IT where card(x) > 1 then s := x end end\n"
        "  event up\n    status ordinary\n    when true then n := n + 1 end\nend")
    with pytest.raises(InvariantViolation, match="invariant is false") as err:
        explore(m)
    assert err.value.path == ["up", "up", "up"]
    with pytest.raises(ExplorationLimitError):
        explore(m, ExploreLimits(max_states=2))


def test_edges_are_sound(vm_machines, vm_graphs):
    """Replay every edge: the guard holds at the source under the recorded
    parameters and the target is one of the event's computed outcomes."""
    from ebltl.semantics import event_firings
    m = vm_machines["VM2"]
    g = vm_graphs["VM2"]
    base = static_env(m)
    for edge in g.edges:
        env = {**base, **g.state_env(edge.src)}
        event = m.event(edge.event)
        hits = [
            dict(zip(g.var_names, g.states[edge.src]), **upd)
            for valuation, outcomes in event_firings(m, env, event)
            if valuation == edge.params
            for upd in outcomes
        ]
        assert any(tuple(h[v] for v in g.var_names) == g.states[edge.tgt]
                   for h in hits)


def test_enabled_events_all_have_edges(vm_machines, vm_graphs):
    """Completeness: every enabled (event, parameter) pair appears."""
    from ebltl.semantics import event_firings
    m = vm_machines["VM3"]
    g = vm_graphs["VM3"]
    base = static_env(m)
    for i in range(len(g.states)):
        env = {**base, **g.state_env(i)}
        present = {(e.event, e.params) for e in g.out_edges(i)}
        for event in m.events:
            for valuation, outcomes in event_firings(m, env, event):
                if outcomes:
                    assert (event.name, valuation) in present


def test_check_invariant_holds_on_corpus(vm_graphs):
    for name in ["VM1", "VM2", "VM3", "VM4"]:
        assert check_invariant(vm_graphs[name]).holds


def test_check_invariant_catches_forged_state(vm_graphs):
    g = vm_graphs["VM2"]
    forged = g.__class__(
        machine=g.machine, var_names=g.var_names,
        states=list(g.states) + [(-1, frozenset(), False)],
        initial=g.initial, edges=list(g.edges), deadlocks=g.deadlocks,
        alphabet=g.alphabet, _out=None)
    verdict = check_invariant(forged)
    assert not verdict.holds
    assert verdict.witness_state == len(g.states)
    assert "credit" in verdict.detail


def test_deadlock_free_on_corpus(vm_graphs):
    for name in ["VM1", "VM2", "VM3", "VM4"]:
        assert check_deadlock_free(vm_graphs[name]).holds


def test_deadlock_witness_path():
    m = parse_machine(
        "machine Dead\nvariables\n  flag : bool\n"
        "events\n  event init then flag := false end\n"
        "  event stop\n    status ordinary\n    when flag = false "
        "then flag := true end\nend")
    g = explore(m)
    verdict = check_deadlock_free(g)
    assert not verdict.holds
    assert verdict.witness_path == ["stop"]


def test_false_guard_deadlocks_at_initial_state():
    m = parse_machine(
        "machine Never\nvariables\n  flag : bool\n"
        "events\n  event init then flag := false end\n"
        "  event go\n    status ordinary\n    when false "
        "then flag := true end\nend")
    g = explore(m)
    verdict = check_deadlock_free(g)
    assert not verdict.holds
    assert verdict.witness_state in g.initial
    assert verdict.witness_path == []


def test_exploration_deterministic(vm_machines):
    a = explore(vm_machines["VM4"])
    b = explore(vm_machines["VM4"])
    assert json.dumps(a.to_json_dict(), sort_keys=True) == \
        json.dumps(b.to_json_dict(), sort_keys=True)


def test_find_path_shortest(vm_graphs):
    g = vm_graphs["VM0"]
    # item == 3 is three selects away from the initial state
    target = next(i for i, s in enumerate(g.states) if s[0] == 3)
    assert find_path(g, target) == ["selectItem"] * 3


def test_edge_list_format(vm_graphs):
    text = vm_graphs["VM0"].edge_list_text()
    lines = text.strip().split("\n")
    assert len(lines) == 6
    src, event, tgt = lines[0].split()
    assert event in ("selectItem", "dispenseItem")
    assert src.isdigit() and tgt.isdigit()


def test_enumeration_typed_state_and_params():
    m = parse_machine(
        "machine Pick\ncarriers\n  IT = { a, b, c }\n"
        "variables\n  cur : IT\n"
        "events\n  event init then cur := a end\n"
        "  event pick\n    status ordinary\n"
        "    any x : IT where x /= cur\n    then cur := x end\nend")
    g = explore(m)
    assert len(g.states) == 3
    assert len(g.edges) == 6  # two choices of x from each element
    assert g.deadlocks == ()
    assert all(e.params[0][0] == "x" for e in g.edges)


def test_eval_expr_min_max_card(vm_machines):
    m = vm_machines["VM4"]
    env = {**static_env(m), "credit": 1, "chosen": frozenset({"choc"}),
           "refundEnabled": False, "chocStock": 2, "biscuitStock": 0}
    assert compile_expr(m.variant)(env) == 1  # max((2+0)-1, 0)


EVAL_ENV = {"a": "a", "b": "b", "c": "c", "IT": frozenset("abc"),
            "S": frozenset("ab"), "T": frozenset("bc"),
            "x": 3, "y": 5, "t": True, "f": False}


@pytest.mark.parametrize("text, expected", [
    ("7", 7), ("true", True), ("x", 3), ("{}", frozenset()),
    ("{ a, c }", frozenset("ac")),
    ("-x", -3), ("not f", True), ("not t", False),
    ("t & f", False), ("t & t", True), ("t or f", True), ("f or f", False),
    ("t => f", False), ("f => f", True), ("t <=> f", False), ("f <=> f", True),
    # the right operand is never evaluated
    ("f & missing", False), ("t or missing", True), ("f => missing", True),
    ("x = 3", True), ("x /= 3", False), ("x < y", True), ("y < x", False),
    ("x <= 3", True), ("x > y", False), ("y >= 6", False), ("y >= 5", True),
    ("x + y", 8), ("x - y", -2), ("x * y", 15),
    ("a in S", True), ("c in S", False), ("c notin S", True),
    ("S <: IT", True), ("S <: T", False),
    ("S \\/ T", frozenset("abc")), ("S /\\ T", frozenset("b")),
    ("S \\ T", frozenset("a")),
    ("card(S)", 2), ("card({})", 0), ("min(x, y)", 3), ("max(x, y)", 5),
    ("if x < y then x else y end", 3), ("if f then x else y end", 5),
    ("x + missing", EvalError),
])
def test_compile_expr_operators(text, expected):
    evaluate = compile_expr(parse_expression(text))
    if expected is EvalError:
        with pytest.raises(EvalError, match="unbound name 'missing'"):
            evaluate(EVAL_ENV)
        return
    value = evaluate(EVAL_ENV)
    assert value == expected and type(value) is type(expected)
