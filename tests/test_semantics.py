"""State graphs: exploration, invariants, deadlocks, determinism.

Expected shapes for VM0 and VM1 are derived here by independent hand
enumerations of the guards, not copied from the explorer's own output.
"""
from __future__ import annotations

import hashlib
import io
import json
import re
import subprocess
import sys
import tokenize
import types
from itertools import product
from pathlib import Path

import pytest

from ebltl.errors import EvalError, ExplorationLimitError, InvariantViolation, TypecheckError
from ebltl.machine_ast import BINARY_LEVELS, AnyChoice
from ebltl.machine_parser import parse_expression, parse_machine, parse_machine_file
from ebltl.oracle import corpus_root
from ebltl.refine import check_chain_pairs, explore_chain, load_chain
from ebltl.semantics import (
    FiringRecord, check_deadlock_free, compile_expr, compile_machine, explore,
    find_path, make_graph, require_feasible, static_env,
)
from ebltl.typecheck import _Checker, base_env
from tests.conftest import LIFT_DIR, VM_DIR


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
        explore(m, max_states=10)


def test_repeated_initial_states_are_admitted_once():
    """An initialisation that lists one state twice gives one initial
    state, and the repeat takes no room under the state bound."""
    m = parse_machine(
        "machine Twice\nvariables\n  x : 0..1\n"
        "events\n  event init then any p : 0..1 where true then x := 0 end end\n"
        "  event flip\n    status ordinary\n    then x := 1 - x end\nend")
    assert compile_machine(m).init() == [(0,), (0,)]
    g = explore(m, max_states=2)
    assert g.initial == (0,)
    assert g.states == [(0,), (1,)]


def test_infeasible_choice_is_an_error_by_default():
    m = parse_machine(
        "machine Stuck\ncarriers\n  IT = { a }\nvariables\n  s : set of IT\n"
        "events\n  event init then s := {} end\n"
        "  event go\n    status ordinary\n    when true\n"
        "    then any x : set of IT where card(x) > 1 then s := x end end\nend")
    g = explore(m)
    assert g.deadlocks == (0,)
    assert list(g.firings) == [(0, "go", (), ())]
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
        explore(m, max_states=2)


def test_edges_are_sound(vm_machines, vm_graphs):
    """Replay every edge: the guard holds at the source under the recorded
    parameters and the target is one of the event's computed outcomes."""
    m = vm_machines["VM2"]
    g = vm_graphs["VM2"]
    events = compile_machine(m).events
    for edge in g.edges:
        hits = [post
                for valuation, posts in events[edge.event](g.states[edge.src])
                if valuation == edge.params
                for post in posts]
        assert g.states[edge.tgt] in hits


def test_enabled_events_all_have_edges(vm_machines, vm_graphs):
    """Completeness: every enabled (event, parameter) pair appears."""
    m = vm_machines["VM3"]
    g = vm_graphs["VM3"]
    events = compile_machine(m).events
    for i, state in enumerate(g.states):
        present = {(e.event, e.params) for e in g.out_edges(i)}
        for name, event in events.items():
            for valuation, posts in event(state):
                if posts:
                    assert (name, valuation) in present


def test_views_expand_the_record(vm_graphs):
    """VM3's record holds 224 firings, 26 of them with two after-states;
    `edges` expands each firing to one edge per after-state, and
    `out_edges(i)` lists exactly the edges leaving i in record order, also
    where the record does not group firings by source."""
    g = vm_graphs["VM3"]
    assert len(g.firings) == 224
    assert sorted(len(targets) for *_, targets in g.firings) == [1] * 198 + [2] * 26
    assert [tuple(e) for e in g.edges] == [
        (src, event, params, t) for src, event, params, targets in g.firings for t in targets]
    bare = make_graph(3, [0], [(1, "a", 2), (0, "b", 1), (1, "c", 0), (0, "a", 0)], "abc")
    for graph in [*vm_graphs.values(), bare]:
        assert [e for i in range(len(graph.states)) for e in graph.out_edges(i)] == \
            sorted(graph.edges, key=lambda e: e.src)
    assert [(e.event, e.tgt) for e in bare.out_edges(0)] == [("b", 1), ("a", 0)]


def test_edge_views_cache_no_edge_list(vm_machines):
    """`edges` and `out_edges` build their `Edge` tuples per call from the
    record: walking every `out_edges(i)` and reading `edges` adds nothing
    to the graph."""
    g = explore(vm_machines["VM3"])
    before = dict(vars(g))
    walked = [e for i in range(len(g.states)) for e in g.out_edges(i)]
    assert len(walked) == len(g.edges) == 250 and g.edges is not g.edges
    assert vars(g) == before


def test_bare_record_runs_by_source():
    """A record built from ungrouped firings holds them grouped by source,
    each source's firings in input order, and every view reads that order."""
    given = [(2, "a", (), (0,)), (0, "b", (), (1,)), (2, "c", (), ()), (1, "a", (), (2,)),
             (0, "a", (), (0, 2)), (2, "b", (), (1,))]
    record = FiringRecord("abc", given)
    assert list(record.src) == [0, 0, 1, 2, 2, 2]
    assert list(record) == sorted(given, key=lambda f: f[0])
    g = make_graph(3, [0], [(2, "a", 0), (0, "b", 1), (1, "c", 1), (0, "a", 2)], "abc")
    assert [(f[0], f[1], f[3]) for f in g.firings] == [
        (0, "b", (1,)), (0, "a", (2,)), (1, "c", (1,)), (2, "a", (0,))]
    assert g.moves == [[(1, "b"), (2, "a")], [(1, "c")], [(0, "a")]]
    assert [tuple(e) for e in g.edges] == [
        (0, "b", (), 1), (0, "a", (), 2), (1, "c", (), 1), (2, "a", (), 0)]


# variables declared z, flag, item, bag; states hold them in sorted order
DOMAINS = ("machine Pin\ncarriers\n  IT = { a, b }\n"
           "variables\n  z : 1..3\n  flag : bool\n  item : IT\n  bag : set of IT\n"
           "invariant\n  z < 3\n"
           "events\n  event init then z := 1 || flag := false || item := a || bag := {} end\nend")
_GOOD = {"bag": frozenset({"a"}), "flag": True, "item": "b", "z": 2}


@pytest.mark.parametrize("values, verdict", [
    ({"z": 4}, ("z", False)),
    ({"z": 0}, ("z", True)),
    ({"z": True}, (None, True)),  # a bool is an int
    ({"flag": 1}, ("flag", True)),
    ({"item": "c"}, ("item", True)),
    ({"bag": frozenset({"a", "c"})}, ("bag", True)),
    ({"bag": {"a"}}, ("bag", True)),
    ({"z": 9, "bag": frozenset({"c"})}, ("z", False)),
    ({"flag": 0, "item": "z"}, ("flag", True)),
    ({"z": 3}, (None, False)),
], ids=["int-above", "int-below", "true-in-int-range", "int-in-bool", "foreign-element",
        "foreign-member", "set-not-frozen", "first-declared-wins", "flag-before-item",
        "invariant-false"])
def test_check_invariant_judges_domains(values, verdict):
    """The compiled state checks `explore` runs on every state it finds:
    `out_of_domain` names the first variable, in declaration order,
    outside its declared type, and `invariant` is evaluated on its own."""
    m = parse_machine(DOMAINS)
    compiled = compile_machine(m)
    var_names = m.sym.var_names
    assert var_names == ("bag", "flag", "item", "z")
    state = tuple({**_GOOD, **values}[n] for n in var_names)
    i = compiled.out_of_domain(state)
    assert (var_names[i] if i >= 0 else None, bool(compiled.invariant(state))) == verdict


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


def test_unreachable_deadlocks_do_not_count():
    # state 2 has no out-edge but no path reaches it
    verdict = check_deadlock_free(make_graph(3, [0], [(0, "a", 1), (1, "a", 0)], ["a"]))
    assert verdict.holds
    # the first deadlock, state 1, is unreachable; state 2 is reached by a
    verdict = check_deadlock_free(make_graph(3, [0], [(0, "a", 2)], ["a"]))
    assert (verdict.holds, verdict.witness_state, verdict.witness_path) == (False, 2, ["a"])
    assert verdict.detail == "1 deadlocked state(s)"


def test_edge_list_format(vm_graphs):
    text = "".join(vm_graphs["VM0"].edge_lines())
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


MIRROR = """machine Mirror
constants
  C = 1
variables
  x : C..5
events
  event init then x := 2 end
  event flip
    status ordinary
    when x < 5 then x := -x + 6 end
end
"""


def test_negation_and_a_constant_lower_bound():
    g = explore(parse_machine(MIRROR))
    assert g.states == [(2,), (4,)]
    assert [(e.src, e.event, e.tgt) for e in g.edges] == [(0, "flip", 1), (1, "flip", 0)]
    # -2 + 2 is below the constant bound C
    with pytest.raises(InvariantViolation) as err:
        explore(parse_machine(MIRROR.replace("-x + 6", "-x + 2")))
    assert str(err.value) == "state 1 of Mirror: x = 0 leaves its declared domain (reached by flip)"
    assert (err.value.state, err.value.path) == ({"x": 0}, ["flip"])


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


# a machine whose names and types are those of EVAL_ENV
EVAL_MACHINE = """machine Typed
carriers
  IT = { a, b, c }
variables
  S : set of IT
  T : set of IT
  x : 0..9
  y : 0..9
  t : bool
  f : bool
events
  event init then S := {} || T := {} || x := 0 || y := 0 || t := true || f := false end
end
"""

# each type of the typing table in docs/language.md: two names of EVAL_ENV
# that have it, the type the checker infers, and the Python type of a value
TYPE_SAMPLES = {
    "bool": (("t", "f"), "bool", bool),
    "int": (("x", "y"), "int", int),
    "element of C": (("a", "b"), ("elem", "IT"), str),
    "set of C": (("S", "T"), ("set", "IT"), frozenset),
}


def typing_rows():
    """(operator, operand types, result type) for each operator of the
    typing table in docs/language.md, its `T` read as each type in turn."""
    doc = (Path(__file__).parent.parent / "docs" / "language.md").read_text()
    rows = re.findall(r"^\| ((?:`[^`]+` +)+)\| ([\w ,]+?) +\| ([\w ]+?) +\|$",
                      doc, re.MULTILINE)
    out = []
    for ops, operands, result in rows:
        kinds = operands.split(", ")
        for t in TYPE_SAMPLES if "T" in kinds else (None,):
            fill = {"T": t}
            out.extend((op, [fill.get(k, k) for k in kinds], fill.get(result, result))
                       for op in re.findall(r"`([^`]+)`", ops))
    return out


def typing_use(op: str, kinds: list[str]) -> str:
    """A use of `op` over names of the given types; a type's second operand
    is its second name."""
    names = [TYPE_SAMPLES[k][0][kinds[:i].count(k) % 2] for i, k in enumerate(kinds)]
    if op in ("card", "min", "max"):
        return f"{op}({', '.join(names)})"
    if op == "if":
        return "if {} then {} else {} end".format(*names)
    return f"{op} {names[0]}" if len(names) == 1 else f"{names[0]} {op} {names[1]}"


def test_typing_table_gives_each_operator_its_result_type():
    """Every row of the typing table in docs/language.md: a well-typed use of
    each operator typechecks to the row's result type, and evaluates over
    EVAL_ENV to a value of that type."""
    machine = parse_machine(EVAL_MACHINE)
    env = base_env(machine.sym)
    assert set(env) == set(EVAL_ENV)
    rows = typing_rows()
    assert {(op, len(kinds)) for op, kinds, _ in rows} >= {
        *((op, 2) for _, ops in BINARY_LEVELS for op in ops),
        ("not", 1), ("-", 1), ("card", 1), ("min", 2), ("max", 2), ("if", 3)}
    wrong = []
    for op, kinds, result in rows:
        text = typing_use(op, kinds)
        _, inferred, python_type = TYPE_SAMPLES[result]
        try:
            got = _Checker(machine).infer(parse_expression(text), env)
        except TypecheckError as err:
            got = str(err)
        value = compile_expr(parse_expression(text))(EVAL_ENV)
        if got != inferred or type(value) is not python_type:
            wrong.append((text, got, type(value).__name__))
    assert wrong == []


def test_left_chains_typecheck_in_a_loop():
    """A left-nested chain of 2000 operands of each left-associative
    operator whose result has its operands' type typechecks without a
    stack frame per operand; an operator whose result has another type
    cannot take its own result as its left operand."""
    machine = parse_machine(EVAL_MACHINE)
    env = base_env(machine.sym)
    left = {op for assoc, ops in BINARY_LEVELS if assoc == "left" for op in ops}
    rows = [(op, kinds[0], result) for op, kinds, result in typing_rows()
            if len(kinds) == 2 and kinds[0] == kinds[1]]
    chaining = [(op, kind) for op, kind, result in rows if op in left and kind == result]
    assert sorted(op for op, _ in chaining) == sorted(
        ["<=>", "or", "&", "+", "-", "*", "\\/", "/\\", "\\"])
    for op, kind in chaining:
        names, inferred, _ = TYPE_SAMPLES[kind]
        chain = parse_expression(f" {op} ".join([names[0]] * 2000))
        assert _Checker(machine).infer(chain, env) == inferred, op
    for op, kind, result in rows:
        if kind != result:
            a, b = TYPE_SAMPLES[kind][0]
            with pytest.raises(TypecheckError):
                _Checker(machine).infer(parse_expression(f"({a} {op} {b}) {op} {a}"), env)


# names that are Python keywords or builtins, or that look like the names
# the compiled functions use themselves: `s` (the state), `guarded`, the
# prefixes k_ and p0_, the domain list d0 and the valuation v0
HYGIENE = """machine lambda
carriers
  class = { def, return, None }
constants
  len = 1
variables
  s : 0..len
  frozenset : set of class
  guarded : bool
  k_s : class
  d0 : 0..1
invariant
  card(frozenset) <= 3 & s <= len
events
  event init
    then s := 0 || frozenset := {} || guarded := false || k_s := def || d0 := 0 end
  event env
    status ordinary
    any v0 : class, p0_v0 : 0..1 where v0 /= k_s & p0_v0 <= s
    then frozenset := frozenset \\/ { v0 }
      || any x : 0..len where x >= p0_v0 then s := x end
      || any x : bool where x = not guarded then guarded := x end
    end
  event k_x
    status ordinary
    when d0 < 1
    then d0 := d0 + 1 || k_s := if guarded then return else None end
    end
end
"""

# the abstract-only variable `c` is also a concrete constant, and the
# concrete variable `a` an abstract constant: the linking invariant reads
# the variables
PRECEDENCE_ABSTRACT = """machine A
constants
  a = 1
variables
  c : 0..2
  n : 0..2
invariant
  c <= n
events
  event init then c := 0 || n := 0 end
  event step
    status ordinary
    any x : 0..1 where n < 2
    then n := n + 1 || c := min(c + x, n + a) end
end
"""

PRECEDENCE_CONCRETE = """machine C refines A
constants
  c = 2
variables
  n : 0..2
  a : 0..2
invariant
  a <= c
variant
  c - a
linking
  c = a
events
  event init then n := 0 || a := 0 end
  event step refines step
    status ordinary
    when n < 2
    then n := n + 1 || a := if n = 0 then 2 else a end end
  event tick
    status convergent
    when a < 1
    then a := a + 1 end
end
"""


def _digest(report) -> str:
    return hashlib.sha256(json.dumps(report.to_json_dict(), sort_keys=True).encode()).hexdigest()


def test_machine_names_cannot_capture_generated_names(tmp_path):
    """Graph and obligation reports are unchanged for machines whose names
    collide with Python or with the compiled functions' own names (digests
    taken with the earlier closure evaluator)."""
    path = tmp_path / "lambda.eb"
    path.write_text(HYGIENE)
    g = explore(parse_machine_file(path))
    assert (len(g.states), len(g.edges)) == (62, 321)
    assert _digest(g) == "89d79c683c445fcff4c59265487234b9539933fe2de9704f10f2bd0cb24fb19a"

    (tmp_path / "a.eb").write_text(PRECEDENCE_ABSTRACT)
    (tmp_path / "c.eb").write_text(PRECEDENCE_CONCRETE)
    (tmp_path / "pair.json").write_text('{"machines": ["a.eb", "c.eb"]}')
    chain = load_chain(tmp_path / "pair.json")
    [report] = check_chain_pairs(chain, explore_chain(chain))
    assert report.failed() == ["INV_REF"]
    assert _digest(report) == "0f9cd1f5d9aeb3a9423097829109e828845a79d8f0defcbd131b1cdca2dc0a1c"


def _long_chains(n: int) -> str:
    invariant = " & ".join(["x >= 0"] * n)
    total = " + ".join(["0"] * (n - 1) + ["x"])
    return (f"machine Long\nvariables\n  x : 0..2\ninvariant\n  {invariant}\n"
            f"events\n  event init then x := 0 end\n  event up\n    status ordinary\n"
            f"    when {total} < 2\n    then x := x + 1 end\nend\n")


def test_long_chains_compile(tmp_path):
    """A 320-conjunct invariant and a 320-term sum stay within Python's
    limit on nested parentheses, through the CLI; 400 of each parse,
    typecheck and explore in-process too, because the parser, the
    typechecker and the translator all take such a chain in a loop or at
    one stack frame per operand."""
    path = tmp_path / "long.eb"
    path.write_text(_long_chains(320))
    proc = subprocess.run([sys.executable, "-m", "ebltl.cli", "explore", str(path), "--json"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    graph = json.loads(proc.stdout)["result"]["graph"]
    assert (len(graph["states"]), len(graph["edges"])) == (3, 2)
    g = explore(parse_machine(_long_chains(400)))
    assert (len(g.states), len(g.edges)) == (3, 2)


_SCAFFOLD = re.compile(r"(?:[sack]|p\d+)_[A-Za-z_][A-Za-z0-9_]*|[sac]|guarded|init|"
                       r"invariant|variant|out_of_domain|glue|[edv]\d+")
_PYTHON_WORDS = {"def", "return", "for", "in", "if", "else", "not", "or", "and",
                 "True", "False", "frozenset", "len", "min", "max", "bool",
                 "isinstance", "int"}


def test_generated_source_holds_only_prefixed_names(monkeypatch, tmp_path):
    """The compiled functions' text holds prefixed machine names, the
    functions' own names, int and bool literals, operators and seven
    builtins: no string literal and no bare machine name."""
    from ebltl import semantics
    sources = []
    original = semantics._compile
    monkeypatch.setattr(semantics, "_compile",
                        lambda source, mode: sources.append(source) or original(source, mode))
    (tmp_path / "lambda.eb").write_text(HYGIENE)
    explore(parse_machine_file(tmp_path / "lambda.eb"))
    for manifest in (VM_DIR / "chain.json", LIFT_DIR / "chain.json"):
        chain = load_chain(manifest)
        check_chain_pairs(chain, explore_chain(chain))
    assert len(sources) == 1 + 5 + 4 + 2 + 1
    for source in sources:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            assert tok.type != tokenize.STRING, source
            if tok.type == tokenize.NUMBER:
                assert tok.string.isdigit(), source
            if tok.type == tokenize.NAME:
                assert tok.string in _PYTHON_WORDS or _SCAFFOLD.fullmatch(tok.string), tok


CORPUS_MACHINES = sorted(corpus_root().rglob("*.eb"))


def _parameterless(machine):
    """The machine's events without parameters, and whether each one's
    actions hold a bounded choice."""
    return [(e, any(isinstance(a, AnyChoice) for a in e.actions))
            for e in machine.events if not e.params]


@pytest.mark.parametrize("path", CORPUS_MACHINES, ids=lambda p: p.stem)
def test_parameterless_events_build_no_comprehension(path):
    """An event without parameters compiles to a guard test and one firing:
    its function holds no nested code object, which a comprehension would
    be before Python 3.12 inlined them, unless a bounded choice needs one."""
    machine = parse_machine_file(path)
    events = compile_machine(machine).events
    assert _parameterless(machine)
    for event, has_choice in _parameterless(machine):
        nested = [c for c in events[event.name].__code__.co_consts
                  if isinstance(c, types.CodeType)]
        assert has_choice or not nested, event.name


@pytest.mark.parametrize("path", CORPUS_MACHINES, ids=lambda p: p.stem)
def test_parameterless_events_match_their_guard_and_assignments(path):
    """At every state of the universe (the declared domains under the
    invariant), a parameterless event without a bounded choice gives the
    firings that its guard and assignments give through `compile_expr`:
    none when `guarded` is set and the guard fails, else one firing with
    the valuation () and the one after-state."""
    machine = parse_machine_file(path, {"capacity": 1})
    sym, compiled, static = machine.sym, compile_machine(machine), static_env(machine)
    universe = [state for state in product(*(sym.domain(sym.var_types[v]) for v in sym.var_names))
                if compiled.invariant(state)]
    checked = 0
    for event, has_choice in _parameterless(machine):
        if has_choice:
            continue
        guard = compile_expr(event.guard) if event.guard is not None else (lambda env: True)
        assigned = {a.target: compile_expr(a.expr) for a in event.actions}
        for state in universe:
            env = {**static, **dict(zip(sym.var_names, state))}
            for guarded in (True, False):
                expected = [((), [tuple(assigned[v](env) if v in assigned else env[v]
                                        for v in sym.var_names)])] \
                    if not guarded or guard(env) else []
                assert compiled.events[event.name](state, guarded) == expected, (event.name, state)
                checked += 1
    assert checked
