"""Machine language: parsing, typechecking, round trips."""
from __future__ import annotations

import random
import re
from pathlib import Path

import pytest

from ebltl.errors import ParseError, TypecheckError
from ebltl.machine_ast import (
    BINARY_LEVELS, Binary, BoolLit, IfExpr, IntLit, Name, Unary, expr_to_text,
    machine_to_text,
)
from ebltl.machine_parser import parse_expression, parse_machine, parse_machine_file
from tests.conftest import VM_DIR

TOY = """
machine Toy
variables
  flag : bool
events
  event init then flag := false end
end
"""


def test_vm1_structure(vm_machines):
    m = vm_machines["VM1"]
    assert m.name == "VM1"
    assert m.alphabet() == ("dispenseBiscuit", "dispenseChoc",
                            "selectBiscuit", "selectChoc")
    assert [e.effective_status for e in m.events] == ["ordinary"] * 4
    assert dict(m.variables)["chosen"].carrier == "ITEM"
    assert m.init.guard is None and m.init.params == ()


def test_minimal_machine_has_no_events():
    m = parse_machine(TOY)
    assert m.events == ()
    assert m.invariant is None and m.variant is None


def test_truncated_source_names_end_of_input():
    source = (VM_DIR / "vm1.eb").read_text()
    truncated = source.rstrip()
    assert truncated.endswith("end")
    truncated = truncated[: truncated.rfind("end")]
    with pytest.raises(ParseError, match="end of input"):
        parse_machine(truncated)


def test_unknown_identifier_rejected():
    bad = TOY.replace("flag := false", "flag := other")
    with pytest.raises(TypecheckError, match="unknown identifier 'other'"):
        parse_machine(bad)


def test_duplicate_event_rejected():
    bad = TOY.replace(
        "event init then flag := false end",
        "event init then flag := false end\n"
        "  event go when flag = false then flag := true end\n"
        "  event go when flag = true then flag := false end")
    with pytest.raises(TypecheckError, match="duplicate event name"):
        parse_machine(bad)


def test_type_mismatch_rejected():
    bad = TOY.replace("flag := false", "flag := 3")
    with pytest.raises(TypecheckError, match="expected bool"):
        parse_machine(bad)


def test_init_must_assign_every_variable():
    bad = TOY.replace("variables\n  flag : bool",
                      "variables\n  flag : bool\n  n : 0..2")
    with pytest.raises(TypecheckError, match="init does not assign n"):
        parse_machine(bad)


def test_parallel_assignments_to_same_target_rejected():
    bad = TOY.replace("flag := false", "flag := false || flag := true")
    with pytest.raises(TypecheckError, match="both write"):
        parse_machine(bad)


def test_variant_requires_anticipated_or_convergent():
    bad = TOY.replace("events", "variant\n  0\nevents")
    with pytest.raises(TypecheckError, match="variant given"):
        parse_machine(bad)


def test_anticipated_event_requires_variant():
    bad = TOY.replace(
        "event init then flag := false end",
        "event init then flag := false end\n"
        "  event tick\n    status anticipated\n    then flag := flag end")
    with pytest.raises(TypecheckError, match="no variant"):
        parse_machine(bad)


def test_abstract_variable_outside_linking_rejected():
    # `stocked` lives in VM3; VM4 may mention it in linking but nowhere else
    source = (VM_DIR / "vm4.eb").read_text()
    bad = source.replace(
        "when chocStock = 0 & biscuitStock = 0",
        "when chocStock = 0 & biscuitStock = 0 & choc notin stocked")
    with pytest.raises(TypecheckError, match="unknown identifier 'stocked'"):
        parse_machine(bad)


def test_empty_range_rejected():
    bad = TOY.replace("flag : bool", "flag : 3..1")
    with pytest.raises(TypecheckError, match="empty integer range"):
        parse_machine(bad)


@pytest.mark.parametrize("name", ["vm0", "vm1", "vm2", "vm3", "vm4"])
def test_round_trip_corpus(name):
    machine = parse_machine_file(VM_DIR / f"{name}.eb")
    again = parse_machine(machine_to_text(machine))
    assert again == machine
    # and printing is a fixpoint
    assert machine_to_text(again) == machine_to_text(machine)


def test_round_trip_keeps_linking_and_variant(vm_machines):
    text = machine_to_text(vm_machines["VM4"])
    assert "linking" in text and "variant" in text
    again = parse_machine(text)
    assert again.linking == vm_machines["VM4"].linking
    assert again.variant == vm_machines["VM4"].variant


BINARY_OPS = ("<=>", "=>", "or", "&", "=", "/=", "<", "<=", ">", ">=", "<:", "in",
              "notin", "union", "inter", "diff", "+", "-", "*")


def random_expr(rng: random.Random, depth: int, used: set):
    if depth == 0 or rng.random() < 0.2:
        return rng.choice((Name(rng.choice("xyz")), IntLit(rng.randint(0, 9)),
                           BoolLit(rng.random() < 0.5)))
    roll = rng.random()
    if roll < 0.1:
        used.add("Unary")
        return Unary(rng.choice(("neg", "not")), random_expr(rng, depth - 1, used))
    if roll < 0.15:
        used.add("IfExpr")
        return IfExpr(*(random_expr(rng, depth - 1, used) for _ in range(3)))
    op = rng.choice(BINARY_OPS)
    used.add(op)
    return Binary(op, random_expr(rng, depth - 1, used), random_expr(rng, depth - 1, used))


def test_random_expressions_round_trip():
    rng = random.Random(13)
    used: set = set()
    for _ in range(2000):
        e = random_expr(rng, rng.randint(1, 5), used)
        text = expr_to_text(e)
        assert parse_expression(text) == e, text
    assert used == set(BINARY_OPS) | {"Unary", "IfExpr"}


@pytest.mark.parametrize("invariant", ["(f => f) => f", "(n = 1) = f"])
def test_same_level_left_operands_round_trip(invariant):
    source = ("machine Nested\nvariables\n  f : bool\n  n : 0..2\n"
              f"invariant\n  {invariant}\n"
              "events\n  event init then f := true || n := 1 end\nend\n")
    machine = parse_machine(source)
    assert machine.invariant == parse_expression(invariant)
    assert parse_machine(machine_to_text(machine)) == machine


def test_language_doc_lists_the_operator_table():
    doc = (Path(__file__).parent.parent / "docs" / "language.md").read_text()
    rows = re.findall(r"^\| (\d+) +\| (.*?) +\| (\w+) +\|$", doc, re.MULTILINE)
    assert [(int(level), re.findall(r"`([^`]+)`", ops), assoc) for level, ops, assoc in rows] == [
        (level, list(ops), assoc or "none")
        for level, (assoc, ops) in enumerate(BINARY_LEVELS, 1)]
