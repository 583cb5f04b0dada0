"""Every error the front end raises: the machine parser, the formula and
property-file parser and the typechecker, each pinned to its exact
message, line and column."""
from __future__ import annotations

from dataclasses import replace

import pytest

from ebltl.errors import ParseError, TypecheckError
from ebltl.formulas import parse_formula, parse_property_file
from ebltl.machine_parser import parse_expression, parse_machine
from ebltl.typecheck import link_typecheck, typecheck

BASE = """machine M
carriers
  C = { a, b }
constants
  K = 2
variables
  n : 0..K
  s : set of C
  e : C
  f : bool
events
  event init then n := 0 || s := {} || e := a || f := false end
  event go when n < K then n := n + 1 end
end
"""

ABSTRACT = """machine A
carriers
  C = { a, b }
constants
  K = 2
variables
  t0 : 0..K
events
  event init then t0 := 0 end
end
"""


def edit(source: str, old: str, new: str) -> str:
    assert old in source, old
    return source.replace(old, new, 1)


def machine(old: str, new: str):
    return lambda: parse_machine(edit(BASE, old, new))


def redeclared_init():
    m = parse_machine(BASE)
    typecheck(replace(m, events=m.events + (m.init,)))


def link(*edits: tuple[str, str], linking: str | None = None):
    def run():
        abstract = ABSTRACT
        for old, new in edits:
            abstract = edit(abstract, old, new)
        abstract = parse_machine(abstract)
        concrete = parse_machine(BASE)
        link_typecheck(abstract, concrete,
                       parse_expression(linking) if linking else None)
    return run


TWO_CARRIERS = ("C = { a, b }", "C = { a, b }\n  D = { c }")

ROWS = [
    # -- machine_parser: lexer and token cursor
    ("machine-bad-character", machine("K = 2", "K = 2 $"), ParseError,
     "unexpected character '$'", 5, 9),
    ("machine-expect-operator", machine("K = 2", "K 2"), ParseError,
     "unexpected '2', expected '='", 5, 5),
    ("machine-expect-keyword", machine("events\n", ""), ParseError,
     "unexpected 'event', expected 'events'", 11, 3),
    ("machine-text-after-end", lambda: parse_machine(BASE + "extra\n"), ParseError,
     "unexpected 'extra', expected end of input", 15, 1),
    ("machine-truncated", lambda: parse_machine(BASE[:BASE.rindex("end")]), ParseError,
     "unexpected 'end of input', expected 'end'", 14, 1),
    ("machine-name", machine("machine M", "machine 3"), ParseError,
     "unexpected '3', expected machine name", 1, 9),
    ("event-name", machine("event go", "event 3"), ParseError,
     "unexpected '3', expected event name", 13, 9),
    # -- machine_parser: grammar
    ("duplicate-init", machine("  event go", "  event init then n := 0 end\n  event go"),
     ParseError, "duplicate init event", 13, 3),
    ("no-init", machine(
        "  event init then n := 0 || s := {} || e := a || f := false end\n", ""),
     ParseError, "machine has no init event", 13, 1),
    ("not-a-type", machine("f : bool", "f : {"), ParseError,
     "unexpected '{', expected a type", 10, 7),
    ("not-a-range-bound", machine("n : 0..K", "n : 0..{"), ParseError,
     "unexpected '{', expected a range bound", 7, 10),
    ("unknown-status", machine("event go when", "event go status weird when"), ParseError,
     "unexpected 'weird', expected one of ordinary, anticipated, convergent", 13, 19),
    ("init-with-guard", machine("event init then", "event init when f then"), ParseError,
     "init takes no refines, status, parameters or guard", 12, 3),
    ("call-arity", machine("n := n + 1", "n := min(n)"), ParseError,
     "min takes 2 argument(s)", 13, 33),
    ("not-an-expression", machine("n := n + 1", "n := n + )"), ParseError,
     "unexpected ')' in expression", 13, 37),
    ("expression-trailing-text", lambda: parse_expression("x )"), ParseError,
     "unexpected ')', expected end of input", 1, 3),
    ("expression-truncated", lambda: parse_expression("x +"), ParseError,
     "unexpected 'end of input' in expression", 1, 4),
    ("guard-chained-comparison", machine("when n < K", "when n = 1 = f"), ParseError,
     "unexpected '=': comparisons do not chain; parenthesise one side", 13, 23),
    ("invariant-chained-comparison", machine("events\n", "invariant\n  n = 1 = f\nevents\n"),
     ParseError, "unexpected '=': comparisons do not chain; parenthesise one side", 12, 9),
    ("expression-chained-comparison", lambda: parse_expression("n = 1 = f"), ParseError,
     "unexpected '=': comparisons do not chain; parenthesise one side", 1, 7),
    ("chained-set-comparisons", machine("when n < K", "when e in s <: s"), ParseError,
     "unexpected '<:': comparisons do not chain; parenthesise one side", 13, 24),
    # -- formulas
    ("formula-bad-character", lambda: parse_formula("[a] $"), ParseError,
     "unexpected character '$' in formula", 1, 5),
    ("formula-unclosed-paren", lambda: parse_formula("([a]"), ParseError,
     "unexpected 'end of input', expected ')'", 1, 5),
    ("formula-unclosed-atom", lambda: parse_formula("[a b]"), ParseError,
     "unexpected 'b', expected ']'", 1, 4),
    ("formula-trailing-text", lambda: parse_formula("[a] [b]"), ParseError,
     "unexpected '[' after formula", 1, 5),
    ("formula-atom-not-a-name", lambda: parse_formula("[!]"), ParseError,
     "expected an event name inside [ ]", 1, 2),
    ("formula-not-an-operand", lambda: parse_formula("G )"), ParseError,
     "unexpected ')' in formula", 1, 3),
    ("formula-truncated", lambda: parse_formula("[a] &"), ParseError,
     "unexpected 'end of input' in formula", 1, 6),
    ("formula-second-line", lambda: parse_formula("[a] &\n  )"), ParseError,
     "unexpected ')' in formula", 2, 3),
    ("formula-empty", lambda: parse_formula("  "), ParseError,
     "empty formula", None, None),
    ("property-duplicate", lambda: parse_property_file("a = true\na = G [x]\n"),
     ParseError, "duplicate property name 'a'", 2, 1),
    ("property-labelled", lambda: parse_property_file("x = [a]\ny = [b\n"),
     ParseError,
     "in property 'y': unexpected 'end of input', expected ']'", 2, 7),
    ("property-unlabelled", lambda: parse_property_file("true\n  G )\n"), ParseError,
     "in property 'p2': unexpected ')' in formula", 2, 5),
    # -- typecheck: declarations and resolve_type
    ("range-low-not-constant", machine("n : 0..K", "n : L..K"), TypecheckError,
     "range bound 'L' is not a declared constant", 7, 7),
    ("range-high-not-constant", machine("n : 0..K", "n : 0..L"), TypecheckError,
     "range bound 'L' is not a declared constant", 7, 7),
    ("range-empty", machine("n : 0..K", "n : 3..1"), TypecheckError,
     "empty integer range 3..1", 7, 7),
    ("unknown-set-carrier", machine("s : set of C", "s : set of D"), TypecheckError,
     "unknown carrier 'D'", 8, 7),
    ("unknown-element-carrier", machine("e : C", "e : D"), TypecheckError,
     "unknown carrier 'D'", 9, 7),
    ("parameter-unknown-carrier", machine("event go when", "event go any p : D where"),
     TypecheckError, "unknown carrier 'D'", 13, 20),
    ("duplicate-declaration", machine("K = 2", "K = 2\n  a = 1"), TypecheckError,
     "duplicate declaration of 'a' (constant vs carrier element)", 1, 1),
    ("carrier-repeats-element", machine("{ a, b }", "{ a, a }"), TypecheckError,
     "carrier 'C' repeats an element", 1, 1),
    # -- typecheck: expressions
    ("unknown-identifier", machine("n := n + 1", "n := m"), TypecheckError,
     "unknown identifier 'm'", 13, 33),
    ("set-literal-of-ints", machine("s := {}", "s := { 1 }"), TypecheckError,
     "set literals list carrier elements", 12, 36),
    ("set-literal-mixes-carriers",
     lambda: parse_machine(edit(edit(BASE, *TWO_CARRIERS), "s := {}", "s := { a, c }")),
     TypecheckError, "set literal mixes carriers", 13, 39),
    ("card-of-int", machine("n := n + 1", "n := card(n)"), TypecheckError,
     "card expects a set", 13, 33),
    ("if-branches-disagree", machine("n := n + 1", "n := if f then 1 else a end"),
     TypecheckError, "if branches disagree: int vs elem of C", 13, 33),
    ("set-operator-over-int", machine("n := n + 1", "s := s \\/ 1"), TypecheckError,
     "set operator over set of C and int", 13, 35),
    ("compare-int-with-bool", machine("when n < K", "when n = f"), TypecheckError,
     "cannot compare int with bool", 13, 19),
    ("membership-of-int", machine("when n < K", "when n in s"), TypecheckError,
     "left operand of in/notin must be a carrier element", 13, 19),
    ("membership-mixes-carriers",
     lambda: parse_machine(edit(edit(BASE, *TWO_CARRIERS), "when n < K", "when c in s")),
     TypecheckError, "membership mixes elem of D with set of C", 14, 19),
    ("subset-of-int", machine("when n < K", "when n <: s"), TypecheckError,
     "subset needs two sets over one carrier, got int and set of C", 13, 19),
    ("guard-not-bool", machine("when n < K", "when n"), TypecheckError,
     "expected bool, got int", 13, 17),
    # -- typecheck: events
    ("parameter-shadows", machine("event go when", "event go any n : bool where"),
     TypecheckError, "parameter 'n' shadows another name", 13, 16),
    ("assign-undeclared", machine("n := n + 1", "m := 1"), TypecheckError,
     "assignment to undeclared variable 'm'", 13, 28),
    ("parallel-writes", machine("n := n + 1", "n := n + 1 || n := 0"), TypecheckError,
     "parallel assignments both write 'n'", 13, 42),
    ("init-reads-variable", machine("n := 0 ||", "n := K - n ||"), TypecheckError,
     "init expressions cannot read variables", 12, 19),
    ("init-reads-variable-through-minus", machine("n := 0 ||", "n := -n ||"), TypecheckError,
     "init expressions cannot read variables", 12, 19),
    ("init-reads-variable-through-card", machine("n := 0 ||", "n := card(s) ||"),
     TypecheckError, "init expressions cannot read variables", 12, 19),
    ("init-reads-variable-through-if",
     machine("n := 0 ||", "n := if f then 1 else 0 end ||"),
     TypecheckError, "init expressions cannot read variables", 12, 19),
    ("init-choice-reads-variable",
     machine("n := 0 ||", "any p : 0..K where p < n then n := p end ||"),
     TypecheckError, "init expressions cannot read variables", 12, 19),
    ("init-misses-variable", machine(" || f := false", ""), TypecheckError,
     "init does not assign f", 12, 3),
    ("duplicate-event", machine("  event go", "  event go then n := 0 end\n  event go"),
     TypecheckError, "duplicate event name 'go'", 1, 1),
    ("init-redeclared", redeclared_init, TypecheckError,
     "init cannot be redeclared", 1, 1),
    ("anticipated-without-variant", machine("event go when", "event go status anticipated when"),
     TypecheckError, "machine has anticipated or convergent events but no variant", 1, 1),
    ("variant-without-anticipated", machine("events\n", "variant\n  n\nevents\n"),
     TypecheckError, "variant given but no event is anticipated or convergent", 1, 1),
    # -- typecheck: linking
    ("link-carrier-differs", link(("{ a, b }", "{ b, a }")), TypecheckError,
     "carrier 'C' differs between A and M", None, None),
    ("link-constant-differs", link(("K = 2", "K = 3")), TypecheckError,
     "constant 'K' differs between A and M", None, None),
    ("link-variable-type-differs",
     link(("t0 : 0..K", "n : 0..1"), ("t0 := 0", "n := 0")), TypecheckError,
     "shared variable 'n' has different types in A and M", None, None),
    ("link-name-types-differ", link(("K = 2", "K = 2\n  f = 1"), linking="true"),
     TypecheckError, "name 'f' types differently in A and M", None, None),
    ("link-expression", link(linking="t0 = f"), TypecheckError,
     "cannot compare int with bool", 1, 4),
]


@pytest.mark.parametrize("run,error,message,line,col",
                         [row[1:] for row in ROWS], ids=[row[0] for row in ROWS])
def test_front_end_error(run, error, message, line, col):
    with pytest.raises(error) as info:
        run()
    exc = info.value
    assert type(exc) is error
    shown = message if line is None else f"{message} (line {line}, column {col})"
    assert str(exc) == shown
    assert (exc.line, exc.col) == (line, col)
