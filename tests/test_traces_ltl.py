"""Trace satisfaction, projection, and the finite-trace reading.

Property-style checks use seeded random traces and compare the two
independent evaluators wherever both apply.
"""
from __future__ import annotations

import copy
import random

from ebltl.formulas import (
    And, Atom, Finally, Globally, Not, Or, TRUE, Until, parse_formula,
)
from ebltl.ltl import holds_on_trace
from ebltl.oracle import oracle_holds_on, random_formula
from ebltl.traces import (
    Trace, finite_trace, lasso, project_trace,
)


def random_trace(rng: random.Random, alphabet) -> Trace:
    prefix = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 4)))
    if rng.random() < 0.35:
        return finite_trace(*prefix)
    cycle = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 4)))
    return lasso(prefix, cycle)


# -- documented examples ----------------------------------------------------

def test_gf_pay_on_all_pay_lasso():
    assert holds_on_trace(lasso((), ("pay",)), parse_formula("G F [pay]"))


def test_phi4_fails_on_biscuit_loop():
    phi4 = parse_formula("G([selectChoc] => F [dispenseChoc])")
    u = lasso(("selectChoc", "selectBiscuit"), ("dispenseBiscuit", "selectBiscuit"))
    assert not holds_on_trace(u, phi4)


def test_atom_false_on_empty_trace():
    assert not holds_on_trace(finite_trace(), Atom("x"))


def test_globally_atom_false_on_every_finite_trace():
    # the empty suffix is a defined suffix, and no atom holds there
    assert not holds_on_trace(finite_trace("x"), Globally(Atom("x")))
    assert not holds_on_trace(finite_trace("x", "x", "x"), Globally(Atom("x")))


def test_until_witness_must_be_defined():
    u = finite_trace("a", "a")
    assert not holds_on_trace(u, Until(Atom("a"), Atom("b")))
    assert holds_on_trace(u, Until(Atom("a"), TRUE))


def test_finally_on_finite_trace():
    assert holds_on_trace(finite_trace("a", "b"), Finally(Atom("b")))
    assert not holds_on_trace(finite_trace("a", "b"), Finally(Atom("c")))


def test_foreign_atom_never_holds():
    assert not holds_on_trace(lasso((), ("a",)), Finally(Atom("zz")))


# -- projection --------------------------------------------------------------

def test_projection_drops_and_keeps():
    u = lasso(("pay", "refill"), ("pay",))
    assert project_trace(u, {"pay"}) == lasso(("pay",), ("pay",))


def test_projection_identity_on_full_alphabet():
    u = lasso(("a", "b"), ("c", "a"))
    assert project_trace(u, {"a", "b", "c"}) == u


def test_projection_degenerates_to_finite():
    assert project_trace(lasso(("a",), ("b",)), {"a"}) == finite_trace("a")


def test_projection_of_finite_stays_finite():
    assert project_trace(finite_trace("a", "b", "a"), {"a"}) == finite_trace("a", "a")


# -- derived operator laws (randomized, both evaluators) ----------------------

def test_finally_equals_true_until():
    rng = random.Random(11)
    alphabet = ["a", "b", "c"]
    for _ in range(400):
        u = random_trace(rng, alphabet)
        inner = random_formula(rng, alphabet, rng.randint(0, 3))
        assert holds_on_trace(u, Finally(inner)) == \
            holds_on_trace(u, Until(TRUE, inner))


def test_globally_equals_not_finally_not():
    rng = random.Random(12)
    alphabet = ["a", "b", "c"]
    for _ in range(400):
        u = random_trace(rng, alphabet)
        inner = random_formula(rng, alphabet, rng.randint(0, 3))
        assert holds_on_trace(u, Globally(inner)) == \
            holds_on_trace(u, Not(Finally(Not(inner))))


def distinct_suffixes(u: Trace) -> list[Trace]:
    """Every distinct suffix of u, built directly: a lasso's prefix tails
    and cycle rotations, or a finite trace's tails down to the empty one."""
    if u.is_lasso:
        return ([lasso(u.prefix[i:], u.cycle) for i in range(len(u.prefix))]
                + [lasso((), u.cycle[k:] + u.cycle[:k])
                   for k in range(len(u.cycle))])
    return [finite_trace(*u.prefix[i:]) for i in range(len(u.prefix) + 1)]


def test_globally_suffix_law():
    rng = random.Random(13)
    alphabet = ["a", "b"]
    for _ in range(200):
        u = random_trace(rng, alphabet)
        inner = random_formula(rng, alphabet, rng.randint(0, 3))
        expected = all(holds_on_trace(v, inner) for v in distinct_suffixes(u))
        assert holds_on_trace(u, Globally(inner)) == expected, (u, inner)


def test_two_evaluators_agree_on_random_pairs():
    rng = random.Random(14)
    alphabet = ["a", "b", "c", "d"]
    for _ in range(1000):
        u = random_trace(rng, alphabet)
        phi = random_formula(rng, alphabet, rng.randint(0, 5))
        assert holds_on_trace(u, phi) == oracle_holds_on(u, phi), (u, phi)

    # prefixes that repeat the cycle (two positions name one suffix), a
    # one-event cycle, the empty trace and long lassos
    traces = [lasso(("a", "b", "a"), ("b", "a")), lasso(("a", "a"), ("a",)),
              lasso((), ("b",)), finite_trace()]
    for _ in range(3):
        traces.append(lasso(
            tuple(rng.choice(alphabet) for _ in range(rng.randint(38, 42))),
            tuple(rng.choice(alphabet) for _ in range(rng.randint(23, 27)))))
    for u in traces:
        for _ in range(40):
            f = random_formula(rng, alphabet, rng.randint(0, 4))
            g = copy.deepcopy(f)
            # one subformula object used twice, next to an equal copy
            for phi in (f, And(f, f), Until(f, f), And(f, g), Until(f, g),
                        Globally(Until(Not(f), f)), Or(Until(f, g), Not(f))):
                assert holds_on_trace(u, phi) == oracle_holds_on(u, phi), (u, phi)


def test_deep_nesting_evaluates():
    # the evaluator costs a fixed number of frames per nesting level; a
    # 200-deep F chain sits close to the reach of that recursion
    deep_f = parse_formula("F " * 200 + "[a]")
    deep_u = Atom("a")
    for _ in range(197):
        deep_u = Until(deep_u, Atom("b"))
    assert holds_on_trace(lasso(("b",), ("b", "a")), deep_f)
    assert not holds_on_trace(finite_trace("b", "b"), deep_f)
    # [b] never holds on these, so every left operand is evaluated
    assert not holds_on_trace(lasso(("a",), ("a", "c")), deep_u)
    assert holds_on_trace(finite_trace("a", "a"), Globally(Not(deep_u)))
    assert holds_on_trace(finite_trace("a", "b"), deep_u)
