"""Trace satisfaction, projection, and the finite-trace reading.

Property-style checks use seeded random traces and compare the two
independent evaluators wherever both apply.
"""
from __future__ import annotations

import random

import pytest

from ebltl.formulas import (
    Atom, Finally, Globally, Not, TRUE, Until, parse_formula,
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


# -- suffix machinery ---------------------------------------------------------

def test_lasso_suffix_rotates_cycle():
    u = lasso(("p",), ("a", "b", "c"))
    assert u.suffix(1) == lasso((), ("a", "b", "c"))
    assert u.suffix(2) == lasso((), ("b", "c", "a"))
    assert u.suffix(4) == lasso((), ("a", "b", "c"))


def test_finite_suffix_bounds():
    u = finite_trace("a", "b")
    assert u.suffix(2) == finite_trace()
    with pytest.raises(IndexError):
        u.suffix(3)


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


def test_globally_suffix_law_on_lassos():
    rng = random.Random(13)
    alphabet = ["a", "b"]
    for _ in range(200):
        u = random_trace(rng, alphabet)
        if not u.is_lasso:
            continue
        inner = random_formula(rng, alphabet, rng.randint(0, 3))
        expected = all(holds_on_trace(u.suffix(i), inner)
                       for i in range(u.positions()))
        assert holds_on_trace(u, Globally(inner)) == expected


def test_two_evaluators_agree_on_random_pairs():
    rng = random.Random(14)
    alphabet = ["a", "b", "c", "d"]
    for _ in range(1000):
        u = random_trace(rng, alphabet)
        phi = random_formula(rng, alphabet, rng.randint(0, 5))
        assert holds_on_trace(u, phi) == oracle_holds_on(u, phi), (u, phi)
