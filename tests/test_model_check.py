"""Model checking machines against properties."""
from __future__ import annotations

import hashlib
import json
import random

import pytest

from ebltl.automata import Product
from ebltl.formulas import Atom, Finally, Globally, parse_formula
from ebltl.ltl import holds_on_trace, model_check
from ebltl.machine_parser import parse_machine
from ebltl.oracle import random_formula, random_graph, trace_realizable
from ebltl.refine import check_ca
from ebltl.semantics import explore, find_path
from ebltl.traces import finite_trace
from ebltl.errors import EvalError, ExplorationLimitError

VERDICT_TABLE = [
    ("VM1", "phi1", True), ("VM1", "phi2", True), ("VM1", "phi3", True),
    ("VM1", "phi4", False), ("VM1", "phi5", False),
    ("VM2", "phi1", False), ("VM2", "phi2", False), ("VM2", "phi3", False),
    ("VM2", "phi6", False), ("VM2", "phi7", True),
    ("VM4", "phi1", True), ("VM4", "phi2", True), ("VM4", "phi3", True),
    ("VM4", "phi6", True), ("VM4", "phi7", True),
]


@pytest.mark.parametrize("machine,prop,expected", VERDICT_TABLE)
def test_vm_verdicts(vm_graphs, vm_props, machine, prop, expected):
    verdict = model_check(vm_graphs[machine], vm_props[prop])
    assert verdict.holds == expected


@pytest.mark.parametrize("machine,prop,expected", VERDICT_TABLE)
def test_counterexamples_are_real_refuting_traces(vm_graphs, vm_props,
                                                  machine, prop, expected):
    verdict = model_check(vm_graphs[machine], vm_props[prop])
    if expected:
        assert verdict.counterexample is None
    else:
        cex = verdict.counterexample
        assert cex is not None
        assert not holds_on_trace(cex, vm_props[prop])
        assert trace_realizable(vm_graphs[machine], cex)


def test_vm1_phi4_counterexample_visits_selectChoc(vm_graphs, vm_props):
    cex = model_check(vm_graphs["VM1"], vm_props["phi4"]).counterexample
    assert "selectChoc" in cex.prefix + cex.cycle
    assert "dispenseChoc" not in cex.prefix + cex.cycle


def test_lift_pair(lift_machines):
    phi = parse_formula("G([top] => F [ground])")
    lift = explore(lift_machines["Lift"])
    lift_prime = explore(lift_machines["LiftPrime"])
    assert model_check(lift, phi).holds
    verdict = model_check(lift_prime, phi)
    assert not verdict.holds
    # the doors flap forever after top
    cex = verdict.counterexample
    assert set(cex.cycle) == {"openDoors", "closeDoors"}


def test_foreign_atoms_warn_and_never_hold(vm_graphs):
    with pytest.warns(UserWarning, match="outside the machine alphabet"):
        verdict = model_check(vm_graphs["VM1"], Globally(Finally(Atom("restock"))))
    assert not verdict.holds


def test_finite_counterexamples_from_deadlocking_machine():
    m = parse_machine(
        "machine Drain\nvariables\n  n : 0..2\n"
        "events\n  event init then n := 2 end\n"
        "  event down\n    status ordinary\n    when n > 0 then n := n - 1 end\n"
        "  event up\n    status ordinary\n    when n > 2 then n := n end\nend")
    g = explore(m)
    assert g.deadlocks != ()
    # the single maximal trace is down,down then deadlock; G[down] is still
    # false because the empty suffix is quantified
    verdict = model_check(g, Globally(Atom("down")))
    assert not verdict.holds
    assert not verdict.counterexample.is_lasso
    # F[down] holds on it; up is declared but never enabled, F[up] fails
    assert model_check(g, Finally(Atom("down"))).holds
    assert not model_check(g, Finally(Atom("up"))).holds


def test_empty_maximal_trace():
    m = parse_machine(
        "machine Still\nvariables\n  flag : bool\n"
        "events\n  event init then flag := true end\n"
        "  event go\n    status ordinary\n    when flag = false "
        "then flag := true end\nend")
    g = explore(m)
    verdict = model_check(g, Finally(Atom("go")))
    assert not verdict.holds
    assert verdict.counterexample == finite_trace()


def test_counterexample_is_minimal_among_candidates(vm_graphs, vm_props):
    # VM2 refutes phi6 with the shortest possible pump: one pay then pay forever
    cex = model_check(vm_graphs["VM2"], vm_props["phi6"]).counterexample
    assert len(cex.prefix) + len(cex.cycle) == 2
    assert set(cex.prefix + cex.cycle) == {"pay"}


def test_product_limit():
    m = parse_machine(
        "machine Wide\nvariables\n  n : 0..40\n"
        "events\n  event init then n := 0 end\n"
        "  event up\n    status ordinary\n    when n < 40 then n := n + 1 end\n"
        "  event reset\n    status ordinary\n    when n = 40 then n := 0 end\nend")
    g = explore(m)
    with pytest.raises(ExplorationLimitError):
        model_check(g, parse_formula("G F [reset]"), product_limit=10)


def test_witnesses_are_pinned():
    """Counterexamples, divergence witnesses and shortest paths on seeded
    random graphs, which hold deadlocks and unreachable states, hashed
    against a pinned digest: any change in the order in which the searches
    visit nodes or edges changes some witness and shows here."""
    rng = random.Random(11)
    alphabet = ["a", "b", "c", "d"]
    digest = hashlib.sha256()
    kinds = {"finite": 0, "lasso": 0, "ca": 0}
    for _ in range(300):
        graph = random_graph(rng, rng.randint(6, 60), alphabet)
        phi = random_formula(rng, alphabet, rng.randint(1, 4))
        convergent = rng.sample(alphabet, 2)
        ordinary = [e for e in alphabet if e not in convergent and rng.random() < 0.5]
        verdict = model_check(graph, phi)
        ca = check_ca(graph, convergent, ordinary)
        paths = []
        for s in range(len(graph.states)):
            try:
                paths.append(find_path(graph, s))
            except EvalError:
                paths.append(None)
        if verdict.counterexample is not None:
            kinds["lasso" if verdict.counterexample.is_lasso else "finite"] += 1
        kinds["ca"] += ca.witness is not None
        digest.update(json.dumps([verdict.to_json_dict(), ca.to_json_dict(), paths],
                                 sort_keys=True).encode())
    assert kinds == {"finite": 117, "lasso": 91, "ca": 164}
    assert digest.hexdigest() == "9f650fe6f6f25cdd25a8d29bb6b4a9b819e6f30d7f8375cfcba48828451ef0ba"


def test_product_limit_is_exact():
    """A five-node chain builds under a limit of five and raises under four."""
    def step(left):
        return [(left + 1, "a")] if left < 4 else []

    def successors(right, label):
        return [right]

    assert len(Product([(0, 0)], step, successors, limit=5).nodes) == 5
    with pytest.raises(ExplorationLimitError, match="limit of 4"):
        Product([(0, 0)], step, successors, limit=4)
