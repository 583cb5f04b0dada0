"""The brute-force oracle and the differential harness."""
from __future__ import annotations

import random
import shutil

import pytest

from ebltl.errors import EnumerationBudgetError
from ebltl.formulas import Atom, Globally, TRUE, parse_formula
from ebltl.ltl import model_check
from ebltl.oracle import (
    OracleBounds, corpus_root, cross_validate, load_corpus, load_entry,
    oracle_holds_on, oracle_model_check, random_formula, random_graph,
    trace_realizable,
)
from ebltl.semantics import explore, make_graph
from ebltl.traces import finite_trace, lasso


def test_oracle_agrees_on_gf_pay():
    assert oracle_holds_on(lasso((), ("pay",)), parse_formula("G F [pay]"))


def test_oracle_atom_false_on_empty():
    assert not oracle_holds_on(finite_trace(), Atom("x"))


def test_oracle_model_check_refutes_vm1_phi4(vm_graphs, vm_props):
    verdict = oracle_model_check(vm_graphs["VM1"], vm_props["phi4"])
    assert not verdict.holds
    assert trace_realizable(vm_graphs["VM1"], verdict.counterexample)


def test_oracle_model_check_true_formula(vm_graphs):
    assert oracle_model_check(vm_graphs["VM1"], TRUE).holds


def test_oracle_model_check_vm4_phi7(vm_graphs, vm_props):
    main = model_check(vm_graphs["VM4"], vm_props["phi7"])
    brute = oracle_model_check(vm_graphs["VM4"], vm_props["phi7"])
    assert main.holds and brute.holds


def test_oracle_enumerates_finite_traces():
    g = make_graph(3, [0], [(0, "a", 1), (1, "b", 2)], ["a", "b"])
    verdict = oracle_model_check(g, Globally(Atom("a")))
    assert not verdict.holds
    assert verdict.counterexample == finite_trace("a", "b")


def test_oracle_budget_withholds_verdict(vm_graphs, vm_props):
    with pytest.raises(EnumerationBudgetError):
        oracle_model_check(vm_graphs["VM4"], vm_props["phi1"],
                           OracleBounds(prefix=6, cycle=6, budget=500))


def test_trace_realizable_positive_and_negative(vm_graphs):
    g = vm_graphs["VM1"]
    assert trace_realizable(g, lasso(("selectChoc",),
                                     ("selectBiscuit", "dispenseBiscuit")))
    assert not trace_realizable(g, lasso((), ("dispenseChoc",)))
    assert not trace_realizable(g, finite_trace("selectChoc"))  # not maximal


def test_trace_realizable_needs_repeatable_cycle():
    # b cannot repeat: state 2 only loops on c
    g = make_graph(3, [0], [(0, "a", 1), (1, "b", 2), (2, "c", 2)], ["a", "b", "c"])
    assert trace_realizable(g, lasso(("a", "b"), ("c",)))
    assert not trace_realizable(g, lasso(("a",), ("b",)))


def test_corpus_loads_with_sources():
    entries = {e.name: e for e in load_corpus()}
    assert {"vm", "lift"} <= set(entries)
    vm = entries["vm"]
    assert {v.machine for v in vm.verdicts} == {"VM0", "VM1", "VM2", "VM3", "VM4"}
    assert all(v.source for v in vm.verdicts)
    assert (vm.directory / "NOTES.md").exists()


def test_cross_validate_full_corpus():
    report = cross_validate()
    assert report.ok, [r.to_json_dict() for r in report.disagreements]
    assert len(report.rows) >= 25


def test_cross_validate_randomized_small():
    report = cross_validate(entries=[], random_pairs=120, seed=5)
    assert report.ok
    assert len(report.rows) == 120


def test_random_generators_deterministic():
    a = random_graph(random.Random(9), 10, ["a", "b"])
    b = random_graph(random.Random(9), 10, ["a", "b"])
    assert a.to_json_dict() == b.to_json_dict()
    fa = random_formula(random.Random(9), ["a", "b"], 4)
    fb = random_formula(random.Random(9), ["a", "b"], 4)
    assert fa == fb


def test_corpus_root_env_override(monkeypatch, tmp_path):
    from ebltl.oracle import corpus_root
    monkeypatch.setenv("EBLTL_CORPUS", str(tmp_path))
    assert corpus_root() == tmp_path
    monkeypatch.delenv("EBLTL_CORPUS")
    assert corpus_root().name == "corpus"


def test_corpus_graphs_follow_the_loaded_machines(tmp_path):
    """Each entry explores its own machines: loading a directory again
    after an edit gives the edited machine's graph, not an earlier one."""
    directory = tmp_path / "vm"
    shutil.copytree(corpus_root() / "vm", directory)
    assert len(load_entry(directory).graph("VM4").states) == 132
    vm4 = directory / "vm4.eb"
    vm4.write_text(vm4.read_text().replace("capacity = 2", "capacity = 4"))
    entry = load_entry(directory)
    assert entry.machines["VM4"].sym.constants == {"capacity": 4}
    assert entry.graph("VM4").states == explore(entry.machines["VM4"]).states
    assert len(entry.graph("VM4").states) > 132


def test_trace_invariants():
    from ebltl.traces import Trace, FINITE, LASSO
    with pytest.raises(ValueError):
        Trace(LASSO, ("a",), ())  # a lasso needs a nonempty cycle
    with pytest.raises(ValueError):
        Trace(FINITE, ("a",), ("b",))  # a finite trace has no cycle
