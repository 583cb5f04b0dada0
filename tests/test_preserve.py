"""Translation, completion, dependence, and the two certified rules.

The appendix-style properties are exercised as randomized suites: printed
translation identity under completion, trace/translation equivalence, and
no-refutation of translated schema-certified formulas.
"""
from __future__ import annotations

import hashlib
import json
import random
import sys

import pytest

from ebltl.errors import EbltlError, RenamingError
from ebltl.formulas import (
    Atom, Finally, Globally, Not, Or, TRUE, formula_to_text, parse_formula,
)
from ebltl.ltl import alphabet, holds_on_trace
from ebltl.oracle import _bounded_traces, oracle_holds_on, random_formula
from ebltl.preserve import (
    _schema_certified, apply_lemma_gf, apply_preservation, check_beta_dependent,
    complete_renaming, map_trace, translate_formula,
)
from ebltl.refine import (
    RenamingMap, check_chain_pairs, check_refinement_pair, check_theorem1,
)
from ebltl import semantics
from ebltl.traces import Trace, finite_trace, lasso, project_trace

SPLIT = RenamingMap.make(
    {"selectBiscuit": "selectItem", "selectChoc": "selectItem",
     "dispenseBiscuit": "dispenseItem", "dispenseChoc": "dispenseItem"},
    {"selectBiscuit", "selectChoc", "dispenseBiscuit", "dispenseChoc",
     "pay", "refund", "refill"},
    {"selectItem", "dispenseItem"})


def random_renaming(rng: random.Random):
    abstract = [f"A{i}" for i in range(rng.randint(1, 3))]
    concrete = [f"c{i}" for i in range(rng.randint(len(abstract), 5))]
    mapping = {}
    # surjective but partial: each abstract event gets at least one preimage
    for i, a in enumerate(abstract):
        mapping[concrete[i]] = a
    for c in concrete[len(abstract):]:
        if rng.random() < 0.6:
            mapping[c] = rng.choice(abstract)
    return RenamingMap.make(mapping, concrete, abstract)


# -- translation ---------------------------------------------------------------

def test_translate_select_dispense():
    phi = parse_formula("G([selectItem] => F [dispenseItem])")
    expected = parse_formula(
        "G(([selectBiscuit] | [selectChoc]) => "
        "F([dispenseBiscuit] | [dispenseChoc]))")
    assert translate_formula(phi, SPLIT) == expected


def test_translate_identity_is_identity():
    ident = RenamingMap.identity({"a", "b"})
    rng = random.Random(0)
    for _ in range(200):
        phi = random_formula(rng, ["a", "b"], rng.randint(0, 5))
        assert translate_formula(phi, ident) == phi


def test_translate_empty_preimage_becomes_not_true():
    assert translate_formula(Atom("ghost"), SPLIT) == Not(TRUE)


def test_translate_disjuncts_sorted():
    out = translate_formula(Atom("selectItem"), SPLIT)
    assert out == Or(Atom("selectBiscuit"), Atom("selectChoc"))


# -- completion ------------------------------------------------------------------

def test_completion_adds_identity_on_new_events():
    total = complete_renaming(SPLIT)
    assert total.apply("pay") == "pay"
    assert total.apply("refill") == "refill"
    assert total.apply("selectBiscuit") == "selectItem"
    assert total.domain() == SPLIT.concrete_alphabet


def test_completion_of_total_map_is_itself():
    ident = RenamingMap.identity({"a", "b"})
    assert complete_renaming(ident).mapping == ident.mapping


def test_the_map_cannot_be_changed_from_outside():
    """`make` keeps its own copy of the dict it is given, and completion
    builds a new map, leaving the one it completes as it was."""
    given = {"a": "A"}
    h = RenamingMap.make(given, (e for e in "ab"), (e for e in "A"))
    given["b"] = "A"
    assert h.mapping == {"a": "A"} and h.new_events() == ("b",)
    assert complete_renaming(h).mapping == {"a": "A", "b": "b"}
    assert h.mapping == {"a": "A"} and h.new_events() == ("b",)


def test_completion_of_empty_map_is_identity():
    empty = RenamingMap.make({}, {"a", "b"}, set())
    total = complete_renaming(empty)
    assert total.mapping == {"a": "a", "b": "b"}


def test_lemma_translation_unchanged_by_completion():
    """When a formula only mentions events in the map's range, translating
    through the map and through its completion is the same syntax tree."""
    rng = random.Random(21)
    for _ in range(300):
        h = random_renaming(rng)
        ran = sorted(set(h.mapping.values()))
        phi = random_formula(rng, ran, rng.randint(0, 4))
        assert translate_formula(phi, h) == translate_formula(phi, complete_renaming(h))


# -- trace mapping -----------------------------------------------------------------

def test_map_trace_through_completed_split():
    total = complete_renaming(SPLIT)
    u = lasso(("selectBiscuit",), ("dispenseBiscuit", "selectBiscuit"))
    assert map_trace(total, u) == lasso(("selectItem",),
                                        ("dispenseItem", "selectItem"))


def test_map_trace_identity():
    ident = RenamingMap.identity({"a", "b"})
    u = lasso(("a",), ("b",))
    assert map_trace(ident, u) == u


def test_map_trace_outside_domain_errors():
    with pytest.raises(RenamingError, match="pay"):
        map_trace(SPLIT, finite_trace("selectBiscuit", "pay"))


def random_trace_over(rng: random.Random, alphabet) -> Trace:
    alphabet = list(alphabet)
    prefix = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 3)))
    if rng.random() < 0.3:
        return finite_trace(*prefix)
    return lasso(prefix, tuple(rng.choice(alphabet)
                               for _ in range(rng.randint(1, 3))))


def test_lemma_trace_translation_equivalence():
    """u satisfies the translated formula exactly when its image satisfies
    the original: 1000 randomized trials over small alphabets."""
    rng = random.Random(22)
    for _ in range(1000):
        h = random_renaming(rng)
        total = complete_renaming(h)
        ran = sorted(set(h.mapping.values()))
        phi = random_formula(rng, ran, rng.randint(0, 4))
        u = random_trace_over(rng, sorted(h.domain()))
        lhs = holds_on_trace(u, translate_formula(phi, h))
        rhs = holds_on_trace(map_trace(h, u), phi)
        assert lhs == rhs, (formula_to_text(phi), u, h.mapping)
        # the completion agrees wherever the partial map is defined
        assert holds_on_trace(u, translate_formula(phi, total)) == rhs


# -- beta dependence -----------------------------------------------------------------

def test_gf_pay_certified_by_schema():
    verdict = check_beta_dependent(parse_formula("G F [pay]"), {"pay"},
                                   {"pay", "refill"})
    assert verdict.certified and verdict.method == "syntactic-schema"


def test_not_g_pay_refuted_with_projection_witness():
    verdict = check_beta_dependent(parse_formula("!G [pay]"), {"pay"},
                                   {"pay", "refill"})
    assert verdict.status == "refuted"
    w = verdict.witness
    assert holds_on_trace(w, parse_formula("!G [pay]")) != \
        holds_on_trace(project_trace(w, {"pay"}), parse_formula("!G [pay]"))
    # the projected witness is the all-pay word pay^ω
    projected = project_trace(w, {"pay"})
    assert projected.is_lasso and set(projected.prefix + projected.cycle) == {"pay"}


def test_g_of_originals_refuted(vm_graphs):
    phi = parse_formula("G([selectBiscuit] | [selectChoc] | "
                        "[dispenseBiscuit] | [dispenseChoc])")
    verdict = check_beta_dependent(phi, alphabet(phi), set(vm_graphs["VM4"].alphabet))
    assert verdict.status == "refuted"
    extra = set(verdict.witness.prefix + verdict.witness.cycle) - alphabet(phi)
    assert extra  # the witness pumps an event outside the four originals


def test_alphabet_outside_beta_is_an_error():
    with pytest.raises(EbltlError, match="within beta"):
        check_beta_dependent(parse_formula("G F [pay]"), {"refill"}, {"pay"})


def test_atom_decided_with_and_without_an_outside_event():
    # a bare atom is projection-sensitive once sigma has an event outside
    # beta; over sigma = beta projection changes no trace, and the
    # decision says so instead of stopping at bounds
    phi = Atom("a")
    verdict = check_beta_dependent(phi, {"a"}, {"a"})
    assert verdict.certified and verdict.method == "tableau-product"
    for u in _bounded_traces(("a",), 2, 2):
        assert holds_on_trace(u, phi) == holds_on_trace(project_trace(u, {"a"}), phi)
    refuted = check_beta_dependent(phi, {"a"}, {"a", "b"})
    assert refuted.status == "refuted"
    w = refuted.witness
    assert holds_on_trace(w, phi) != holds_on_trace(project_trace(w, {"a"}), phi)


@pytest.mark.parametrize("outside,prefix,cycle", [
    ("z", ("c", "z"), ("z", "c", "z")),
    ("a", ("a", "c"), ("a", "a", "c")),  # the outside letter's edges come first
])
def test_lasso_witness_adds_a_loop_through_beta(outside, prefix, cycle):
    # the accepting cycle the search closes first reads no beta letter, so
    # the witness loops once more through a beta edge of its component
    phi = parse_formula("G (F G [c] | [c]) & G [c]")
    verdict = check_beta_dependent(phi, {"c"}, {"c", outside})
    assert verdict.status == "refuted" and verdict.method == "tableau-product"
    w = verdict.witness
    assert (w.prefix, w.cycle) == (prefix, cycle)
    assert holds_on_trace(w, phi) != holds_on_trace(project_trace(w, {"c"}), phi)


def test_added_loop_takes_a_beta_edge_inside_the_component():
    # the cycle closed first reads only z, and at the closest node with a
    # beta edge inside the component the first a-edge in its list leaves
    # the component: the added loop must take the a-edge that stays in it
    phi = parse_formula("G (F G [a] | [a])")
    verdict = check_beta_dependent(phi, {"a"}, {"a", "z"})
    assert verdict.status == "refuted" and verdict.method == "tableau-product"
    w = verdict.witness
    assert (w.prefix, w.cycle) == (("z",), ("z", "a", "z"))
    assert holds_on_trace(w, phi) != holds_on_trace(project_trace(w, {"a"}), phi)


def test_decision_agrees_with_schema_and_enumeration():
    """Differential check on 1200 seeded random formulas over a and b, with
    beta = {a, b} and sigma with and without the outside event z: every
    refutation separates its trace from the projection under the oracle's
    evaluator and never meets a schema certificate, and no certified
    formula is refuted by the bounded enumeration (2/2).  The sha256 of all
    1200 reports pins them, witnesses and product sizes included, so that
    they stay byte-identical across changes to the decision."""
    rng = random.Random(8)
    beta = frozenset({"a", "b"})
    decided = {"certified": 0, "refuted": 0}
    reports = hashlib.sha256()
    for k in range(1200):
        phi = random_formula(rng, rng.choice([["a"], ["a", "b"]]), rng.randint(1, 4))
        sigma = ("a", "b", "z") if k % 2 else ("a", "b")
        verdict = check_beta_dependent(phi, beta, sigma)
        reports.update(json.dumps(verdict.to_json_dict(), sort_keys=True).encode() + b"\n")
        decided[verdict.status] += 1
        text = formula_to_text(phi)
        if verdict.status == "refuted":
            w = verdict.witness
            assert set(w.prefix + w.cycle) <= set(sigma), text
            assert oracle_holds_on(w, phi) != \
                oracle_holds_on(project_trace(w, beta), phi), (text, w)
            assert not _schema_certified(phi), text
            continue
        for u in _bounded_traces(sigma, 2, 2):
            assert oracle_holds_on(u, phi) == \
                oracle_holds_on(project_trace(u, beta), phi), (text, sigma, u)
    # both answers occur often enough for the comparison to mean something
    assert min(decided.values()) > 300, decided
    assert reports.hexdigest() == \
        "872f1b7b47ff4c12fae80d38acff9e6aff760a1d341dada2e4ffe04e4965fbd9"


def test_schema_shapes():
    from ebltl.preserve import _schema_certified
    certified = [
        "G F [a]", "F G !([a] | [b])", "G([a] => F [b])", "F [a]", "true",
        "(G F [a]) & !(F [b])", "G(([a] | [b]) => F([c] | [d]))",
        "G(F [b] | ![a])",
    ]
    rejected = ["[a]", "G [a]", "[a] U [b]", "G([a] => [b])", "F G [a]",
                "G(![a] | F ![b])", "G F ([a] & [b])", "F G ![a] | [b]"]
    for text in certified:
        assert _schema_certified(parse_formula(text)), text
    for text in rejected:
        assert not _schema_certified(parse_formula(text)), text


def test_schema_certificates_survive_bounded_scrutiny():
    """Schema-certified shapes never get refuted by the bounded search over
    a larger ambient alphabet (soundness spot check)."""
    shapes = ["G F [a]", "F G !([a] | [b])", "G([a] => F [b])", "F [a]",
              "!(G F [a]) | F [b]", "(F [a]) & (G([b] => F [a]))"]
    for text in shapes:
        phi = parse_formula(text)
        beta = alphabet(phi)
        verdict = check_beta_dependent(phi, beta, beta | {"z", "w"},
                                       prefix_bound=3, cycle_bound=3)
        assert verdict.certified
        # force the bounded path: it must find no witness either
        from ebltl.oracle import _bounded_traces
        for u in _bounded_traces(tuple(sorted(beta | {"z", "w"})), 2, 2):
            assert holds_on_trace(u, phi) == \
                holds_on_trace(project_trace(u, beta), phi), (text, u)


def test_translated_schema_formula_stays_dependent():
    """Translating a schema-certified formula yields a formula that is
    beta-dependent for the preimage event set, and the bounded enumeration
    finds no refutation either."""
    rng = random.Random(23)
    shapes = [
        Globally(Finally(Atom("selectItem"))),
        parse_formula("G([selectItem] => F [dispenseItem])"),
        Finally(Atom("dispenseItem")),
        parse_formula("F G !([selectItem])"),
    ]
    for phi in shapes:
        beta = alphabet(phi)
        out = translate_formula(phi, SPLIT)
        pre_beta = SPLIT.preimage_set(beta)
        verdict = check_beta_dependent(out, pre_beta,
                                       set(SPLIT.concrete_alphabet))
        assert verdict.certified and verdict.witness is None
        for u in _bounded_traces(tuple(sorted({*pre_beta, "pay"})), 2, 2):
            assert holds_on_trace(u, out) == \
                holds_on_trace(project_trace(u, pre_beta), out), (phi, u)


# -- the certified rules ---------------------------------------------------------

def test_gf_rule_identity_chain(vm1_chain, vm1_chain_graphs):
    cert = apply_lemma_gf(vm1_chain, vm1_chain_graphs)
    assert cert.lemma == 1 and cert.asserted
    assert cert.conclusion == parse_formula(
        "G F ([dispenseBiscuit] | [dispenseChoc] | "
        "[selectBiscuit] | [selectChoc])")
    assert cert.cross_validation.holds


def test_gf_rule_split_chain(vm_chain, vm_chain_graphs):
    cert = apply_lemma_gf(vm_chain, vm_chain_graphs)
    assert cert.lemma == 3 and cert.asserted
    # same conclusion through the composed preimage of the split events
    assert cert.conclusion == parse_formula(
        "G F ([dispenseBiscuit] | [dispenseChoc] | "
        "[selectBiscuit] | [selectChoc])")


def test_gf_rule_blocked_on_truncated_chain():
    from ebltl.refine import explore_chain, load_chain
    from tests.conftest import VM_DIR
    chain = load_chain(VM_DIR / "chain-to-vm3.json")
    graphs = explore_chain(chain)
    cert = apply_lemma_gf(chain, graphs)
    assert not cert.asserted
    assert cert.conclusion is None
    assert any("anticipated" in name for name in cert.failed_hypotheses())


@pytest.mark.parametrize("level,prop,lemma", [
    (1, "phi2", 2), (1, "phi3", 2), (2, "phi7", 2),
])
def test_preservation_certifies(vm_chain, vm_chain_graphs, vm_props,
                                level, prop, lemma):
    cert = apply_preservation(vm_chain, level, vm_props[prop], None,
                              vm_chain_graphs)
    assert cert.asserted and cert.lemma == lemma
    assert cert.conclusion == vm_props[prop]
    assert cert.cross_validation.holds


def test_preservation_with_splitting(vm_chain, vm_chain_graphs, vm_props):
    cert = apply_preservation(vm_chain, 0, vm_props["select_leads_to_dispense"],
                              None, vm_chain_graphs)
    assert cert.asserted and cert.lemma == 4
    assert cert.conclusion == parse_formula(
        "G(([selectBiscuit] | [selectChoc]) => "
        "F([dispenseBiscuit] | [dispenseChoc]))")


def test_preservation_blocked_when_base_fails(vm_chain, vm_chain_graphs, vm_props):
    cert = apply_preservation(vm_chain, 1, vm_props["phi4"], None, vm_chain_graphs)
    assert not cert.asserted and cert.conclusion is None
    failed = cert.failed_hypotheses()
    assert len(failed) == 1 and failed[0].startswith("VM1 satisfies")


def test_preservation_blocked_when_beta_escapes_level(vm_chain, vm_chain_graphs,
                                                      vm_props):
    cert = apply_preservation(vm_chain, 1, vm_props["phi2"],
                              alphabet(vm_props["phi2"]) | {"pay"},
                              vm_chain_graphs)
    assert not cert.asserted
    assert any("beta within alphabet" in h for h in cert.failed_hypotheses())


def test_preservation_decides_dependence_off_the_schema(vm_chain, vm_chain_graphs):
    # GF([pay] U [pay]) means GF [pay] but the Until keeps it off the
    # schema: the decision certifies it with no opt-in
    phi = parse_formula("G F ([pay] U [pay])")
    cert = apply_preservation(vm_chain, 2, phi, None, vm_chain_graphs)
    assert cert.asserted and cert.conclusion == phi
    dependence = cert.bounds["dependence"]
    assert dependence["status"] == "certified"
    assert dependence["method"] == "tableau-product"
    sigma = tuple(dependence["bounds"]["sigma"])
    for u in _bounded_traces(sigma, 2, 1):
        assert holds_on_trace(u, phi) == holds_on_trace(project_trace(u, {"pay"}), phi)


def test_negative_control_vm2_pumps_pay(vm_chain, vm_chain_graphs, vm_props):
    """The intermediate machines do not satisfy phi1..phi3: the anticipated
    pay event can run forever, and the counterexamples show it."""
    from ebltl.ltl import model_check
    vm2_graph = vm_chain_graphs[2]
    for prop in ["phi1", "phi2", "phi3"]:
        verdict = model_check(vm2_graph, vm_props[prop])
        assert not verdict.holds
        assert "pay" in verdict.counterexample.cycle


def test_certificate_json_shape(vm_chain, vm_chain_graphs, vm_props):
    cert = apply_preservation(vm_chain, 2, vm_props["phi7"], None, vm_chain_graphs)
    data = cert.to_json_dict()
    assert data["asserted"] is True
    assert data["lemma"] == 2
    assert data["conclusion"] == "G F [pay]"
    assert all(h["passed"] for h in data["hypotheses"])
    assert data["cross_validation"]["holds"] is True


def test_chain_checks_use_the_callers_graphs(vm_chain, vm_chain_graphs, vm_props,
                                            monkeypatch):
    """po, gf, theorem1 and preserve run on the graphs they are handed:
    with every module binding of `explore` made to raise, they complete."""
    original = semantics.explore

    def explore_again(*args, **kwargs):
        raise AssertionError("a machine was explored a second time")

    patched = []
    for name, module in list(sys.modules.items()):
        if (name == "ebltl" or name.startswith("ebltl.")) \
                and vars(module).get("explore") is original:
            monkeypatch.setattr(module, "explore", explore_again)
            patched.append(name)
    assert {"ebltl.semantics", "ebltl.refine"} <= set(patched)

    assert all(r.ok for r in check_chain_pairs(vm_chain, vm_chain_graphs))
    assert check_refinement_pair(vm_chain.machines[0], vm_chain.machines[1],
                                 vm_chain.links[0], vm_chain_graphs[1]).ok
    assert apply_lemma_gf(vm_chain, vm_chain_graphs).asserted
    assert check_theorem1(vm_chain, vm_chain_graphs).certified
    assert apply_preservation(vm_chain, 1, vm_props["phi2"], None,
                              vm_chain_graphs).asserted
