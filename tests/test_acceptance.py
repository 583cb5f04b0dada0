"""Acceptance suite: ten end-to-end criteria, one test each.

Every test prints a single `ACCEPTANCE n (<label>): PASS` line when its
assertions went through (run with `pytest -s tests/test_acceptance.py` to
see them stream).  Failures show up as ordinary pytest failures.
"""
from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
import time

from ebltl.formulas import parse_formula
from ebltl.ltl import alphabet, holds_on_trace, model_check
from ebltl.machine_parser import parse_machine_file
from ebltl.oracle import (
    OracleBounds, _bounded_traces, cross_validate, load_corpus,
    trace_realizable, random_formula,
)
from ebltl.preserve import (
    apply_lemma_gf, apply_preservation, check_beta_dependent,
    complete_renaming, map_trace, translate_formula,
)
from ebltl.refine import (
    ChainLink, build_chain, check_chain_pairs, check_refinement_pair,
    check_strategy, check_theorem1, derive_renaming, explore_chain, load_chain,
)
from ebltl.semantics import explore
from ebltl.traces import lasso, project_trace
from tests.conftest import MUTANT_DIR, VM_DIR


def _ok(number: int, label: str):
    print(f"ACCEPTANCE {number} ({label}): PASS")


def test_criterion_1_strategy_and_labels(vm1_chain):
    report = check_strategy(vm1_chain)
    assert report.ok
    assert report.convergent == [(), ("refund",), ("refill",), ("pay",)]
    truncated = load_chain(VM_DIR / "chain-to-vm3.json")
    tr = check_strategy(truncated)
    assert [(v.rule, v.event) for v in tr.violations] == [(6, "pay")]
    _ok(1, "strategy rules and label sets")


def test_criterion_2_obligations_and_mutations(vm_chain, vm_chain_graphs):
    for report in check_chain_pairs(vm_chain, vm_chain_graphs):
        assert report.ok, f"{report.abstract}->{report.concrete}"
    spec = json.loads((MUTANT_DIR / "mutants.json").read_text())
    for entry in spec["pair_mutants"]:
        abstract = parse_machine_file(MUTANT_DIR / entry["abstract"])
        concrete = parse_machine_file(MUTANT_DIR / entry["file"])
        link = ChainLink(derive_renaming(abstract, concrete, None),
                         concrete.linking)
        report = check_refinement_pair(abstract, concrete, link, explore(concrete))
        assert report.failed() == [entry["expect_po"]], entry["name"]
    for entry in spec["chain_mutants"]:
        machines = [parse_machine_file(MUTANT_DIR / p) for p in entry["chain"]]
        chain = build_chain(entry["name"], machines)
        strat = check_strategy(chain)
        assert sorted({v.rule for v in strat.violations}) == [entry["expect_rule"]]
        assert all(r.ok for r in check_chain_pairs(chain, explore_chain(chain)))
    _ok(2, "refinement obligations, six diagonal mutations")


VERDICTS = [
    ("VM1", "phi1", True), ("VM1", "phi2", True), ("VM1", "phi3", True),
    ("VM1", "phi4", False), ("VM1", "phi5", False),
    ("VM2", "phi7", True), ("VM2", "phi6", False),
    ("VM2", "phi1", False), ("VM2", "phi2", False), ("VM2", "phi3", False),
    ("VM4", "phi1", True), ("VM4", "phi2", True), ("VM4", "phi3", True),
    ("VM4", "phi6", True), ("VM4", "phi7", True),
]


def test_criterion_3_verdict_table(vm_graphs, vm_props):
    for machine, prop, expected in VERDICTS:
        verdict = model_check(vm_graphs[machine], vm_props[prop])
        assert verdict.holds == expected, (machine, prop)
        if not expected:
            cex = verdict.counterexample
            assert cex is not None
            assert not holds_on_trace(cex, vm_props[prop])
            assert trace_realizable(vm_graphs[machine], cex)
    _ok(3, "temporal verdict table with replayed counterexamples")


def test_criterion_4_recurrent_origin_rule(vm_chain, vm_chain_graphs,
                                           vm1_chain, vm1_chain_graphs):
    want = parse_formula("G F ([dispenseBiscuit] | [dispenseChoc] | "
                         "[selectBiscuit] | [selectChoc])")
    cert1 = apply_lemma_gf(vm1_chain, vm1_chain_graphs)
    assert cert1.asserted and cert1.lemma == 1
    assert cert1.conclusion == want
    assert cert1.cross_validation is not None and cert1.cross_validation.holds
    cert3 = apply_lemma_gf(vm_chain, vm_chain_graphs)
    assert cert3.asserted and cert3.lemma == 3
    assert cert3.conclusion == want
    assert cert3.cross_validation.holds
    _ok(4, "recurrence of initial events, with and without renaming")


def test_criterion_5_preservation_rule(vm_chain, vm_chain_graphs, vm_props):
    for level, prop in [(1, "phi2"), (1, "phi3"), (2, "phi7")]:
        cert = apply_preservation(vm_chain, level, vm_props[prop], None,
                                  vm_chain_graphs)
        assert cert.asserted and cert.conclusion == vm_props[prop], prop
        assert cert.cross_validation.holds
    trans_cert = apply_preservation(vm_chain, 0,
                                    vm_props["select_leads_to_dispense"],
                                    None, vm_chain_graphs)
    assert trans_cert.asserted
    assert trans_cert.conclusion == parse_formula(
        "G(([selectBiscuit] | [selectChoc]) => "
        "F([dispenseBiscuit] | [dispenseChoc]))")
    blocked = apply_preservation(vm_chain, 1, vm_props["phi4"], None,
                                 vm_chain_graphs)
    assert not blocked.asserted and blocked.conclusion is None
    failed = blocked.failed_hypotheses()
    assert len(failed) == 1 and failed[0].startswith("VM1 satisfies")
    _ok(5, "preservation certificates and the blocked application")


def test_criterion_6_divergence_freedom(vm1_chain, vm1_chain_graphs):
    report = check_theorem1(vm1_chain, vm1_chain_graphs)
    assert report.certified and report.direct.holds and report.consistent
    spec = json.loads((MUTANT_DIR / "mutants.json").read_text())["divergent_mutant"]
    machines = [parse_machine_file(MUTANT_DIR / p) for p in spec["chain"]]
    chain = build_chain(spec["name"], machines)
    graphs = explore_chain(chain)
    graph_n = graphs[-1]
    mutant_report = check_theorem1(chain, graphs)
    assert not mutant_report.certified
    assert not mutant_report.direct.holds
    witness = mutant_report.direct.witness
    assert witness is not None and witness.is_lasso
    assert trace_realizable(graph_n, witness)
    assert set(witness.cycle) & set(mutant_report.c_star)
    assert not set(witness.cycle) & set(mutant_report.o_star)
    _ok(6, "divergence freedom and the divergent mutant")


def test_criterion_7_projection_insensitivity(vm_graphs):
    gf_pay = parse_formula("G F [pay]")
    verdict = check_beta_dependent(gf_pay, {"pay"}, {"pay", "refill"})
    assert verdict.certified

    neg = parse_formula("!G [pay]")
    refuted = check_beta_dependent(neg, {"pay"}, {"pay", "refill"})
    assert refuted.status == "refuted"
    w = refuted.witness
    assert holds_on_trace(w, neg) != holds_on_trace(project_trace(w, {"pay"}), neg)
    # the projected witness is the all-pay word pay^ω
    projected = project_trace(w, {"pay"})
    assert projected.is_lasso and set(projected.prefix + projected.cycle) == {"pay"}

    originals = parse_formula("G([selectBiscuit] | [selectChoc] | "
                              "[dispenseBiscuit] | [dispenseChoc])")
    refuted2 = check_beta_dependent(originals, alphabet(originals),
                                    set(vm_graphs["VM4"].alphabet))
    assert refuted2.status == "refuted"
    assert set(refuted2.witness.prefix + refuted2.witness.cycle) - alphabet(originals)
    _ok(7, "projection insensitivity verdicts")


def test_criterion_8_appendix_properties():
    rng = random.Random(88)

    def rand_renaming():
        abstract = [f"A{i}" for i in range(rng.randint(1, 3))]
        concrete = [f"c{i}" for i in range(rng.randint(len(abstract), 5))]
        mapping = {concrete[i]: a for i, a in enumerate(abstract)}
        for c in concrete[len(abstract):]:
            if rng.random() < 0.6:
                mapping[c] = rng.choice(abstract)
        from ebltl.refine import RenamingMap
        return RenamingMap.make(mapping, concrete, abstract)

    def rand_trace(events):
        prefix = tuple(rng.choice(events) for _ in range(rng.randint(0, 3)))
        if rng.random() < 0.3:
            from ebltl.traces import Trace, FINITE
            return Trace(FINITE, prefix)
        return lasso(prefix, tuple(rng.choice(events)
                                   for _ in range(rng.randint(1, 3))))

    # completion leaves the translation of range-only formulas untouched
    for _ in range(300):
        h = rand_renaming()
        ran = sorted(set(h.mapping.values()))
        phi = random_formula(rng, ran, rng.randint(0, 4))
        assert translate_formula(phi, h) == \
            translate_formula(phi, complete_renaming(h))

    # trace/translation equivalence: 1000 randomized trials, zero failures
    failures = 0
    for _ in range(1000):
        h = rand_renaming()
        ran = sorted(set(h.mapping.values()))
        phi = random_formula(rng, ran, rng.randint(0, 4))
        u = rand_trace(sorted(h.domain()))
        if holds_on_trace(u, translate_formula(phi, h)) != \
                holds_on_trace(map_trace(h, u), phi):
            failures += 1
    assert failures == 0

    # translated schema-certified formulas stay unrefuted for the preimage set
    from ebltl.preserve import _schema_certified
    shapes = ["G F [A0]", "F [A0]", "G([A0] => F [A0])", "F G ![A0]"]
    for text in shapes:
        phi = parse_formula(text)
        assert _schema_certified(phi)
        for _ in range(30):
            h = rand_renaming()
            out = translate_formula(phi, h)
            pre = h.preimage_set(alphabet(phi) & frozenset(h.mapping.values()))
            sigma = tuple(sorted(h.domain() | frozenset(h.concrete_alphabet)))
            for u in _bounded_traces(sigma, 2, 2):
                assert holds_on_trace(u, out) == \
                    holds_on_trace(project_trace(u, pre), out)
    _ok(8, "completion, trace mapping and translated-dependence properties")


def test_criterion_9_differential_oracle():
    start = time.time()
    report = cross_validate(load_corpus(), random_pairs=500, seed=424242,
                            max_states=50, bounds=OracleBounds())
    elapsed = time.time() - start
    assert report.ok, [r.to_json_dict() for r in report.disagreements]
    assert len(report.rows) >= 500 + 25
    assert elapsed < 60, f"differential run took {elapsed:.1f}s"
    _ok(9, f"differential oracle, {len(report.rows)} comparisons in {elapsed:.1f}s")


def test_criterion_10_deterministic_reports(tmp_path):
    fis = tmp_path / "fis.json"
    fis.write_text(json.dumps({"name": "vm-fis", "machines": [
        str(VM_DIR / "vm1.eb"), str(VM_DIR / "vm2.eb"),
        str(MUTANT_DIR / "vm3_fis_empty_choice.eb")]}))
    divergent = tmp_path / "divergent.json"
    divergent.write_text(json.dumps({"name": "vm-divergent", "machines": [
        str(VM_DIR / "vm1.eb"), str(VM_DIR / "vm2.eb"), str(VM_DIR / "vm3.eb"),
        str(MUTANT_DIR / "vm4_divergent.eb")]}))
    mutant = {}
    for name in ("grd_weak", "inv_wrong_item", "wfd_refund_keeps_flag",
                 "wfd_pay_raises_variant"):
        mutant[name] = tmp_path / f"{name}.json"
        mutant[name].write_text(json.dumps({"name": name, "machines": [
            str(VM_DIR / "vm1.eb"), str(MUTANT_DIR / f"vm2_{name}.eb")]}))
    # (argv, exit code, sha256 of the --json stdout), pinned so that the
    # reports stay byte-identical across changes to the checker, not only
    # across two runs of one build
    commands = [
        (("mc", str(VM_DIR / "vm4.eb"), "--prop", "phi2"), 0,
         "5cb3328ad3c05545139d18efe712687d118bfebce7890e74b0d8f8843d970d3b"),
        (("explore", str(VM_DIR / "vm4.eb")), 0,
         "41e2cec35ddcee85ad6d184b94e3d8054424ea82111cdc003f4beddd2db2e4d3"),
        (("po", "--chain", str(VM_DIR / "chain.json")), 0,
         "0d85f5282f6a5d13ae6e94cd5d4b8b3b472ef59a476cfb8689a61e28347c0f2c"),
        (("strategy", "--chain", str(VM_DIR / "chain-vm1.json")), 0,
         "0f4171f80b131e4495cf821c5c17f7456c28bce2107eba9576629242bc6e3451"),
        (("gf", "--chain", str(VM_DIR / "chain.json")), 0,
         "237b799d869e813c94d6375db9ef440007d4ccf8611b96e873b75fea0491005a"),
        (("preserve", "--chain", str(VM_DIR / "chain.json"), "--at", "1",
          "--prop", "phi2"), 0,
         "a50c2314f80680e0e45b0301ac9830fe8d354322c30a7ba9fba9b2658fb5b748"),
        (("theorem1", "--chain", str(VM_DIR / "chain-vm1.json")), 0,
         "376e7555582fcdebf257ed8373cc1b34ac9779222f232dda4a0f3a541b6afaac"),
        (("oracle", "--random", "50", "--seed", "7"), 0,
         "7bcc2fa3fd563880f0f0a15cfc308b022e3d738b262047ff1f7892f5e8345f18"),
        # an enabled event without an after-state: a FIS_REF failure for
        # po, a "no after-state" error everywhere else
        (("po", "--chain", str(fis)), 1,
         "56d86b16ed19b9588f050efe72da589f9581eba739a43ae46049945865aed36f"),
        (("gf", "--chain", str(fis)), 1,
         "c5e75c7533b36cc55c3cad30da22c01137e65d324d57aebe8a95290ad3135144"),
        (("theorem1", "--chain", str(fis)), 1,
         "368816ff232f505a2e99775ffb320181da227d62f9e6386a6b92016b29b9ef13"),
        (("explore", str(MUTANT_DIR / "vm3_fis_empty_choice.eb")), 1,
         "1271a6c4a87916f9fd559a4399bb56f4be757fb491f05957081be03d97b68bb5"),
        # the divergent chain: INV_REF fails in the last pair
        (("po", "--chain", str(divergent)), 1,
         "715bbd499f9772dc8ef4936117a94ab10b5f5b3dbe42ba0db3a899374d668912"),
        (("gf", "--chain", str(divergent)), 2,
         "035ad07428cb652f4208204bdeda0b563cbb25c0b5832b7eb772202b8e29c7c1"),
        (("theorem1", "--chain", str(divergent)), 1,
         "98dc57facfce1638c1fe92c15d36c216386f1110d11cc1482251815c5b539fc6"),
        (("preserve", "--chain", str(divergent), "--at", "1",
          "--prop", "G F [pay]"), 2,
         "a2a87f0c4ef163e1cf003bb2c1543fd41d86bb0088d67d004174aecd807da3e1"),
        # one pair mutant per failing obligation, with its witnesses
        (("po", "--chain", str(mutant["grd_weak"])), 1,
         "3b2cb5ed5af94d4d33fdbb5245a7bb106a8dc90e2ee4a7af383cbca87eaf9b5b"),
        (("po", "--chain", str(mutant["inv_wrong_item"])), 1,
         "7574b60724c6374ba777cc5e7e7d7bfeead3461740044847d0abe37e1604d43d"),
        (("po", "--chain", str(mutant["wfd_refund_keeps_flag"])), 1,
         "e09ac0fd06e03bdeecf4691f5d039ffd1cc62a9cc0368fbd06bf9b2c827d82d3"),
        (("po", "--chain", str(mutant["wfd_pay_raises_variant"])), 1,
         "2266294469d5218cd8b541a1a534dfdb1cefb1f714afe82c33943a7daf819b9e"),
        # beta-dependence: a schema certificate, a refutation and a
        # certificate from the tableau-product decision
        (("beta", "--prop", "G F [pay]", "--beta", "pay", "--sigma", "pay,refill"), 0,
         "58f32e36df03de3e22be0f249f994d0b8e794332d7fee84eb2ef158e6e746547"),
        (("beta", "--prop", "!G [pay]", "--beta", "pay", "--sigma", "pay,refill"), 1,
         "b35a39604bf997670abb6363f724ef7edbbab28d5d282aa3e934fa6fed09f1e5"),
        (("beta", "--prop", "G (F [a] => [b])", "--beta", "a,b", "--sigma", "a,b,z"), 0,
         "842db042d40a4278040bed52a492355779618f6bf3d4afe6d4ce19ec56e35fbe"),
        # a scaled instance: VM4 and the chain at capacity 3
        (("po", "--chain", str(VM_DIR / "chain.json"), "--set", "capacity=3"), 0,
         "9f2c117301e876fa71517db487e08bb5d2d3e4adf3caf4501eac978776195455"),
        (("gf", "--chain", str(VM_DIR / "chain.json"), "--set", "capacity=3"), 0,
         "6c5e36af384bf50cdadcd54dcce7cf8e4ae5a1bf9121fbef7f3b4cbfa1f46bf4"),
        (("explore", str(VM_DIR / "vm4.eb"), "--format", "graph", "--set", "capacity=3"), 0,
         "fe857e877f519feb919aff9d8ba610b04c90cce84e72b382e2eb7f5b679f043b"),
    ]
    for argv, code, digest in commands:
        runs = [
            subprocess.run([sys.executable, "-m", "ebltl.cli", *argv, "--json"],
                           capture_output=True, text=True)
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout, argv
        assert runs[0].returncode == runs[1].returncode == code, argv
        assert hashlib.sha256(runs[0].stdout.encode()).hexdigest() == digest, argv
    _ok(10, "byte-identical reports across consecutive runs")
