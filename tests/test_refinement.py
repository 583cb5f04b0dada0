"""Refinement pairs and chains: obligations, strategy, renamings, CA."""
from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import replace
from itertools import product

import pytest

from ebltl.errors import ChainError, ExplorationLimitError
from ebltl.machine_parser import parse_machine
from ebltl.machine_parser import parse_machine_file
from ebltl import refine
from ebltl.refine import (
    ChainLink, RenamingMap, build_chain, check_ca, check_chain_pairs,
    check_refinement_pair, check_strategy, check_theorem1, compose_renamings,
    derive_renaming, explore_chain, load_chain,
)
from ebltl.semantics import (
    ExploreLimits, compile_expr, compile_gluing, compile_machine, explore, make_graph,
    static_env, value_to_json,
)
from ebltl.oracle import trace_realizable
from tests.conftest import LIFT_DIR, MUTANT_DIR, VM_DIR


def load_mutant_spec():
    return json.loads((MUTANT_DIR / "mutants.json").read_text())


# -- obligations on the corpus -------------------------------------------------

def test_all_adjacent_pairs_pass(vm_chain, vm_chain_graphs):
    for report in check_chain_pairs(vm_chain, vm_chain_graphs):
        assert report.ok, f"{report.abstract}->{report.concrete}: {report.failed()}"


def test_identity_refinement_passes(vm_machines, vm_graphs):
    m = vm_machines["VM2"]
    renaming = RenamingMap.identity(m.alphabet())
    report = check_refinement_pair(m, m, ChainLink(renaming, None), vm_graphs["VM2"])
    assert report.ok


@pytest.mark.parametrize("entry", load_mutant_spec()["pair_mutants"],
                         ids=lambda e: e["name"])
def test_pair_mutants_fail_exactly_their_obligation(entry):
    abstract = parse_machine_file(MUTANT_DIR / entry["abstract"])
    concrete = parse_machine_file(MUTANT_DIR / entry["file"])
    renaming = derive_renaming(abstract, concrete, None)
    report = check_refinement_pair(abstract, concrete,
                                   ChainLink(renaming, concrete.linking),
                                   explore(concrete))
    assert report.failed() == [entry["expect_po"]]


def test_grd_witness_replays(vm_machines):
    """The guard-weakening witness pair really is a state where the concrete
    guard holds and the abstract one does not."""
    abstract = vm_machines["VM1"]
    concrete = parse_machine_file(MUTANT_DIR / "vm2_grd_weak.eb")
    renaming = derive_renaming(abstract, concrete, None)
    report = check_refinement_pair(abstract, concrete,
                                   ChainLink(renaming, concrete.linking),
                                   explore(concrete))
    witness = report.results["GRD_REF"].witnesses[0]
    assert witness["abstract_event"] == "selectBiscuit"
    assert "biscuit" in witness["abstract_state"]["chosen"]
    abs_guard = abstract.event("selectBiscuit").guard
    env = {**static_env(abstract),
           "chosen": frozenset(witness["abstract_state"]["chosen"])}
    assert not compile_expr(abs_guard)(env)


def test_wfd_witness_replays(vm_machines):
    concrete = parse_machine_file(MUTANT_DIR / "vm2_wfd_refund_keeps_flag.eb")
    renaming = derive_renaming(vm_machines["VM1"], concrete, None)
    report = check_refinement_pair(vm_machines["VM1"], concrete,
                                   ChainLink(renaming, concrete.linking),
                                   explore(concrete))
    witness = report.results["WFD_REF"].witnesses[0]
    assert witness["event"] == "refund"
    assert not witness["after"] < witness["before"]


def test_fis_witness_replays(vm_machines):
    """At the feasibility witness state the guard holds yet no firing of the
    event yields an after-state."""
    concrete = parse_machine_file(MUTANT_DIR / "vm3_fis_empty_choice.eb")
    renaming = derive_renaming(vm_machines["VM2"], concrete, None)
    report = check_refinement_pair(vm_machines["VM2"], concrete,
                                   ChainLink(renaming, concrete.linking),
                                   explore(concrete))
    witness = report.results["FIS_REF"].witnesses[0]
    assert witness["event"] == "dispenseBiscuit"
    values = (witness["concrete_state"][name] for name in concrete.sym.var_names)
    state = tuple(frozenset(v) if isinstance(v, list) else v for v in values)
    firings = compile_machine(concrete).events["dispenseBiscuit"](state)
    assert firings and all(not posts for _, posts in firings)


def test_wfd_edges_on_corpus(vm_chain, vm_chain_graphs):
    """Variant discipline holds edgewise on every explored corpus machine."""
    for level in [2, 3, 4]:
        machine = vm_chain.machines[level]
        graph = vm_chain_graphs[level]
        statuses = {e.name: e.effective_status for e in machine.events}
        base = static_env(machine)
        values = [compile_expr(machine.variant)({**base, **dict(zip(graph.var_names, s))})
                  for s in graph.states]
        assert all(isinstance(v, int) and v >= 0 for v in values)
        for e in graph.edges:
            if statuses[e.event] == "convergent":
                assert values[e.tgt] < values[e.src]
            elif statuses[e.event] == "anticipated":
                assert values[e.tgt] <= values[e.src]


def _untouchable(state, guarded=True):
    """Stands in for a concrete compiled event: any call of it fails."""
    raise AssertionError("the obligations fired a concrete event")


def _counting(event, name: str, calls: Counter):
    """An abstract compiled event that counts its calls per (event, state,
    guarded)."""
    def counted(state, guarded=True):
        calls[name, state, guarded] += 1
        return event(state, guarded)
    return counted


def _fresh_pairs():
    """(abstract, concrete, link) for the VM3 -> VM4 step of the chain and
    for every pair mutant, parsed afresh so that their compiled forms can
    be replaced."""
    chain = load_chain(VM_DIR / "chain.json")
    yield chain.machines[3], chain.machines[4], chain.links[3]
    for entry in load_mutant_spec()["pair_mutants"]:
        abstract = parse_machine_file(MUTANT_DIR / entry["abstract"])
        concrete = parse_machine_file(MUTANT_DIR / entry["file"])
        yield abstract, concrete, ChainLink(derive_renaming(abstract, concrete, None),
                                            concrete.linking)


def test_obligations_read_the_concrete_machine_only_through_its_graph():
    """Once the concrete graph is explored, the obligations need nothing of
    the concrete events, and they fire each abstract event at most once per
    (abstract state, guarded or not)."""
    for abstract, concrete, link in _fresh_pairs():
        graph = explore(concrete)
        expected = check_refinement_pair(abstract, concrete, link, graph).to_json_dict()
        concrete.compiled = replace(concrete.compiled, events={
            name: _untouchable for name in concrete.compiled.events})
        calls = Counter()
        abs_compiled = compile_machine(abstract)
        abstract.compiled = replace(abs_compiled, events={
            name: _counting(event, name, calls)
            for name, event in abs_compiled.events.items()})
        got = check_refinement_pair(abstract, concrete, link, graph).to_json_dict()
        assert got == expected, concrete.name
        assert calls and max(calls.values()) == 1, concrete.name


STEP = """machine Step
variables
  n : 0..2
invariant
  n >= 0
events
  event init then n := 0 end
  event inc
    status ordinary
    when n < 1 then n := n + 1 end
end
"""

# inc keeps a guard weaker than the abstract one, and at n = 1 its bounded
# choice admits no value: that firing fails FIS_REF and GRD_REF both
STEP_PRIME = """machine StepPrime refines Step
variables
  n : 0..2
  flag : bool
invariant
  n >= 0
variant
  if flag = false then 1 else 0 end
events
  event init then n := 0 || flag := false end
  event inc refines inc
    status ordinary
    any p : 0..1 where n < 2 & p = n
    then any x : 1..2 where n + x <= 1 then n := n + x end end
  event flip
    status anticipated
    when flag = false then flag := true end
end
"""


def test_infeasible_firing_that_also_fails_grd(tmp_path):
    (tmp_path / "step.eb").write_text(STEP)
    (tmp_path / "step_prime.eb").write_text(STEP_PRIME)
    (tmp_path / "step.json").write_text(json.dumps(
        {"name": "step", "machines": ["step.eb", "step_prime.eb"]}))
    chain = load_chain(tmp_path / "step.json")
    abstract, concrete = chain.machines
    report = check_refinement_pair(abstract, concrete, chain.links[0], explore(concrete))
    assert report.failed() == ["FIS_REF", "GRD_REF"]
    fis, grd = report.results["FIS_REF"], report.results["GRD_REF"]
    # six enabled firings over four states; four of them refine inc, each
    # meeting the one abstract state with the same n
    assert (fis.checked, grd.checked) == (6, 4)
    at_one = [{"flag": False, "n": 1}, {"flag": True, "n": 1}]
    assert fis.witnesses == [
        {"kind": "no-after-state", "event": "inc", "params": [["p", 1]],
         "concrete_state": state} for state in at_one]
    assert grd.witnesses == [
        {"kind": "guard-not-strengthened", "event": "inc", "abstract_event": "inc",
         "params": [["p", 1]], "concrete_state": state, "abstract_state": {"n": 1}}
        for state in at_one]


def _step_prime_pair(variant: str):
    """Step and StepPrime with StepPrime's variant replaced."""
    concrete = parse_machine(STEP_PRIME.replace("if flag = false then 1 else 0 end", variant))
    chain = build_chain("step", [parse_machine(STEP), concrete])
    return chain.machines[0], concrete, chain.links[0]


def _not_natural(report) -> list:
    return [w["variant"] for w in report.results["WFD_REF"].witnesses
            if w["kind"] == "variant-not-natural"]


def test_negative_and_boolean_variants_are_not_natural():
    abstract, concrete, link = _step_prime_pair("n - 1")
    report = check_refinement_pair(abstract, concrete, link, explore(concrete))
    assert _not_natural(report) == [-1, -1]
    # the typechecker admits integer variants only, so a boolean one is
    # forged into the compiled machine
    abstract, concrete, link = _step_prime_pair("n")
    graph = explore(concrete)
    assert _not_natural(check_refinement_pair(abstract, concrete, link, graph)) == []
    concrete.compiled = replace(compile_machine(concrete), variant=lambda state: True)
    report = check_refinement_pair(abstract, concrete, link, graph)
    assert _not_natural(report) == [True] * len(graph.states)


def test_abstract_universe_bound_is_exact():
    """Step's n : 0..2 gives a three-state abstract universe; Step reaches
    two states, so the bound alone decides."""
    step = parse_machine(STEP)
    link = ChainLink(RenamingMap.identity(step.alphabet()), None)
    graph = explore(step, ExploreLimits(max_states=3))
    assert check_refinement_pair(step, step, link, graph).ok
    graph = explore(step, ExploreLimits(max_states=2))
    with pytest.raises(ExplorationLimitError,
                       match="abstract universe of Step has 3 candidate states, "
                             "over the limit of 2"):
        check_refinement_pair(step, step, link, graph)


def test_init_links_to_no_abstract_initial_state():
    """StepLate starts where Step never does; every transition still
    simulates inc, so only INV_REF's init check fails."""
    step = parse_machine(STEP)
    late = parse_machine(STEP.replace("machine Step", "machine StepLate refines Step")
                         .replace("n := 0", "n := 1").replace("event inc", "event inc refines inc"))
    chain = build_chain("late", [step, late])
    report = check_refinement_pair(step, late, chain.links[0], explore(late))
    assert report.failed() == ["INV_REF"]
    assert report.results["INV_REF"].witnesses == [
        {"kind": "init", "concrete_state": {"n": 1},
         "message": "no abstract initial state is linked to this concrete initial state"}]


# Cap's go leaves n = 2, which breaks Cap's invariant: that post-state lies
# outside the abstract universe, which holds n = 0 and n = 1 only
CAP = """machine Cap
variables
  n : 0..2
invariant
  n <= 1
events
  event init then n := 0 end
  event go
    status ordinary
    when n < 2 then n := n + 1 end
end
"""

CAP_PRIME = """machine CapPrime refines Cap
variables
  n : 0..2
  k : 0..2
invariant
  n >= 0
linking
  k = n
events
  event init then n := 0 || k := 0 end
  event go refines go
    status ordinary
    when n < 2 then n := n + 1 || k := KEEP end
end
"""


@pytest.mark.parametrize("keep", ["k + 1", "1"])
def test_inv_ref_matches_abstract_posts_outside_the_universe(keep):
    """An abstract post-state need not satisfy the abstract invariant to
    match a concrete transition: go from n = 1 is matched by Cap's n = 2
    exactly when that state glues to the concrete post-state."""
    cap, cap_prime = parse_machine(CAP), parse_machine(CAP_PRIME.replace("KEEP", keep))
    chain = build_chain("cap", [cap, cap_prime])
    report = check_refinement_pair(cap, cap_prime, chain.links[0], explore(cap_prime))
    assert report.bounds == {"concrete_states": 3, "abstract_universe": 2}
    inv = report.results["INV_REF"]
    # two transitions, each from a state glued to one abstract state
    assert inv.checked == 2
    if keep == "k + 1":  # the post-state (k = 2, n = 2) glues to n = 2
        assert report.ok
        return
    # (k = 1, n = 2) breaks k = n, so no abstract post-state glues to it
    assert report.failed() == ["INV_REF"]
    assert inv.witnesses == [
        {"kind": "unmatched-transition", "event": "go", "abstract_event": "go",
         "concrete_pre": {"k": 1, "n": 1}, "concrete_post": {"k": 1, "n": 2},
         "abstract_state": {"n": 1}}]


def _scan_pairs(abstract, concrete, link, graph):
    """The abstract universe and, per concrete state, the universe states
    glued to it, found by gluing every universe state to every state."""
    compiled, sym = compile_machine(abstract), abstract.sym
    universe = [s for s in product(*(sym.domain(sym.var_types[v]) for v in sym.var_names))
                if compiled.invariant(s)]
    glued = compile_gluing(abstract, concrete, link.linking)
    return universe, [[a for a in universe if glued(a, c)] for c in graph.states]


def _vm3_to(concrete_file, capacity: int):
    """(abstract, concrete, link, graph) for VM3 and a refinement of it."""
    chain = load_chain(VM_DIR / "chain.json", {"capacity": capacity})
    abstract, link = chain.machines[3], chain.links[3]
    concrete = parse_machine_file(concrete_file, {"capacity": capacity})
    link = ChainLink(derive_renaming(abstract, concrete, None), link.linking)
    return abstract, concrete, link, explore(concrete)


def test_inv_ref_keeps_the_first_five_witnesses_in_firing_order():
    """The divergent VM4 fails INV_REF on 430 (transition, abstract state)
    checks at capacity 4; the report keeps the first five a full scan finds,
    in firing order, and counts every check."""
    abstract, concrete, link, graph = _vm3_to(MUTANT_DIR / "vm4_divergent.eb", 4)
    universe, pairs = _scan_pairs(abstract, concrete, link, graph)
    compiled, glued = compile_machine(abstract), compile_gluing(abstract, concrete, link.linking)
    checked, failures = 0, []
    for src, name, _params, targets in graph.firings:
        target = link.renaming.apply(name)
        for tgt in targets:
            for a in pairs[src]:
                checked += 1
                posts = [a] if target is None else [
                    p for _, ps in compiled.events[target](a, False) for p in ps]
                if not any(glued(p, graph.states[tgt]) for p in posts):
                    failures.append({
                        "kind": "unmatched-transition" if target else "new-event-disturbs-link",
                        "event": name, "abstract_event": target,
                        "concrete_pre": graph.state_json(src),
                        "concrete_post": graph.state_json(tgt),
                        "abstract_state": dict(zip(abstract.sym.var_names,
                                                   map(value_to_json, a)))})
    assert len(failures) == 430 and len(universe) == 72
    inv = check_refinement_pair(abstract, concrete, link, graph).results["INV_REF"]
    assert not inv.passed
    assert inv.checked == checked
    assert inv.witnesses == failures[:5]


def test_obligations_glue_and_fire_only_what_the_graph_reads(monkeypatch):
    """VM3 -> VM4 at capacity 12: a concrete state is glued only to the
    universe states that share its values of the shared variables, and an
    abstract event runs only at (universe state, event) pairs that some
    concrete firing meets: guarded for GRD_REF, unguarded for INV_REF."""
    abstract, concrete, link, graph = _vm3_to(VM_DIR / "vm4.eb", 12)
    _universe, pairs = _scan_pairs(abstract, concrete, link, graph)
    reads = {True: set(), False: set()}
    for src, name, _params, targets in graph.firings:
        target = link.renaming.apply(name)
        for a in pairs[src] if target is not None else ():
            reads[True].add((target, a))
            if targets:
                reads[False].add((target, a))

    glue_calls = Counter()

    def counting_gluing(*args):
        glue = compile_gluing(*args)

        def counted(a, c):
            glue_calls["glue"] += 1
            return glue(a, c)
        return counted
    monkeypatch.setattr(refine, "compile_gluing", counting_gluing)
    calls = Counter()
    abs_compiled = compile_machine(abstract)
    abstract.compiled = replace(abs_compiled, events={
        name: _counting(event, name, calls) for name, event in abs_compiled.events.items()})
    report = check_refinement_pair(abstract, concrete, link, graph)
    assert report.ok and report.bounds == {"concrete_states": 3172, "abstract_universe": 72}
    # a full scan glues 3172 x 72 = 228 384 pairs
    assert glue_calls["glue"] <= 8272
    for guarded in (True, False):
        made = {(name, a) for name, a, g in calls if g is guarded}
        assert made <= reads[guarded]


# -- strategy -------------------------------------------------------------------

def _counter(head: str, *events: str):
    """A machine over n : 0..2 with header `head` and one `when n < 2 then
    n := n + 1` event per entry `name[>abstract][:status]`; it gets a
    variant when some event is anticipated or convergent."""
    lines = [f"machine {head}", "variables", "  n : 0..2", "events",
             "  event init then n := 0 end"]
    for entry in events:
        entry, _, status = entry.partition(":")
        name, _, target = entry.partition(">")
        lines.append(f"  event {name}" + (f" refines {target}" if target else ""))
        lines += [f"    status {status}"] if status else []
        lines.append("    when n < 2 then n := n + 1 end")
        if status in ("anticipated", "convergent") and "variant" not in lines:
            lines[3:3] = ["variant", "  2 - n"]
    return parse_machine("\n".join(lines + ["end"]))


@pytest.mark.parametrize("machines, violations", [
    ([("A", "go:convergent")],
     [(1, "A", "go", "go is convergent in the first machine")]),
    ([("A", "inc", "dec"), ("B refines A", "inc>inc")],
     [(2, "A", "dec", "dec of A has no refining event in B")]),
    ([("A", "inc"), ("B refines A", "inc>inc", "tick:ordinary")],
     [(3, "B", "tick", "new event tick is ordinary")]),
    ([("A", "inc"), ("B refines A", "inc>inc", "pay:anticipated"),
      ("C refines B", "inc>inc", "pay>pay:ordinary")],
     [(4, "C", "pay", "pay refines anticipated pay but is ordinary")]),
    ([("A", "inc"), ("B refines A", "inc>inc:convergent")],
     [(5, "B", "inc", "inc refines ordinary inc but is convergent")]),
    ([("A", "inc"), ("B refines A", "inc>inc", "tick:convergent"),
      ("C refines B", "inc>inc", "tick>tick:anticipated")],
     [(5, "C", "tick", "tick refines convergent tick but is anticipated"),
      (6, "C", "tick", "tick is still anticipated in the final machine")]),
    ([("A", "inc"), ("B refines A", "inc>inc", "pay:anticipated")],
     [(6, "B", "pay", "pay is still anticipated in the final machine")]),
], ids=["rule-1", "rule-2", "rule-3", "rule-4", "rule-5-ordinary", "rule-5-convergent",
        "rule-6"])
def test_each_strategy_rule_reports_its_violation(machines, violations):
    chain = build_chain("rules", [_counter(*m) for m in machines])
    assert [(v.rule, v.machine, v.event, v.message)
            for v in check_strategy(chain).violations] == violations

def test_strategy_vm1_chain(vm1_chain):
    report = check_strategy(vm1_chain)
    assert report.ok
    assert report.convergent == [(), ("refund",), ("refill",), ("pay",)]
    assert report.anticipated == [(), ("pay",), ("pay",), ()]


def test_strategy_truncated_chain_fails_rule_6_only():
    chain = load_chain(VM_DIR / "chain-to-vm3.json")
    report = check_strategy(chain)
    assert not report.ok
    assert [(v.rule, v.event) for v in report.violations] == [(6, "pay")]


def test_strategy_single_machine_chain(vm_machines):
    chain = build_chain("solo", [vm_machines["VM1"]])
    assert check_strategy(chain).ok


@pytest.mark.parametrize("entry", load_mutant_spec()["chain_mutants"],
                         ids=lambda e: e["name"])
def test_label_flip_fails_exactly_rule_3(entry):
    machines = [parse_machine_file(MUTANT_DIR / p) for p in entry["chain"]]
    chain = build_chain(entry["name"], machines)
    report = check_strategy(chain)
    assert sorted({v.rule for v in report.violations}) == [entry["expect_rule"]]
    assert all(r.ok for r in check_chain_pairs(chain, explore_chain(chain)))


def test_manifest_renaming_conflict_rejected(vm_machines):
    # vm2 declares selectBiscuit refines selectBiscuit; the manifest says otherwise
    with pytest.raises(ChainError, match="declares refines"):
        derive_renaming(vm_machines["VM1"], vm_machines["VM2"],
                        {"selectBiscuit": "selectChoc"})


def test_chain_extension_agnostic(tmp_path):
    """Manifests load whether they are named .json or .chain."""
    import shutil
    for name in ["vm0.eb", "vm1.eb", "vm2.eb", "vm3.eb", "vm4.eb"]:
        shutil.copy(VM_DIR / name, tmp_path / name)
    manifest = tmp_path / "dev.chain"
    manifest.write_text((VM_DIR / "chain.json").read_text())
    chain = load_chain(manifest)
    assert [m.name for m in chain.machines] == ["VM0", "VM1", "VM2", "VM3", "VM4"]


def _lift_manifest(tmp_path, link):
    manifest = tmp_path / "lift.json"
    manifest.write_text(json.dumps({"machines": [str(LIFT_DIR / "lift.eb"),
                                                 str(LIFT_DIR / "lift_prime.eb")],
                                    "links": [link]}))
    return manifest


@pytest.mark.parametrize("link", [
    {"linking": 0}, {"linking": False}, {"linking": []}, {"linking": {}},
    {"renaming": 0}, {"renaming": False}, {"renaming": []}, {"renaming": ""},
    {"renaming": {"openDoors": 1}}, 0, [],
])
def test_malformed_link_is_rejected(tmp_path, link):
    """A link is null or an object whose `renaming` is null or a map of
    event names and whose `linking` is null or a string; any other value,
    falsy ones included, is the manifest's own error."""
    with pytest.raises(ChainError, match='"links" must list null or objects'):
        load_chain(_lift_manifest(tmp_path, link))


@pytest.mark.parametrize("link", [None, {}, {"linking": None, "renaming": None}])
def test_null_link_values_mean_absent(tmp_path, link):
    chain = load_chain(_lift_manifest(tmp_path, link))
    assert chain.links[0].linking == chain.machines[1].linking


def test_unlabelled_new_event_rejected(vm_machines):
    source = (VM_DIR / "vm2.eb").read_text().replace(
        "  event pay\n    status anticipated\n", "  event pay\n")
    from ebltl.machine_parser import parse_machine
    with pytest.raises(Exception) as err:
        # without the anticipated label vm2 also loses its variant
        # justification, so strip the variant too to reach the chain check
        m2 = parse_machine(source.replace(
            "variant\n  if refundEnabled = false then 0 else 1 end\n", ""))
        build_chain("bad", [vm_machines["VM1"], m2])
    assert "carries no status label" in str(err.value) or "variant" in str(err.value)


STEP_TWO = """machine StepTwo refines Step
variables
  n : 0..2
events
  event init then n := 0 end
  event inc refines inc
    when n < 1 then n := n + 1 end
  event reset
    when n = 1 then n := 0 end
end
"""


def test_only_a_new_event_needs_a_status_label():
    """An unlabelled refining event is accepted; an unlabelled new event
    raises the status-label error itself, not some later one."""
    step = parse_machine(STEP)
    with pytest.raises(ChainError) as err:
        build_chain("step", [step, parse_machine(STEP_TWO)])
    assert str(err.value) == "StepTwo.reset refines nothing and carries no status label"
    labelled = STEP_TWO.replace("  event reset\n", "  event reset\n    status ordinary\n")
    chain = build_chain("step", [step, parse_machine(labelled)])
    assert chain.links[0].renaming.mapping == {"inc": "inc"}


# -- renaming composition --------------------------------------------------------

def test_compose_g14(vm_chain):
    g = compose_renamings(vm_chain, 1)
    assert g.mapping == {
        "selectBiscuit": "selectItem", "selectChoc": "selectItem",
        "dispenseBiscuit": "dispenseItem", "dispenseChoc": "dispenseItem",
    }
    assert g.new_events() == ("pay", "refill", "refund")


def test_compose_empty_is_identity(vm_chain):
    g = compose_renamings(vm_chain, len(vm_chain.machines))
    assert g.is_identity()
    assert g.domain() == frozenset(vm_chain.final.alphabet())


def test_compose_out_of_range(vm_chain):
    with pytest.raises(ChainError):
        compose_renamings(vm_chain, 0)
    with pytest.raises(ChainError):
        compose_renamings(vm_chain, len(vm_chain.machines) + 1)


def test_composition_associates_at_every_split(vm_chain):
    """g_{i,n} equals the two-stage composition through any split point."""
    n = len(vm_chain.machines) - 1
    for i in range(1, n + 1):
        whole = compose_renamings(vm_chain, i)
        for j in range(i, n + 1):
            upper = compose_renamings(vm_chain, j + 1)  # f_n ; ... ; f_{j+1}
            lower_map = RenamingMap.identity(vm_chain.machines[j].alphabet())
            for k in range(j, i - 1, -1):
                lower_map = lower_map.then(vm_chain.links[k - 1].renaming)
            assert upper.then(lower_map).mapping == whole.mapping


def test_composition_associates_on_random_maps():
    rng = random.Random(3)
    for _ in range(100):
        a = [f"a{i}" for i in range(rng.randint(1, 4))]
        b = [f"b{i}" for i in range(rng.randint(1, 4))]
        c = [f"c{i}" for i in range(rng.randint(1, 4))]
        d = [f"d{i}" for i in range(rng.randint(1, 4))]
        f = RenamingMap.make({x: rng.choice(b) for x in a if rng.random() < .8}, a, b)
        g = RenamingMap.make({x: rng.choice(c) for x in b if rng.random() < .8}, b, c)
        h = RenamingMap.make({x: rng.choice(d) for x in c if rng.random() < .8}, c, d)
        assert f.then(g).then(h).mapping == f.then(g.then(h)).mapping


# -- CA and the chain-level divergence result -------------------------------------

def test_ca_on_vm4(vm1_chain, vm1_chain_graphs):
    verdict = check_ca(vm1_chain_graphs[-1], {"refund", "refill", "pay"},
                       {"selectBiscuit", "selectChoc",
                        "dispenseBiscuit", "dispenseChoc"})
    assert verdict.holds


def test_ca_vacuous_with_empty_c(vm_graphs):
    assert check_ca(vm_graphs["VM2"], set(), {"selectBiscuit"}).holds


def test_ca_detects_convergent_self_loop():
    g = make_graph(2, [0], [(0, "o", 1), (1, "c", 1)], ["o", "c"])
    verdict = check_ca(g, {"c"}, {"o"})
    assert not verdict.holds
    assert verdict.witness.cycle == ("c",)
    assert verdict.witness.prefix == ("o",)


def test_ca_foreign_events_allowed(vm_graphs):
    assert check_ca(vm_graphs["VM1"], {"ghost"}, {"phantom"}).holds


def test_theorem1_on_vm1_chain(vm1_chain, vm1_chain_graphs):
    report = check_theorem1(vm1_chain, vm1_chain_graphs)
    assert report.c_star == ("pay", "refill", "refund")
    assert report.o_star == ("dispenseBiscuit", "dispenseChoc",
                             "selectBiscuit", "selectChoc")
    assert report.certified and report.direct.holds and report.consistent


def test_theorem1_on_vm0_chain(vm_chain, vm_chain_graphs):
    report = check_theorem1(vm_chain, vm_chain_graphs)
    # O* comes back through the split: the four concrete select/dispense events
    assert report.o_star == ("dispenseBiscuit", "dispenseChoc",
                             "selectBiscuit", "selectChoc")
    assert report.certified and report.direct.holds


def test_theorem1_single_machine(vm_machines, vm_graphs):
    chain = build_chain("solo", [vm_machines["VM1"]])
    report = check_theorem1(chain, [vm_graphs["VM1"]])
    assert report.c_star == ()
    assert report.direct.holds


def test_divergent_mutant_fails_ca_with_witness(vm_chain):
    spec = load_mutant_spec()["divergent_mutant"]
    machines = [parse_machine_file(MUTANT_DIR / p) for p in spec["chain"]]
    chain = build_chain(spec["name"], machines)
    graphs = explore_chain(chain)
    graph_n = graphs[-1]
    report = check_theorem1(chain, graphs)
    assert not report.certified  # INV_REF breaks in the last pair
    assert any("INV_REF" in r.failed() for r in report.po_reports)
    assert not report.direct.holds
    witness = report.direct.witness
    assert witness is not None and witness.is_lasso
    assert set(witness.cycle) <= {"pay", "refund", "refill"}
    assert trace_realizable(graph_n, witness)
    assert report.consistent  # blocked certificate + failing CA is coherent
