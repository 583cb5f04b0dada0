"""Correctness checks for every benchmark op, run outside the timed region.

No check uses the code path under test as its own reference:

* chain-vm ops are compared with a hand-written table of exit codes and
  verdict fields (built from the corpus `expected.json`, `mutants.json` and
  the case study), and `explore` graphs with an independent model of VM4
  written here;
* mc-product refutations are replayed with the oracle (`trace_realizable`,
  `oracle_holds_on`), and `holds` verdicts are confirmed by the oracle's
  bounded enumeration (reported as unchecked when its budget runs out);
* enumerate witnesses are replayed with `oracle_holds_on` on the trace and
  on a projection computed here, and non-refuted verdicts must survive an
  independent bounded enumeration.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import product


@dataclass
class Check:
    ok: bool
    decided: bool
    unchecked: bool = False
    note: str = ""


def _fail(note: str) -> Check:
    return Check(False, False, note=note)


def _atoms(text: str) -> set[str]:
    return set(re.findall(r"\[(\w+)\]", text or ""))


def _envelope(code: int, payload: str):
    """The --json envelope, or a note saying why it is unusable."""
    try:
        doc = json.loads(payload)
    except ValueError:
        return None, "payload is not JSON"
    if doc.get("exit") != code:
        return None, f"envelope exit {doc.get('exit')} != returned {code}"
    return doc["result"], ""


# ---------------------------------------------------------------------------
# an independent model of VM4 (src/ebltl/corpus/vm/vm4.eb), written from the
# machine text.  `divergent` models mutants/vm4_divergent.eb, where pay and
# refund leave refundEnabled unchanged.

VM4_VARIABLES = ["biscuitStock", "chocStock", "chosen", "credit", "refundEnabled"]


def vm4_graph(capacity: int, divergent: bool = False):
    """Reachable states and labelled edges of VM4; a state is the tuple
    (biscuitStock, chocStock, chosen, credit, refundEnabled)."""
    def successors(state):
        bs, cs, chosen, credit, ref = state
        out = []
        for x in (1, 2, 3):
            if cs + bs > credit and credit + x <= 3:
                out.append(("pay", (("x", x),),
                            (bs, cs, chosen, min(credit + x, 3), ref if divergent else False)))
        for item, stock in (("biscuit", bs), ("choc", cs)):
            name = "Biscuit" if item == "biscuit" else "Choc"
            if credit > 0 and item not in chosen and credit > len(chosen) and stock > 0:
                out.append((f"select{name}", (),
                            (bs, cs, tuple(sorted(chosen + (item,))), credit, ref)))
            if credit > 0 and item in chosen and stock > 0:
                left = tuple(c for c in chosen if c != item)
                nbs, ncs = (bs - 1, cs) if item == "biscuit" else (bs, cs - 1)
                out.append((f"dispense{name}", (), (nbs, ncs, left, credit - 1, True)))
        if credit > len(chosen) and ref:
            out.append(("refund", (), (bs, cs, chosen, len(chosen), ref if divergent else False)))
        if cs == 0 and bs == 0:
            out.append(("refill", (), (capacity, capacity, chosen, credit, ref)))
        return out

    init = (capacity, capacity, (), 0, False)
    seen = {init}
    stack = [init]
    edges = set()
    while stack:
        s = stack.pop()
        for event, params, t in successors(s):
            edges.add((s, event, params, t))
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return init, seen, edges


def _tool_graph(graph: dict):
    states = [tuple(tuple(st[v]) if v == "chosen" else st[v] for v in VM4_VARIABLES)
              for st in graph["states"]]
    edges = {(states[e["src"]], e["event"], tuple(tuple(p) for p in e["params"]),
              states[e["tgt"]]) for e in graph["edges"]}
    return states, edges


# ---------------------------------------------------------------------------
# chain-vm: the expectation table

O_STAR = ["dispenseBiscuit", "dispenseChoc", "selectBiscuit", "selectChoc"]
C_STAR = ["pay", "refill", "refund"]  # refund (VM2), refill (VM3), pay (VM4)


class ChainChecker:
    """Hand-written expectations for the chain-vm ops.

    The healthy chain is VM0..VM4 (`chain.json`): every obligation and
    strategy rule holds, the recurrent-origin certificate concludes GF over
    the preimage of VM0's events (rule 3, the VM0->VM1 renaming is not the
    identity), divergence freedom is certified, phi2 carries from VM1 to
    VM4 (rule 2), and VM4 satisfies phi1 (`expected.json`).  The divergent
    chain is VM1..VM3 plus `vm4_divergent.eb` (`mutants.json`): INV_REF
    fails in the last pair and nothing else, so the GF certificate is
    blocked by that one hypothesis and the direct cycle analysis finds a
    pay/refund lasso.
    """

    def __init__(self, ebltl, expected: dict):
        self.ebltl = ebltl
        self.vm4_verdicts = {v["property"]: v["holds"] for v in expected["verdicts"]
                             if v["machine"] == "VM4"}
        self._models: dict[tuple[int, bool], tuple] = {}

    def model(self, capacity: int, divergent: bool):
        key = (capacity, divergent)
        if key not in self._models:
            self._models[key] = vm4_graph(capacity, divergent)
        return self._models[key]

    def check(self, meta: dict, code: int, payload: str) -> Check:
        result, why = _envelope(code, payload)
        if result is None:
            return _fail(why)
        expect_exit = {("healthy", c): 0 for c in
                       ("po", "strategy", "gf", "theorem1", "preserve", "mc", "explore")}
        expect_exit.update({("divergent", "po"): 1, ("divergent", "gf"): 2,
                            ("divergent", "theorem1"): 1})
        want = expect_exit[(meta["chain"], meta["command"])]
        if code != want:
            return _fail(f"exit {code}, expected {want}")
        method = getattr(self, f"_{meta['chain']}_{meta['command']}")
        note = method(result, meta)
        return Check(not note, True, note=note)

    # healthy chain -----------------------------------------------------------

    def _healthy_po(self, r, meta):
        pairs = [(p["abstract"], p["concrete"], p["ok"]) for p in r["pairs"]]
        want = [("VM0", "VM1", True), ("VM1", "VM2", True), ("VM2", "VM3", True),
                ("VM3", "VM4", True)]
        return "" if r["ok"] and pairs == want else f"pairs {pairs}"

    def _healthy_strategy(self, r, meta):
        if not r["ok"] or r["violations"]:
            return "strategy violations reported"
        if r["convergent"] != [[], [], ["refund"], ["refill"], ["pay"]]:
            return f"convergent labels {r['convergent']}"
        if r["anticipated"] != [[], [], ["pay"], ["pay"], []]:
            return f"anticipated labels {r['anticipated']}"
        return ""

    def _healthy_gf(self, r, meta):
        if not r["asserted"] or r["lemma"] != 3:
            return "certificate not asserted by rule 3"
        if not r["conclusion"].startswith("G F") or _atoms(r["conclusion"]) != set(O_STAR):
            return f"conclusion {r['conclusion']}"
        return "" if r["cross_validation"]["holds"] else "cross-validation refuted"

    def _healthy_theorem1(self, r, meta):
        if not (r["certified"] and r["direct"]["holds"] and r["consistent"]):
            return "divergence freedom not certified"
        if r["C_star"] != C_STAR or r["O_star"] != O_STAR:
            return f"C*={r['C_star']} O*={r['O_star']}"
        return ""

    def _healthy_preserve(self, r, meta):
        if not r["asserted"] or r["lemma"] != 2:
            return "preservation not asserted by rule 2"
        if r["bounds"]["dependence"]["status"] != "certified":
            return "phi2 not certified beta-dependent"
        if _atoms(r["conclusion"]) != {"selectBiscuit", "selectChoc", "dispenseChoc"}:
            return f"conclusion {r['conclusion']}"
        return "" if r["cross_validation"]["holds"] else "cross-validation refuted"

    def _healthy_mc(self, r, meta):
        got = r["properties"]["phi1"]["holds"]
        return "" if got == self.vm4_verdicts["phi1"] else f"phi1 holds={got}"

    def _healthy_explore(self, r, meta):
        if not (r["invariant"]["holds"] and r["deadlock_free"]["holds"]):
            return "invariant or deadlock freedom reported violated"
        graph = r["graph"]
        if graph["variables"] != VM4_VARIABLES:
            return f"variables {graph['variables']}"
        init, states, edges = self.model(meta["capacity"], False)
        tool_states, tool_edges = _tool_graph(graph)
        if set(tool_states) != states or len(tool_states) != len(states):
            return f"states differ from the model ({len(tool_states)} vs {len(states)})"
        if tool_edges != edges or len(graph["edges"]) != len(edges):
            return f"edges differ from the model ({len(graph['edges'])} vs {len(edges)})"
        if [tool_states[i] for i in graph["initial"]] != [init] or graph["deadlocks"]:
            return "initial state or deadlocks differ from the model"
        return ""

    # divergent chain ---------------------------------------------------------

    def _divergent_po(self, r, meta):
        failed = [(p["abstract"], p["concrete"],
                   sorted(n for n, o in p["obligations"].items() if not o["passed"]))
                  for p in r["pairs"]]
        want = [("VM1", "VM2", []), ("VM2", "VM3", []), ("VM3", "VM4", ["INV_REF"])]
        return "" if failed == want else f"failed obligations {failed}"

    def _divergent_gf(self, r, meta):
        failed = [h["name"] for h in r["hypotheses"] if not h["passed"]]
        if r["asserted"] or r["conclusion"] is not None:
            return "blocked certificate asserted a conclusion"
        return "" if failed == ["refinement obligations VM3 -> VM4"] else f"failed {failed}"

    def _divergent_theorem1(self, r, meta):
        if r["certified"] or r["direct"]["holds"] or not r["consistent"]:
            return "divergent chain certified or CA held"
        w = r["direct"]["witness"]
        if w is None or w["kind"] != "lasso":
            return "no lasso witness"
        cycle = set(w["cycle"])
        if not cycle <= {"pay", "refund", "refill"} or not cycle & set(C_STAR) \
                or cycle & set(O_STAR):
            return f"witness cycle {w['cycle']}"
        init, states, edges = self.model(meta["capacity"], True)
        index = {s: i for i, s in enumerate(sorted(states))}
        graph = self.ebltl.semantics.make_graph(
            len(index), [index[init]],
            sorted({(index[s], e, index[t]) for s, e, _p, t in edges}),
            sorted({e for _s, e, _p, _t in edges}))
        trace = self.ebltl.traces.Trace("lasso", tuple(w["prefix"]), tuple(w["cycle"]))
        if not self.ebltl.oracle.trace_realizable(graph, trace):
            return "witness is not a lasso of the divergent VM4 model"
        return ""


# ---------------------------------------------------------------------------
# mc-product

class ModelCheckChecker:
    def __init__(self, ebltl, expected: dict, bounds):
        self.ebltl = ebltl
        self.vm4_verdicts = {v["property"]: v["holds"] for v in expected["verdicts"]
                             if v["machine"] == "VM4"}
        self.bounds = bounds

    def check(self, meta: dict, code: int, payload: str) -> Check:
        oracle = self.ebltl.oracle
        if code == 4:
            return Check(True, False, note="product limit reached")
        verdict = json.loads(payload)
        if code != (0 if verdict["holds"] else 1):
            return _fail("exit code does not match the verdict")
        graph, phi = meta["graph"], meta["phi"]
        want = self.vm4_verdicts.get(meta["prop"]) if meta["prop"] else None
        if want is not None and verdict["holds"] != want:
            return _fail(f"{meta['prop']}: expected.json says holds={want}")
        if not verdict["holds"]:
            c = verdict["counterexample"]
            cex = self.ebltl.traces.Trace(c["kind"], tuple(c["prefix"]), tuple(c["cycle"]))
            if not oracle.trace_realizable(graph, cex):
                return _fail("counterexample is not a maximal trace of the graph")
            if oracle.oracle_holds_on(cex, phi):
                return _fail("counterexample satisfies the formula")
            return Check(True, True)
        try:
            confirm = oracle.oracle_model_check(graph, phi, self.bounds)
        except self.ebltl.errors.EnumerationBudgetError:
            return Check(True, True, unchecked=True, note="oracle budget exhausted")
        if not confirm.holds:
            return _fail(f"oracle refutes: {confirm.counterexample.render()}")
        return Check(True, True)


# ---------------------------------------------------------------------------
# enumerate

def bounded_traces(Trace, sigma, prefix_bound: int, cycle_bound: int):
    """Finite traces up to prefix+cycle letters and lassos within the bounds."""
    for n in range(prefix_bound + cycle_bound + 1):
        for word in product(sigma, repeat=n):
            yield Trace("finite", word)
    for p in range(prefix_bound + 1):
        for c in range(1, cycle_bound + 1):
            for pre in product(sigma, repeat=p):
                for cyc in product(sigma, repeat=c):
                    yield Trace("lasso", pre, cyc)


def project(Trace, u, beta):
    prefix = tuple(e for e in u.prefix if e in beta)
    cycle = tuple(e for e in u.cycle if e in beta)
    if u.kind == "lasso" and cycle:
        return Trace("lasso", prefix, cycle)
    return Trace("finite", prefix)


def refutes(ebltl, phi, beta, u) -> bool:
    holds = ebltl.oracle.oracle_holds_on
    return holds(u, phi) != holds(project(ebltl.traces.Trace, u, beta), phi)


def find_refutation(ebltl, phi, beta, sigma, prefix_bound: int, cycle_bound: int):
    for u in bounded_traces(ebltl.traces.Trace, sorted(sigma), prefix_bound, cycle_bound):
        if refutes(ebltl, phi, beta, u):
            return u
    return None


class EnumerateChecker:
    def __init__(self, ebltl, expected_by_entry: dict, bounds: tuple[int, int]):
        self.ebltl = ebltl
        self.expected = expected_by_entry  # entry name -> {(machine, prop): holds}
        self.bounds = bounds
        self._clear: dict[str, bool] = {}

    def check(self, meta: dict, code: int, payload: str) -> Check:
        result, why = _envelope(code, payload)
        if result is None:
            return _fail(why)
        if meta["command"] == "oracle":
            return self._oracle(meta, code, result)
        return self._beta(meta, code, result)

    def _beta(self, meta, code, r) -> Check:
        status = r["status"]
        want = {"certified": 0, "refuted": 1, "unknown": 4}.get(status)
        if code != want:
            return _fail(f"exit {code} for status {status}")
        if r["property"] != meta["text"] or r["beta"] != sorted(meta["beta"]):
            return _fail("report names another property or beta")
        phi, beta, sigma = meta["phi"], set(meta["beta"]), set(meta["sigma"])
        if status == "refuted":
            w = r["witness"]
            u = self.ebltl.traces.Trace(w["kind"], tuple(w["prefix"]), tuple(w["cycle"]))
            if not set(u.prefix + u.cycle) <= sigma:
                return _fail("witness leaves sigma")
            if not refutes(self.ebltl, phi, beta, u):
                return _fail("witness does not change truth under projection")
            return Check(True, True)
        # certified or unknown: an independent enumeration must not refute it
        if sigma != beta:
            key = meta["text"]
            if key not in self._clear:
                self._clear[key] = find_refutation(
                    self.ebltl, phi, beta, sigma, *self.bounds) is None
            if not self._clear[key]:
                return _fail(f"{status}, but a bounded enumeration refutes it")
        return Check(True, status == "certified")

    def _oracle(self, meta, code, r) -> Check:
        if code != 0 or not r["ok"] or r["disagreements"]:
            return _fail("oracle run reported disagreements")
        rows = r["rows"]
        corpus = [row for row in rows if not row["subject"].startswith("random-")]
        randoms = [row["subject"] for row in rows if row["subject"].startswith("random-")]
        if randoms != [f"random-{k}" for k in range(meta["random"])]:
            return _fail(f"{len(randoms)} random rows, expected {meta['random']}")
        want = {(entry, m, p): h for entry, table in self.expected.items()
                for (m, p), h in table.items()}
        got = {}
        for row in corpus:
            entry, machine = row["subject"].split("/", 1)
            got[(entry, machine, row["property"])] = row["main"]
        if got != want:
            return _fail("corpus rows differ from the expectation tables")
        return Check(True, True)
