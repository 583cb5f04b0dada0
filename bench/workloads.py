"""The three benchmark workloads.

Each workload turns a seed into a fixed population of ops.  An op is one
verdict: a CLI command run in-process (`cli.main([..., "--json"])`) or one
direct `ltl.model_check` call.  Every op belongs to a stratum (a capacity, a
graph family, a verdict class); the timed loop visits the population in
rounds, and each round interleaves the strata in proportion to their size,
so any prefix of a round has the population's mix.

Ops look functions up on their module at call time, so the tracer's
wrappers see them.
"""
from __future__ import annotations

import io
import json
import random
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks

VM = "src/ebltl/corpus/vm"
DIVERGENT_CHAIN = "bench/manifests/vm-divergent.json"


@dataclass
class Op:
    id: int
    stratum: str
    label: str
    run: Callable[[], object]          # the timed call
    finish: Callable[[object], tuple]  # untimed: raw result -> (exit code, payload)
    meta: dict = field(default_factory=dict)
    before: Callable[[], None] | None = None  # untimed preparation
    cli: bool = False  # the payload is what `ebltl ... --json` prints


@dataclass
class Workload:
    ops: list[Op]
    checker: object


def _identity(raw):
    return raw


def cli_op(ebltl, op_id: int, stratum: str, argv: list[str], meta: dict,
           before=None) -> Op:
    cli = ebltl.cli

    def run():
        buf = io.StringIO()
        saved, sys.stdout = sys.stdout, buf
        try:
            code = cli.main(argv)
        finally:
            sys.stdout = saved
        return code, buf.getvalue()

    return Op(op_id, stratum, " ".join(argv), run, _identity, meta, before, cli=True)


def round_order(ops: list[Op], rng: random.Random) -> list[Op]:
    """A seeded order in which every stratum is spread evenly."""
    strata: dict[str, list[Op]] = {}
    for op in ops:
        strata.setdefault(op.stratum, []).append(op)
    keyed = []
    for members in strata.values():
        members = members[:]
        rng.shuffle(members)
        for k, op in enumerate(members):
            keyed.append(((k + rng.random()) / len(members), op.id, op))
    keyed.sort(key=lambda t: t[:2])
    return [op for _key, _id, op in keyed]


@contextmanager
def untraced(ebltl):
    """Keep benchmark-side calls into ebltl (input generation, checks) out of
    the traced layers' numbers."""
    tracer = ebltl.tracer
    was = tracer is not None and tracer.active
    if tracer is not None:
        tracer.active = False
    try:
        yield
    finally:
        if tracer is not None:
            tracer.active = was


def load_expected(root: Path) -> dict[str, dict]:
    """The corpus expectation tables: entry name -> {(machine, prop): holds}."""
    tables = {}
    for sub in sorted((root / "src/ebltl/corpus").iterdir()):
        spec = sub / "expected.json"
        if spec.exists():
            data = json.loads(spec.read_text(encoding="utf-8"))
            tables[data.get("name", sub.name)] = {
                (v["machine"], v["property"]): v["holds"] for v in data["verdicts"]}
    return tables


# ---------------------------------------------------------------------------
# chain-vm: the real user path over the VM chain

CHAIN_CAPACITIES = (1, 2, 3, 4)
HEALTHY = [
    ("po", ["po", "--chain", f"{VM}/chain.json"]),
    ("strategy", ["strategy", "--chain", f"{VM}/chain.json"]),
    ("gf", ["gf", "--chain", f"{VM}/chain.json"]),
    ("theorem1", ["theorem1", "--chain", f"{VM}/chain.json"]),
    ("preserve", ["preserve", "--chain", f"{VM}/chain.json", "--at", "1", "--prop", "phi2"]),
    ("mc", ["mc", f"{VM}/vm4.eb", "--prop", "phi1"]),
    ("explore", ["explore", f"{VM}/vm4.eb", "--format", "graph"]),
]
DIVERGENT = [
    ("po", ["po", "--chain", DIVERGENT_CHAIN]),
    ("gf", ["gf", "--chain", DIVERGENT_CHAIN]),
    ("theorem1", ["theorem1", "--chain", DIVERGENT_CHAIN]),
]


def chain_vm(ebltl, rng: random.Random, root: Path) -> Workload:
    capacities = list(CHAIN_CAPACITIES)
    rng.shuffle(capacities)
    ops = []
    for cap in capacities:
        for chain, commands in (("healthy", HEALTHY), ("divergent", DIVERGENT)):
            for command, argv in commands:
                meta = {"chain": chain, "command": command, "capacity": cap}
                ops.append(cli_op(ebltl, len(ops), f"capacity={cap}",
                                  argv + ["--set", f"capacity={cap}", "--json"], meta))
    expected = json.loads((root / VM / "expected.json").read_text(encoding="utf-8"))
    return Workload(ops, checks.ChainChecker(ebltl, expected))


# ---------------------------------------------------------------------------
# mc-product: tableau, product and SCC search on prebuilt graphs

MC_VM4_CAPACITY = 12
MC_VM4_RANDOM = 40    # catalogue formulas over VM4's alphabet
# The formulas are the same for every run seed: drawn with
# `oracle.random_formula` from these fixed seeds.  Drawn per run seed, their
# cost varies so much (bench/NOTES.md) that the seed, not the code, would
# decide the figures.  The run seed draws the random graphs and the op order.
MC_CATALOGUE_SEED = {"vm4": "mc-product/vm4", "random": "mc-product/random"}
MC_GRAPHS = {500: (4, 2), 5000: (4, 4)}  # max states -> (graphs, formulas per graph)
MC_STATES = (0.5, 0.7)  # a random graph's state count, as a share of max states
MC_DEPTH = (2, 4)
MC_TEMPORAL = (1, 2)   # temporal operators (F, G, U) per random formula, in turn
# A fixed formula whose product with VM4 (24 536 nodes, 331 184 edges) is
# larger than any random formula's, so that peak_rss_mb measures the
# product layer instead of the luck of the draw.
MC_VM4_LARGE = "[selectChoc] U G (([pay] & [refund]) U (true & [refund]))"
MC_ALPHABET = ["a", "b", "c", "d"]


def temporal_ops(ebltl, phi) -> int:
    f = ebltl.formulas
    if isinstance(phi, f.Until):
        return 1 + temporal_ops(ebltl, phi.left) + temporal_ops(ebltl, phi.right)
    if isinstance(phi, (f.Finally, f.Globally)):
        return 1 + temporal_ops(ebltl, phi.operand)
    if isinstance(phi, f.Not):
        return temporal_ops(ebltl, phi.operand)
    if isinstance(phi, (f.And, f.Or)):
        return temporal_ops(ebltl, phi.left) + temporal_ops(ebltl, phi.right)
    return 0


def mc_formula(ebltl, rng: random.Random, alphabet: list[str], k: int):
    """The k-th seeded `oracle.random_formula` of depth 2-4 for one graph.
    Formulas take 1 and 2 temporal operators in turn: the product grows
    with them, and with 3 or more an occasional draw builds a product ten
    times larger than the rest and decides a seed's figures (NOTES.md)."""
    temporal = MC_TEMPORAL[k % len(MC_TEMPORAL)]
    while True:
        phi = ebltl.oracle.random_formula(rng, alphabet, rng.randint(*MC_DEPTH))
        if temporal_ops(ebltl, phi) == temporal:
            return phi


def _reachable(graph) -> set[int]:
    seen = set(graph.initial)
    stack = list(graph.initial)
    while stack:
        for e in graph.out_edges(stack.pop()):
            if e.tgt not in seen:
                seen.add(e.tgt)
                stack.append(e.tgt)
    return seen


def mc_op(ebltl, op_id: int, stratum: str, graph, phi, meta: dict) -> Op:
    ltl = ebltl.ltl
    limit_error = ebltl.errors.ExplorationLimitError

    def run():
        try:
            return ltl.model_check(graph, phi)
        except limit_error:
            return None

    def finish(verdict):
        if verdict is None:
            return 4, ""
        return (0 if verdict.holds else 1), json.dumps(verdict.to_json_dict(), sort_keys=True)

    text = ebltl.formulas.formula_to_text(phi)
    return Op(op_id, stratum, f"{stratum}: {text}", run, finish,
              {**meta, "graph": graph, "phi": phi})


def mc_product(ebltl, rng: random.Random, root: Path) -> Workload:
    machine = ebltl.machine_parser.parse_machine_file(
        root / VM / "vm4.eb", {"capacity": MC_VM4_CAPACITY})
    vm4 = ebltl.semantics.explore(machine)
    expected = json.loads((root / VM / "expected.json").read_text(encoding="utf-8"))
    props = ebltl.formulas.parse_property_file(
        (root / VM / "props.ltl").read_text(encoding="utf-8"))
    ops: list[Op] = []
    for v in expected["verdicts"]:
        if v["machine"] == "VM4":
            ops.append(mc_op(ebltl, len(ops), "vm4", vm4, props[v["property"]],
                             {"prop": v["property"]}))
    ops.append(mc_op(ebltl, len(ops), "vm4", vm4,
                     ebltl.formulas.parse_formula(MC_VM4_LARGE), {"prop": None}))
    alphabet = list(vm4.alphabet)
    catalogue = random.Random(MC_CATALOGUE_SEED["vm4"])
    for k in range(MC_VM4_RANDOM):
        phi = mc_formula(ebltl, catalogue, alphabet, k)
        ops.append(mc_op(ebltl, len(ops), "vm4", vm4, phi, {"prop": None}))
    for max_states, (graphs, formulas) in MC_GRAPHS.items():
        catalogue = random.Random(MC_CATALOGUE_SEED["random"])
        lo, hi = (int(share * max_states) for share in MC_STATES)
        made = 0
        while made < graphs:
            # random_graph draws its state count first: skip a draw outside
            # the band without building the graph
            probe = random.Random()
            probe.setstate(rng.getstate())
            if not lo <= probe.randint(2, max_states) <= hi:
                rng.randint(2, max_states)
                continue
            graph = ebltl.oracle.random_graph(rng, max_states, MC_ALPHABET)
            reach = _reachable(graph)
            # keep graphs of a comparable size whose reachable part is most
            # of the graph and can deadlock
            if not lo <= len(graph.states) <= hi or len(reach) < len(graph.states) // 4 \
                    or not reach & set(graph.deadlocks):
                continue
            made += 1
            for k in range(formulas):
                phi = mc_formula(ebltl, catalogue, MC_ALPHABET, k)
                ops.append(mc_op(ebltl, len(ops), f"random-{max_states}", graph, phi,
                                 {"prop": None}))
    bounds = ebltl.oracle.OracleBounds(prefix=2, cycle=2, finite=4, budget=200_000)
    checker = checks.ModelCheckChecker(ebltl, expected, bounds)
    return Workload(ops, checker)


# ---------------------------------------------------------------------------
# enumerate: bounded beta refuter, trace evaluator and oracle

ENUM_CLASSES = {          # stratum -> catalogue formulas per population
    "sigma2": 14,          # sigma = beta: nothing to refute, bounds exhausted
    "refutable3": 10,      # sigma = beta + z, refuted by a short trace
}
# As in mc-product, the formulas are drawn with `oracle.random_formula` from
# a fixed seed; the run seed swaps the letters a and b in each of them,
# draws the oracle runs' seeds and orders the ops.
ENUM_CATALOGUE_SEED = "enumerate/beta"
# sigma = beta + z with no refutation at all within the default bounds.
# Random draws of these vary fourfold in cost (0.5-3 s, some far more), so
# this stratum is ROADMAP item 3's example alone.
ENUM_HARD = ["G (F [a] => [b])"]
ENUM_DEPTH = (2, 4)
ENUM_TEMPORAL = (1, 2)  # temporal operators per catalogue formula
ENUM_ORACLE_OPS = 3
ENUM_ORACLE_RANDOM = 5
ENUM_SHORT_BOUNDS = (2, 2)  # the independent enumeration's prefix/cycle bounds


def _clear_corpus_cache(ebltl):
    """`CorpusEntry.graph` caches explored graphs in a default argument for
    the life of the process.  Each `ebltl oracle` invocation a user makes
    starts with it empty, so every oracle op does too."""
    for default in getattr(ebltl.oracle.CorpusEntry.graph, "__defaults__", None) or ():
        if isinstance(default, dict):
            default.clear()


def enumerate_catalogue(ebltl) -> dict[str, list[str]]:
    """Formulas over {a, b} that the schema pass does not certify, by stratum."""
    ab = ["a", "b"]
    catalogue = random.Random(ENUM_CATALOGUE_SEED)
    need = dict(ENUM_CLASSES)
    chosen: dict[str, list[str]] = {name: [] for name in need}
    seen: set[str] = set()
    while any(need.values()):
        phi = ebltl.oracle.random_formula(catalogue, ab, catalogue.randint(*ENUM_DEPTH))
        text = ebltl.formulas.formula_to_text(phi)
        if text in seen or ebltl.ltl.alphabet(phi) != frozenset(ab) \
                or not ENUM_TEMPORAL[0] <= temporal_ops(ebltl, phi) <= ENUM_TEMPORAL[1]:
            continue
        seen.add(text)
        with untraced(ebltl):
            schema = ebltl.preserve.check_beta_dependent(phi, ab, ab, 0, 1)
        if schema.method == "syntactic-schema":
            continue  # certified by the schema pass: not this workload's path
        if need["sigma2"] and catalogue.random() < 0.5:
            cls = "sigma2"
        else:
            with untraced(ebltl):
                short = checks.find_refutation(ebltl, phi, set(ab), set(ab + ["z"]),
                                               *ENUM_SHORT_BOUNDS)
            if short is None:
                continue
            cls = "refutable3"
        if need[cls]:
            need[cls] -= 1
            chosen[cls].append(text)
    chosen["hard3"] = list(ENUM_HARD)
    return chosen


def enumerate_(ebltl, rng: random.Random, root: Path) -> Workload:
    ab = ["a", "b"]
    ops: list[Op] = []
    for cls, texts in enumerate_catalogue(ebltl).items():
        sigma = ab if cls == "sigma2" else ab + ["z"]
        for text in texts:
            if rng.random() < 0.5:
                text = re.sub(r"\[([ab])\]", lambda m: "[b]" if m.group(1) == "a" else "[a]",
                              text)
            phi = ebltl.formulas.parse_formula(text)
            meta = {"command": "beta", "phi": phi, "beta": ab, "sigma": sigma,
                    "text": ebltl.formulas.formula_to_text(phi)}
            argv = ["beta", "--prop", meta["text"], "--beta", ",".join(ab),
                    "--sigma", ",".join(sigma), "--json"]
            ops.append(cli_op(ebltl, len(ops), cls, argv, meta))
    for _ in range(ENUM_ORACLE_OPS):
        argv = ["oracle", "--random", str(ENUM_ORACLE_RANDOM),
                "--seed", str(rng.randrange(1 << 30)), "--json"]
        ops.append(cli_op(ebltl, len(ops), "oracle", argv,
                          {"command": "oracle", "random": ENUM_ORACLE_RANDOM},
                          before=lambda: _clear_corpus_cache(ebltl)))
    checker = checks.EnumerateChecker(ebltl, load_expected(root), ENUM_SHORT_BOUNDS)
    return Workload(ops, checker)


WORKLOADS = {"chain-vm": chain_vm, "mc-product": mc_product, "enumerate": enumerate_}
