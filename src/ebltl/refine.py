"""Refinement pairs and chains: proof obligations, development-strategy
rules, renaming composition, and divergence-freedom of convergent events.

Obligations are checked semantically over bounded synchronized state
spaces rather than discharged as proofs: every reachable concrete state is
related to every invariant-satisfying abstract state compatible with the
linking invariant, and the obligations are evaluated over those pairs.
The concrete machine is read only through the caller's graph: its states
and its record of enabled firings with their after-states
(`StateGraph.firings`), which every obligation and `check_ca` read in
exploration order.  Nothing here explores a machine except
`explore_chain`, so each machine of a run is explored once, under the
caller's bounds.  States on both sides are
tuples: the abstract guards and action relations are evaluated through
the compiled events (`semantics.compile_machine`) once per (universe
state, event) that a concrete firing reads, and the gluing relation,
shared variables equal plus the linking invariant, is one generated
function over (abstract state, concrete state) per pair
(`semantics.compile_gluing`), tried only where the shared variables agree.
The four obligations are kept independent, mirroring how proof assistants
split them:

  GRD_REF   concrete guard implies the refined event's abstract guard
            (witnessed by some abstract parameter choice);
  INV_REF   every concrete transition is matched by an outcome of the
            abstract event's action relation re-establishing the linking
            invariant (new events must leave the abstract state unchanged,
            and initial states must be linkable to abstract initials);
  FIS_REF   an enabled concrete event has at least one after-state;
  WFD_REF   the concrete variant is a natural number everywhere, strictly
            decreases on convergent transitions and never increases on
            anticipated ones.

Variables declared by both machines of a pair are implicitly equated; the
linking invariant adds the genuinely new relations and is the one place
where abstract-only names may appear.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache
from itertools import pairwise, product
from math import prod
from pathlib import Path
from typing import Callable, Optional

from .errors import ChainError, ExplorationLimitError, RenamingError, ToolkitBug
from .machine_ast import (
    ANTICIPATED, CONVERGENT, Expr, Machine, ORDINARY,
)
from .machine_parser import parse_expression, parse_machine_file
from .search import path_inside, tarjan
from .semantics import (
    ExploreLimits, StateGraph, compile_gluing, compile_machine, explore,
    find_path, require_feasible, value_to_json,
)
from .traces import LASSO, Trace
from .typecheck import link_typecheck

PO_NAMES = ("FIS_REF", "GRD_REF", "INV_REF", "WFD_REF")


# ---------------------------------------------------------------------------
# renaming maps

@dataclass(frozen=True)
class RenamingMap:
    """Partial map from concrete event names to the abstract events they
    refine.  Events outside the domain are the new events.  Every reader
    shares `mapping`, so nothing may change it."""

    mapping: dict[str, str]  # concrete event -> the abstract event it refines
    concrete_alphabet: frozenset[str]

    @staticmethod
    def make(mapping: dict[str, str], concrete_alphabet, abstract_alphabet) -> "RenamingMap":
        concrete_alphabet = frozenset(concrete_alphabet)
        abstract_alphabet = frozenset(abstract_alphabet)
        for conc, abs_ in mapping.items():
            if conc not in concrete_alphabet:
                raise RenamingError(f"{conc!r} is not a concrete event")
            if abs_ not in abstract_alphabet:
                raise RenamingError(f"{conc!r} refines unknown abstract event {abs_!r}")
        return RenamingMap(dict(mapping), concrete_alphabet)

    def apply(self, event: str) -> Optional[str]:
        return self.mapping.get(event)

    def domain(self) -> frozenset[str]:
        return frozenset(self.mapping)

    def new_events(self) -> tuple[str, ...]:
        return tuple(sorted(self.concrete_alphabet - self.mapping.keys()))

    def preimage(self, abstract_event: str) -> tuple[str, ...]:
        return self.preimage_set((abstract_event,))

    def preimage_set(self, events) -> tuple[str, ...]:
        target = frozenset(events)
        return tuple(sorted(c for c, a in self.mapping.items() if a in target))

    def is_identity(self) -> bool:
        return all(c == a for c, a in self.mapping.items())

    def then(self, step: "RenamingMap") -> "RenamingMap":
        """Sequential composition: apply self first, then `step`.

        self : B -> A and step : A -> Z give B -> Z, undefined wherever
        either stage is undefined.
        """
        return RenamingMap({c: step.mapping[m] for c, m in self.mapping.items()
                            if m in step.mapping}, self.concrete_alphabet)

    @staticmethod
    def identity(alphabet) -> "RenamingMap":
        alphabet = frozenset(alphabet)
        return RenamingMap({e: e for e in alphabet}, alphabet)

    def to_json_dict(self) -> dict:
        return {"map": dict(self.mapping), "new_events": list(self.new_events())}


# ---------------------------------------------------------------------------
# chains

@dataclass
class ChainLink:
    renaming: RenamingMap
    linking: Optional[Expr]


@dataclass
class RefinementChain:
    name: str
    machines: list[Machine]
    links: list[ChainLink]  # links[k] connects machines[k] and machines[k+1]

    @property
    def final(self) -> Machine:
        return self.machines[-1]


def derive_renaming(abstract: Machine, concrete: Machine,
                    manifest_map: dict[str, str] | None) -> RenamingMap:
    """Renaming from the concrete machine's refines clauses, overlaid with
    the manifest's map.  Disagreement between the two is an error, as is an
    event with neither a refinement link nor an anticipated/convergent
    status (new events must be labelled)."""
    mapping: dict[str, str] = {}
    for e in concrete.events:
        if e.refines is not None:
            mapping[e.name] = e.refines
    for conc, abs_ in (manifest_map or {}).items():
        if conc in mapping and mapping[conc] != abs_:
            raise ChainError(
                f"manifest maps {conc!r} to {abs_!r} but {concrete.name} "
                f"declares refines {mapping[conc]!r}")
        mapping[conc] = abs_
    abstract_alphabet = frozenset(abstract.alphabet())
    for conc, abs_ in sorted(mapping.items()):
        if abs_ not in abstract_alphabet:
            raise ChainError(
                f"{concrete.name}.{conc} refines {abs_!r}, which is not an "
                f"event of {abstract.name}")
    for e in concrete.events:
        if e.name not in mapping and e.status is None:
            # a new event must say what it is; an explicit (wrong) ordinary
            # label is left for the strategy checker to report as rule 3
            raise ChainError(
                f"{concrete.name}.{e.name} refines nothing and carries no "
                f"status label")
    return RenamingMap.make(mapping, concrete.alphabet(), abstract.alphabet())


def build_chain(name: str, machines: list[Machine],
                manifest_links: list[dict] | None = None) -> RefinementChain:
    if not machines:
        raise ChainError("a chain needs at least one machine")
    links: list[ChainLink] = []
    for k in range(len(machines) - 1):
        abstract, concrete = machines[k], machines[k + 1]
        if concrete.refines is not None and concrete.refines != abstract.name:
            raise ChainError(
                f"{concrete.name} declares refines {concrete.refines!r} but "
                f"follows {abstract.name} in chain {name!r}")
        manifest = (manifest_links or [None] * (len(machines) - 1))[k] or {}
        renaming = derive_renaming(abstract, concrete, manifest.get("renaming"))
        if manifest.get("linking") is not None:
            linking = parse_expression(manifest["linking"])
        else:
            linking = concrete.linking
        link_typecheck(abstract, concrete, linking)
        links.append(ChainLink(renaming, linking))
    return RefinementChain(name=name, machines=list(machines), links=links)


def _link_well_formed(link) -> bool:
    if not isinstance(link, dict):
        return link is None
    renaming, linking = link.get("renaming"), link.get("linking")
    return ((renaming is None or isinstance(renaming, dict)
             and all(isinstance(v, str) for v in renaming.values()))
            and (linking is None or isinstance(linking, str)))


def load_chain(path, constant_overrides: dict[str, int] | None = None) -> RefinementChain:
    """Read a chain manifest: ordered machine files, optional per-step
    renaming maps and linking invariant strings."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ChainError(f"chain {path} is not valid JSON: {exc}") from None
    names = data.get("machines") if isinstance(data, dict) else None
    if not isinstance(names, list) or not all(isinstance(p, str) for p in names):
        raise ChainError(f'chain {path} needs a "machines" list of file names')
    links = data.get("links")
    if links is not None and not (isinstance(links, list)
                                  and all(map(_link_well_formed, links))):
        raise ChainError(f'chain {path}: "links" must list null or objects with '
                         f'a "renaming" map of event names and a "linking" string')
    machines = [parse_machine_file(path.parent / p, constant_overrides) for p in names]
    if links is not None and len(links) != len(machines) - 1:
        raise ChainError(
            f"chain {path} lists {len(machines)} machines but {len(links)} links")
    return build_chain(data.get("name", path.stem), machines, links)


def explore_chain(chain: RefinementChain,
                  limits: ExploreLimits | None = None) -> list[StateGraph]:
    """One graph per level, in order; a machine with an infeasible firing
    stops the chain with that error, as `require_feasible` reports it."""
    return [require_feasible(explore(m, limits)) for m in chain.machines]


def compose_renamings(chain: RefinementChain, i: int) -> RenamingMap:
    """The composite map taking final-machine events down to level i-1.

    Composes the per-step maps from the last one backwards through step i;
    i = n+1 denotes the empty composition, the identity on the final
    alphabet.  An event drops out as soon as one stage is undefined on it.
    """
    n = len(chain.machines) - 1
    if not 1 <= i <= n + 1:
        raise ChainError(f"composition level {i} out of range 1..{n + 1}")
    result = RenamingMap.identity(chain.final.alphabet())
    for j in range(n, i - 1, -1):
        result = result.then(chain.links[j - 1].renaming)
    return result


# ---------------------------------------------------------------------------
# strategy rules

@dataclass
class StrategyViolation:
    rule: int
    machine: str
    event: str
    message: str

    def to_json_dict(self) -> dict:
        return {"rule": self.rule, "machine": self.machine, "event": self.event,
                "message": self.message}


@dataclass
class StrategyReport:
    violations: list[StrategyViolation]
    ordinary: list[tuple[str, ...]]
    anticipated: list[tuple[str, ...]]
    convergent: list[tuple[str, ...]]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [v.to_json_dict() for v in self.violations],
            "ordinary": [list(s) for s in self.ordinary],
            "anticipated": [list(s) for s in self.anticipated],
            "convergent": [list(s) for s in self.convergent],
        }


def check_strategy(chain: RefinementChain) -> StrategyReport:
    """The six development-strategy restrictions; all violations are
    collected, not just the first."""
    violations: list[StrategyViolation] = []
    machines = chain.machines

    def violate(rule: int, machine: Machine, event: str, message: str):
        violations.append(StrategyViolation(rule, machine.name, event, message))

    # rule 1: the first machine only has ordinary events
    for e in machines[0].events:
        if e.effective_status != ORDINARY:
            violate(1, machines[0], e.name,
                    f"{e.name} is {e.effective_status} in the first machine")

    for k, link in enumerate(chain.links):
        abstract, concrete = machines[k], machines[k + 1]
        renaming = link.renaming
        # rule 2: every abstract event is refined by at least one event
        refined = set(renaming.mapping.values())
        for name in abstract.alphabet():
            if name not in refined:
                violate(2, abstract, name,
                        f"{name} of {abstract.name} has no refining event in "
                        f"{concrete.name}")
        for e in concrete.events:
            target = renaming.apply(e.name)
            status = e.effective_status
            if target is None:
                # rule 3: new events are anticipated or convergent
                if status == ORDINARY:
                    violate(3, concrete, e.name,
                            f"new event {e.name} is ordinary")
                continue
            abs_status = abstract.event(target).effective_status
            if abs_status == ANTICIPATED and status == ORDINARY:
                # rule 4: refinements of anticipated stay anticipated/convergent
                violate(4, concrete, e.name,
                        f"{e.name} refines anticipated {target} but is ordinary")
            if abs_status in (CONVERGENT, ORDINARY) and status != ORDINARY:
                # rule 5: refinements of convergent/ordinary events are ordinary
                violate(5, concrete, e.name,
                        f"{e.name} refines {abs_status} {target} but is {status}")

    # rule 6: no anticipated events remain at the end
    for name in chain.final.events_with_status(ANTICIPATED):
        violate(6, chain.final, name,
                f"{name} is still anticipated in the final machine")

    return StrategyReport(
        violations=violations,
        ordinary=[m.events_with_status(ORDINARY) for m in machines],
        anticipated=[m.events_with_status(ANTICIPATED) for m in machines],
        convergent=[m.events_with_status(CONVERGENT) for m in machines],
    )


# ---------------------------------------------------------------------------
# proof obligations over the synchronized bounded state space

@dataclass
class POResult:
    name: str
    passed: bool
    witnesses: list[dict] = field(default_factory=list)
    checked: int = 0

    def to_json_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "checked": self.checked, "witnesses": self.witnesses}


@dataclass
class POReport:
    abstract: str
    concrete: str
    results: dict[str, POResult]
    bounds: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results.values())

    def failed(self) -> list[str]:
        return [name for name in PO_NAMES if not self.results[name].passed]

    def to_json_dict(self) -> dict:
        return {"abstract": self.abstract, "concrete": self.concrete,
                "ok": self.ok, "bounds": self.bounds,
                "obligations": {n: r.to_json_dict() for n, r in self.results.items()}}


def check_refinement_pair(abstract: Machine, concrete: Machine,
                          link: ChainLink, graph: StateGraph) -> POReport:
    """Evaluate the four refinement obligations for one adjacent pair over
    `graph`, the concrete machine's explored state graph: its record of
    firings and its states are the only view of the concrete events taken
    here.  The graph drives the work: abstract states are glued only to
    concrete states that agree on the shared variables, an abstract event
    runs only at the universe states some concrete firing is paired with,
    and a failed obligation builds its first five witnesses only."""
    link_typecheck(abstract, concrete, link.linking)
    abs_compiled, conc_compiled = compile_machine(abstract), compile_machine(concrete)
    # the graph's state bound also bounds the abstract universe, checked
    # before it is enumerated; a bare graph has no bound
    sym, limit = abstract.sym, graph.bounds.get("max_states")
    candidates = prod(map(sym.domain_size, sym.var_types.values()))
    if limit is not None and candidates > limit:
        raise ExplorationLimitError(
            f"abstract universe of {abstract.name} has {candidates} candidate "
            f"states, over the limit of {limit}")
    # the universe: every state over the declared domains satisfying the invariant
    domains = (sym.domain(sym.var_types[v]) for v in sym.var_names)
    abs_universe = [state for state in product(*domains) if abs_compiled.invariant(state)]
    renaming = link.renaming.mapping
    glued = compile_gluing(abstract, concrete, link.linking)

    def abstract_json(a: int) -> dict:
        return dict(zip(sym.var_names, map(value_to_json, abs_universe[a])))

    results = {name: POResult(name, True) for name in PO_NAMES}

    def fail(po: str, witness: Callable[[], dict]):
        r = results[po]
        r.passed = False
        if len(r.witnesses) < 5:  # later failures build no witness
            r.witnesses.append(witness())

    # pair every reachable concrete state with each glued universe state, in
    # universe order, trying only its bucket: the universe states with its
    # values of the shared variables, which gluing equates
    shared = sorted(set(sym.var_names) & set(concrete.sym.var_names))
    a_at, c_at = ([m.sym.var_names.index(v) for v in shared] for m in (abstract, concrete))
    buckets: dict[tuple, list[int]] = {}
    for a, abs_state in enumerate(abs_universe):
        buckets.setdefault(tuple(abs_state[i] for i in a_at), []).append(a)
    pairs_per_state = [[a for a in buckets.get(tuple(conc_state[i] for i in c_at), ())
                        if glued(abs_universe[a], conc_state)]
                       for conc_state in graph.states]

    # a universe state is linked to a concrete state exactly when the
    # pairing listed it there; only a state outside the universe (one that
    # breaks the abstract invariant) is glued again, so `split` sorts
    # abstract states into universe ids and those outside
    universe_id = {state: a for a, state in enumerate(abs_universe)}

    def split(states) -> tuple[frozenset, list]:
        return (frozenset(universe_id[s] for s in states if s in universe_id),
                [s for s in states if s not in universe_id])

    # the abstract side, once per (universe state, refined abstract event)
    # that a concrete firing reads: whether some parameter choice satisfies
    # the guard, and every outcome of the action relation over all parameter
    # valuations, the guard ignored (the proof-obligation reading of simulation)
    abs_enabled = cache(lambda a, target: bool(abs_compiled.events[target](abs_universe[a])))
    abs_posts = cache(lambda a, target: split(
        [p for _, posts in abs_compiled.events[target](abs_universe[a], False) for p in posts]))

    # initial linkability: each concrete initial state needs an abstract
    # initial partner (initialisation is part of the simulation obligation)
    init_ids, init_outside = split(abs_compiled.init())
    for i in graph.initial:
        if init_ids.isdisjoint(pairs_per_state[i]) and \
                not any(glued(s, graph.states[i]) for s in init_outside):
            fail("INV_REF", lambda: {"kind": "init", "concrete_state": graph.state_json(i),
                                     "message": "no abstract initial state is linked to "
                                                "this concrete initial state"})

    # one pass over the record's columns: FIS_REF and GRD_REF judge each
    # firing, INV_REF each transition (some abstract post-state, inside the
    # universe or not, must be linked to the concrete one)
    record = graph.firings
    names, all_targets, start = record.events, record.targets, record.start

    def firing_json(src: int, e: int, valuation) -> dict:
        return {"event": names[e], "params": [[n, value_to_json(v)] for n, v in valuation],
                "concrete_state": graph.state_json(src)}

    refined = [renaming.get(name) for name in names]
    paired_at = [set(pairs) for pairs in pairs_per_state]  # isdisjoint scans the smaller set
    grd = inv = wfd = 0
    for src, e, params, (lo, hi) in zip(record.src, record.event, record.params, pairwise(start)):
        if lo == hi:
            fail("FIS_REF", lambda: {"kind": "no-after-state", **firing_json(src, e, params)})
        target, pairs = refined[e], pairs_per_state[src]
        if target is not None:
            grd += len(pairs)
            for a in pairs:
                if not abs_enabled(a, target):
                    fail("GRD_REF", lambda: {"kind": "guard-not-strengthened",
                                             **firing_json(src, e, params),
                                             "abstract_event": target,
                                             "abstract_state": abstract_json(a)})
        inv += (hi - lo) * len(pairs)
        for tgt in all_targets[lo:hi]:
            paired = paired_at[tgt]
            for a in pairs:
                if target is None:  # a new event must leave the abstract state unchanged
                    matched = a in paired
                else:
                    ids, outside = abs_posts(a, target)
                    matched = not ids.isdisjoint(paired) or \
                        any(glued(s, graph.states[tgt]) for s in outside)
                if not matched:
                    fail("INV_REF", lambda: {
                        "kind": "unmatched-transition" if target else "new-event-disturbs-link",
                        "event": names[e], "abstract_event": target,
                        "concrete_pre": graph.state_json(src),
                        "concrete_post": graph.state_json(tgt), "abstract_state": abstract_json(a)})
    results["FIS_REF"].checked = len(record)
    results["GRD_REF"].checked = grd
    results["INV_REF"].checked = inv

    # WFD_REF is local to the concrete machine's variant
    if conc_compiled.variant is not None:
        status_of = [concrete.event(name).effective_status for name in names]
        variant_at = [conc_compiled.variant(state) for state in graph.states]
        for i, value in enumerate(variant_at):
            if type(value) is not int or value < 0:  # a bool is no natural
                fail("WFD_REF", lambda: {"kind": "variant-not-natural",
                                         "state": graph.state_json(i), "variant": value})
        for src, e, (lo, hi) in zip(record.src, record.event, pairwise(start)):
            status, before = status_of[e], variant_at[src]
            for tgt in () if status == ORDINARY else all_targets[lo:hi]:
                after = variant_at[tgt]
                wfd += 1
                if (status == CONVERGENT and not after < before) or \
                        (status == ANTICIPATED and after > before):
                    fail("WFD_REF", lambda: {"kind": f"variant-violation-{status}",
                                             "event": names[e], "before": before, "after": after,
                                             "state": graph.state_json(src)})
        results["WFD_REF"].checked = len(variant_at) + wfd

    return POReport(abstract=abstract.name, concrete=concrete.name,
                    results=results,
                    bounds={"concrete_states": len(graph.states),
                            "abstract_universe": len(abs_universe)})


def check_chain_pairs(chain: RefinementChain, graphs: list[StateGraph],
                      from_level: int = 0) -> list[POReport]:
    """Obligations of every step from `from_level` on; `graphs` holds one
    graph per level of the chain, as `explore_chain` returns them."""
    return [
        check_refinement_pair(chain.machines[k], chain.machines[k + 1],
                              chain.links[k], graphs[k + 1])
        for k in range(from_level, len(chain.machines) - 1)
    ]


# ---------------------------------------------------------------------------
# divergence freedom

@dataclass
class CAVerdict:
    holds: bool
    convergent_events: tuple[str, ...]
    ordinary_events: tuple[str, ...]
    witness: Optional[Trace] = None

    def to_json_dict(self) -> dict:
        return {"holds": self.holds,
                "C": list(self.convergent_events), "O": list(self.ordinary_events),
                "witness": self.witness.to_json_dict() if self.witness else None}


def check_ca(graph: StateGraph, convergent, ordinary) -> CAVerdict:
    """CA(C, O): a run with infinitely many C events has infinitely many O
    events.  Fails exactly when the graph, with O-labelled edges removed,
    still has a reachable cycle through a C-labelled edge; the witness
    lasso pumps that cycle.  Events outside the graph alphabet are allowed
    in C and O; they never occur, so they never matter."""
    convergent = frozenset(convergent)
    ordinary = frozenset(ordinary)
    steps = [(src, event, targets) for src, event, _params, targets in graph.firings
             if event not in ordinary and graph.reached(src)]
    keep: list[list] = [[] for _ in graph.states]  # flat, as `search.tarjan` reads
    for src, event, targets in steps:
        keep[src].extend(v for t in targets for v in (t, event))
    comp = [0] * len(graph.states)  # each state's subgraph SCC
    for idx, scc in enumerate(tarjan(len(graph.states), keep)):
        for node in scc:
            comp[node] = idx

    # an edge whose endpoints share a subgraph SCC always lies on a cycle of
    # that subgraph: the target reaches the source again without O events
    witness_edge = next(((src, event, t) for src, event, targets in steps
                         if event in convergent for t in targets if comp[src] == comp[t]),
                        None)

    c_sorted = tuple(sorted(convergent))
    o_sorted = tuple(sorted(ordinary))
    if witness_edge is None:
        return CAVerdict(True, c_sorted, o_sorted)

    src, event, tgt = witness_edge
    # back from the target to the source without leaving their SCC
    members = {n for n, c in enumerate(comp) if c == comp[src]}
    cycle = [event, *path_inside(keep, members, tgt, {src}, need_step=False)[0]]
    return CAVerdict(False, c_sorted, o_sorted,
                     witness=Trace(LASSO, tuple(find_path(graph, src)), tuple(cycle)))


@dataclass
class Theorem1Report:
    c_star: tuple[str, ...]
    o_star: tuple[str, ...]
    po_reports: list[POReport]
    strategy: StrategyReport
    direct: CAVerdict
    certified: bool

    @property
    def consistent(self) -> bool:
        # the theorem promises CA whenever the chain obligations hold
        return not (self.certified and not self.direct.holds)

    def to_json_dict(self) -> dict:
        return {
            "C_star": list(self.c_star), "O_star": list(self.o_star),
            "pairs": [r.to_json_dict() for r in self.po_reports],
            "strategy": self.strategy.to_json_dict(),
            "direct": self.direct.to_json_dict(),
            "certified": self.certified,
            "consistent": self.consistent,
        }


def check_theorem1(chain: RefinementChain,
                   graphs: list[StateGraph]) -> Theorem1Report:
    """Divergence freedom of the final machine from the chain structure.

    C* pulls every level's convergent set down to the final alphabet via
    the composed renamings and adds the final machine's own convergent
    events; O* is the preimage of the first machine's ordinary events.  The
    theorem-level certificate (obligations plus strategy, over `graphs`,
    one per level) and a direct cycle analysis of the final graph are both
    reported; their disagreement would be a toolkit bug and raises.
    """
    n = len(chain.machines) - 1
    c_star: set[str] = set()
    for level in range(n + 1):
        conv = chain.machines[level].events_with_status(CONVERGENT)
        # level n composes the empty map sequence, i.e. the identity
        g = compose_renamings(chain, level + 1)
        c_star.update(g.preimage_set(conv))
    o_star = compose_renamings(chain, 1).preimage_set(
        chain.machines[0].events_with_status(ORDINARY))

    strategy = check_strategy(chain)
    po_reports = check_chain_pairs(chain, graphs)
    direct = check_ca(graphs[-1], tuple(sorted(c_star)), tuple(o_star))
    certified = strategy.ok and all(r.ok for r in po_reports)
    report = Theorem1Report(tuple(sorted(c_star)), tuple(o_star), po_reports,
                            strategy, direct, certified)
    if not report.consistent:
        raise ToolkitBug(
            "chain obligations hold but the final machine has a divergent "
            f"cycle: {direct.witness.render() if direct.witness else ''}")
    return report
