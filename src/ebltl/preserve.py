"""Property preservation through refinement chains, as checked inference.

Two certified conclusions are supported, each with every hypothesis
machine-checked and recorded:

  * the recurrent-origin rule: a strategy-conforming chain whose final
    machine is deadlock free and free of anticipated events always
    eventually performs an event mapping back to the first machine, so
    `GF(disjunction of those events)` is asserted of the final machine;
  * the preservation rule: a property established at level i that is
    projection-insensitive (beta-dependent) over events of level i holds,
    translated through the composed renaming, in the final machine.

Beta-dependence is decided exactly.  A syntactic schema pass answers
first for shapes that provably cannot see events outside their own
alphabet (boolean combinations of GF/FG-of-disjunction patterns,
recurrence implications, and plain eventualities).  Every other formula
goes to the decision: a product of the tableau automata of the formula
and of its negation, one reading a word over the ambient alphabet and
the other its projection, searched for a word whose truth changes.  It
is the model checker's product (`automata.Product`) with another left
side, searched the same way, and the shortest word wins by the same rule
(`automata.shortest`).  The decision also checks every schema certificate, and every refuting word
is replayed on the trace evaluator.  The verdict depends on the ambient
alphabet only through whether it has an event outside beta.

Every asserted conclusion is cross-validated by directly model checking
the final machine; a disagreement raises, because it means this module and
the model checker cannot both be right.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional

from .automata import ProjectionProduct, TableauAutomaton, shortest, to_nnf
from .errors import EbltlError, RenamingError, ToolkitBug
from .formulas import (
    And, Atom, Finally, Formula, Globally, Not, Or, TrueFormula,
    formula_to_text, or_all,
)
from .ltl import Verdict, alphabet, holds_on_trace, model_check
from .refine import (
    RefinementChain, RenamingMap, check_chain_pairs, check_strategy,
    compose_renamings,
)
from .semantics import StateGraph, check_deadlock_free
from .traces import FINITE, LASSO, Trace, project_trace

# ---------------------------------------------------------------------------
# formula translation through a renaming

def translate_formula(phi: Formula, h: RenamingMap) -> Formula:
    """Replace each atom by the disjunction of its preimages under h.

    Disjuncts come out in sorted order; an atom with no preimage becomes
    the empty disjunction, written !true.  A singleton preimage stays a
    plain atom, so identity renamings translate a formula to itself.
    """
    if isinstance(phi, Atom):
        return or_all([Atom(e) for e in h.preimage(phi.event)])
    return type(phi)(*(translate_formula(getattr(phi, f.name), h) for f in fields(phi)))


def complete_renaming(h: RenamingMap) -> RenamingMap:
    """Total completion: identity on every concrete event outside dom(h)."""
    return RenamingMap({e: e for e in h.new_events()} | h.mapping, h.concrete_alphabet)


def map_trace(h: RenamingMap, u: Trace) -> Trace:
    """Apply a renaming pointwise; every event of the trace must be in its
    domain (complete the renaming first if it is not)."""
    def image(event: str) -> str:
        out = h.apply(event)
        if out is None:
            raise RenamingError(f"event {event!r} outside the renaming domain")
        return out

    prefix = tuple(image(e) for e in u.prefix)
    if not u.is_lasso:
        return Trace(FINITE, prefix)
    return Trace(LASSO, prefix, tuple(image(e) for e in u.cycle))


# ---------------------------------------------------------------------------
# beta-dependence

@dataclass
class DependenceVerdict:
    status: str  # "certified" | "refuted": the question is decided exactly
    method: str  # "syntactic-schema" | "tableau-product"
    witness: Optional[Trace] = None
    bounds: dict = field(default_factory=dict)
    detail: str = ""

    @property
    def certified(self) -> bool:
        return self.status == "certified"

    def to_json_dict(self) -> dict:
        return {"status": self.status, "method": self.method,
                "witness": self.witness.to_json_dict() if self.witness else None,
                "bounds": self.bounds, "detail": self.detail}


def _atoms(phi: Formula) -> Optional[frozenset[str]]:
    """The events of a disjunction of atoms; None for any other shape."""
    match phi:
        case Atom(event):
            return frozenset({event})
        case Or(left, right):
            left, right = _atoms(left), _atoms(right)
            if left is not None and right is not None:
                return left | right
    return None


def _schema_atom(phi: Formula) -> bool:
    """Shapes whose truth only depends on the subsequence of their own
    events, hence unchanged by projection onto any superset of it:

      GF(D)            infinitely many D events
      F(G(!D))         finitely many D events
      G(D1 => F D2)    recurrence: every D1 event is answered by a D2 event
      F(D)             some D event occurs
      true

    with D, D1, D2 nonempty disjunctions of atoms.  Projection keeps all
    of the formula's own events and their relative order, and the finite/
    empty-suffix corner cases agree on both sides, so each shape evaluates
    identically on a trace and on its projection.
    """
    match phi:
        case TrueFormula():
            return True
        # before F(D), which would take G !D for its D
        case Finally(Globally(Not(d))) if _atoms(d) is not None:
            return True
        case Globally(Finally(d)) | Finally(d):
            return _atoms(d) is not None
        case Globally(Or(Not(d1), Finally(d2)) | Or(Finally(d2), Not(d1))):
            return _atoms(d1) is not None and _atoms(d2) is not None
    return False


def _schema_certified(phi: Formula) -> bool:
    """Boolean combinations of schema atoms."""
    if _schema_atom(phi):
        return True
    if isinstance(phi, Not):
        return _schema_certified(phi.operand)
    if isinstance(phi, (Or, And)):
        return _schema_certified(phi.left) and _schema_certified(phi.right)
    return False


def _letter_classes(phi: Formula, beta: frozenset, sigma) -> tuple[str, ...]:
    """One letter per class of events the decision must tell apart: each
    event of the formula, the smallest event of beta outside it and the
    smallest event of sigma outside beta.  The automata test letters only
    for equality with the formula's events, so two events of one class
    lead to the same states."""
    own = alphabet(phi)
    letters = set(own)
    for rest in (beta - own, frozenset(sigma) - beta):
        if rest:
            letters.add(min(rest))
    return tuple(sorted(letters))


def _decide(phi: Formula, beta: frozenset, sigma: tuple[str, ...]) -> DependenceVerdict:
    """Search the projection products of the formula's automaton with its
    negation's, in both orders, for a word whose truth projection changes;
    the shortest one found refutes, and none certifies."""
    letters = _letter_classes(phi, beta, sigma)
    holds = TableauAutomaton(to_nnf(phi), letters)
    fails = TableauAutomaton(to_nnf(phi, negate=True), letters)
    products = [ProjectionProduct(holds, fails, beta), ProjectionProduct(fails, holds, beta)]
    bounds = {"sigma": list(sigma), "letters": list(letters),
              "product_nodes": sum(len(p.nodes) for p in products)}
    witness = shortest(w for p in products for w in
                       (p.finite_witness(), p.lasso_witness(), p.stutter_witness()))
    if witness is None:
        return DependenceVerdict(
            status="certified", method="tableau-product", bounds=bounds,
            detail="no trace changes truth under projection")
    if holds_on_trace(witness, phi) == holds_on_trace(project_trace(witness, beta), phi):
        raise ToolkitBug(
            f"beta-dependence witness {witness.render()} does not change the "
            f"truth of {formula_to_text(phi)} under projection")
    return DependenceVerdict(
        status="refuted", method="tableau-product", witness=witness,
        bounds=bounds, detail="truth changes under projection")


def check_beta_dependent(phi: Formula, beta, sigma,
                         prefix_bound: int = 4, cycle_bound: int = 4) -> DependenceVerdict:
    """Is the formula's truth invariant under projecting traces over sigma
    onto beta?

    Requires alphabet(phi) to be contained in beta (that is part of the
    definition, not a refutable condition).  The schema pass answers first
    where it applies, and the tableau-product decision everywhere else; a
    schema certificate the decision refutes raises ToolkitBug.  Both
    answers are exact.  `prefix_bound` and `cycle_bound` are accepted for
    callers that still pass them and do not affect the verdict.
    """
    beta = frozenset(beta)
    sigma = tuple(sorted(frozenset(sigma) | beta))
    missing = alphabet(phi) - beta
    if missing:
        raise EbltlError(
            f"beta-dependence needs alphabet(phi) within beta; missing "
            f"{', '.join(sorted(missing))}")

    decided = _decide(phi, beta, sigma)
    if not _schema_certified(phi):
        return decided
    if decided.status == "refuted":
        raise ToolkitBug(
            f"schema-certified {formula_to_text(phi)} is refuted by "
            f"{decided.witness.render()}")
    return DependenceVerdict(
        status="certified", method="syntactic-schema",
        bounds={"sigma": list(sigma)},
        detail="projection-insensitive shape (boolean combination of "
               "GF/FG/recurrence/eventuality patterns)")


# ---------------------------------------------------------------------------
# certificates

@dataclass
class Hypothesis:
    name: str
    passed: bool
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass
class Certificate:
    lemma: int  # 1 or 3 for the GF rule, 2 or 4 for preservation
    chain: str
    machines: list[str]
    hypotheses: list[Hypothesis]
    conclusion: Optional[Formula]
    bounds: dict = field(default_factory=dict)
    cross_validation: Optional[Verdict] = None

    @property
    def asserted(self) -> bool:
        return all(h.passed for h in self.hypotheses)

    def failed_hypotheses(self) -> list[str]:
        return [h.name for h in self.hypotheses if not h.passed]

    def to_json_dict(self) -> dict:
        return {
            "lemma": self.lemma,
            "chain": self.chain,
            "machines": self.machines,
            "asserted": self.asserted,
            "hypotheses": [h.to_json_dict() for h in self.hypotheses],
            "conclusion": formula_to_text(self.conclusion) if self.conclusion else None,
            "bounds": self.bounds,
            "cross_validation": self.cross_validation.to_json_dict()
            if self.cross_validation else None,
        }


def _chain_hypotheses(chain: RefinementChain, graphs: list[StateGraph],
                      from_level: int = 0) -> list[Hypothesis]:
    hyps: list[Hypothesis] = []
    for r in check_chain_pairs(chain, graphs, from_level=from_level):
        hyps.append(Hypothesis(
            f"refinement obligations {r.abstract} -> {r.concrete}",
            r.ok, "all of FIS/GRD/INV/WFD hold" if r.ok
            else f"failed: {', '.join(r.failed())}"))
    strat = check_strategy(chain)
    hyps.append(Hypothesis(
        "development strategy rules 1-6", strat.ok,
        "labels conform" if strat.ok else "; ".join(
            f"rule {v.rule}: {v.message}" for v in strat.violations)))
    dead = check_deadlock_free(graphs[-1])
    hyps.append(Hypothesis(
        f"{chain.final.name} deadlock free", dead.holds,
        dead.detail if dead.holds else
        f"deadlocked state reached by {dead.witness_path}"))
    anticipated = chain.final.events_with_status("anticipated")
    hyps.append(Hypothesis(
        f"no anticipated events in {chain.final.name}", not anticipated,
        "none remain" if not anticipated else f"still anticipated: {', '.join(anticipated)}"))
    return hyps


def _settle(cert: Certificate, graph_n: StateGraph) -> Certificate:
    """Drop the conclusion of a certificate that a failed hypothesis blocks;
    otherwise model check it on the final graph and keep the verdict, which
    must hold."""
    if not cert.asserted:
        cert.conclusion = None
        return cert
    verdict = model_check(graph_n, cert.conclusion)
    if not verdict.holds:
        raise ToolkitBug(
            "certificate asserts a conclusion the model checker refutes: "
            f"{formula_to_text(cert.conclusion)} with counterexample "
            f"{verdict.counterexample.render()}")
    cert.cross_validation = verdict
    return cert


def apply_lemma_gf(chain: RefinementChain, graphs: list[StateGraph]) -> Certificate:
    """Certify that the final machine always eventually performs an event
    relating back to the first machine.

    With identity renamings the conclusion quantifies the first machine's
    own alphabet; in general it quantifies the composed preimage.  The
    hypotheses are the per-step obligations, the strategy rules, deadlock
    freedom of the final machine and the absence of anticipated events.
    """
    hyps = _chain_hypotheses(chain, graphs)
    g = compose_renamings(chain, 1)
    events = g.preimage_set(chain.machines[0].alphabet())
    return _settle(Certificate(
        lemma=1 if g.is_identity() else 3, chain=chain.name,
        machines=[m.name for m in chain.machines], hypotheses=hyps,
        conclusion=Globally(Finally(or_all([Atom(e) for e in events]))),
        bounds={"final_states": len(graphs[-1].states)}), graphs[-1])


def apply_preservation(chain: RefinementChain, i: int, phi: Formula,
                       beta, graphs: list[StateGraph]) -> Certificate:
    """Carry a property from level i to the final machine.

    Hypotheses: the property holds at level i; the obligations of every
    step from i on; the final machine is deadlock free and has no
    anticipated events left; the property is beta-dependent over the
    events of level i and of the final machine; beta is
    within level i's alphabet.  The conclusion translates the property
    through the composed renaming; with identity renamings it is the
    property itself.
    """
    n = len(chain.machines) - 1
    if n == 0:
        raise EbltlError(f"chain {chain.name} has no refinement step")
    if not 0 <= i < n:
        raise EbltlError(f"level {i} out of range 0..{n - 1}")
    machine_i = chain.machines[i]
    beta = frozenset(beta) if beta is not None else alphabet(phi)

    hyps: list[Hypothesis] = []
    base = model_check(graphs[i], phi)
    hyps.append(Hypothesis(
        f"{machine_i.name} satisfies {formula_to_text(phi)}", base.holds,
        "model checked" if base.holds else
        f"counterexample {base.counterexample.render()}"))
    hyps.extend(_chain_hypotheses(chain, graphs, from_level=i))

    sigma = frozenset(machine_i.alphabet()) | frozenset(chain.final.alphabet())
    dependence = check_beta_dependent(phi, beta, sigma)
    dep_detail = f"{dependence.status} by {dependence.method}"
    if dependence.witness is not None:
        dep_detail += f"; witness {dependence.witness.render()}"
    hyps.append(Hypothesis(f"{formula_to_text(phi)} is beta-dependent",
                           dependence.certified, dep_detail))

    extra = beta - frozenset(machine_i.alphabet())
    hyps.append(Hypothesis(
        f"beta within alphabet of {machine_i.name}", not extra,
        "contained" if not extra else f"outside events: {', '.join(sorted(extra))}"))

    g = compose_renamings(chain, i + 1)
    return _settle(Certificate(
        lemma=2 if g.is_identity() else 4, chain=chain.name,
        machines=[m.name for m in chain.machines[i:]],
        hypotheses=hyps, conclusion=translate_formula(phi, g),
        bounds={"level": i, "beta": sorted(beta),
                "dependence": dependence.to_json_dict(),
                "final_states": len(graphs[-1].states)}), graphs[-1])
