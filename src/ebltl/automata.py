"""Tableau translation of formulas to transition-labelled automata, and the
product searches used by the model checker.

The letters of an automaton are event names, and at every step exactly one
event occurs, so a transition constraint is simply "the letter must be x"
and/or "the letter must avoid this set".  States are obligation sets: the
formulas that must hold on the remaining word.  A branch is a constraint
on the current letter plus obligations on the rest; a state's branches are
the conjunction of its obligations', and those are unions and conjunctions
of their operands' branches, by the usual unfoldings

    a U b  =  b  or  (a and next(a U b))
    a R b  =  (b and a)  or  (b and next(a R b))

Acceptance is generalized Buchi with one set per Until in the closure: a
run may not delay an Until forever, and taking the fulfilling branch
leaves the Until out of the successor obligation set.

For finite maximal traces (deadlocked executions) the same automaton is
read as a finite-word acceptor: after consuming the whole trace, every
pending obligation must hold on the empty trace, where atoms are false,
negated atoms are true, and both Until and Release reduce to their
right-hand side.

Negation normal form is a shape of `formulas`' own classes, `Not` only over
an atom or over `true` (false), plus this module's `Release`, which never
reaches the parser or the printer.  `to_nnf` turns a negated binary
operator into its dual (`_DUAL`) and reads `F x` as `true U x` and `G x`
as `!F !x`.

An automaton is built once, over the letters it will read: the
constructor expands every reachable state exactly once and fills a
table of successors per letter (`delta`) and per state (`moves`), so no
state is added while a product reads it.

One `Product` class pairs a left side with an automaton's transition
rows, breadth-first over node ids, in flat lists indexed by id (no tuple
per node, stored edge or first-edge link), and searches it for the
closest accepting node (a finite trace) and for the shallowest accepting
component (a lasso, looped by `search.stitch_cycle`).  Ids are
breadth-first order, so both rules read ids alone: the first accepting
id is the closest node, and the least id of a component is its
shallowest node, the least id winning between equally deep ones.  The
model checker's `CounterexampleSearch` steps a graph's successor table
(`StateGraph.moves`) next to the rows (`delta`) of the negated formula's
automaton, built over the graph's edge labels.  It marks the automaton's
components that can accept (`TableauAutomaton.live_components`) before
building, so its product stores and searches only the edges that can
close an accepting lasso.  The beta-dependence decision's
`ProjectionProduct` steps one automaton through its own `moves` next to
the rows of another reading the projection of the word onto a set of
letters, and keeps every edge.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Optional

from .errors import ExplorationLimitError
from .formulas import (
    FALSE, TRUE, And, Atom, Finally, Formula, Globally, Not, Or, TrueFormula, Until,
)
from .search import (
    nontrivial, pairs, path_inside, path_to, shallowest_component, stitch_cycle, tarjan,
)
from .semantics import StateGraph
from .traces import FINITE, LASSO, Trace


# ---------------------------------------------------------------------------
# negation normal form

@dataclass(frozen=True)
class Release(Formula):
    """`left R right`, the dual of Until: right holds up to and including
    the first step where left holds, or to the end of the word."""
    left: Formula
    right: Formula


_DUAL = {Or: And, And: Or, Until: Release}


def to_nnf(phi: Formula, negate: bool = False) -> Formula:
    """`phi`, or its negation, in negation normal form; a chain of `Not`
    takes one call, so the calls nest no deeper than the formula."""
    while isinstance(phi, Not):
        phi, negate = phi.operand, not negate
    if isinstance(phi, TrueFormula):
        return FALSE if negate else TRUE
    if isinstance(phi, Atom):
        return Not(phi) if negate else phi
    if isinstance(phi, Globally):
        phi, negate = Finally(Not(phi.operand)), not negate
    if isinstance(phi, Finally):
        phi = Until(TRUE, phi.operand)
    build = type(phi)
    if build not in _DUAL:
        raise TypeError(phi)
    left, right = to_nnf(phi.left, negate), to_nnf(phi.right, negate)
    return _DUAL[build](left, right) if negate else build(left, right)


_KEY_NAMES = {And: "NAnd", Or: "NOr", Until: "NUntil", Release: "NRelease"}


def nnf_key(f: Formula) -> str:
    """The text obligations sort by, which fixes branch and state order."""
    if isinstance(f, TrueFormula):
        return "1"
    if isinstance(f, Atom):
        return f"[{f.event}]"
    if isinstance(f, Not):
        return f"![{f.operand.event}]" if isinstance(f.operand, Atom) else "0"
    return f"{_KEY_NAMES[type(f)]}({nnf_key(f.left)},{nnf_key(f.right)})"


def empty_true(f: Formula) -> bool:
    """Truth of a formula in negation normal form on the empty trace."""
    if isinstance(f, TrueFormula):
        return True
    if isinstance(f, Atom):
        return False
    if isinstance(f, Not):
        return isinstance(f.operand, Atom)
    if isinstance(f, And):
        return empty_true(f.left) and empty_true(f.right)
    if isinstance(f, Or):
        return empty_true(f.left) or empty_true(f.right)
    if isinstance(f, (Until, Release)):
        return empty_true(f.right)
    raise TypeError(f)


def _collect_untils(f: Formula, out: list[Formula]) -> None:
    if isinstance(f, Until) and f not in out:
        out.append(f)
    if isinstance(f, (And, Or, Until, Release)):
        _collect_untils(f.left, out)
        _collect_untils(f.right, out)


# ---------------------------------------------------------------------------
# the automaton

Branch = tuple[Optional[str], frozenset, frozenset]  # (required, forbidden, next)
_ANY: Branch = (None, frozenset(), frozenset())


def _either(*lists: list[Branch]) -> list[Branch]:
    """The union of branch lists, each branch kept at its first place."""
    return list(dict.fromkeys(b for branches in lists for b in branches))


def _both(xs: list[Branch], ys: list[Branch]) -> list[Branch]:
    """Every consistent pair, `xs` outer; a required letter drops the forbidden set."""
    out = []
    for req1, forb1, nxt1 in xs:
        for req2, forb2, nxt2 in ys:
            req = req2 if req1 is None else req1
            if req is None:
                out.append((None, forb1 | forb2, nxt1 | nxt2))
            elif req2 in (None, req) and req not in forb1 and req not in forb2:
                out.append((req, frozenset(), nxt1 | nxt2))
    return _either(out)


def _expand(f: Formula) -> list[Branch]:
    """The branches of one obligation, one rule per kind."""
    if isinstance(f, Not):  # over an atom; over true it is false
        x = f.operand
        return [(None, frozenset({x.event}), frozenset())] if isinstance(x, Atom) else []
    if isinstance(f, TrueFormula):
        return [_ANY]
    if isinstance(f, Atom):
        return [(f.event, frozenset(), frozenset())]
    if isinstance(f, And):
        return _both(_expand(f.left), _expand(f.right))
    if isinstance(f, Or):
        return _either(_expand(f.left), _expand(f.right))
    later = [(None, frozenset(), frozenset({f}))]  # f again on the rest
    if isinstance(f, Until):
        return _either(_expand(f.right), _both(_expand(f.left), later))
    if isinstance(f, Release):
        right = _expand(f.right)
        return _either(_both(right, _expand(f.left)), _both(right, later))
    raise TypeError(f)


def _branches(obligations: frozenset) -> list[Branch]:
    """The letter constraints and successor obligations of one state: the
    conjunction of its obligations' branches, folded in `nnf_key` order.
    Repeats are dropped as each union or conjunction is formed, so choices
    that collapse to a few branches are never enumerated one by one."""
    return reduce(_both, map(_expand, sorted(obligations, key=nnf_key)), [_ANY])


class TableauAutomaton:
    """Obligation-set automaton for one formula in negation normal form
    (`to_nnf`) over a given set of letters, built whole in the constructor.

    State 0 is the initial obligation {root}; the others are numbered in
    the order a breadth-first walk over the sorted letters finds them.
    `delta[q]` maps each letter to the successor ids of state q, in
    branch order without repeats, and `moves[q]` lists its `(successor,
    letter)` pairs letter by letter.  Nothing is added after
    construction: a product reads `delta` as its row table (`Product`),
    and a letter outside the set is a KeyError.
    """

    def __init__(self, root: Formula, letters):
        untils: list[Formula] = []
        _collect_untils(root, untils)
        self.untils = sorted(untils, key=nnf_key)
        letters = sorted(letters)
        self.initial = 0
        self._sets: list[frozenset] = [frozenset({root})]
        self.delta: list[dict[str, tuple[int, ...]]] = []
        self.moves: list[list[tuple[int, str]]] = []
        sets, ids = self._sets, {self._sets[0]: 0}
        for obligations in sets:  # the walk appends new states as it goes
            branches = _branches(obligations)
            row = {}
            for x in letters:
                out = []
                for req, forb, nxt in branches:
                    if (req is None or req == x) and x not in forb:
                        succ = ids.setdefault(nxt, len(sets))
                        if succ == len(sets):
                            sets.append(nxt)
                        if succ not in out:
                            out.append(succ)
                row[x] = tuple(out)
            self.delta.append(row)
            self.moves.append([(q2, x) for x in letters for q2 in row[x]])

    def obligations(self, qid: int) -> frozenset:
        return self._sets[qid]

    def accepts_empty(self, qid: int) -> bool:
        return all(empty_true(f) for f in self._sets[qid])

    def fulfils(self, states) -> bool:
        """Generalized Buchi: a cycle through exactly these states leaves
        every Until undelayed somewhere."""
        return all(any(f not in self._sets[q] for q in states) for f in self.untils)

    def live_components(self) -> list[int]:
        """Per state, the id of its strongly connected component, or -1
        when that component cannot hold an accepting cycle: it is trivial
        (no transition inside it), or some Until is delayed in every one
        of its states (`fulfils` fails on the whole component).  Every
        cycle of a product with this automaton reads letters of its left
        side and stays inside one component, so its nodes can close an
        accepting lasso only through edges that join two states with one
        live id (`Product`)."""
        moves = [[v for move in out for v in move] for out in self.moves]
        live = [-1] * len(moves)
        for cid, scc in enumerate(tarjan(len(moves), moves)):
            if nontrivial(scc, moves) and self.fulfils(scc):
                for q in scc:
                    live[q] = cid
        return live


# ---------------------------------------------------------------------------
# products

class Product:
    """A left side that `step(left)` moves to `(successor, label)` pairs,
    next to an automaton whose `rows[right][label]` lists the successor
    ids.  Built once by walking node ids from `starts`: ids are the
    discovery order, so the walk is breadth-first and depth never
    decreases as the id grows, which is all the searches' tie rules read.
    Lists indexed by id hold the data, with no tuple per node, edge or
    link: each node's two sides (`left`, `right`), its first edge as it
    is found (`parent`, `via`: the tree `search.path_to` reads), and the
    edges it stores as it is expanded, one flat list each (`adj`, read by
    `search.pairs`; a node that stores none shares the empty tuple); `nodes`
    is the range of ids.  More than `limit` nodes raise ExplorationLimitError.
    Each row becomes `(right2, right2's id dict, store flag)` entries before
    the walk, so an edge costs one lookup in a dict keyed by left states.

    `live`, when given, is `TableauAutomaton.live_components` of the right
    automaton: `adj` then keeps only the edges between two nodes whose
    right states share a live component, and `lasso` searches only from
    nodes with a live right state.  Every node is still numbered and
    reached, so `first` and the tree do not depend on it."""

    def __init__(self, starts, step, rows, limit: Optional[int] = None,
                 live: Optional[list[int]] = None):
        starts = dict.fromkeys(starts)  # a repeat is one node
        self.left = lefts = [left for left, _ in starts]
        self.right = rights = [right for _, right in starts]
        self.parent = parent = [-1] * len(starts)
        self.via = via = [None] * len(starts)
        self.adj = adj = []
        self.live = live
        ids = [{} for _ in rows]  # per right state: left -> node id
        for nid, (left, right) in enumerate(starts):
            ids[right][left] = nid
        # an edge is stored when its target's mark is its source's `keep`:
        # the source's own mark if live, else -2, which no state has
        marks = [0] * len(rows) if live is None else live
        table = []
        for right, row in enumerate(rows):
            keep = marks[right] if marks[right] >= 0 else -2
            table.append({label: [(r2, ids[r2], marks[r2] == keep) for r2 in row[label]]
                          for label in row})
        for nid, left in enumerate(lefts):  # the walk appends as it goes
            # checked per expansion: the walk reaches every node it adds
            if limit is not None and len(lefts) > limit:
                raise ExplorationLimitError(f"product size exceeded the limit of {limit}")
            out = []
            row = table[rights[nid]]
            for left2, label in step(left):
                for right2, at, store in row[label]:
                    tgt = at.get(left2)
                    if tgt is None:
                        tgt = at[left2] = len(lefts)
                        lefts.append(left2)
                        rights.append(right2)
                        parent.append(nid)
                        via.append(label)
                    if store:
                        out.append(tgt)
                        out.append(label)
            adj.append(out or ())
        self.nodes = range(len(lefts))

    def first(self, accepting) -> Optional[Trace]:
        """The finite trace to the first node in id order, which is the
        closest one, whose `(left, right)` pass `accepting`; an accepting
        start node gives the empty trace."""
        for nid, (left, right) in enumerate(zip(self.left, self.right)):
            if accepting(left, right):
                return Trace(FINITE, tuple(path_to(self.parent, self.via, nid)))
        return None

    def lasso(self, accepting, goals, adj=None, close=None) -> Optional[Trace]:
        """A lasso over `adj` (the product's edges unless given) anchored at
        the shallowest node of a component that passes
        `accepting(scc, members)`, whose loop meets every goal
        (`search.stitch_cycle`): the least node id of the component, and
        of the passing components the one with the least such id, whatever
        order they are found in (`search.shallowest_component`).  With a
        live marking only components of nodes with a live right state are
        searched.  `close(anchor, members, cycle)`, given the component's
        node set, may lengthen the loop."""
        adj = self.adj if adj is None else adj
        live = self.live
        roots = None if live is None else [n for n, q in enumerate(self.right) if live[q] >= 0]
        found = shallowest_component(adj, accepting, roots)
        if found is None:
            return None
        anchor, members = found
        cycle = stitch_cycle(adj, members, anchor, goals)
        if close is not None:
            cycle = close(anchor, members, cycle)
        return Trace(LASSO, tuple(path_to(self.parent, self.via, anchor)), tuple(cycle))

    @staticmethod
    def fulfils(aut: TableauAutomaton, side: list, scc) -> bool:
        """Whether the automaton states on one side (`left` or `right`) of
        the component's nodes fulfil `aut` (`TableauAutomaton.fulfils`).
        Each distinct automaton state is judged once, not each node."""
        return not aut.untils or aut.fulfils({side[n] for n in scc})

    @staticmethod
    def goals(aut: TableauAutomaton, side: list) -> list:
        """Per Until, whether a node's automaton state on one side no
        longer delays it."""
        return [lambda n, f=f: f not in aut.obligations(side[n]) for f in aut.untils]


def shortest(witnesses) -> Optional[Trace]:
    """The shortest of the witnesses found (None entries are skipped) by
    total length, a finite one first on a tie; None if none was found."""
    return min((w for w in witnesses if w is not None),
               key=lambda w: (len(w.prefix) + len(w.cycle), w.is_lasso),
               default=None)


class CounterexampleSearch(Product):
    """The product of a graph, stepped by its successor table
    (`StateGraph.moves`), with the automaton of the negated formula: an
    accepting run is a trace of the graph that refutes the formula."""

    def __init__(self, graph: StateGraph, phi: Formula, product_limit: int):
        self.graph = graph
        self.aut = aut = TableauAutomaton(to_nnf(phi, negate=True), graph.labels)
        super().__init__([(s, aut.initial) for s in graph.initial],
                         graph.moves.__getitem__, aut.delta, product_limit,
                         aut.live_components())

    def finite_counterexample(self) -> Optional[Trace]:
        """A finite maximal trace: the closest accepting deadlocked node."""
        deadlocks, aut = set(self.graph.deadlocks), self.aut
        if not deadlocks:
            return None
        return self.first(lambda s, q: s in deadlocks and aut.accepts_empty(q))

    def lasso_counterexample(self) -> Optional[Trace]:
        """An infinite trace: an accepting lasso."""
        aut = self.aut
        return self.lasso(lambda scc, members: self.fulfils(aut, self.right, scc),
                          self.goals(aut, self.right))


class ProjectionProduct(Product):
    """Automaton `a` reads a word w over its letters while automaton `b`,
    built over the same letters, reads the projection of w onto `beta`: a
    letter outside beta moves `a` alone, `b`'s row keeping its state.
    Each witness method returns a word that `a` accepts and whose
    projection `b` accepts, or None; the three cover the three shapes of w.

    The product keeps every edge, with no live marking: `b` stays put on
    a letter outside beta, which is no transition of its own, and
    `stutter_witness` accepts cycles on which `b` reads nothing, so
    `stutter_witness` and `lasso_witness` read edges that a marking of
    `b` would drop."""

    def __init__(self, a: TableauAutomaton, b: TableauAutomaton, beta: frozenset):
        self.a, self.b, self.beta = a, b, beta
        super().__init__(
            [(a.initial, b.initial)], a.moves.__getitem__,
            [{x: row[x] if x in beta else (qb,) for x in row}
             for qb, row in enumerate(b.delta)])

    def finite_witness(self) -> Optional[Trace]:
        """w finite: the closest node where both automata accept the empty
        rest of their words."""
        a, b = self.a, self.b
        return self.first(lambda qa, qb: a.accepts_empty(qa) and b.accepts_empty(qb))

    def lasso_witness(self) -> Optional[Trace]:
        """w infinite with infinitely many beta letters: a cycle that reads a
        beta letter and meets the acceptance sets of both automata."""
        adj, beta, a, b = self.adj, self.beta, self.a, self.b

        def beta_sources(scc, members):
            return [n for n in scc
                    if any(x in beta and t in members for t, x in pairs(adj[n]))]

        def close(anchor, members, cycle):
            if not beta.isdisjoint(cycle):
                return cycle
            # append a second loop at the anchor through a beta edge
            lead, src = path_inside(adj, members, anchor,
                                    set(beta_sources(members, members)), need_step=False)
            tgt, letter = next((t, x) for t, x in pairs(adj[src]) if x in beta and t in members)
            back, _ = path_inside(adj, members, tgt, {anchor}, need_step=False)
            return cycle + lead + [letter] + back

        return self.lasso(
            lambda scc, members: bool(beta_sources(scc, members))
            and self.fulfils(a, self.left, scc) and self.fulfils(b, self.right, scc),
            self.goals(a, self.left) + self.goals(b, self.right), close=close)

    def stutter_witness(self) -> Optional[Trace]:
        """w infinite with finitely many beta letters: a cycle of letters
        outside beta that meets `a`'s acceptance sets while `b`, frozen,
        accepts the empty rest -- the projection of such a lasso is the
        finite trace of its projected prefix, as in `project_trace`."""
        right, beta, a, b = self.right, self.beta, self.a, self.b
        stutter = [()] * len(self.adj)  # a node with no edge outside beta shares ()
        for n, out in enumerate(self.adj):
            for t, x in pairs(out):
                if x not in beta:
                    stutter[n] = kept = stutter[n] or []
                    kept += t, x
        return self.lasso(
            lambda scc, members: b.accepts_empty(right[scc[0]])
            and self.fulfils(a, self.left, scc),
            self.goals(a, self.left), adj=stutter)
