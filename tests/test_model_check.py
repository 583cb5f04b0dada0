"""Model checking machines against properties."""
from __future__ import annotations

import contextlib
import hashlib
import json
import random
import signal
import time
import tracemalloc
from array import array
from collections import deque

import pytest

from ebltl import automata, preserve
from ebltl.automata import Product, Release, TableauAutomaton, to_nnf
from ebltl.formulas import FALSE, Atom, Finally, Globally, Not, parse_formula
from ebltl.ltl import holds_on_trace, model_check
from ebltl.machine_parser import parse_machine, parse_machine_file
from ebltl.oracle import corpus_root, random_formula, random_graph, trace_realizable
from ebltl.refine import check_ca
from ebltl.search import bfs, nontrivial, pairs, path_inside, path_to, tarjan
from ebltl.semantics import compile_machine, explore, find_path, make_graph
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
    assert digest.hexdigest() == "c28c25f8fe9342c7ca1e836c769913a742664081990bdd7d86d4778070323599"


def test_product_limit_is_exact():
    """A five-node chain builds under a limit of five and raises under four."""
    def step(left):
        return [(left + 1, "a")] if left < 4 else []

    assert len(Product([(0, 0)], step, [{"a": [0]}], limit=5).nodes) == 5
    with pytest.raises(ExplorationLimitError, match="limit of 4"):
        Product([(0, 0)], step, [{"a": [0]}], limit=4)


def test_equally_deep_components_go_to_the_least_node_id():
    """Two accepting loops anchored at depth 1: Tarjan's search from node
    0 follows x to node 1, whose first edge enters node 2's self-loop, so
    node 2's component is found first.  The least anchor id, node 1, still
    wins."""
    moves = {0: [(1, "x"), (2, "y")], 1: [(2, "z"), (1, "a")], 2: [(2, "b")]}
    product = Product([(0, 0)], moves.__getitem__, [{x: [0] for x in "xyzab"}])
    assert tarjan(3, product.adj) == [[2], [1], [0]]
    cex = product.lasso(lambda scc, members: True, [])
    assert cex.render() == "x | (a)^\u03c9"


def test_live_components_of_negated_recurrence():
    """!(G F [a]) is F G ![a].  Its initial state delays the Until forever
    on its own self-loop, so it is -1; the G ![a] state loops on b and
    delays nothing, so it is live.  Over the letter a alone, the G ![a]
    state is never reached, and every state is -1."""
    phi = to_nnf(parse_formula("!(G F [a])"))
    aut = TableauAutomaton(phi, {"a", "b"})
    live = aut.live_components()
    always_not_a = frozenset({Release(FALSE, Not(Atom("a")))})
    g_state = next(q for q in range(len(live)) if aut.obligations(q) == always_not_a)
    assert live[aut.initial] == -1
    assert live[g_state] >= 0
    assert set(TableauAutomaton(phi, {"a"}).live_components()) == {-1}


def _wide_graph(rng, alphabet):
    """A seeded graph of 20-60 states, 2-3 of them initial, where all but
    about one state in twenty have 1-3 successors and the rest deadlock:
    its products reach further than those of `oracle.random_graph`, which
    starts from state 0 alone and gives half its states at most one
    successor."""
    n = rng.randint(20, 60)
    edges = set()
    for s in range(n):
        for _ in range(0 if rng.random() < 0.05 else rng.randint(1, 3)):
            edges.add((s, rng.choice(alphabet), rng.randrange(n)))
    return make_graph(n, rng.sample(range(n), rng.randint(2, 3)), sorted(edges), alphabet)


def _wide_draws(seed, count, alphabet):
    rng = random.Random(seed)
    return [(_wide_graph(rng, alphabet), random_formula(rng, alphabet, rng.randint(1, 4)))
            for _ in range(count)]


def _large_draws(seed, count, alphabet):
    """Seeded graphs of 100-400 states, 3-5 of them initial, where every
    state has 1-3 successors, each with a formula of depth 2-4: their
    products reach hundreds to thousands of nodes."""
    rng = random.Random(seed)
    draws = []
    for _ in range(count):
        n = rng.randint(100, 400)
        edges = {(s, rng.choice(alphabet), rng.randrange(n))
                 for s in range(n) for _ in range(rng.randint(1, 3))}
        graph = make_graph(n, rng.sample(range(n), rng.randint(3, 5)), sorted(edges), alphabet)
        draws.append((graph, random_formula(rng, alphabet, rng.randint(2, 4))))
    return draws


def _chain_lengths(product):
    """Per node, the number of edges on its `parent` chain back to a start.
    A parent is found before its child, so one pass in id order counts
    every chain."""
    lengths = []
    for nid in range(len(product.nodes)):
        up = product.parent[nid]
        lengths.append(0 if up < 0 else lengths[up] + 1)
    return lengths


def _node_pairs(product):
    """The product's nodes as `(left, right)` pairs."""
    return list(zip(product.left, product.right))


def _first_edges(product):
    """The product's tree as a dict from each non-start node to its first
    edge's `(parent, label)`."""
    return {n: (up, product.via[n]) for n, up in enumerate(product.parent) if up >= 0}


def _edge_pairs(product):
    """Per node, its stored edges as a list of `(target, label)` pairs."""
    return [list(pairs(out)) for out in product.adj]


def test_live_marking_keeps_every_lasso():
    """On seeded random draws the product built with the live marking and
    the one built without it number the same nodes and return the same
    lasso: the marking drops only edges no accepting cycle uses, and the
    tie rule does not read Tarjan's order.  The draws include products of
    hundreds to thousands of nodes (`_large_draws`)."""
    rng = random.Random(29)
    alphabet = ["a", "b", "c", "d"]
    lassos = 0
    draws = []
    for _ in range(200):
        graph = random_graph(rng, rng.randint(6, 60), alphabet)
        draws.append((graph, random_formula(rng, alphabet, rng.randint(1, 4))))
    for graph, phi in draws + _wide_draws(43, 80, alphabet) + _large_draws(59, 40, alphabet):
        aut = TableauAutomaton(to_nnf(phi, negate=True),
                               {label for out in graph.moves for _, label in out})
        starts = [(s, aut.initial) for s in graph.initial]
        live = aut.live_components()
        full = Product(starts, graph.moves.__getitem__, aut.delta)
        pruned = Product(starts, graph.moves.__getitem__, aut.delta, live=live)
        assert _node_pairs(pruned) == _node_pairs(full)
        assert _chain_lengths(pruned) == _chain_lengths(full)
        assert _first_edges(pruned) == _first_edges(full)
        side = [live[q] for q in full.right]
        assert _edge_pairs(pruned) == [
            [(t, x) for t, x in out if side[n] >= 0 and side[t] == side[n]]
            for n, out in enumerate(_edge_pairs(full))]
        found = [p.lasso(lambda scc, members, p=p: p.fulfils(aut, p.right, scc),
                         p.goals(aut, p.right)) for p in (full, pruned)]
        assert found[0] == found[1]
        lassos += found[0] is not None
    assert lassos > 50


def _reference_product(starts, step, successors, live=None):
    """The product built with one tuple-keyed id dict and one
    `successors(right, label)` call per edge: the nodes, first edges,
    depths and stored edges `Product` must give."""
    ids, nodes, parent, depth, adj = {}, [], {}, [], []

    def add(node, below):
        if node not in ids:
            ids[node] = len(nodes)
            nodes.append(node)
            depth.append(below)
            adj.append([])
        return ids[node]

    for node in starts:
        add(node, 0)
    nid = 0
    while nid < len(nodes):
        left, right = nodes[nid]
        for left2, label in step(left):
            for right2 in successors(right, label):
                known = (left2, right2) in ids
                tgt = add((left2, right2), depth[nid] + 1)
                if not known:
                    parent[tgt] = (nid, label)
                if live is None or live[right] >= 0 and live[right2] == live[right]:
                    adj[nid].append((tgt, label))
        nid += 1
    return nodes, parent, depth, adj


def _assert_matches_reference(built, reference):
    """`built` has the reference's nodes, first edges and stored edges,
    and each node's `parent` chain is as long as its reference depth.  The
    reference's depths never decrease as the id grows, which is what lets
    the lasso search's tie rule read node ids alone."""
    nodes, parent, depth, adj = reference
    assert all(d <= e for d, e in zip(depth, depth[1:]))
    assert (_node_pairs(built), _first_edges(built), _chain_lengths(built),
            _edge_pairs(built)) == (nodes, parent, depth, adj)


def test_product_matches_the_reference_builder(vm_graphs, vm_props):
    """On the VM graphs with every catalogue property and on seeded random
    draws, the largest with products of hundreds to thousands of nodes,
    `Product` over the automaton's rows gives the reference builder's
    nodes, first edges, depths (as `parent` chain lengths) and stored
    edges, with and without the live marking; `ProjectionProduct`
    gives those of the reference stepping `b` by the projection, for
    formula pairs over {a, b, z} with beta {a, b}."""
    rng = random.Random(37)
    alphabet = ["a", "b", "c", "d"]
    draws = [(vm_graphs[m], phi) for m in ("VM1", "VM2", "VM4") for phi in vm_props.values()]
    for _ in range(200):
        graph = random_graph(rng, rng.randint(6, 60), alphabet)
        draws.append((graph, random_formula(rng, alphabet, rng.randint(1, 4))))
    large = _large_draws(53, 40, alphabet)
    sizes = []
    for graph, phi in draws + _wide_draws(47, 80, alphabet) + large:
        aut = TableauAutomaton(to_nnf(phi, negate=True), graph.labels)
        starts = [(s, aut.initial) for s in graph.initial * 2]  # a repeat is one node
        for live in (None, aut.live_components()):
            built = Product(starts, graph.moves.__getitem__, aut.delta, live=live)
            _assert_matches_reference(built, _reference_product(
                starts, graph.moves.__getitem__, lambda q, x: aut.delta[q][x], live))
        sizes.append(len(built.nodes))
    large_sizes = sorted(sizes[-len(large):])
    assert large_sizes[len(large) // 2] >= 100 and large_sizes[-1] >= 1000
    beta, letters = frozenset({"a", "b"}), {"a", "b", "z"}
    for _ in range(200):
        a, b = (TableauAutomaton(to_nnf(random_formula(rng, sorted(letters), rng.randint(1, 4)),
                                        negate=rng.random() < 0.5), letters)
                for _ in range(2))
        built = automata.ProjectionProduct(a, b, beta)
        _assert_matches_reference(built, _reference_product(
            [(a.initial, b.initial)], a.moves.__getitem__,
            lambda qb, x: b.delta[qb][x] if x in beta else (qb,)))


def test_product_work_counts_on_vm4():
    """The mc-product workload's large formula on VM4 at capacity 12: the
    product's node count, stored edges and nodes with a live right state."""
    graph = explore(parse_machine_file(corpus_root() / "vm" / "vm4.eb", {"capacity": 12}))
    phi = parse_formula("[selectChoc] U G (([pay] & [refund]) U (true & [refund]))")
    product = automata.CounterexampleSearch(graph, phi, 10**6)
    assert len(product.nodes) == 24536
    assert sum(map(len, product.adj)) == 2 * 148722  # target and label per edge
    assert sum(product.live[q] >= 0 for q in product.right) == 18360


def test_product_memory_on_vm4():
    """The same product, measured with tracemalloc: it stores flat lists,
    with no tuple per stored edge, so it holds under half the 15.6 MiB
    the `(target, label)` pair layout held (5.3-5.4 MiB on CPython 3.10 and
    3.11, 64-bit)."""
    graph = explore(parse_machine_file(corpus_root() / "vm" / "vm4.eb", {"capacity": 12}))
    phi = parse_formula("[selectChoc] U G (([pay] & [refund]) U (true & [refund]))")
    graph.moves, graph.labels  # views built on first read are the graph's, not the product's
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        product = automata.CounterexampleSearch(graph, phi, 10**6)
        size = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(product.nodes) == 24536
    assert all(out == () or type(out) is list for out in product.adj)
    assert all(type(t) is int and type(x) is str for out in product.adj for t, x in pairs(out))
    assert size < 7.8 * 2**20


def test_graph_record_memory_on_vm4():
    """The explored VM4 graph at capacity 12 (3172 states, 9638 firings),
    measured with tracemalloc, apart from the state tuples the generated
    code builds: its firing record is flat arrays and its breadth-first
    tree two lists, 32-34 B per firing with the state list on CPython
    3.10-3.12, 64-bit.  One tuple per firing with a tuple of after-states,
    and the tree as two dicts, held about 180 B per firing."""
    machine = parse_machine_file(corpus_root() / "vm" / "vm4.eb", {"capacity": 12})
    compile_machine(machine)  # the compiled tables are the machine's, not the graph's
    tracemalloc.start()
    try:
        graph = explore(machine)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    kept = snapshot.filter_traces([tracemalloc.Filter(False, "<ebltl>")])
    size = sum(t.size for t in kept.traces)
    assert (len(graph.states), len(graph.firings)) == (3172, 9638)
    assert type(graph.firings.targets) is array and type(graph.tree[0]) is array
    assert size < 48 * len(graph.firings)


def test_automata_are_built_whole(monkeypatch):
    """Every automaton the model checker and the beta decision build, on
    seeded random draws, is closed under its letters when its constructor
    returns: each successor id names a state of the table, `moves[q]` is
    `delta[q]` flattened letter by letter, and building and searching
    the products adds no state."""
    built = []

    class Recorded(TableauAutomaton):
        def __init__(self, root, letters):
            super().__init__(root, letters)
            built.append((self, sorted(letters), len(self.moves)))

    monkeypatch.setattr(automata, "TableauAutomaton", Recorded)
    monkeypatch.setattr(preserve, "TableauAutomaton", Recorded)
    rng = random.Random(31)
    for _ in range(60):
        graph = random_graph(rng, rng.randint(6, 40), ["a", "b", "c"])
        model_check(graph, random_formula(rng, ["a", "b", "c"], rng.randint(1, 4)))
        phi = random_formula(rng, ["a", "b"], rng.randint(1, 4))
        preserve.check_beta_dependent(phi, {"a", "b"}, {"a", "b", "z"})
    assert len(built) == 180
    for aut, letters, size in built:
        assert len(aut.moves) == size
        for q, moves in enumerate(aut.moves):
            assert all(q2 < size for q2, _ in moves)
            assert moves == [(q2, x) for x in letters for q2 in aut.delta[q][x]]


def _reference_tarjan(n, adj, roots):
    """Recursive textbook Tarjan: the order `search.tarjan` must keep."""
    index, low, on_stack, stack, sccs = {}, {}, set(), [], []

    def visit(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        for w, _ in adj[v]:
            if w not in index:
                visit(w)
                low[v] = min(low[v], low[w])
            elif w in on_stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            comp = []
            while True:
                w = stack.pop()
                on_stack.discard(w)
                comp.append(w)
                if w == v:
                    break
            sccs.append(comp)

    for v in range(n) if roots is None else roots:
        if v not in index:
            visit(v)
    return sccs


def test_tarjan_matches_the_recursive_reference():
    """Same components, in the same order with the same member order, as
    the recursive reference on seeded random graphs, from every node and
    from a random subset of roots."""
    rng = random.Random(5)
    for _ in range(500):
        n = rng.randint(1, 40)
        adj = [[(rng.randrange(n), "e") for _ in range(rng.choice([0, 1, 2, 3]))]
               for _ in range(n)]
        flat = [[v for edge in out for v in edge] for out in adj]
        roots = rng.sample(range(n), rng.randint(0, n))
        assert tarjan(n, flat) == _reference_tarjan(n, adj, None)
        assert tarjan(n, flat, roots) == _reference_tarjan(n, adj, roots)


def test_tarjan_on_deep_graphs():
    """A 200 000-node cycle is one component and a 200 000-node path is n
    singletons in reverse topological order, from every node and from a
    subset of roots, with no recursion and in time linear in the graph:
    a recursive search overflows, and a quadratic stack scan overruns
    the bound."""
    n = 200_000
    cycle = [[(v + 1) % n, "e"] for v in range(n)]
    path = [[v + 1, "e"] for v in range(n - 1)] + [[]]
    for run, want in [
        (lambda: tarjan(n, cycle), [[*range(n - 1, 0, -1), 0]]),
        (lambda: tarjan(n, path), [[v] for v in range(n - 1, -1, -1)]),
        (lambda: tarjan(n, path, [n // 2, n // 4]), [[v] for v in range(n - 1, n // 4 - 1, -1)]),
    ]:
        start = time.perf_counter()
        got = run()
        elapsed = time.perf_counter() - start
        assert got == want
        assert elapsed < 1, f"tarjan took {elapsed:.2f}s on {n} nodes"


def _reference_bfs(sources, adj, goal=None, within=None):
    """Deque-and-predicate breadth-first search over pair lists: the tree
    and hit `search.bfs` must give, `goal` a predicate on nodes."""
    parent = dict.fromkeys(sources, -1)
    via: dict = {}
    queue = deque(parent)
    while queue:
        node = queue.popleft()
        for succ, label in adj[node]:
            if goal is not None and goal(succ):
                return parent, via, (node, label, succ)
            if succ not in parent and (within is None or succ in within):
                parent[succ] = node
                via[succ] = label
                queue.append(succ)
    return parent, via, None


class _GoalSet(frozenset):
    """A goal set that is also its own predicate: `bfs` reads it as a set
    and `_reference_bfs` calls it."""
    __call__ = frozenset.__contains__


def test_bfs_matches_the_reference():
    """The same tree, in the same dict order, and the same hit as the
    reference on seeded random graphs, for random sources, goal sets and
    `within` sets; and `path_inside` from a source that is a goal, with
    and without a step, gives the reference's path."""
    rng = random.Random(17)
    for _ in range(400):
        n = rng.randint(1, 40)
        adj = [[(rng.randrange(n), rng.choice("abc")) for _ in range(rng.choice([0, 1, 2, 3]))]
               for _ in range(n)]
        flat = [[v for edge in out for v in edge] for out in adj]
        sources = [rng.randrange(n) for _ in range(rng.randint(1, 3))]
        goals = _GoalSet(rng.sample(range(n), rng.randint(0, min(n, 3))))
        within = rng.choice([None, set(rng.sample(range(n), rng.randint(0, n)))])
        got = bfs(sources, flat, goals, within)
        want = _reference_bfs(sources, adj, goals, within)
        assert [list(got[0].items()), list(got[1].items()), got[2]] == \
            [list(want[0].items()), list(want[1].items()), want[2]]
        assert list(bfs(sources, flat)[0].items()) == list(_reference_bfs(sources, adj)[0].items())
        for scc in tarjan(n, flat):
            if not nontrivial(scc, flat):
                continue
            members, source = set(scc), rng.choice(scc)
            goals = _GoalSet({source, *rng.sample(scc, rng.randint(0, len(scc)))})
            assert path_inside(flat, members, source, goals, need_step=False) == ([], source)
            parent, via, (node, label, goal) = _reference_bfs([source], adj, goals, members)
            assert path_inside(flat, members, source, goals, need_step=True) == \
                (path_to(parent, via, node) + [label], goal)


def test_edge_label_outside_the_alphabet():
    """make_graph does not check edge labels against its alphabet; the
    live marking reads the labels, so an outside label z still model
    checks, to the verdicts an unmarked product gives."""
    graph = make_graph(3, [0], [(0, "a", 1), (1, "z", 1), (1, "a", 2), (2, "z", 2)], ["a"])
    verdict = model_check(graph, parse_formula("G F [a]"))
    assert not verdict.holds
    assert verdict.counterexample.render() == "a, z | (z)^\u03c9"
    assert model_check(graph, parse_formula("F G ![a]")).holds


def test_tableau_tables_are_pinned():
    """Both polarities of seeded random formulas over a-d, built over a-d
    and one letter no formula names, hashed against a pinned digest: the
    rows, the moves, each state's obligations, the Untils, which states
    accept the empty word and the live components.  A change in how
    obligations are keyed, ordered or expanded renumbers some state and
    shows here."""
    rng = random.Random(41)
    alphabet, letters = ["a", "b", "c", "d"], {"a", "b", "c", "d", "z"}
    digest = hashlib.sha256()
    states = 0
    for _ in range(300):
        phi = random_formula(rng, alphabet, rng.randint(1, 4))
        for negate in (False, True):
            aut = TableauAutomaton(to_nnf(phi, negate=negate), letters)
            n = len(aut.moves)
            states += n
            digest.update(json.dumps([
                aut.delta, aut.moves,
                [sorted(map(automata.nnf_key, aut.obligations(q))) for q in range(n)],
                [automata.nnf_key(f) for f in aut.untils],
                [aut.accepts_empty(q) for q in range(n)],
                aut.live_components()]).encode())
    assert states == 1590
    assert digest.hexdigest() == "7310dd3f3e2cc0203c4390b3e30f31ff2c1776170766a1858d05c34da1b4e53f"


def test_deep_tableau_tables_are_pinned():
    """The same hash as `test_tableau_tables_are_pinned` over 300 seeded
    formulas of depth 5, whose states hold many more obligations: a change
    in how a state's branches are combined renumbers some state here."""
    rng = random.Random(9)
    alphabet, letters = ["a", "b", "c", "d"], {"a", "b", "c", "d", "z"}
    digest = hashlib.sha256()
    states = 0
    for _ in range(300):
        phi = random_formula(rng, alphabet, 5)
        for negate in (False, True):
            aut = TableauAutomaton(to_nnf(phi, negate=negate), letters)
            n = len(aut.moves)
            states += n
            digest.update(json.dumps([
                aut.delta, aut.moves,
                [sorted(map(automata.nnf_key, aut.obligations(q))) for q in range(n)],
                [automata.nnf_key(f) for f in aut.untils],
                [aut.accepts_empty(q) for q in range(n)],
                aut.live_components()]).encode())
    assert states == 6379
    assert digest.hexdigest() == "6376d3f98858bb8f38f371420791676192802b98c599c0ac15dd2226fd183986"


@contextlib.contextmanager
def _within(seconds: float):
    """Fail the enclosed block with TimeoutError once `seconds` pass."""
    def expire(signum, frame):
        raise TimeoutError(f"took longer than {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_expansion_is_not_exponential_in_repeated_choices(vm_graphs):
    """A state's branches are combined operand by operand, so choices that
    collapse to a few branches are never enumerated one combination at a
    time: a deep negated formula and a property of 22 equal disjuncts
    each build in well under the bound."""
    phi = parse_formula("F !([d] & [d] & [a] U [d]) U F F G [a] U (([c] | [a]) & [b])"
                        " U ([d] & [b]) U ([a] & [d])")
    with _within(2):
        aut = TableauAutomaton(to_nnf(phi, negate=True), {"a", "b", "c", "d", "z"})
    assert len(aut.moves) == 41
    one = model_check(vm_graphs["VM1"], parse_formula("G ![selectChoc]"))
    with _within(2):
        many = model_check(vm_graphs["VM1"], parse_formula(" | ".join(["G ![selectChoc]"] * 22)))
    assert not many.holds
    assert many.counterexample == one.counterexample
