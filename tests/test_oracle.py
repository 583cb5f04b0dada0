"""The brute-force oracle and the differential harness."""
from __future__ import annotations

import hashlib
import json
import random
import shutil

import pytest

from ebltl import cli, search
from ebltl.errors import EnumerationBudgetError, ToolkitBug
from ebltl.formulas import And, Atom, Formula, Globally, TRUE, parse_formula
from ebltl.ltl import holds_on_trace, model_check
import ebltl.oracle as oracle
from ebltl.oracle import (
    OracleBounds, _bounded_traces, _compare_on, _enumerate, _GraphTables,
    _truth_program, corpus_root, cross_validate, load_corpus, load_entry,
    oracle_holds_on, oracle_model_check, random_formula, random_graph,
    trace_realizable,
)
from ebltl.semantics import StateGraph, explore, make_graph
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


def test_oracle_budget_bounds_the_closed_walk_search():
    """Three self-loops and a cycle bound of 30 make 3^30 closed walks:
    the step budget, not the bound, ends the enumeration."""
    g = make_graph(1, [0], [(0, e, 0) for e in "abc"], ["a", "b", "c"])
    with pytest.raises(EnumerationBudgetError):
        oracle_model_check(g, TRUE,
                           OracleBounds(prefix=2, cycle=30, budget=50_000))


def test_oracle_verdicts_are_pinned():
    """400 seeded (graph, formula, bounds) draws, budgets from 50 steps to
    the default: the sha256 of every verdict report, or of the budget
    error's message, pins the traces enumerated, their order, the
    counterexamples, `traces_checked` and the exact step at which the
    budget runs out."""
    rng = random.Random(20261018)
    alphabet = ["a", "b", "c"]
    reports = hashlib.sha256()
    outcomes = {"holds": 0, "refuted": 0, "budget": 0}
    for _ in range(400):
        graph = random_graph(rng, rng.randint(2, 12), alphabet)
        phi = random_formula(rng, alphabet, rng.randint(1, 5))
        bounds = OracleBounds(prefix=rng.randint(0, 5), cycle=rng.randint(1, 5),
                              finite=rng.randint(0, 7),
                              budget=rng.choice([50, 300, 2_000, 20_000, 2_000_000]))
        try:
            verdict = oracle_model_check(graph, phi, bounds)
        except EnumerationBudgetError as exc:
            outcomes["budget"] += 1
            reports.update(f"budget {exc}\n".encode())
            continue
        outcomes["holds" if verdict.holds else "refuted"] += 1
        reports.update(json.dumps(verdict.to_json_dict(), sort_keys=True).encode() + b"\n")
    assert outcomes == {"holds": 152, "refuted": 229, "budget": 19}
    assert reports.hexdigest() == \
        "a319e01e32468449e02db7890fb9f304d6daa94dad9146df7441f5580ba98c6a"


def _outcome(check):
    """A verdict report, or the budget error's message."""
    try:
        return check().to_json_dict()
    except EnumerationBudgetError as exc:
        return f"budget {exc}"


def test_shared_graph_tables_match_fresh_checks(monkeypatch):
    """Several formulas and bounds run on one graph through one set of
    `_GraphTables`, as `cross_validate` shares them, give exactly the
    verdicts, the counterexamples, `traces_checked` and the budget outcomes
    of fresh `oracle_model_check` calls, and the same comparison rows.
    Budgets rise and fall, so a walk list cut short by a small budget is
    rebuilt for a check with more steps left, and one cut short by a large
    budget serves a check with fewer; the cycle bounds reach past the
    default, as counterexample-widened bounds do."""
    built = []
    closed_walks = oracle._closed_walks

    def recording(origin, moves, cycle_bound, limit):
        found, finished = closed_walks(origin, moves, cycle_bound, limit)
        built.append(finished)
        return found, finished

    rng = random.Random(7)
    alphabet = ["a", "b", "c"]
    outcomes = set()
    reused_cut = 0
    for g in range(25):
        graph = random_graph(rng, rng.randint(2, 10), alphabet)
        # TRUE never refutes, so its checks walk every list to the end
        phis = [random_formula(rng, alphabet, rng.randint(1, 4)) for _ in range(3)] + [TRUE]
        runs = [OracleBounds(prefix=rng.randint(0, 4), cycle=cycle,
                             finite=rng.randint(0, 6), budget=budget)
                for cycle in (3, 12)
                for budget in (300, 60, 400, 2_000, 20_000, 300, 60)]
        fresh = [[_outcome(lambda: oracle_model_check(graph, phi, bounds))
                  for bounds in runs] for phi in phis]
        fresh_rows = [_compare_on(f"g{g}", "phi", graph, phi, None, bounds,
                                  _GraphTables(graph))
                      for phi in phis for bounds in runs]
        monkeypatch.setattr(oracle, "_closed_walks", recording)
        tables = _GraphTables(graph)
        fetch = tables.walks

        def watched(origin, cycle_bound, left):
            nonlocal reused_cut
            before = len(built)
            found = fetch(origin, cycle_bound, left)
            cut = tables._walks[origin, cycle_bound][0]
            reused_cut += len(built) == before and cut is not None
            return found

        tables.walks = watched
        shared = [[_outcome(lambda: _enumerate(graph, tables, _truth_program(phi), bounds))
                   for bounds in runs] for phi in phis]
        shared_rows = [_compare_on(f"g{g}", "phi", graph, phi, None, bounds, tables)
                       for phi in phis for bounds in runs]
        monkeypatch.setattr(oracle, "_closed_walks", closed_walks)
        assert shared == fresh
        assert shared_rows == fresh_rows
        outcomes.update(o if isinstance(o, str) else o["holds"]
                        for row in fresh for o in row)
    assert {True, False} <= outcomes and any(isinstance(o, str) for o in outcomes)
    assert built.count(False) > 0, "no walk list was cut short by a budget"
    assert reused_cut > 0, "no cut-short walk list served a later check"


def test_walk_list_reuse_rule(monkeypatch):
    """A walk list cut short at a step limit serves checks with at most that
    many steps left and is rebuilt for one more; a finished list serves
    every check."""
    limits = []
    closed_walks = oracle._closed_walks

    def recording(origin, moves, cycle_bound, limit):
        limits.append(limit)
        return closed_walks(origin, moves, cycle_bound, limit)

    monkeypatch.setattr(oracle, "_closed_walks", recording)
    # two self-loops and a cycle bound of 4: the DFS pops 1 + 2 + 4 + 8 states
    tables = _GraphTables(make_graph(1, [0], [(0, "a", 0), (0, "b", 0)], ["a", "b"]))
    cut = tables.walks(0, 4, 5)
    assert sum(pops for pops, _ in cut) == 6  # one past what 5 steps can replay
    assert tables.walks(0, 4, 5) is cut and tables.walks(0, 4, 0) is cut
    longer = tables.walks(0, 4, 6)
    assert longer is not cut and limits == [5, 6]
    full = tables.walks(0, 4, 15)
    assert sum(pops for pops, _ in full) == 15
    assert tables.walks(0, 4, 10**9) is full and tables.walks(0, 4, 1) is full
    assert limits == [5, 6, 15]


def test_oracle_catches_a_fault_in_the_checkers_moves(monkeypatch):
    """The oracle reads each graph's firing record, not the `moves` view
    the main checker reads, so a `moves` that drops every self-loop move
    after a state's first shows up as disagreements."""
    moves = StateGraph.moves.func

    def faulty(graph):
        out = []
        for s, pairs in enumerate(moves(graph)):
            loops = [move for move in pairs if move[0] == s]
            out.append([move for move in pairs if move[0] != s or move is loops[0]])
        return out

    monkeypatch.setattr(StateGraph, "moves", property(faulty))
    assert cross_validate(entries=[], random_pairs=400, seed=5).disagreements


def test_cross_validate_builds_each_walk_list_once(monkeypatch):
    """Over the bundled corpus, each graph's move table is built once and
    each (graph, state, cycle bound) walk list at most once per call; a
    second call starts cold and builds the same lists again."""
    counts = {"moves": 0}
    walks: list = []
    # every move table seen stays alive, so no two tables share an id
    alive: list = []
    sorted_moves, closed_walks = oracle._sorted_moves, oracle._closed_walks

    def counting_moves(graph):
        counts["moves"] += 1
        alive.append(sorted_moves(graph))
        return alive[-1]

    def counting_walks(origin, moves, cycle_bound, limit):
        alive.append(moves)
        walks.append((id(moves), origin, cycle_bound))
        return closed_walks(origin, moves, cycle_bound, limit)

    monkeypatch.setattr(oracle, "_sorted_moves", counting_moves)
    monkeypatch.setattr(oracle, "_closed_walks", counting_walks)
    entries = load_corpus()
    graphs = {(e.name, v.machine) for e in entries for v in e.verdicts}
    assert cross_validate(entries).ok
    first = len(walks)
    assert counts["moves"] == len(graphs)
    assert first and len(set(walks)) == first
    walks.clear()
    assert cross_validate(entries).ok
    assert len(walks) == first and counts["moves"] == 2 * len(graphs)


def test_oracle_evaluator_shares_repeated_subformulas():
    """A repeated subterm is compiled once, and formulas that repeat one
    evaluate as the recursive evaluator does on every short trace over a
    and b."""
    texts = ["F [a] & G F [a]", "([a] U [b]) | !([a] U [b])",
             "G([a] U [b]) & F([a] U [b])", "!F [a] U F [a]"]
    phis = [parse_formula(t) for t in texts]
    # [a], F [a], G F [a], the conjunction
    assert len(_truth_program(phis[0])) == 4
    rng = random.Random(3)
    for _ in range(20):
        f = random_formula(rng, ["a", "b"], rng.randint(1, 3))
        program = _truth_program(f)
        root = len(program) - 1
        assert _truth_program(And(f, f)) == program + [(And, root, root)]
        phis.append(And(f, f))
    for phi in phis:
        for u in _bounded_traces(("a", "b"), 2, 2):
            assert oracle_holds_on(u, phi) == holds_on_trace(u, phi), (phi, u)


def test_oracle_evaluator_rejects_unknown_formula_kinds():
    class Mystery(Formula):
        pass

    with pytest.raises(TypeError):
        oracle_holds_on(lasso((), ("a",)), Mystery())
    with pytest.raises(TypeError):
        oracle_holds_on(finite_trace("a"), And(Atom("a"), Mystery()))


def test_oracle_bounds_reject_out_of_range_values():
    for kwargs in ({"prefix": -1}, {"finite": -2}, {"cycle": 0}, {"cycle": -3},
                   {"prefix": 0, "cycle": 0, "finite": 0},
                   {"budget": 0}, {"budget": -5},
                   {"prefix": -1, "cycle": -3, "finite": -2, "budget": -5}):
        with pytest.raises(ValueError):
            OracleBounds(**kwargs)
    # the smallest bounds still enumerate the one-letter cycles
    g = make_graph(1, [0], [(0, "a", 0)], ["a"])
    verdict = oracle_model_check(g, parse_formula("!G [a]"),
                                 OracleBounds(prefix=0, cycle=1, finite=0, budget=1_000))
    assert not verdict.holds and verdict.counterexample == lasso((), ("a",))


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


def _reference_realizable(graph: StateGraph, trace) -> bool:
    """Realizability read off the product of the graph with the trace's
    positions: node (state, position) steps on the position's event to
    (target, next position), the last cycle position wrapping to the first.
    A lasso is realizable when a nontrivial component over cycle positions
    is reachable from an initial state at position 0, a finite trace when
    (deadlock, end) is."""
    events = trace.prefix + trace.cycle
    width = len(events) + 1
    p = len(trace.prefix)

    def after(pos: int) -> int:
        return p if trace.is_lasso and pos + 1 == len(events) else pos + 1

    adj: list[list] = [[] for _ in range(len(graph.states) * width)]
    for s, out in enumerate(graph.moves):
        for pos, event in enumerate(events):
            for t, ev in out:
                if ev == event:
                    adj[s * width + pos] += [t * width + after(pos), ev]
    comps = search.tarjan(len(adj), adj, [s * width for s in graph.initial])
    if trace.is_lasso:
        return any(search.nontrivial(comp, adj) and comp[0] % width >= p
                   for comp in comps)
    reached = {node for comp in comps for node in comp}
    return any(d * width + len(events) in reached for d in graph.deadlocks)


def _walk_events(rng: random.Random, graph: StateGraph, length: int) -> tuple:
    """The events of a random walk from an initial state, cut at a deadlock."""
    moves = graph.moves
    state = rng.choice(graph.initial)
    events = []
    for _ in range(length):
        if not moves[state]:
            break
        state, event = rng.choice(moves[state])
        events.append(event)
    return tuple(events)


def test_trace_realizable_matches_a_product_reference():
    """2 000 seeded graphs, from `random_graph` and `make_graph` with several
    targets per label and from zero to two initial states, each with finite
    and lasso traces drawn at random or read off a random walk: the stepped
    state sets agree with realizability read off the graph-by-position
    product."""
    rng = random.Random(29)
    alphabet = ["a", "b", "c"]
    outcomes = {True: 0, False: 0}
    for k in range(2_000):
        if k % 2:
            graph = random_graph(rng, rng.randint(2, 10), alphabet)
        else:
            n = rng.randint(1, 8)
            edges = {(rng.randrange(n), rng.choice("ab"), rng.randrange(n))
                     for _ in range(rng.randint(0, 3 * n))}
            graph = make_graph(n, sorted(rng.sample(range(n), rng.randint(0, min(2, n)))),
                               sorted(edges), alphabet)
        for _ in range(3):
            if graph.initial and rng.random() < 0.5:
                events = _walk_events(rng, graph, rng.randint(0, 7))
            else:
                events = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
            cut = rng.randint(0, max(len(events) - 1, 0))
            traces = [finite_trace(*events)]
            if events:
                traces.append(lasso(events[:cut], events[cut:]))
            for trace in traces:
                got = trace_realizable(graph, trace)
                assert got == _reference_realizable(graph, trace), (graph.to_json_dict(), trace)
                outcomes[got] += 1
    assert min(outcomes.values()) > 1_000, outcomes


def test_trace_realizable_reads_the_cycle_once_per_state():
    """A path of k states in an n-state graph dies on the k-th reading of
    its cycle word, k = n included, so the word is read once per graph
    state before the lasso counts as realizable; on a ring of n states the
    set changes on every reading until that bound, and the lasso holds."""
    for n in range(1, 7):
        for k in range(1, n + 1):
            # the states past the path form a ring of their own
            edges = [(i, "a", i + 1) for i in range(k - 1)]
            edges += [(i, "a", i + 1 if i + 1 < n else k) for i in range(k, n)]
            path = make_graph(n, [0], edges, ["a"])
            assert not trace_realizable(path, lasso((), ("a",))), (n, k)
            assert trace_realizable(path, finite_trace(*"a" * (k - 1))), (n, k)
        ring = make_graph(n, [0], [(i, "a", (i + 1) % n) for i in range(n)], ["a"])
        assert trace_realizable(ring, lasso((), ("a",)))
        assert trace_realizable(ring, lasso(("a",) * n, ("a",) * n))
        assert not trace_realizable(ring, finite_trace(*"a" * n))


def test_trace_realizable_stops_when_the_set_repeats():
    """A lasso whose state set repeats at a word boundary is settled there,
    not after one reading per graph state."""
    n = 500
    graph = make_graph(n, [0], [(0, "a", 0)], ["a"])

    class Counting(list):
        reads = 0

        def __getitem__(self, s):
            Counting.reads += 1
            return super().__getitem__(s)

    assert oracle._realizable(graph, Counting(oracle._sorted_moves(graph)),
                              lasso((), ("a",)))
    assert Counting.reads <= 2


def test_trace_realizable_without_initial_states_or_known_events():
    """A graph with no initial state, or with no state at all, realizes
    nothing; neither does a trace reading an event outside the alphabet."""
    for graph in (make_graph(2, [], [(0, "a", 0), (1, "a", 0)], ["a"]),
                  make_graph(0, [], [], ["a"])):
        assert not trace_realizable(graph, lasso((), ("a",)))
        assert not trace_realizable(graph, finite_trace())
    graph = make_graph(2, [0], [(0, "a", 0), (0, "b", 1)], ["a", "b"])
    assert trace_realizable(graph, lasso((), ("a",)))
    assert trace_realizable(graph, finite_trace("b"))
    assert not trace_realizable(graph, lasso((), ("z",)))
    assert not trace_realizable(graph, lasso(("a",), ("a", "z")))
    assert not trace_realizable(graph, finite_trace("z"))


@pytest.mark.parametrize("side, phi, message", [
    ("main", TRUE, "main counterexample satisfies the formula under the oracle evaluator"),
    ("main", Globally(Atom("a")), "main counterexample is not a trace of the graph"),
    ("oracle", TRUE, "oracle counterexample satisfies the formula under the main evaluator"),
    ("oracle", Globally(Atom("a")), "oracle counterexample is not a trace of the graph"),
])
def test_counterexample_replay_checks_truth_before_realizability(monkeypatch, side,
                                                                  phi, message):
    """A counterexample from either side is tested under the other side's
    evaluator first and for realizability second: `z` never occurs in the
    graph, so a counterexample reading it fails the second test, and under
    TRUE it fails the first as well and is reported for that."""
    import ebltl.ltl as ltl
    graph = make_graph(1, [0], [(0, "a", 0)], ["a"])
    bogus = lasso((), ("z",))
    if side == "main":
        monkeypatch.setattr(ltl, "model_check", lambda g, f: ltl.Verdict(False, bogus))
    else:
        monkeypatch.setattr(ltl, "model_check", lambda g, f: ltl.Verdict(True))
        monkeypatch.setattr(oracle, "_enumerate",
                            lambda *args: oracle.OracleVerdict(False, bogus))
    with pytest.raises(ToolkitBug) as caught:
        _compare_on("g", "phi", graph, phi, None, OracleBounds(), _GraphTables(graph))
    assert str(caught.value) == f"g/phi: {message}: {bogus.render()}"


def test_a_verdict_against_the_expectation_table_is_a_disagreement(tmp_path, capsys):
    """A corpus entry whose table expects the opposite of a verdict both
    checkers agree on reports that row as a disagreement, and `oracle`
    exits 1 on it."""
    directory = tmp_path / "vm"
    shutil.copytree(corpus_root() / "vm", directory)
    spec = json.loads((directory / "expected.json").read_text())
    row = next(v for v in spec["verdicts"] if (v["machine"], v["property"]) == ("VM1", "phi4"))
    assert row["holds"] is False
    row["holds"] = True
    (directory / "expected.json").write_text(json.dumps(spec))
    report = cross_validate([load_entry(directory)])
    assert [r.to_json_dict() for r in report.disagreements] == [{
        "subject": "vm/VM1", "property": "phi4", "main": False, "oracle": False,
        "expected": True, "agree": False,
        "note": "main verdict contradicts the expectation table"}]
    assert len(report.rows) == len(spec["verdicts"])
    assert cli.main(["oracle", "--corpus", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert ("DISAGREE vm/VM1 phi4: main=False oracle=False expected=True "
            "main verdict contradicts the expectation table\n") in out
    assert f"{len(report.rows)} comparison(s), 1 disagreement(s)" in out


WITHHELD = "oracle verdict withheld (budget); counterexample replay used instead"


@pytest.mark.parametrize("machine, prop, main, expected, agree, note", [
    ("VM1", "phi4", False, False, True, WITHHELD),
    ("VM4", "phi7", True, True, False, WITHHELD),
    ("VM1", "phi4", False, True, False,
     WITHHELD + "; main verdict contradicts the expectation table"),
], ids=["main-refutes", "main-holds", "wrong-expectation"])
def test_a_withheld_oracle_verdict_confirms_only_a_refutation(vm_graphs, vm_props, machine,
                                                              prop, main, expected, agree, note):
    """With a budget of one step the oracle withholds every verdict: a
    refutation still agrees, through its replayed counterexample, a verdict
    that holds does not, and a contradicted expectation adds its note after
    the budget's."""
    graph = vm_graphs[machine]
    row = _compare_on(f"vm/{machine}", prop, graph, vm_props[prop], expected,
                      OracleBounds(budget=1), _GraphTables(graph))
    assert row.to_json_dict() == {
        "subject": f"vm/{machine}", "property": prop, "main": main, "oracle": None,
        "expected": expected, "agree": agree, "note": note}
