"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of each ebltl layer from outside the
package.  A module that did `from .semantics import explore` holds its own
binding of the function, so wrapping only the defining module would miss
those calls: `install` replaces every binding of each wrapped function in
every loaded `ebltl` module (and methods on their classes), and reports any
binding it could not reach.

Spans live in memory as parallel arrays (name, start, end, parent span, op
id) and are written once, when the run ends.  Layer self time is computed
from the spans afterwards: a span's duration minus the durations of its
direct children.
"""
from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array

# layer -> wrapped functions, as (module, qualified name).  The two product
# searches inside model checking get layer names of their own so that their
# time can be reported apart from the rest of `model_check`.
LAYERS = {
    "parse": [("ebltl.machine_parser", "parse_machine_file"),
              ("ebltl.refine", "load_chain")],
    "explore": [("ebltl.semantics", "explore")],
    "po": [("ebltl.refine", "check_refinement_pair")],
    "strategy": [("ebltl.refine", "check_strategy")],
    "ca": [("ebltl.refine", "check_ca"), ("ebltl.refine", "check_theorem1")],
    "mc": [("ebltl.ltl", "model_check")],
    "mc.finite": [("ebltl.automata", "CounterexampleSearch.finite_counterexample")],
    "mc.lasso": [("ebltl.automata", "CounterexampleSearch.lasso_counterexample")],
    "eval": [("ebltl.ltl", "holds_on_trace"), ("ebltl.traces", "project_trace")],
    "beta": [("ebltl.preserve", "check_beta_dependent")],
    "cert": [("ebltl.preserve", "apply_lemma_gf"),
             ("ebltl.preserve", "apply_preservation")],
    "oracle": [("ebltl.oracle", "oracle_model_check"),
               ("ebltl.oracle", "cross_validate"),
               ("ebltl.oracle", "oracle_holds_on")],
    "cli": [("ebltl.cli", "main")],
}

# names of spans the benchmark itself opens (not ebltl functions)
BENCH_SPANS = ("bench.setup", "bench.op")


class Tracer:
    def __init__(self):
        self.active = False
        self.op_id = -1
        self.names: list[str] = list(BENCH_SPANS)
        self.layer_of: list[str | None] = [None] * len(BENCH_SPANS)
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_op = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self._stack: list[int] = []
        # work counts taken from arguments and results at the same boundary
        self.counts: dict[str, float] = {}
        self.missed: list[str] = []   # bindings left unwrapped
        self.absent: list[str] = []   # LAYERS functions that no longer exist
        self._originals: dict[int, str] = {}

    # -- span recording -----------------------------------------------------

    def begin(self, name_id: int) -> int:
        idx = len(self.s_name)
        self.s_name.append(name_id)
        self.s_parent.append(self._stack[-1] if self._stack else -1)
        self.s_op.append(self.op_id)
        self.s_end.append(0.0)
        self._stack.append(idx)
        self.s_start.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.s_end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str):
        return _Span(self, self.name_id[name])

    def count(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def read_counts(self, counter, args, kwargs, result, exc) -> None:
        """Run a work counter; one that no longer fits the result's shape
        stops counting instead of failing the op."""
        if counter is None:
            return
        try:
            counter(self, args, kwargs, result, exc)
        except (AttributeError, KeyError, TypeError, IndexError):
            self.count("trace.counter_errors")

    # -- wrapping -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every function named in LAYERS."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "ebltl" or name.startswith("ebltl."))}
        for layer, targets in LAYERS.items():
            for mod_name, qual in targets:
                owner = modules.get(mod_name)
                cls_name, _, attr = qual.rpartition(".")
                cls = getattr(owner, cls_name, None) if cls_name else None
                original = getattr(cls if cls_name else owner, attr, None)
                if original is None:
                    # renamed or removed since: its layer reads 0, and the
                    # run lists it
                    self.absent.append(f"{mod_name}.{qual}")
                    continue
                name_id = len(self.names)
                label = f"{mod_name.removeprefix('ebltl.')}.{qual}"
                self.names.append(label)
                self.layer_of.append(layer)
                self.name_id[label] = name_id
                self._originals[id(original)] = label
                wrapper = self._wrap(original, name_id, label)
                if cls is not None:
                    setattr(cls, attr, wrapper)
                    continue
                for mod in modules.values():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
        self.missed = self.unwrapped_bindings(modules)

    def unwrapped_bindings(self, modules) -> list[str]:
        """Module bindings that still point at an original function."""
        return sorted(f"{mod_name}.{key}"
                      for mod_name, mod in modules.items()
                      for key, value in vars(mod).items()
                      if id(value) in self._originals)

    def _wrap(self, original, name_id: int, label: str):
        tracer = self
        counter = COUNTERS.get(label)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            idx = tracer.begin(name_id)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                tracer.end(idx)
                tracer.read_counts(counter, args, kwargs, None, exc)
                raise
            tracer.end(idx)
            tracer.read_counts(counter, args, kwargs, result, None)
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span-name self time, inclusive time, and call count."""
        n = len(self.s_name)
        child = [0.0] * n
        dur = [self.s_end[i] - self.s_start[i] for i in range(n)]
        for i in range(n):
            p = self.s_parent[i]
            if p >= 0:
                child[p] += dur[i]
        self_t: dict[str, float] = {}
        incl: dict[str, float] = {}
        calls: dict[str, int] = {}
        for i in range(n):
            name = self.names[self.s_name[i]]
            self_t[name] = self_t.get(name, 0.0) + dur[i] - child[i]
            incl[name] = incl.get(name, 0.0) + dur[i]
            calls[name] = calls.get(name, 0) + 1
        return self_t, incl, calls

    def layer_totals(self) -> dict[str, dict]:
        """Per layer: summed self time and number of calls."""
        self_t, _incl, calls = self.self_times()
        out = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        for name, layer in zip(self.names, self.layer_of):
            if layer is not None:
                out[layer]["self_s"] += self_t.get(name, 0.0)
                out[layer]["calls"] += calls.get(name, 0)
        return out

    def write(self, path) -> None:
        doc = {
            "names": self.names,
            "layers": self.layer_of,
            "columns": ["name", "start", "end", "parent", "op"],
            "name": self.s_name.tolist(),
            "start": self.s_start.tolist(),
            "end": self.s_end.tolist(),
            "parent": self.s_parent.tolist(),
            "op": self.s_op.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)


class _Span:
    def __init__(self, tracer: Tracer, name_id: int):
        self.tracer = tracer
        self.name_id = name_id
        self.idx = -1

    def __enter__(self):
        if self.tracer.active:
            self.idx = self.tracer.begin(self.name_id)
        return self

    def __exit__(self, *exc):
        if self.idx >= 0:
            self.tracer.end(self.idx)
        return False


# -- work counters, read at the layer boundary ------------------------------

def _explore(t: Tracer, args, kwargs, graph, exc):
    if graph is not None:
        t.count("explore.states", len(graph.states))
        t.count("explore.edges", len(graph.edges))


def _po(t: Tracer, args, kwargs, report, exc):
    if report is not None:
        t.count("po.checks", sum(r.checked for r in report.results.values()))
        t.count("po.abstract_universe", report.bounds.get("abstract_universe", 0))


def _mc(t: Tracer, args, kwargs, verdict, exc):
    graph = args[0] if args else kwargs.get("graph")
    t.count("mc.graph_edges", len(graph.edges))
    if exc is not None and type(exc).__name__ == "ExplorationLimitError":
        t.count("mc.limit_hits")


def _beta(t: Tracer, args, kwargs, verdict, exc):
    if verdict is not None:
        t.count("beta.traces_checked", verdict.bounds.get("traces_checked", 0))
        t.count("beta.unknown", verdict.status == "unknown")


def _oracle_mc(t: Tracer, args, kwargs, verdict, exc):
    if verdict is not None:
        t.count("oracle.traces_checked", verdict.traces_checked)


COUNTERS = {
    "semantics.explore": _explore,
    "refine.check_refinement_pair": _po,
    "ltl.model_check": _mc,
    "preserve.check_beta_dependent": _beta,
    "oracle.oracle_model_check": _oracle_mc,
}
