"""Command-line front end.

One subcommand per concept: parse, explore, po (pair obligations),
strategy, mc (model check), beta (dependence), translate, gf (recurrent
origin rule), preserve (preservation rule), oracle (differential run).

Exit codes: 0 everything passed / property holds; 1 a property, obligation
or strategy rule failed (witnesses are reported); 2 a certificate was
blocked by a failed hypothesis; 3 usage, parse or typecheck error;
4 a configured bound was exhausted; 70 an internal cross-check failed.
Warnings go to stderr, one `warning: ...` line each.

A call builds only its own subcommand's parser, because building all
eleven costs about as much as a short `beta` decision; help, version and
top-level usage errors still go through the full parser.

Every `--json` report and `explore --format graph` is written by
`_json_chunks`, in pieces: a dict key by key, and each leaf by
`_json_text`, the text of `json.dumps(indent=2, sort_keys=True)` for
dicts with str keys, lists, tuples, str, int, bool and None, with the C
string encoder.  A graph (`explore --json`, `--format graph` and
`--format edgelist`) is written as it is read from its record of firings
and its state tuples, in pieces of at most `_BATCH` states or edges, so
neither its dict form nor its whole text is ever held.  The text of
`explore` is written the same way, its `--verbose` state lines `_BATCH`
lines a piece.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
import warnings
from functools import partial
from itertools import chain, islice, pairwise
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Iterator

from . import __version__
from .errors import (
    EbltlError, EnumerationBudgetError, ExplorationLimitError,
    InvariantViolation, ParseError, ToolkitBug,
)
from .formulas import Formula, formula_to_text, parse_formula, parse_property_file
from .ltl import alphabet as formula_alphabet, model_check
from .machine_ast import machine_to_text
from .machine_parser import parse_machine_file
from .oracle import OracleBounds, corpus_root, cross_validate, load_corpus
from .preserve import (
    apply_lemma_gf, apply_preservation, check_beta_dependent, translate_formula,
)
from .refine import (
    check_refinement_pair, check_strategy, check_theorem1, compose_renamings,
    explore_chain, load_chain,
)
from .semantics import (
    MAX_STATES, GraphVerdict, StateGraph, check_deadlock_free, explore, require_feasible,
    value_to_json,
)

OK, FAILURE, BLOCKED, USAGE, EXHAUSTED, INTERNAL = 0, 1, 2, 3, 4, 70


def _json_text(value, indent: str = "\n") -> str:
    """`json.dumps(value, indent=2, sort_keys=True)`; `indent` closes `value`."""
    t = type(value)
    if t is str:
        return encode_basestring_ascii(value)
    if t is int or t is bool or value is None:
        return repr(value) if t is int else \
            "null" if value is None else "true" if value else "false"
    inner = indent + "  "
    if t is dict:  # a key other than a str raises TypeError
        items, ends = [f"{inner}{encode_basestring_ascii(k)}: {_json_text(value[k], inner)}"
                       for k in sorted(value)], "{}"
    elif t is list or t is tuple:
        items, ends = [inner + _json_text(v, inner) for v in value], "[]"
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
    return f"{ends[0]}{','.join(items)}{indent}{ends[1]}" if items else ends


# the most states, edges or edge-list lines in one piece of a graph report
_BATCH = 4096


def _batches(texts: Iterator[str]) -> Iterator[list[str]]:
    while batch := list(islice(texts, _BATCH)):
        yield batch


def _json_chunks(value, indent: str = "\n") -> Iterator[str]:
    """The text of `_json_text(value, indent)`, with each `StateGraph` in
    `value` taken as its `to_json_dict()`, in pieces: a dict key by key, a
    graph as its `_graph_fields`, an item writer (a callable from the items'
    indent to their texts) as a list of at most `_BATCH` items a piece, and
    anything else whole."""
    if type(value) is StateGraph:
        value = _graph_fields(value)
    if callable(value):
        opening = "["
        for batch in _batches(value(indent + "  ")):
            yield opening + ",".join(batch)
            opening = ","
        yield "[]" if opening == "[" else indent + "]"
    elif type(value) is dict and value:
        inner, opening = indent + "  ", "{"
        for k in sorted(value):
            yield f"{opening}{inner}{encode_basestring_ascii(k)}: "
            yield from _json_chunks(value[k], inner)
            opening = ","
        yield indent + "}"
    else:
        yield _json_text(value, indent)


def _graph_fields(graph: StateGraph) -> dict:
    """The fields of `graph.to_json_dict()`, with item writers in place of
    its state and edge lists, so that neither list is built."""
    return {
        "machine": graph.machine.name if graph.machine else None,
        "variables": list(graph.var_names),
        "states": partial(_state_texts, graph),
        "initial": list(graph.initial),
        "edges": partial(_edge_texts, graph),
        "deadlocks": list(graph.deadlocks),
        "alphabet": list(graph.alphabet),
        "bounds": graph.bounds,
    }


def _state_parts(graph: StateGraph, key_text, value_text) -> Iterator[list[str]]:
    """Each state's variables in name order, from its tuple, as
    `key_text(name) + value_text(value_to_json(value))`.  Each distinct
    value of a variable is rendered once, keyed by its type and value,
    since `True == 1`."""
    slots = {name: i for i, name in enumerate(graph.var_names)}
    columns = [(slots[name], key_text(name), {}) for name in sorted(slots)]
    for state in graph.states:
        parts = []
        for i, head, texts in columns:
            value = state[i]
            text = texts.get((type(value), value))
            if text is None:
                text = texts[type(value), value] = head + value_text(value_to_json(value))
            parts.append(text)
        yield parts


def _state_texts(graph: StateGraph, indent: str) -> Iterator[str]:
    """Each state's JSON object at `indent`."""
    key, close = indent + "  ", indent + "}"
    for parts in _state_parts(graph, lambda name: f"{key}{encode_basestring_ascii(name)}: ",
                              partial(_json_text, indent=key)):
        yield f"{indent}{{{','.join(parts)}{close}" if parts else indent + "{}"


def _state_lines(graph: StateGraph) -> Iterator[str]:
    """`explore --verbose`'s line for each state: `json.dumps` of its
    `state_json`, with sorted keys."""
    parts = _state_parts(graph, lambda name: f"{encode_basestring_ascii(name)}: ",
                         partial(json.dumps, sort_keys=True))
    for n, items in enumerate(parts):
        yield f"  state {n}: {{{', '.join(items)}}}\n"


def _edge_texts(graph: StateGraph, indent: str) -> Iterator[str]:
    """Each edge's JSON object at `indent`, in record order.  The text up to
    its source is rendered once per event and valuation object: an explored
    graph's valuations are tuples shared by its compiled parameter tables,
    and identity never takes `True` for `1`."""
    record, key = graph.firings, indent + "  "
    events = [encode_basestring_ascii(name) for name in record.events]
    heads: dict[tuple[int, int], str] = {}
    tgt, close = f',{key}"tgt": ', indent + "}"
    targets = record.targets
    for src, e, params, (a, b) in zip(record.src, record.event, record.params,
                                      pairwise(record.start)):
        head = heads.get((e, id(params)))
        if head is None:
            valuation = _json_text([[n, value_to_json(v)] for n, v in params], key)
            head = heads[e, id(params)] = (f'{indent}{{{key}"event": {events[e]},'
                                           f'{key}"params": {valuation},{key}"src": ')
        for t in targets[a:b]:
            yield f"{head}{src}{tgt}{t}{close}"


def _edge_list_chunks(graph: StateGraph) -> Iterator[str]:
    """`graph.edge_lines()` in pieces of at most `_BATCH` lines; a graph
    without edges gives one empty line."""
    empty = True
    for batch in _batches(graph.edge_lines()):
        yield "".join(batch)
        empty = False
    if empty:
        yield "\n"


class _Reporter:
    def __init__(self, command: str, as_json: bool):
        self.command = command
        self.as_json = as_json
        self.lines: list[str] = []
        self.result: dict = {}
        self.pieces: Iterable[str] | None = None  # a text report written piece by piece

    def say(self, text: str):
        self.lines.append(text)

    def emit(self, exit_code: int) -> int:
        """Write the report; a reader that closes the pipe early (`| head`)
        ends the output quietly, and the command keeps its exit code.  A
        `--json` report is written as `_json_chunks` gives it, and a text
        report set as `pieces` piece by piece; any other text report in one
        write."""
        if self.as_json:
            envelope = {
                "tool": "ebltl",
                "version": __version__,
                "command": self.command,
                "exit": exit_code,
                "result": self.result,
            }
            pieces = chain(_json_chunks(envelope), ("\n",))
        else:
            pieces = self.pieces or ("".join(line + "\n" for line in self.lines),)
        try:
            for piece in pieces:
                sys.stdout.write(piece)
            sys.stdout.flush()
        except BrokenPipeError:
            # what is still buffered goes to devnull at the flush at shutdown
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return exit_code


def _ascii_int(text: str) -> int | None:
    """`text` as an integer if it is an optional `-` and ASCII digits."""
    return int(text) if re.fullmatch(r"-?[0-9]+", text) else None


def _overrides(args) -> dict[str, int]:
    out: dict[str, int] = {}
    for item in args.overrides:
        name, eq, text = item.partition("=")
        value = _ascii_int(text) if eq and name.isascii() and name.isidentifier() else None
        if value is None:
            raise EbltlError(f"bad --set argument {item!r}, expected NAME=INT")
        out[name] = value
    return out


def _resolve_props(value: str, anchor: Path | None,
                   one: bool = False) -> dict[str, Formula]:
    """A property argument is a formula, @file, or a name defined in the
    props.ltl next to the chain/machine it is used with.  An @file must
    hold at least one property, and exactly one when `one` is set."""
    if value.startswith("@"):
        path = Path(value[1:])
        props = parse_property_file(path.read_text(encoding="utf-8"))
        if not props or (one and len(props) > 1):
            raise EbltlError(f"--prop {value} holds {len(props)} properties, expected "
                             f"{'exactly one' if one else 'at least one'}")
        return props
    try:
        return {"prop": parse_formula(value)}
    except ParseError:
        if anchor is not None:
            table = anchor if anchor.is_file() else anchor / "props.ltl"
            if table.name != "props.ltl":
                table = table.parent / "props.ltl"
            if table.exists():
                named = parse_property_file(table.read_text(encoding="utf-8"))
                if value in named:
                    return {value: named[value]}
        raise


def _cmd_parse(args, rep: _Reporter) -> int:
    machine = parse_machine_file(args.machine, _overrides(args))
    rep.say(f"machine {machine.name}: {len(machine.sym.var_names)} variable(s), "
            f"{len(machine.events)} event(s)")
    rep.say(f"alphabet: {', '.join(machine.alphabet())}")
    rep.result = {
        "machine": machine.name,
        "refines": machine.refines,
        "variables": list(machine.sym.var_names),
        "events": [
            {"name": e.name, "status": e.effective_status, "refines": e.refines}
            for e in machine.events
        ],
        "normalized": machine_to_text(machine),
    }
    return OK


def _cmd_explore(args, rep: _Reporter) -> int:
    machine = parse_machine_file(args.machine, _overrides(args))
    graph = require_feasible(explore(machine, args.bound_states))
    # explore raises at the first state that breaks the invariant or leaves
    # a declared domain, so every state of its graph has passed both checks
    inv = GraphVerdict(True, detail=f"{len(graph.states)} states checked as explored")
    dead = check_deadlock_free(graph)
    # both verdicts, and with them `graph.deadlocks`, are computed before the
    # report's first byte; the graph is written as it is read (`_json_chunks`)
    if rep.as_json:  # --json shows no text report, so none is built
        rep.result = {
            "graph": graph,
            "invariant": inv.to_json_dict(),
            "deadlock_free": dead.to_json_dict(),
        }
        return OK
    if args.format != "summary":
        rep.pieces = _edge_list_chunks(graph) if args.format == "edgelist" \
            else chain(_json_chunks(graph), ("\n",))
        return OK
    head = (f"{machine.name}: {len(graph.states)} state(s), "
            f"{len(graph.firings.targets)} edge(s), "
            f"{len(graph.deadlocks)} deadlock(s)\n"
            "invariant: holds\n")
    tail = "" if dead.holds else (f"deadlocked state {dead.witness_state} reached by "
                                  f"{', '.join(dead.witness_path) or '(initial)'}\n")
    states = _batches(_state_lines(graph)) if args.verbose else ()
    rep.pieces = chain((head,), map("".join, states), (tail,))
    return OK


def _cmd_po(args, rep: _Reporter) -> int:
    chain = load_chain(args.chain, _overrides(args))
    steps = range(len(chain.machines) - 1)
    if args.step is not None:
        if not steps:
            raise EbltlError(f"chain {chain.name} has no refinement step")
        if args.step not in steps:
            raise EbltlError(f"step {args.step} out of range 0..{len(steps) - 1}")
        steps = [args.step]
    # the obligations read each concrete graph's recorded firings and report
    # an infeasible one as FIS_REF, so the graphs are used as explored
    reports = [check_refinement_pair(chain.machines[k], chain.machines[k + 1],
                                     chain.links[k],
                                     explore(chain.machines[k + 1], args.bound_states))
               for k in steps]
    ok = all(r.ok for r in reports)
    if not reports:
        rep.say(f"chain {chain.name} has no refinement step: no obligation checked")
    for r in reports:
        status = "pass" if r.ok else f"FAIL ({', '.join(r.failed())})"
        rep.say(f"{r.abstract} -> {r.concrete}: {status}")
        for name in r.failed():
            shown = r.results[name].witnesses
            if not args.verbose:
                shown = shown[:1]
            for w in shown:
                rep.say(f"  {name} witness: {json.dumps(w, sort_keys=True)}")
    rep.result = {"pairs": [r.to_json_dict() for r in reports], "ok": ok}
    return OK if ok else FAILURE


def _cmd_strategy(args, rep: _Reporter) -> int:
    chain = load_chain(args.chain, _overrides(args))
    report = check_strategy(chain)
    names = [m.name for m in chain.machines]
    for i, name in enumerate(names):
        rep.say(f"{name}: ordinary={', '.join(report.ordinary[i]) or '-'}"
                f" anticipated={', '.join(report.anticipated[i]) or '-'}"
                f" convergent={', '.join(report.convergent[i]) or '-'}")
    if report.ok:
        rep.say("strategy: all six rules hold")
    for v in report.violations:
        rep.say(f"rule {v.rule} violated at {v.machine}.{v.event}: {v.message}")
    rep.result = {"machines": names, **report.to_json_dict()}
    return OK if report.ok else FAILURE


def _cmd_mc(args, rep: _Reporter) -> int:
    machine = parse_machine_file(args.machine, _overrides(args))
    graph = require_feasible(explore(machine, args.bound_states))
    props = _resolve_props(args.prop, Path(args.machine))
    results = {}
    ok = True
    for name in sorted(props):
        verdict = model_check(graph, props[name])
        results[name] = {"formula": formula_to_text(props[name]),
                         **verdict.to_json_dict()}
        if verdict.holds:
            rep.say(f"{machine.name} satisfies {name}: {formula_to_text(props[name])}")
        else:
            ok = False
            rep.say(f"{machine.name} FAILS {name}: {formula_to_text(props[name])}")
            rep.say(f"  counterexample: {verdict.counterexample.render()}")
    rep.result = {"machine": machine.name, "properties": results, "ok": ok}
    return OK if ok else FAILURE


def _event_set(text: str | None) -> set[str] | None:
    """The names of a comma-separated event list (`--beta`, `--sigma`), or
    None when the flag is absent; an empty or malformed name is a usage
    error."""
    if text is None:
        return None
    names = text.split(",")
    if not all(n.isascii() and n.isidentifier() for n in names):
        raise EbltlError(f"bad event list {text!r}, expected comma-separated event names")
    return set(names)


def _cmd_beta(args, rep: _Reporter) -> int:
    props = _resolve_props(args.prop, Path(args.chain) if args.chain else None,
                           one=True)
    ((name, phi),) = props.items()
    beta = _event_set(args.beta) or set(formula_alphabet(phi))
    sigma = _event_set(args.sigma) or set(beta)
    verdict = check_beta_dependent(phi, beta, sigma)
    rep.say(f"{name}: {verdict.status} ({verdict.method})")
    if verdict.witness is not None:
        rep.say(f"  witness: {verdict.witness.render()}")
    rep.result = {"property": formula_to_text(phi), "beta": sorted(beta),
                  **verdict.to_json_dict()}
    return OK if verdict.certified else FAILURE


def _cmd_translate(args, rep: _Reporter) -> int:
    chain = load_chain(args.chain, _overrides(args))
    props = _resolve_props(args.prop, Path(args.chain), one=True)
    ((name, phi),) = props.items()
    if not 0 <= args.at < len(chain.machines):
        raise EbltlError(f"level {args.at} out of range 0..{len(chain.machines) - 1}")
    machine = chain.machines[args.at]
    foreign = formula_alphabet(phi) - frozenset(machine.alphabet())
    if foreign:
        warnings.warn(f"formula mentions events outside the alphabet of {machine.name} "
                      f"(level {args.at}): {', '.join(sorted(foreign))}")
    g = compose_renamings(chain, args.at + 1)
    out = translate_formula(phi, g)
    rep.say(formula_to_text(out))
    rep.result = {"property": formula_to_text(phi), "level": args.at,
                  "translated": formula_to_text(out),
                  "renaming": g.to_json_dict()}
    return OK


def _cmd_gf(args, rep: _Reporter) -> int:
    chain = load_chain(args.chain, _overrides(args))
    graphs = explore_chain(chain, args.bound_states)
    cert = apply_lemma_gf(chain, graphs)
    return _report_certificate(cert, rep)


def _cmd_preserve(args, rep: _Reporter) -> int:
    beta = _event_set(args.beta)
    chain = load_chain(args.chain, _overrides(args))
    graphs = explore_chain(chain, args.bound_states)
    props = _resolve_props(args.prop, Path(args.chain), one=True)
    ((name, phi),) = props.items()
    cert = apply_preservation(chain, args.at, phi, beta, graphs)
    return _report_certificate(cert, rep)


def _report_certificate(cert, rep: _Reporter) -> int:
    for h in cert.hypotheses:
        rep.say(f"[{'ok' if h.passed else 'FAILED'}] {h.name}: {h.detail}")
    if cert.asserted:
        rep.say(f"certified (rule {cert.lemma}): {cert.machines[-1]} satisfies "
                f"{formula_to_text(cert.conclusion)}")
        rep.say("cross-validation: model checker agrees")
    else:
        rep.say("blocked: " + "; ".join(cert.failed_hypotheses()))
    rep.result = cert.to_json_dict()
    return OK if cert.asserted else BLOCKED


def _cmd_theorem1(args, rep: _Reporter) -> int:
    chain = load_chain(args.chain, _overrides(args))
    report = check_theorem1(chain, explore_chain(chain, args.bound_states))
    rep.say(f"C* = {', '.join(report.c_star) or '-'}")
    rep.say(f"O* = {', '.join(report.o_star) or '-'}")
    rep.say(f"chain obligations and strategy: "
            f"{'pass' if report.certified else 'FAIL'}")
    rep.say(f"direct cycle analysis: "
            f"{'no divergent cycle' if report.direct.holds else 'divergent cycle found'}")
    if report.direct.witness is not None:
        rep.say(f"  witness: {report.direct.witness.render()}")
    rep.result = report.to_json_dict()
    return OK if (report.certified and report.direct.holds) else FAILURE


def _cmd_oracle(args, rep: _Reporter) -> int:
    root = Path(args.corpus) if args.corpus else corpus_root()
    entries = load_corpus(root)
    bounds = OracleBounds(prefix=args.lasso_prefix, cycle=args.lasso_cycle)
    report = cross_validate(entries, random_pairs=args.random, seed=args.seed,
                            bounds=bounds)
    for row in report.rows:
        if not row.agree:
            rep.say(f"DISAGREE {row.subject} {row.prop}: main={row.main_holds} "
                    f"oracle={row.oracle_holds} expected={row.expected} {row.note}")
    rep.say(f"{len(report.rows)} comparison(s), "
            f"{len(report.disagreements)} disagreement(s)")
    rep.result = report.to_json_dict()
    return OK if report.ok else FAILURE


def _int(text: str) -> int:
    """An argparse type: an integer written as `_ascii_int` accepts it."""
    value = _ascii_int(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return value


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than `low`, so an out-of-range
    flag is a usage error and not a bound or a silently empty run."""
    def parse(text: str) -> int:
        value = _ascii_int(text)
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value
    return parse


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit with USAGE: argparse's own code 2 is BLOCKED here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE, f"{self.prog}: error: {message}\n")


# the arguments several subcommands read, as `(flag, options)`
_VERBOSE = ("--verbose", {"action": "store_true",
                          "help": "include full witness listings in text reports"})
_BOUND = ("--bound-states", {"type": _int_at_least(1), "default": MAX_STATES,
                             "help": "state exploration limit"})
_SET = ("--set", {"action": "append", "default": [], "metavar": "NAME=INT", "dest": "overrides",
                  "help": "override a declared constant (repeatable; names a machine does "
                          "not declare are ignored)"})
_CHAIN = ("--chain", {"required": True, "help": "chain manifest (JSON)"})
_MACHINE = ("machine", {"help": "machine source file (.eb)"})
_PROP = ("--prop", {"required": True,
                    "help": "formula, @file, or a name from the sibling props.ltl"})

# each subcommand's help line, its function and the arguments it reads after
# --json, in usage order
_SUBCOMMANDS = {
    "parse": ("parse and typecheck a machine", _cmd_parse, [_SET, _MACHINE]),
    "explore": ("build the reachable state graph", _cmd_explore, [
        _VERBOSE, _BOUND, _SET, _MACHINE,
        ("--format", {"choices": ["summary", "graph", "edgelist"], "default": "summary"})]),
    "po": ("check refinement obligations of a chain", _cmd_po, [
        _VERBOSE, _BOUND, _SET, _CHAIN,
        ("--step", {"type": _int, "help": "check one step only (0-based)"})]),
    "strategy": ("check the development-strategy rules", _cmd_strategy, [_SET, _CHAIN]),
    "mc": ("model check properties on a machine", _cmd_mc, [_BOUND, _SET, _MACHINE, _PROP]),
    "beta": ("check projection-insensitivity of a property", _cmd_beta, [
        _PROP,
        ("--beta", {"help": "comma-separated event set"}),
        ("--sigma", {"help": "ambient alphabet the traces range over (defaults to beta); "
                             "only whether it has an event outside beta matters to the "
                             "verdict"}),
        ("--chain", {"help": "optional chain manifest used to resolve property names"})]),
    "translate": ("translate a property through the chain's composed renaming",
                  _cmd_translate, [
                      _SET, _CHAIN, _PROP,
                      ("--at", {"type": _int, "required": True,
                                "help": "level the property is stated at (0-based)"})]),
    "gf": ("certify recurrence of the initial machine's events", _cmd_gf,
           [_BOUND, _SET, _CHAIN]),
    "preserve": ("carry a property to the final machine", _cmd_preserve, [
        _BOUND, _SET, _CHAIN, _PROP,
        ("--at", {"type": _int, "required": True,
                  "help": "level the property is established at (0-based)"}),
        ("--beta", {"help": "comma-separated event set (defaults to the property's alphabet)"})]),
    "theorem1": ("divergence freedom of the final machine", _cmd_theorem1,
                 [_BOUND, _SET, _CHAIN]),
    "oracle": ("differential run against the brute-force oracle", _cmd_oracle, [
        ("--lasso-prefix", {"type": _int_at_least(0), "default": 4, "metavar": "P"}),
        ("--lasso-cycle", {"type": _int_at_least(1), "default": 4, "metavar": "Q"}),
        ("--corpus", {"help": "corpus root override"}),
        ("--random", {"type": _int_at_least(0), "default": 0,
                      "help": "additional random (graph, formula) pairs"}),
        ("--seed", {"type": _int, "default": 20240})]),
}


def _add_arguments(p: argparse.ArgumentParser, name: str):
    """--json and then subcommand `name`'s arguments, in usage order."""
    _, func, arguments = _SUBCOMMANDS[name]
    p.set_defaults(func=func)
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    for flag, options in arguments:
        p.add_argument(flag, **options)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="ebltl",
        description="Bounded refinement and event-LTL checking for machine "
                    "specifications")
    parser.add_argument("--version", action="version", version=f"ebltl {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _, _) in _SUBCOMMANDS.items():
        _add_arguments(sub.add_parser(name, help=text), name)
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """`argv` read by its subcommand's parser alone, built and run as the
    full parser's subparser action would; anything that parser leaves over,
    and every command line that does not start with a subcommand's name,
    goes to the full parser, whose messages list every subcommand."""
    if argv and argv[0] in _SUBCOMMANDS:
        parser = _ArgumentParser(prog=f"ebltl {argv[0]}")
        _add_arguments(parser, argv[0])
        args, extra = parser.parse_known_args(argv[1:])
        if not extra:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


def _show_warning(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(f"warning: {message}\n")


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    rep = _Reporter(args.command, args.json)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            code = args.func(args, rep)
    except InvariantViolation as exc:
        rep.say(f"invariant violation: {exc}")
        rep.result = {"error": str(exc), "kind": "invariant",
                      "path": list(exc.path)}
        return rep.emit(FAILURE)
    except (ExplorationLimitError, EnumerationBudgetError) as exc:
        rep.say(f"bound exhausted: {exc}")
        rep.result = {"error": str(exc), "kind": "bound"}
        return rep.emit(EXHAUSTED)
    except ToolkitBug as exc:
        rep.say(f"internal cross-check failed: {exc}")
        rep.result = {"error": str(exc), "kind": "internal"}
        return rep.emit(INTERNAL)
    except (EbltlError, OSError, UnicodeDecodeError, RecursionError) as exc:
        # parse, typecheck, chain and renaming errors; unreadable inputs;
        # input nested deeper than the recursive parsers and checkers reach
        message = "input nests too deeply" if isinstance(exc, RecursionError) else str(exc)
        rep.say(f"error: {message}")
        rep.result = {"error": message}
        return rep.emit(USAGE)
    return rep.emit(code)


if __name__ == "__main__":
    sys.exit(main())
