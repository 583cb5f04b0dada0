"""ebltl benchmark: three seeded closed-loop workloads, run in-process.

    python3 bench/run.py --workload chain-vm --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30
    python3 bench/run.py --compare parent.jsonl change.jsonl

One client, one process, one thread: the next op starts when the previous
one has returned.  `--trace 0` reports the end-to-end metrics; `--trace 1`
wraps each layer's public functions, records spans and reports per-layer
metrics instead.  Every op's output is checked after the timed loop, and
the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

Each run appends a record (metrics, output digest, provenance) to
`bench/out/runs.jsonl` (or `--out`); traced runs also write their spans to
`bench/out/`.  See bench/NOTES.md for the workloads and metrics.
"""
import time

T0 = time.perf_counter()  # setup_s counts from here (interpreter start-up excluded)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
SETUP_REPEATS = 5
MIN_ROUNDS = 3
PROBE_REF_S = 2.0e-4  # speed_probe's time on the sizing machine, in seconds
EBLTL_MODULES = ("errors", "formulas", "traces", "machine_parser", "semantics",
                 "automata", "ltl", "refine", "preserve", "oracle", "cli")

END_TO_END = [  # name, unit
    ("setup_s", "s"), ("ops_per_s", "ops/s"), ("op_s.p50", "s"), ("op_s.tail", "s"),
    ("failed_ratio", "ratio"), ("decided_ratio", "ratio"), ("peak_rss_mb", "MB"),
]
# failed_ratio is printed but kept out of the JSON metrics: it is 0 on a
# correct run, and the result's "failed" field already carries it.
JSON_END_TO_END = [m for m in END_TO_END if m[0] != "failed_ratio"]

PER_LAYER = [  # name, unit
    ("parse.calls", "count"), ("parse.s", "s"),
    ("explore.calls", "count"), ("explore.calls_per_op", "calls/op"),
    ("explore.s", "s"), ("explore.states", "count"), ("explore.edges", "count"),
    ("explore.us_per_state", "us"),
    ("po.calls", "count"), ("po.s", "s"), ("po.checks", "count"),
    ("po.abstract_universe", "count"), ("po.us_per_check", "us"),
    ("strategy.s", "s"), ("ca.s", "s"),
    ("mc.calls", "count"), ("mc.s", "s"), ("mc.finite_s", "s"), ("mc.lasso_s", "s"),
    ("mc.graph_edges", "count"), ("mc.limit_hits", "count"),
    ("eval.calls", "count"), ("eval.s", "s"), ("eval.us_per_call", "us"),
    ("beta.calls", "count"), ("beta.s", "s"), ("beta.traces_checked", "count"),
    ("beta.us_per_trace", "us"), ("beta.unknown", "count"), ("cert.self_s", "s"),
    ("oracle.calls", "count"), ("oracle.s", "s"), ("oracle.traces_checked", "count"),
    ("cli.self_s", "s"), ("cli.output_bytes", "B"),
    ("trace.ops_per_s", "ops/s"), ("trace.spans", "count"),
]


def import_ebltl() -> SimpleNamespace:
    """A fresh import of the package from this checkout's src/."""
    for name in [n for n in sys.modules if n == "ebltl" or n.startswith("ebltl.")]:
        del sys.modules[name]
    importlib.import_module("ebltl")
    mods = {m: importlib.import_module(f"ebltl.{m}") for m in EBLTL_MODULES}
    return SimpleNamespace(**mods, tracer=None)


def percentile(sorted_values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = (len(sorted_values) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def provenance(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_rev": git_rev(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# one workload in this process

def set_up(name: str, seed: int, trace: bool, start: float):
    """Import `ebltl`, generate the seeded inputs and do the one-time work.
    Returns the package, the workload and the time since `start`."""
    import workloads
    from tracer import Tracer

    ebltl = import_ebltl()
    if trace:
        ebltl.tracer = Tracer()
        ebltl.tracer.install()
        ebltl.tracer.active = True
    with ebltl.tracer.span("bench.setup") if trace else nullcontext():
        workload = workloads.WORKLOADS[name](ebltl, random.Random(seed), ROOT)
    return ebltl, workload, time.perf_counter() - start


def speed_probe() -> float:
    """Time a fixed slice of interpreter work (tuples, dicts, calls).

    The shared machine the benchmark was sized on changes speed by 10-30 %
    over tens of seconds, and a run's figures moved with it.  The loop
    times this probe before every op, and the timing metrics are scaled to
    the speed at which the probe takes PROBE_REF_S; the unscaled figures
    are printed and recorded too.
    """
    t = time.perf_counter()
    d: dict = {}
    for i in range(400):
        key = (i & 31, i % 7)
        d[key] = d.get(key, 0) + len(str(i))
    return time.perf_counter() - t


def probe_scale() -> float:
    """PROBE_REF_S over the median of a few probes taken now."""
    return PROBE_REF_S / statistics.median(speed_probe() for _ in range(9))


def timed_loop(ebltl, workload, seed: int, seconds: float):
    """Whole rounds over the population until `seconds` have passed and at
    least MIN_ROUNDS rounds are done, so every op runs the same number of
    times."""
    import workloads

    tracer = ebltl.tracer
    op_span = tracer.name_id["bench.op"] if tracer else None
    order_rng = random.Random(f"order-{seed}")
    times: list[float] = []
    executed: list[int] = []
    first: dict[int, tuple] = {}
    digests: dict[int, str] = {}
    unstable: set[int] = set()
    raised: dict[int, str] = {}
    output_bytes = 0
    probes: list[float] = []
    rounds = 0
    start = time.perf_counter()
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        for op in workloads.round_order(workload.ops, order_rng):
            if op.before is not None:
                with workloads.untraced(ebltl):
                    op.before()
            probes.append(speed_probe())
            if tracer:
                tracer.op_id = op.id
                idx = tracer.begin(op_span)
            t = time.perf_counter()
            try:
                raw = op.run()
                error = None
            except Exception as exc:  # an op that raises is a failed op
                raw, error = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t
            if tracer:
                tracer.end(idx)
                tracer.op_id = -1
            times.append(dt)
            executed.append(op.id)
            if error is not None:
                raised.setdefault(op.id, error)
                continue
            code, payload = op.finish(raw)
            if op.cli:
                output_bytes += len(payload)
            digest = hashlib.sha256(payload.encode()).hexdigest()
            if op.id not in first:
                first[op.id] = (code, payload)
                digests[op.id] = digest
            elif digests[op.id] != digest:
                unstable.add(op.id)
        rounds += 1
    return SimpleNamespace(times=times, executed=executed, first=first, digests=digests,
                           unstable=unstable, raised=raised, output_bytes=output_bytes,
                           rounds=rounds, probes=probes, wall=time.perf_counter() - start)


def check_outputs(ebltl, workload, loop) -> dict:
    """Check each op once (its repeats are byte-identical, or it fails)."""
    import checks
    import workloads

    def failed(note: str):
        return checks.Check(False, False, note=note)

    verdicts = {}
    with workloads.untraced(ebltl):
        for op in workload.ops:
            if op.id in loop.raised:
                verdicts[op.id] = failed(loop.raised[op.id])
                continue
            code, payload = loop.first[op.id]
            if code == 70:
                verdicts[op.id] = failed("internal cross-check failure (exit 70)")
            elif op.id in loop.unstable:
                verdicts[op.id] = failed("output differs between repeats")
            else:
                try:
                    verdicts[op.id] = workload.checker.check(op.meta, code, payload)
                except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
                    verdicts[op.id] = failed(f"unreadable output: {exc!r}")
    return verdicts


def output_digest(workload, loop) -> str:
    h = hashlib.sha256()
    for op in workload.ops:
        if op.id in loop.raised:
            h.update(f"{op.label}\nraised\n".encode())
        else:
            h.update(f"{op.label}\n{loop.first[op.id][0]}\n{loop.digests[op.id]}\n".encode())
    return h.hexdigest()


def op_times(loop) -> dict[int, list[float]]:
    """Each op's times, one per round."""
    by: dict[int, list[float]] = {}
    for op_id, dt in zip(loop.executed, loop.times):
        by.setdefault(op_id, []).append(dt)
    return by


def op_medians(loop) -> dict[int, float]:
    """Each op's time: the median over its repeats."""
    return {op_id: statistics.median(ts) for op_id, ts in op_times(loop).items()}


def tail_percentile(n: int) -> float:
    """The highest percentile that still has at least 10 of n samples above it."""
    return max(0.0, 100.0 * (1 - 10 / n))


def end_to_end(setup_s, loop, verdicts, peak_rss_kb):
    """The end-to-end metrics as measured, with the tail's percentile and n.

    Throughput uses each op's median over its repeats, so that a slow spell
    does not move it; p50 and tail are taken over every timed execution
    (each op runs once per round), at the highest percentile that leaves at
    least 10 of the population's ops above it.
    """
    per_op = list(op_medians(loop).values())
    n = len(per_op)
    pct = tail_percentile(n)
    times = sorted(loop.times)
    tail = percentile(times, pct)
    attempted = len(loop.executed)
    failed = sum(1 for i in loop.executed if not verdicts[i].ok)
    decided = sum(1 for i in loop.executed if verdicts[i].decided)
    return {
        "setup_s": setup_s,
        "ops_per_s": n / sum(per_op),
        "op_s.p50": statistics.median(times),
        "op_s.tail": tail,
        "failed_ratio": failed / attempted,
        "decided_ratio": decided / attempted,
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }, {"tail_pct": pct, "n": n, "executions": attempted,
        "above_tail": sum(1 for t in times if t > tail)}


def at_reference_speed(raw: dict, setup_scaled: float, probes: list[float]) -> dict:
    """Scale the loop's timings to the speed at which `speed_probe` takes
    PROBE_REF_S; set-up times are scaled by the probes taken with them."""
    scale = PROBE_REF_S / statistics.median(probes)
    out = dict(raw)
    out["setup_s"] = setup_scaled
    out["ops_per_s"] = raw["ops_per_s"] / scale
    out["op_s.p50"] = raw["op_s.p50"] * scale
    out["op_s.tail"] = raw["op_s.tail"] * scale
    return out


def stratum_times(workload, loop) -> dict:
    by: dict[str, list[float]] = {}
    for op_id, dt in zip(loop.executed, loop.times):
        by.setdefault(workload.ops[op_id].stratum, []).append(dt)
    return {name: {"n": len(ts), "median_s": statistics.median(ts), "total_s": sum(ts)}
            for name, ts in sorted(by.items())}


def per_layer(tracer, loop) -> dict:
    _self_t, incl, _calls = tracer.self_times()
    layers = tracer.layer_totals()
    per_op = op_medians(loop).values()
    counts = tracer.counts
    n_ops = len(loop.times)

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    explore_in_ops = sum(1 for i in range(len(tracer.s_name))
                         if tracer.s_op[i] >= 0
                         and tracer.layer_of[tracer.s_name[i]] == "explore")
    beta_incl = incl.get("preserve.check_beta_dependent", 0.0)
    m = {
        "parse.calls": layers["parse"]["calls"], "parse.s": layers["parse"]["self_s"],
        "explore.calls": layers["explore"]["calls"],
        "explore.calls_per_op": ratio(explore_in_ops, n_ops),
        "explore.s": layers["explore"]["self_s"],
        "explore.states": counts.get("explore.states", 0),
        "explore.edges": counts.get("explore.edges", 0),
        "explore.us_per_state": ratio(layers["explore"]["self_s"],
                                      counts.get("explore.states", 0), 1e6),
        "po.calls": layers["po"]["calls"], "po.s": layers["po"]["self_s"],
        "po.checks": counts.get("po.checks", 0),
        "po.abstract_universe": counts.get("po.abstract_universe", 0),
        "po.us_per_check": ratio(layers["po"]["self_s"], counts.get("po.checks", 0), 1e6),
        "strategy.s": layers["strategy"]["self_s"], "ca.s": layers["ca"]["self_s"],
        "mc.calls": layers["mc"]["calls"],
        "mc.s": layers["mc"]["self_s"] + layers["mc.finite"]["self_s"]
        + layers["mc.lasso"]["self_s"],
        "mc.finite_s": incl.get("automata.CounterexampleSearch.finite_counterexample", 0.0),
        "mc.lasso_s": incl.get("automata.CounterexampleSearch.lasso_counterexample", 0.0),
        "mc.graph_edges": counts.get("mc.graph_edges", 0),
        "mc.limit_hits": counts.get("mc.limit_hits", 0),
        "eval.calls": layers["eval"]["calls"], "eval.s": layers["eval"]["self_s"],
        "eval.us_per_call": ratio(layers["eval"]["self_s"], layers["eval"]["calls"], 1e6),
        "beta.calls": layers["beta"]["calls"], "beta.s": layers["beta"]["self_s"],
        "beta.traces_checked": counts.get("beta.traces_checked", 0),
        "beta.us_per_trace": ratio(beta_incl, counts.get("beta.traces_checked", 0), 1e6),
        "beta.unknown": counts.get("beta.unknown", 0),
        "cert.self_s": layers["cert"]["self_s"],
        "oracle.calls": layers["oracle"]["calls"], "oracle.s": layers["oracle"]["self_s"],
        "oracle.traces_checked": counts.get("oracle.traces_checked", 0),
        "cli.self_s": layers["cli"]["self_s"], "cli.output_bytes": loop.output_bytes,
        # at reference speed, like the untraced ops_per_s it is compared with
        "trace.ops_per_s": len(per_op) / sum(per_op) * statistics.median(loop.probes)
        / PROBE_REF_S,
        "trace.spans": len(tracer.s_name),
    }
    return m


def run_one(args) -> int:
    os.chdir(ROOT)
    trace = bool(args.trace)
    ebltl, workload, setup_first = set_up(args.workload, args.seed, trace, T0)
    setup_scale = probe_scale()
    loop = timed_loop(ebltl, workload, args.seed, args.seconds)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if trace:
        ebltl.tracer.active = False
    verdicts = check_outputs(ebltl, workload, loop)
    # more set-ups, well after the first, so that one slow spell on the
    # shared machine does not decide setup_s (the traced run reports none)
    setup_times = [(setup_first, setup_scale)]
    for _ in range(0 if trace else SETUP_REPEATS - 1):
        setup_times.append((set_up(args.workload, args.seed, False,
                                   time.perf_counter())[2], probe_scale()))
    raw, tail_info = end_to_end(statistics.median(t for t, _ in setup_times),
                                loop, verdicts, peak_rss_kb)
    e2e = at_reference_speed(raw, statistics.median(t * f for t, f in setup_times),
                             loop.probes)
    digest = output_digest(workload, loop)
    failed_ops = {workload.ops[i].label: v.note for i, v in verdicts.items() if not v.ok}
    strata = stratum_times(workload, loop)
    unchecked = sum(1 for v in verdicts.values() if v.unchecked)
    attempted = len(loop.times)
    failed = sum(1 for i in loop.executed if not verdicts[i].ok)

    if trace:
        layer = per_layer(ebltl.tracer, loop)
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER}
        OUT.mkdir(parents=True, exist_ok=True)
        ebltl.tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json.gz")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in JSON_END_TO_END}

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "correct": failed == 0, "attempted": attempted, "failed": failed,
              "end_to_end": e2e, "tail": tail_info, "digest": digest,
              "population": len(workload.ops), "unchecked": unchecked,
              "loop_wall_s": loop.wall, "failed_ops": failed_ops, "strata": strata,
              "end_to_end_raw": raw, "setup_times": setup_times,
              "op_times": op_times(loop),
              "probe_median_s": statistics.median(loop.probes),
              "provenance": provenance(args)}
    if trace:
        record["per_layer"] = layer
        record["layer_calls"] = {name: t["calls"]
                                 for name, t in ebltl.tracer.layer_totals().items()}
        record["unwrapped_bindings"] = ebltl.tracer.missed
        record["absent_functions"] = ebltl.tracer.absent
        record["counter_errors"] = ebltl.tracer.counts.get("trace.counter_errors", 0)
    out = Path(args.out) if args.out else OUT / "runs.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {attempted} = {loop.rounds} rounds of {len(workload.ops)}  "
          f"loop {loop.wall:.1f} s")
    for name, unit in END_TO_END:
        extra = f"  (as measured {raw[name]:.6g})" if raw[name] != e2e[name] else ""
        if name == "op_s.tail":
            extra += (f"  (p{tail_info['tail_pct']:.4g}: {tail_info['above_tail']} of "
                      f"{tail_info['executions']} runs of n={tail_info['n']} ops above)")
        print(f"  {name:<15} {e2e[name]:>12.6g} {unit}{extra}")
    for name, st in strata.items():
        print(f"    stratum {name:<14} n={st['n']:<4} median {st['median_s']:.4g} s  "
              f"total {st['total_s']:.3g} s")
    if trace:
        for name, unit in PER_LAYER:
            print(f"  {name:<22} {layer[name]:>14.6g} {unit}")
        for what, names in (("unwrapped bindings", ebltl.tracer.missed),
                            ("functions no longer present", ebltl.tracer.absent)):
            if names:
                print(f"  {what}: {', '.join(names)}")
    print(f"  digest {digest}  unchecked {unchecked}")
    for label, note in failed_ops.items():
        print(f"  FAILED {label}: {note}")
    prov = record["provenance"]
    print(f"  python {prov['python']}  nproc {prov['nproc']}  rev {prov['git_rev']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# every workload, traced and untraced, each in its own process

def run_all(args) -> int:
    import workloads

    rows = []
    ok = True
    for name in workloads.WORKLOADS:
        results = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            if args.out:
                cmd += ["--out", args.out]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            sys.stdout.write(done.stdout)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return done.returncode
            results[trace] = json.loads(done.stdout.strip().splitlines()[-1])
            ok = ok and results[trace]["correct"]
        rows.append((name, results))
    print("\nsummary (end-to-end metrics untraced; overhead = untraced - traced ops/s)")
    for name, results in rows:
        untraced = results[0]["metrics"]["ops_per_s"]["value"]
        traced = results[1]["metrics"]["trace.ops_per_s"]["value"]
        print(f"  {name:<11} ops_per_s {untraced:.4g}  traced {traced:.4g}  "
              f"overhead {untraced - traced:.4g} ops/s "
              f"({(untraced - traced) / untraced:.1%})")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# compare two sets of runs

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(path_a: str, path_b: str) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    def load(path):
        runs: dict[str, list[dict]] = {}
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            if line.strip():
                rec = json.loads(line)
                if rec["trace"] == 0:
                    runs.setdefault(rec["workload"], []).append(rec)
        return runs

    a, b = load(path_a), load(path_b)
    print(f"{'workload':<11} {'metric':<14} {'A q1/median/q3':>32} "
          f"{'B q1/median/q3':>32}  verdict")
    for workload in sorted(set(a) & set(b)):
        for name, m in bounds.items():
            va = [r["end_to_end"][name] for r in a[workload]]
            vb = [r["end_to_end"][name] for r in b[workload]]
            qa, qb = quartiles(va), quartiles(vb)
            verdict = judge(va, vb, qa, qb, m["better"], m["bound"])
            print(f"{workload:<11} {name:<14} "
                  f"{qa[0]:>10.4g} {qa[1]:>10.4g} {qa[2]:>10.4g} "
                  f"{qb[0]:>10.4g} {qb[1]:>10.4g} {qb[2]:>10.4g}  {verdict}")
        da = {r["seed"]: r["digest"] for r in a[workload]}
        db = {r["seed"]: r["digest"] for r in b[workload]}
        shared = sorted(set(da) & set(db))
        differ = [seed for seed in shared if da[seed] != db[seed]]
        print(f"{workload:<11} output digests: "
              + (f"DIFFERENT for seed(s) {differ}" if differ else "identical")
              + f" on {len(shared)} seed(s) run on both sides")
    return 0


def judge(va, vb, qa, qb, better: str, bound: float) -> str:
    """improved / unchanged / worse / unresolved, as medians and quartiles
    allow.  Improved: B wins nine tenths of all cross pairs and the medians
    differ by more than A's quartile spread.  Unchanged: B's median is
    within the bound and A's spread is within it too."""
    sign = 1 if better == "higher" else -1
    med_a, med_b = qa[1], qb[1]
    change = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    spread_a = (qa[2] - qa[0]) / abs(med_a) if med_a else 0.0
    pairs = [(x, y) for x in va for y in vb if x != y]
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if pairs and wins >= 0.9 * len(pairs) and change > spread_a:
        return "improved"
    if change < -bound:
        return "worse"
    if spread_a > bound:
        return "unresolved"
    return "unchanged"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="chain-vm, mc-product, enumerate or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="JSON-lines file the run record is appended to")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two run-record files")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "ebltl" / "__init__.py").is_file():
        print(f"error: no ebltl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "bench"))
    if args.workload == "all":
        return run_all(args)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
