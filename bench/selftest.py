"""Self-test of the benchmark harness.

    python3 bench/selftest.py

Runs each workload once traced (the minimum of three rounds) and fails if
the tracer left a binding of a wrapped function unwrapped or found one of
them missing, if a work counter failed, if any layer records zero calls on
the workload named as its main one, if an output check fails, or if
tracing changes an output digest.  It also runs
chain-vm untraced twice and fails if the two output digests differ.
Records go to bench/out/selftest.jsonl.
"""
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out" / "selftest.jsonl"

# layer -> the workload that exercises it most (bench/NOTES.md)
MAIN_WORKLOAD = {
    "parse": "chain-vm", "explore": "chain-vm", "po": "chain-vm",
    "strategy": "chain-vm", "ca": "chain-vm", "cert": "chain-vm", "cli": "chain-vm",
    "mc": "mc-product", "mc.finite": "mc-product", "mc.lasso": "mc-product",
    "eval": "enumerate", "beta": "enumerate", "oracle": "enumerate",
}


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "0", "--trace", str(trace), "--out", str(OUT)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(OUT.read_text(encoding="utf-8").splitlines()[-1])


def main() -> int:
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.unlink(missing_ok=True)
    problems = []
    traced = {}
    for workload in sorted(set(MAIN_WORKLOAD.values())):
        rec = traced[workload] = run(workload, 1)
        if not rec["correct"]:
            problems.append(f"{workload}: output checks failed: {rec['failed_ops']}")
        for key in ("unwrapped_bindings", "absent_functions"):
            if rec[key]:
                problems.append(f"{workload}: {key} {rec[key]}")
        if rec["counter_errors"]:
            problems.append(f"{workload}: {rec['counter_errors']} work counter error(s)")
    for layer, workload in sorted(MAIN_WORKLOAD.items()):
        calls = traced[workload]["layer_calls"][layer]
        print(f"{layer:<10} {workload:<11} {calls} call(s)")
        if calls == 0:
            problems.append(f"layer {layer} recorded no calls on {workload}")
    first, second = run("chain-vm", 0), run("chain-vm", 0)
    if first["digest"] != second["digest"]:
        problems.append("chain-vm: two untraced runs produced different digests")
    if first["digest"] != traced["chain-vm"]["digest"]:
        problems.append("chain-vm: tracing changed the output digest")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
