"""Smoke runs of the benchmark: one pass of each workload (chain-vm,
mc-product and enumerate), each with no timed budget.

They check that `bench/run.py` still runs end to end on this checkout and
that every op's output passes the benchmark's own checks (for mc-product,
every tableau/product verdict replayed against the oracle; for enumerate,
the `oracle` ops against the corpus expectation tables); they assert no
timing.  The run record goes to a temporary file, so nothing is written
under `bench/`.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def _smoke_run(tmp_path, workload: str):
    out = tmp_path / "runs.jsonl"
    run = subprocess.run(
        [sys.executable, str(BENCH_RUN), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--out", str(out)],
        capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, run.stdout[-2000:]
    assert result["attempted"] > 0
    assert out.is_file()


def test_chain_vm_smoke_run(tmp_path):
    _smoke_run(tmp_path, "chain-vm")


def test_enumerate_smoke_run(tmp_path):
    _smoke_run(tmp_path, "enumerate")


def test_mc_product_smoke_run(tmp_path):
    _smoke_run(tmp_path, "mc-product")
