"""`tools/peak_rss.py`, the peak-memory check the CI workflow runs."""
from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).parent.parent / "tools" / "peak_rss.py"


def run_tool(*argv: str):
    proc = subprocess.run([sys.executable, str(TOOL), *argv], capture_output=True, text=True)
    return proc.returncode, proc.stdout


def test_a_child_under_its_limit_passes():
    code, out = run_tool("--label", "pass", "--exit", "0", "--measured-mb", "4000",
                         "--", "-c", "pass")
    assert code == 0, out
    assert re.fullmatch(r"pass: exit 0, peak RSS \d+\.\d MB \(limit 5000\.0 MB\)\n", out)


def test_a_wrong_exit_code_fails():
    code, out = run_tool("--label", "pass", "--exit", "1", "--measured-mb", "4000",
                         "--", "-c", "pass")
    assert code == 1
    assert out.startswith("pass: exit 0, ")


def test_a_peak_above_the_limit_fails():
    code, out = run_tool("--label", "pass", "--exit", "0", "--measured-mb", "0.001",
                         "--", "-c", "pass")
    assert code == 1
    assert out.startswith("pass: exit 0, ")
