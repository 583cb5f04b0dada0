"""Run one Python child process and check its exit code and peak RSS.

Runs `sys.executable` with the arguments after `--`, its stdout sent to
/dev/null, reads the child's peak resident set size with `os.wait4` and
prints one line:

    LABEL: exit CODE, peak RSS PEAK MB (limit LIMIT MB)

    python tools/peak_rss.py --label LABEL --exit CODE --measured-mb MB -- ARG...

The limit is 1.25 times the measured figure.  The exit code is 1 when the
child's exit code is not CODE or its peak is above the limit, else 0.  The
peak is read as Linux reports `ru_maxrss`, in KiB.
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys

SLACK = 1.25


def main(argv: list[str]) -> int:
    if "--" not in argv:
        sys.exit("usage: peak_rss.py --label LABEL --exit CODE --measured-mb MB -- ARG...")
    split = argv.index("--")
    parser = argparse.ArgumentParser(prog="peak_rss.py")
    parser.add_argument("--label", required=True, help="the name the result line starts with")
    parser.add_argument("--exit", type=int, required=True, help="the child's expected exit code")
    parser.add_argument("--measured-mb", type=float, required=True,
                        help="the measured peak; the limit is 1.25 times it")
    args = parser.parse_args(argv[:split])
    child = subprocess.Popen([sys.executable, *argv[split + 1:]], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    code = os.waitstatus_to_exitcode(status)
    peak, limit = usage.ru_maxrss / 1024, SLACK * args.measured_mb
    print(f"{args.label}: exit {code}, peak RSS {peak:.1f} MB (limit {limit:.1f} MB)")
    return int(code != args.exit or peak > limit)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
