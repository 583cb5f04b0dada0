"""List the statements of `src/ebltl/` that a pytest run never executes.

Runs pytest in this process under `sys.settrace`, tracing line events only
in frames whose code lives under `src/ebltl/`, and then prints, per module,
the first line of every statement that never ran.  A statement counts as
run when any line of it (of its header, for a compound statement) raised a
line event.  Code that a test reaches only through a subprocess, such as
the CLI tests' `run_cli`, counts as not run.

    python tools/linetrace.py [pytest arguments]

Tracing makes the suite several times slower.  The exit code is pytest's.
"""
from __future__ import annotations

import ast
import dis
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ebltl"


def _code_lines(tree: ast.Module, path: Path) -> set[int]:
    """Every line where the module's bytecode starts a line."""
    lines: set[int] = set()
    todo = [compile(tree, str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line is not None)
        todo.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


def statements(path: Path) -> dict[int, range]:
    """Each statement that compiles to code, by first line: the lines of
    the statement, or of its header when it holds other statements."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    code_lines = _code_lines(tree, path)
    found: dict[int, range] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        if isinstance(node, ast.Match):
            end = node.cases[0].pattern.lineno - 1
        elif isinstance(getattr(node, "body", None), list):
            end = node.body[0].lineno - 1
        else:
            end = node.end_lineno
        lines = range(start, max(end, node.lineno) + 1)
        if not code_lines.isdisjoint(lines):
            found[node.lineno] = lines
    return found


def main(argv: list[str]) -> int:
    # as `PYTHONPATH=src python -m pytest` would run from the root, for the
    # CLI subprocesses the tests start as well
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    sys.path[:0] = [src, str(ROOT)]
    prefix = str(PACKAGE) + "/"
    ran: defaultdict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    import pytest

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    for path in sorted(PACKAGE.glob("*.py")):
        stmts = statements(path)
        seen = ran[str(path)]
        missed = [first for first, lines in sorted(stmts.items()) if seen.isdisjoint(lines)]
        print(f"{path.relative_to(ROOT)}: {len(stmts)} statements, {len(missed)} never ran"
              + (": " + " ".join(map(str, missed)) if missed else ""))
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
