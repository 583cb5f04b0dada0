"""Golden reports: every row of `golden/manifest.json` runs through
`cli.main` in-process and must give its pinned exit code and the pinned
sha256 of its stdout and of its stderr.

Machine and chain paths in the manifest are relative to the corpus root,
the working directory of each run.  `{mutants}/NAME.json` is a chain
manifest written from `vm/mutants/mutants.json`: a pair mutant after its
abstract machine, a chain mutant, or the divergent chain.  Each stream
also carries digests of at most 32 blocks of its lines, so a differing
row names the first block of lines that differs (the exact line for a
stream of 32 lines or fewer); the manifest is never rewritten here.

Usage rows pin argparse's own exits: `SystemExit.code` is their exit
code, and `COLUMNS=80` fixes where help and usage text wrap.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

from ebltl.cli import main
from ebltl.oracle import corpus_root
from tests.conftest import MUTANT_DIR

MANIFEST = Path(__file__).parent / "golden" / "manifest.json"
BLOCKS = 32


def write_mutant_chains(directory: Path) -> None:
    spec = json.loads((MUTANT_DIR / "mutants.json").read_text())
    chains = {e["name"]: [e["abstract"], e["file"]] for e in spec["pair_mutants"]}
    chains.update((e["name"], e["chain"])
                  for e in [*spec["chain_mutants"], spec["divergent_mutant"]])
    for name, files in chains.items():
        (directory / f"{name}.json").write_text(json.dumps(
            {"name": name, "machines": [str((MUTANT_DIR / f).resolve()) for f in files]}))


def block_size(lines: int) -> int:
    return max(1, -(-lines // BLOCKS))


def block_marks(lines: list[str], size: int) -> list[str]:
    """The first 8 hex digits of the sha256 of each run of `size` lines;
    a pinned stream of n lines keeps those of `block_size(n)` lines."""
    return [hashlib.sha256("".join(lines[i:i + size]).encode()).hexdigest()[:8]
            for i in range(0, len(lines), size)]


def first_difference(text: str, pinned: dict) -> str:
    """Where `text` first departs from the pinned stream, by its blocks."""
    lines = text.splitlines(keepends=True)
    size = block_size(pinned["lines"])
    marks = block_marks(lines, size)
    want = [pinned["blocks"][i:i + 8] for i in range(0, len(pinned["blocks"]), 8)]
    k = next((k for k, (a, b) in enumerate(zip(marks, want)) if a != b),
             min(len(marks), len(want)))
    start = k * size
    if start >= len(lines):
        return f"output ends after line {len(lines)} of {pinned['lines']}"
    where = f"line {start + 1}" if size == 1 else f"lines {start + 1}-{start + size}, from"
    return f"{where}: {lines[start].rstrip()!r}"


def test_golden_reports(tmp_path, monkeypatch, capsys):
    rows = json.loads(MANIFEST.read_text())["rows"]
    write_mutant_chains(tmp_path)
    monkeypatch.chdir(corpus_root())
    monkeypatch.setenv("COLUMNS", "80")
    failures = []
    for row in rows:
        try:
            code = main([arg.replace("{mutants}", str(tmp_path)) for arg in row["argv"]])
        except SystemExit as exc:
            code = exc.code
        streams = dict(zip(("stdout", "stderr"), capsys.readouterr()))
        notes = [] if code == row["exit"] else [f"exit {code}, pinned {row['exit']}"]
        notes += [f"{name} {first_difference(text, row[name])}"
                  for name, text in streams.items()
                  if hashlib.sha256(text.encode()).hexdigest() != row[name]["sha256"]]
        if notes:
            failures.append(" ".join(row["argv"]) + "\n    " + "\n    ".join(notes))
    assert not failures, f"{len(failures)} of {len(rows)} rows differ:\n" + "\n".join(failures)
