"""The package names the benchmark reaches into still exist.

`bench/tracer.py` wraps functions named by (module, qualified name), and
the workloads and checks call the package through attribute chains on a
namespace of its modules (`ebltl.oracle.load_entry`, aliases such as
`ltl = ebltl.ltl` included).  A rename in the package then fails here,
in seconds, instead of only in a full benchmark self-test.
"""
from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
# attributes the benchmark puts on its namespace itself
BENCH_OWNED = {"tracer"}


def _resolve(module: str, qualname: str):
    obj = importlib.import_module(module)
    for part in filter(None, qualname.split(".")):
        obj = getattr(obj, part)
    return obj


def _dotted(node) -> str | None:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _package_chains(path: Path) -> set[str]:
    """Attribute chains below the `ebltl` namespace, as `module.attr...`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))

    def below_package(dotted: str | None, aliases: dict) -> str | None:
        if dotted is None:
            return None
        head, _, rest = dotted.removeprefix("self.").partition(".")
        if head == "ebltl":
            return rest or None
        if head in aliases:
            return ".".join(filter(None, (aliases[head], rest)))
        return None

    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            chain = below_package(_dotted(node.value), {})
            if chain:
                aliases[node.targets[0].id] = chain
    chains = {below_package(_dotted(node), aliases)
              for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return {c for c in chains if c and c.split(".")[0] not in BENCH_OWNED}


def _tracer_layers() -> dict:
    tree = ast.parse((BENCH / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and _dotted(node.targets[0]) == "LAYERS":
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no LAYERS")


TRACED = sorted({target for targets in _tracer_layers().values()
                 for target in targets})
USED = sorted(_package_chains(BENCH / "workloads.py")
              | _package_chains(BENCH / "checks.py"))


@pytest.mark.parametrize("module, qualname", TRACED)
def test_traced_function_resolves(module, qualname):
    assert callable(_resolve(module, qualname))


@pytest.mark.parametrize("chain", USED)
def test_benchmark_attribute_resolves(chain):
    module, _, rest = chain.partition(".")
    _resolve(f"ebltl.{module}", rest)
