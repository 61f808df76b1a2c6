"""The benchmark harness under bench/ binds library names that the rest of
this suite does not reach: the class methods its tracer wraps, and the names
its workloads and self-tests import from ``freefold``.  The harness stays as
it is between benchmark changes, so these tests keep a library change from
breaking it unseen."""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_the_tracer_finds_every_method_it_wraps(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    with tracing.Tracer().installed() as tracer:
        pass
    wrapped = {name.split(".", 1)[1] for name in tracer.stats}
    for layer, methods in tracing.METHODS.items():
        assert {f"{cls}.{meth}" for cls, meth in methods} <= wrapped, layer


def _freefold_bindings(path: Path):
    """(module, name) for each name ``path`` imports from ``freefold`` and
    each attribute it reads off a ``freefold`` module it imported."""
    tree = ast.parse(path.read_text())
    modules = {}  # local name -> dotted freefold module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "freefold":
            for alias in node.names:
                dotted = f"{node.module}.{alias.name}"
                try:  # a submodule is an attribute of its package once imported
                    importlib.import_module(dotted)
                    modules[alias.asname or alias.name] = dotted
                except ModuleNotFoundError:  # a name, not a submodule
                    pass
                yield node.module, alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            yield modules[node.value.id], node.attr


def test_every_freefold_name_the_harness_binds_resolves():
    missing, seen = [], 0
    for path in sorted(BENCH.rglob("*.py")):
        for module, name in _freefold_bindings(path):
            seen += 1
            if not hasattr(importlib.import_module(module), name):
                missing.append(f"{path.relative_to(BENCH)}: {module}.{name}")
    assert seen > 20
    assert missing == []
