"""Every name a `kdmc` module imports is used there, exported in its
`__all__`, or marked `# noqa: F401` on its own line and wrapped in that
module by the benchmark tracer (`perfbench/tracer.py`'s `SITES`): an import
nothing reads is dead code."""

import ast
import functools
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "kdmc"


@functools.cache
def tracer_sites():
    """The (module, name) pairs the benchmark tracer wraps, read from its
    `SITES` without installing it."""
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_kdmc_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {(module, name) for module, name, _, _ in tracer.SITES}


def unused_imports(source, wrapped=()):
    """The names `source` imports and never reads, in import order; one
    marked `# noqa: F401` is exempt only if it is in `wrapped`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return [name for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            for name in [(alias.asname or alias.name).split(".")[0]]
            if name not in read | exported
            and not (name in wrapped and "# noqa: F401" in lines[alias.lineno - 1])]


def test_the_check_finds_an_unused_import():
    source = ("import time\nimport os  # noqa: F401 - wrapped\nfrom math import (\n    pi,\n"
              "    tau,\n    e,  # noqa: F401 - wrapped\n)\n__all__ = ['tau']\n")
    assert unused_imports(source, {"os", "e"}) == ["time", "pi"]
    assert unused_imports(source + "print(time.time(), pi)\n", {"os", "e"}) == []
    # a noqa mark on a name nothing wraps exempts nothing
    assert unused_imports(source, {"os"}) == ["time", "pi", "e"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    wrapped = {name for module, name in tracer_sites() if module == f"kdmc.{path.stem}"}
    assert unused_imports(path.read_text(), wrapped) == []
