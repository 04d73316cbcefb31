"""Every name a `kdmc` module imports is used there, exported in its
`__all__`, or marked `# noqa: F401` on its own line (the names the
benchmark tracer wraps): an import nothing reads is dead code."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "kdmc"


def unused_imports(source):
    """The names `source` imports and never reads, in import order."""
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
            if name not in read | exported and "# noqa: F401" not in lines[alias.lineno - 1]]


def test_the_check_finds_an_unused_import():
    source = ("import time\nimport os  # noqa: F401 - wrapped\nfrom math import (\n    pi,\n"
              "    tau,\n    e,  # noqa: F401 - wrapped\n)\n__all__ = ['tau']\n")
    assert unused_imports(source) == ["time", "pi"]
    assert unused_imports(source + "print(time.time(), pi)\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []
