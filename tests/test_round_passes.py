"""Only `core.lockstep` runs the C passes of a lockstep round: `flights`,
`collide`, `kd_steps` and `compact` on `_draws`. The engine is the one
place that knows a round, so no ensemble brings a collision of its own."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "kdmc"
ROUND_PASSES = {"flights", "collide", "kd_steps", "compact"}


def round_pass_users(source, module):
    """The (top-level definition, pass) pairs in `source`, the module named
    `module`, that name a round pass on `_draws` outside `core.lockstep`;
    "<module>" stands for code outside any definition."""
    found = []
    for node in ast.parse(source).body:
        where = getattr(node, "name", "<module>")
        if (module, where) == ("core", "lockstep"):
            continue
        found += [(where, a.attr) for a in ast.walk(node)
                  if isinstance(a, ast.Attribute) and a.attr in ROUND_PASSES
                  and isinstance(a.value, ast.Name) and a.value.id == "_draws"]
    return found


def test_the_check_finds_a_pass_outside_the_engine():
    source = ("def lockstep():\n    _draws.collide(0)\n"
              "def collision():\n    _draws.kd_steps(0)\n    _draws.walk(0)\n"
              "class Kd:\n    def run(self):\n        return _draws.flights\n"
              "compact = _draws.compact\n")
    outside = [("collision", "kd_steps"), ("Kd", "flights"), ("<module>", "compact")]
    assert round_pass_users(source, "core") == outside
    assert round_pass_users(source, "kd") == [("lockstep", "collide"), *outside]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_the_engine_runs_a_round(path):
    assert round_pass_users(path.read_text(), path.stem) == []
