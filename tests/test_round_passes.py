"""No Python in kdmc runs the C passes of a lockstep round: `flights`,
`collide`, `kd_steps` and `compact` on `_draws`. The engine,
`_draws.lockstep`, runs a chunk's rounds in one C call, and `core.lockstep`
only marshals its arguments, so no ensemble brings a collision of its own."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "kdmc"
ROUND_PASSES = {"flights", "collide", "kd_steps", "compact"}


def round_pass_users(source):
    """The (top-level definition, pass) pairs in `source` that name a round
    pass on `_draws`; "<module>" stands for code outside any definition."""
    found = []
    for node in ast.parse(source).body:
        where = getattr(node, "name", "<module>")
        found += [(where, a.attr) for a in ast.walk(node)
                  if isinstance(a, ast.Attribute) and a.attr in ROUND_PASSES
                  and isinstance(a.value, ast.Name) and a.value.id == "_draws"]
    return found


def test_the_check_finds_a_pass_outside_the_engine():
    source = ("def lockstep():\n    _draws.collide(0)\n    _draws.lockstep(0)\n"
              "def collision():\n    _draws.kd_steps(0)\n    _draws.walk(0)\n"
              "class Kd:\n    def run(self):\n        return _draws.flights\n"
              "compact = _draws.compact\n")
    assert round_pass_users(source) == [("lockstep", "collide"), ("collision", "kd_steps"),
                                        ("Kd", "flights"), ("<module>", "compact")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_the_engine_runs_a_round(path):
    assert round_pass_users(path.read_text()) == []
