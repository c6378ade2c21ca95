"""The benchmark's checks (``perfbench/checks.py``) import ``tests/oracles.py``
and call its functions as ``oracles().<name>``, so a renamed or deleted
oracle would only surface when the benchmark judges a run.  This test reads
the checks as they are and checks that every oracle they call resolves."""

import ast
from pathlib import Path

import oracles

CHECKS = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"


def test_every_oracle_the_checks_read_resolves():
    tree = ast.parse(CHECKS.read_text())
    names = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Call)
             and isinstance(node.value.func, ast.Name)
             and node.value.func.id == "oracles"}
    assert names
    missing = sorted(name for name in names
                     if not callable(getattr(oracles, name, None)))
    assert not missing, missing
