"""Checks on the package source itself."""

import ast
from pathlib import Path

import dsteiner

SRC = Path(dsteiner.__file__).parent


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so a check written as one would
    # vanish; the package raises its errors instead
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert list(SRC.rglob("*.py")) and not found, found
