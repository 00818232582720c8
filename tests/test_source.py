"""Checks on the package source itself."""

import ast
from pathlib import Path

import coupled_pendula

PACKAGE_DIR = Path(coupled_pendula.__file__).parent


def test_no_runtime_invariant_relies_on_assert():
    # python -O strips assert statements; invariants raise typed errors
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE_DIR.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"
