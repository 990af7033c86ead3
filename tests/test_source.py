"""Checks on the package source itself."""

import ast
from pathlib import Path

import cytforge

PACKAGE = Path(cytforge.__file__).parent


def test_no_assert_statements_in_the_package():
    # python -O strips asserts, so no verdict check may live in one
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
