"""Checks on the library source itself."""

import ast
from pathlib import Path

import spintori

SOURCE_FILES = sorted(Path(spintori.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # ``python -O`` strips asserts, so a guard written as one is no guard
    assert len(SOURCE_FILES) > 1
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCE_FILES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
