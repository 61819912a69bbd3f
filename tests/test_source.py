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


def test_exports_resolve():
    # a name deleted from the library must leave ``__all__`` with it
    assert len(spintori.__all__) == len(set(spintori.__all__))
    missing = [name for name in spintori.__all__ if not hasattr(spintori, name)]
    assert missing == []
