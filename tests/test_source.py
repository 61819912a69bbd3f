"""Checks on the library source itself."""

import ast
import importlib
import importlib.util
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


def test_every_definition_is_used():
    # a top-level function or class that no module's code names (the
    # re-exports in ``__init__.py`` and docstrings do not count) and
    # ``__all__`` does not export is dead code
    defined, used = [], set()
    for path in SOURCE_FILES:
        tree = ast.parse(path.read_text(), filename=str(path))
        defined += [
            (path.name, node.name)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        ]
        if path.name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                used.update(alias.name for alias in node.names)
    used.update(spintori.__all__)
    dead = [f"{file}:{name}" for file, name in defined if name not in used]
    assert dead == []


BENCHMARK_FILES = sorted((Path(__file__).parent.parent / "perfbench").glob("*.py"))


def test_benchmark_imports_resolve():
    # the benchmark imports the library by name; a rename or deletion
    # here would break it before any workload runs
    assert "workloads.py" in [path.name for path in BENCHMARK_FILES]
    missing = []
    for path in BENCHMARK_FILES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom) or node.level:
                continue
            if node.module != "spintori" and not (node.module or "").startswith("spintori."):
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(module, alias.name) and not _is_submodule(node.module, alias.name):
                    missing.append(f"{path.name}:{node.lineno}: {node.module}.{alias.name}")
    assert missing == []


def _is_submodule(package: str, name: str) -> bool:
    return importlib.util.find_spec(f"{package}.{name}") is not None
