import doctest
import importlib
from pathlib import Path

import pytest

import spintori

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = sorted(
    path.stem for path in Path(spintori.__file__).parent.glob("*.py")
    if path.stem not in ("__init__", "__main__")
)


@pytest.mark.parametrize("name", MODULES, ids=lambda name: f"spintori.{name}")
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(f"spintori.{name}"))
    assert result.failed == 0
    assert result.attempted > 0


def test_readme_examples():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.failed == 0
    assert result.attempted > 0
