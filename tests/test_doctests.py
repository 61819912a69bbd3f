import doctest
from pathlib import Path

import pytest

from spintori import matrices, permutations, smith, tori

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize(
    "module", [permutations, matrices, smith, tori], ids=lambda m: m.__name__
)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
    assert result.attempted > 0


def test_readme_examples():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.failed == 0
    assert result.attempted > 0
