"""Cyclic decompositions of the maximal tori of the even spin groups,
computed along two independent routes: a closed-form case analysis of
the signed cycle type, and Smith normal form of the twisted action on
the weight lattice.

Each module lists its public names in its own ``__all__``; the package
exports them all.
"""

from . import matrices, permutations, smith, tori
from .permutations import *
from .matrices import *
from .smith import *
from .tori import *

__version__ = "0.1.0"

__all__ = permutations.__all__ + matrices.__all__ + smith.__all__ + tori.__all__
