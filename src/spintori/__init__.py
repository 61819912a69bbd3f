"""Cyclic decompositions of the maximal tori of the even spin groups,
computed along two independent routes: a closed-form case analysis of
the signed cycle type, and Smith normal form of the twisted action on
the weight lattice.
"""

from .permutations import (
    FORM_MINUS,
    FORM_PLUS,
    SignedCycleType,
    TorusClass,
    enumerate_classes,
    iter_classes,
    representative,
    standard_representative,
)
from .matrices import (
    MatrixFormatError,
    format_matrix_text,
    parse_matrix_text,
    reduced_form_identity,
    reduced_torus_matrix,
    torus_matrix,
    twist_factorization_check,
    weight_action_matrix,
)
from .smith import (
    SnfResult,
    determinant,
    invariant_factors,
    smith_normal_form,
    xgcd,
)
from .tori import (
    Check,
    TorusDecomposition,
    alternative_decomposition,
    canonical_invariants,
    center_invariants,
    closed_form_decomposition,
    embeds,
    is_prime_power,
    oracle_invariants,
    sweep_checks,
    torus_order,
    two_part,
)

__version__ = "0.1.0"

__all__ = [
    "FORM_MINUS",
    "FORM_PLUS",
    "SignedCycleType",
    "TorusClass",
    "enumerate_classes",
    "iter_classes",
    "representative",
    "standard_representative",
    "MatrixFormatError",
    "format_matrix_text",
    "parse_matrix_text",
    "reduced_form_identity",
    "reduced_torus_matrix",
    "torus_matrix",
    "twist_factorization_check",
    "weight_action_matrix",
    "SnfResult",
    "determinant",
    "invariant_factors",
    "smith_normal_form",
    "xgcd",
    "Check",
    "TorusDecomposition",
    "alternative_decomposition",
    "canonical_invariants",
    "center_invariants",
    "closed_form_decomposition",
    "embeds",
    "is_prime_power",
    "oracle_invariants",
    "sweep_checks",
    "torus_order",
    "two_part",
]
