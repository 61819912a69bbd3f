"""Print the closed-form table for a chosen degree, both forms, and
evaluate every entry at one q as a sanity sweep.

Run with:  python3 demos/print_tables.py [l] [q]
"""

import sys

from spintori import (
    FORM_MINUS,
    FORM_PLUS,
    canonical_invariants,
    closed_form_decomposition,
    enumerate_classes,
    invariant_factors,
    torus_matrix,
)

l = int(sys.argv[1]) if len(sys.argv) > 1 else 4
q = int(sys.argv[2]) if len(sys.argv) > 2 else 3

for form in (FORM_PLUS, FORM_MINUS):
    print(f"degree {l}, form {form}")
    for cls in enumerate_classes(l, form):
        dec = closed_form_decomposition(cls)
        inv = canonical_invariants(dec.orders(q))
        lattice = tuple(x for x in invariant_factors(torus_matrix(cls, q)) if x > 1)
        ok = "ok" if inv == lattice else "XX"
        print(f"  {cls.literal():<12} {dec.symbolic():<42} q={q}: {inv} {ok}")
    print()
