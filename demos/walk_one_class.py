"""Walk one torus class from its label all the way to the verdict.

Run with:  python3 demos/walk_one_class.py [type] [q]
"""

import sys

from spintori import (
    TorusClass,
    canonical_invariants,
    closed_form_decomposition,
    determinant,
    invariant_factors,
    representative,
    torus_matrix,
    torus_order,
)

text = sys.argv[1] if len(sys.argv) > 1 else "1,1,-2"
q = int(sys.argv[2]) if len(sys.argv) > 2 else 3

cls = TorusClass.parse(text)
print(f"class {cls.literal()}  (l={cls.ctype.degree}, form {cls.ctype.form})")

print(f"representative element: {representative(cls)}")

a = torus_matrix(cls, q)
print(f"lattice matrix at q={q}:")
for row in a:
    print("   ", row)
print(f"|det| = {abs(determinant(a))}, order law gives {torus_order(cls, q)}")

factors = invariant_factors(a)
print(f"invariant factors: {factors}")

dec = closed_form_decomposition(cls)
print(f"closed form (case {dec.case}): {dec.symbolic()}")
print(f"closed form evaluated: {dec.orders(q)}")

left = canonical_invariants(dec.orders(q))
right = tuple(x for x in factors if x > 1)
print(f"canonical invariants, both routes: {left} vs {right}")
print("MATCH" if left == right else "MISMATCH")
