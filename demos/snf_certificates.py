"""Smith normal form with its unimodular certificates, on the lattice
matrix of one torus class.

Run with:  python3 demos/snf_certificates.py
"""

from spintori import (
    SignedCycleType,
    determinant,
    smith_normal_form,
    torus_matrix,
)
from spintori.smith import mat_mul

a = torus_matrix(SignedCycleType.parse("2,-2"), 3)
print("A =")
for row in a:
    print("   ", row)

res = smith_normal_form(a)
print("D = P A Q with")
for name, m in (("P", res.p), ("D", res.d), ("Q", res.q)):
    print(f"{name} =")
    for row in m:
        print("   ", row)
    if name != "D":
        print(f"    det {name} = {determinant(m)}")

ok = mat_mul(mat_mul(res.p, a), res.q) == res.d
print(f"certificate multiplies back: {ok}")
print(f"invariant factors: {res.diagonal}")
