"""Print the closed-form table for a chosen degree, both forms, and
evaluate every entry at one q as a sanity sweep.

Run with:  python3 demos/print_tables.py [l] [q]
"""

import sys

from spintori import (
    FORM_MINUS,
    FORM_PLUS,
    closed_form_decomposition,
    enumerate_classes,
    sweep_checks,
)

l = int(sys.argv[1]) if len(sys.argv) > 1 else 4
q = int(sys.argv[2]) if len(sys.argv) > 2 else 3

for form in (FORM_PLUS, FORM_MINUS):
    print(f"degree {l}, form {form}")
    for cls in enumerate_classes(l, form):
        # the closed form against the lattice SNF, as ``spintori verify`` checks it
        check = next(c for c in sweep_checks([cls], [q]) if c.route == "lattice")
        ok = "ok" if check.ok else "XX"
        symbolic = closed_form_decomposition(cls).symbolic()
        print(f"  {cls.literal():<12} {symbolic:<42} q={q}: {check.want} {ok}")
    print()
