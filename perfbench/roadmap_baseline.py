"""Re-measure the rows of the ROADMAP baseline table, one line each.

    python3 perfbench/roadmap_baseline.py

Run from the root of a source checkout.  Each timing is the median of
three runs unless the row says otherwise.  Rows that need a counter
inside smith.py, or that ran for minutes without finishing, are not
repeated here; NOTES.md says which.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from math import prod
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from spintori import (  # noqa: E402
    FORM_MINUS,
    FORM_PLUS,
    TorusClass,
    canonical_invariants,
    closed_form_decomposition,
    enumerate_classes,
    invariant_factors,
    reduced_torus_matrix,
    smith_normal_form,
    torus_matrix,
)

WORST = TorusClass.parse("3,-2,-2,-2,-1")


def timed(fn, *args, repeat=3):
    times = []
    for _ in range(repeat):
        t0 = perf_counter()
        out = fn(*args)
        times.append(perf_counter() - t0)
    return statistics.median(times), out


def both_forms(l):
    return enumerate_classes(l, FORM_PLUS) + enumerate_classes(l, FORM_MINUS)


def row(label, value):
    print(f"{label:<58} {value}", flush=True)


def verify_wall():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-m", "spintori", "verify", "--l-max", "8", "--q", "2,3,5,25"]

    def once():
        return subprocess.run(cmd, env=env, capture_output=True, text=True, check=True).stdout

    return timed(once)


def main():
    t, out = verify_wall()
    row("spintori verify --l-max 8 --q 2,3,5,25 (wall)", f"{t:.2f} s, {out.splitlines()[-1]}")

    per_class = [timed(smith_normal_form, torus_matrix(c, 25))[0] for c in both_forms(8)]
    row("lattice SNF with witnesses, q = 25, l = 8, median per class", f"{statistics.median(per_class) * 1e3:.3f} ms")

    classes = both_forms(10)
    t, _ = timed(lambda: [smith_normal_form(torus_matrix(c, 25)) for c in classes], repeat=1)
    row(f"lattice SNF with witnesses, q = 25, l = 10 ({len(classes)} classes, once)", f"{t:.2f} s")

    a = torus_matrix(WORST, 25)
    t, res = timed(smith_normal_form, a)
    diag = res.diagonal
    det_bits = prod(diag).bit_length()
    wit_bits = max(abs(x).bit_length() for m in (res.p, res.q) for r in m for x in r)
    row(f"worst l = 10 class {WORST.literal()} at q = 25, SNF", f"{t * 1e3:.0f} ms")
    row("same class, witness entries / |det|", f"{wit_bits} bits / {det_bits} bits")

    for q in (25, 2**61 - 1):
        t, _ = timed(invariant_factors, reduced_torus_matrix(WORST.ctype, q))
        row(f"same class, reduced_torus_matrix SNF, q = {q}", f"{t * 1e3:.3f} ms")
    t, _ = timed(lambda: canonical_invariants(closed_form_decomposition(WORST).orders(25)))
    row("same class, closed form + canonical_invariants", f"{t * 1e6:.0f} us")

    t, classes = timed(both_forms, 24, repeat=1)
    row("enumeration at l = 24, both forms (once)", f"{len(classes)} classes in {t:.2f} s")
    plus = enumerate_classes(24, FORM_PLUS)
    q = 2**61 - 1
    t, _ = timed(lambda: [closed_form_decomposition(c).orders(q) for c in plus], repeat=1)
    row(f"closed form, all {len(plus)} plus classes at l = 24, q = 2^61-1 (once)", f"{t:.2f} s")
    t, _ = timed(lambda: [canonical_invariants(closed_form_decomposition(c).orders(q)) for c in plus], repeat=1)
    row("same, with canonical_invariants (once)", f"{t:.2f} s")

    for literal, q in (("1,1,1,1,-2,-2,-2", 25), ("1,1,1,-2,-2", 2**31 - 1), ("1,1,1,1,-2,-1", 2**31 - 1)):
        cls = TorusClass.parse(literal)
        t, _ = timed(invariant_factors, reduced_torus_matrix(cls.ctype, q), repeat=1)
        row(f"reduced_torus_matrix SNF, {literal}, q = {q} (once)", f"{t:.2f} s")


if __name__ == "__main__":
    main()
