"""End-to-end acceptance checks: each test pins one promised behavior
of the finished tool, at full sweep sizes."""

import math
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from spintori import (
    FORM_MINUS,
    FORM_PLUS,
    TorusClass,
    canonical_invariants,
    closed_form_decomposition,
    determinant,
    enumerate_classes,
    invariant_factors,
    reduced_form_identity,
    reduced_torus_matrix,
    sweep_checks,
    torus_matrix,
    torus_order,
)

from test_tori import center_invariants, embeds

GOLDEN = Path(__file__).parent / "golden"
SWEEP_QS = (2, 3, 4, 5, 7, 9, 11, 13, 16, 25)


@pytest.fixture(scope="module")
def sweep():
    classes = (
        cls for l in range(2, 9) for form in (FORM_PLUS, FORM_MINUS)
        for cls in enumerate_classes(l, form)
    )
    return list(sweep_checks(classes, SWEEP_QS))


def run_cli(*args, timeout=60):
    return subprocess.run(
        [sys.executable, "-m", "spintori", *args], capture_output=True, text=True,
        timeout=timeout,
    )


def test_table_reproduction_degree_four():
    start = time.perf_counter()
    plus = run_cli("table", "--l", "4", "--form", "plus")
    minus = run_cli("table", "--l", "4", "--form", "minus")
    elapsed = time.perf_counter() - start
    assert plus.returncode == 0 and minus.returncode == 0
    assert plus.stdout == (GOLDEN / "table_l4_plus.txt").read_text()
    assert minus.stdout == (GOLDEN / "table_l4_minus.txt").read_text()
    flagged = [line for line in plus.stdout.splitlines() if line.endswith("[*]")]
    assert len(flagged) == 1 and flagged[0].startswith("2,2:+/-")
    assert elapsed < 1.0


def test_closed_form_matches_lattice_everywhere(sweep):
    # the counts ``spintori verify --l-max 8`` prints at these q; the
    # lattice checks are one per class and q, 4420 in all
    per_degree = Counter(c.cls.ctype.degree for c in sweep)
    assert per_degree == {2: 120, 3: 260, 4: 587, 5: 1054, 6: 1996, 7: 1198, 8: 2152}
    assert sum(c.route == "lattice" for c in sweep) == 4420
    for c in sweep:
        assert c.ok, (
            f"routes disagree at l={c.cls.ctype.degree} form={c.cls.ctype.form} "
            f"type={c.cls.literal()} q={c.q}: {c.route}"
        )


def test_order_law(sweep):
    for c in sweep:
        if c.route == "lattice":
            order = torus_order(c.cls, c.q)
            assert math.prod(c.want) == order
            assert abs(determinant(torus_matrix(c.cls, c.q))) == order


def test_split_pairs_have_identical_invariants():
    for l in (2, 4, 6, 8):
        types = {
            c.ctype for c in enumerate_classes(l, FORM_PLUS) if c.ctype.is_split_eligible()
        }
        assert types
        for ct in types:
            for q in (2, 3, 5, 9):
                plus = invariant_factors(torus_matrix(TorusClass(ct, "+"), q))
                minus = invariant_factors(torus_matrix(TorusClass(ct, "-"), q))
                assert plus == minus, (ct.literal(), q)


def test_block_reduction_pipeline():
    seen = set()
    for l in range(2, 7):
        for form in (FORM_PLUS, FORM_MINUS):
            for cls in enumerate_classes(l, form):
                ct = cls.ctype
                if len(ct.parts) < 2 or ct in seen:
                    continue
                seen.add(ct)
                for q in (2, 3, 5):
                    assert reduced_form_identity(ct, q), (ct.literal(), q)
                    big = [x for x in invariant_factors(torus_matrix(ct, q)) if x > 1]
                    small = [
                        x for x in invariant_factors(reduced_torus_matrix(ct, q)) if x > 1
                    ]
                    assert big == small, (ct.literal(), q)
    assert len(seen) > 100


def test_center_contained_in_every_torus():
    for l in range(2, 7):
        for form in (FORM_PLUS, FORM_MINUS):
            for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25):
                z = center_invariants(l, form, q)
                for cls in enumerate_classes(l, form):
                    torus = canonical_invariants(closed_form_decomposition(cls).orders(q))
                    assert embeds(z, torus), (l, form, q, cls.literal())


def test_degree_two_exceptional_isomorphisms():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        minus = {
            cls.literal(): canonical_invariants(closed_form_decomposition(cls).orders(q))
            for cls in enumerate_classes(2, FORM_MINUS)
        }
        assert minus == {
            "1,-1": canonical_invariants([q**2 - 1]),
            "-2": (q**2 + 1,),
        }
        plus = {
            cls.literal(): canonical_invariants(closed_form_decomposition(cls).orders(q))
            for cls in enumerate_classes(2, FORM_PLUS)
        }
        assert plus == {
            "1,1": canonical_invariants([q - 1, q - 1]),
            "-1,-1": canonical_invariants([q + 1, q + 1]),
            "2:+": canonical_invariants([q - 1, q + 1]),
            "2:-": canonical_invariants([q - 1, q + 1]),
        }


def test_even_q_tori_fully_split():
    for q in (2, 4, 8, 16):
        for l in range(2, 9):
            for form in (FORM_PLUS, FORM_MINUS):
                for cls in enumerate_classes(l, form):
                    ct = cls.ctype
                    split_orders = [
                        q**length - sign for length, sign in zip(ct.lengths, ct.signs)
                    ]
                    orders = closed_form_decomposition(cls).orders(q)
                    assert canonical_invariants(orders) == canonical_invariants(
                        split_orders
                    ), (q, cls.literal())
