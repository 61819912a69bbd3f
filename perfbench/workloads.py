"""The benchmark's four workloads.

Each workload builds its inputs from the seed (``build``), yields the
cases of one pass (``cases``), and runs every route of one case through
the probe (``check``), returning the case's result tuple, the number of
checks it made and the checks that failed.  A case is one input: a
class at one q, or one matrix.  Only public entry points of spintori
are called, always through ``probe.call`` so a traced run sees each
call as a span.

Why these four (see NOTES.md for the full mapping):

* sweep        the checks ``spintori verify`` makes; many small matrices,
               build and per-call overhead dominate.
* growth       SNF of the l = 10 lattice and reduced matrices plus named
               worst cases; integer growth inside the SNF dominates.
* closed_scale enumeration and closed form at l = 20; never touches
               matrices or smith, so an SNF change must read no change.
* witness      the ``snf --witnesses`` path: witnessed SNF, certificate
               and determinant, through the matrix text format.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from math import prod
from pathlib import Path
from typing import NamedTuple

from spintori import (
    FORM_MINUS,
    FORM_PLUS,
    TorusClass,
    alternative_decomposition,
    canonical_invariants,
    closed_form_decomposition,
    determinant,
    enumerate_classes,
    format_matrix_text,
    invariant_factors,
    parse_matrix_text,
    reduced_form_identity,
    reduced_torus_matrix,
    smith_normal_form,
    torus_matrix,
)
from spintori import cli

from spans import Direct

ACCEPTANCE_QS = (2, 3, 4, 5, 7, 9, 11, 13, 16, 25)
WORST_CASES_PATH = Path(__file__).parent / "worst_cases.json"

TORI = "tori.closed_form"
DIRECT = Direct()


def worst_cases() -> list[dict]:
    """The named worst cases, each with its type, q and route."""
    return json.loads(WORST_CASES_PATH.read_text())["cases"]


class Case(NamedTuple):
    id: str
    cls: TorusClass | None = None
    q: int | None = None
    text: str | None = None


class Counts:
    """What the results say about the work, read from outside the
    library: classes enumerated, and the bits of |det| (the product of
    the invariant factors), of the largest invariant factor and of the
    largest witness entry."""

    def __init__(self):
        self.classes = 0
        self.det_bits_max = 0
        self.diag_bits_max = 0
        self.witness_bits_max = 0
        self.witness_over_det_bits = 0.0

    def note_diagonal(self, diag) -> int:
        det_bits = prod(abs(d) for d in diag).bit_length()
        self.det_bits_max = max(self.det_bits_max, det_bits)
        self.diag_bits_max = max(self.diag_bits_max, max((abs(d).bit_length() for d in diag), default=0))
        return det_bits

    def note_witnesses(self, res, det_bits: int) -> None:
        bits = max(abs(x).bit_length() for m in (res.p, res.q) for row in m for x in row)
        self.witness_bits_max = max(self.witness_bits_max, bits)
        if det_bits:
            self.witness_over_det_bits = max(self.witness_over_det_bits, bits / det_bits)


def _classes(l: int) -> list[TorusClass]:
    return enumerate_classes(l, FORM_PLUS) + enumerate_classes(l, FORM_MINUS)


def _closed(probe, cls, q):
    dec = probe.call(TORI, closed_form_decomposition, cls)
    return probe.call(TORI, canonical_invariants, probe.call(TORI, dec.orders, q))


def _has_reduced_route(cls: TorusClass) -> bool:
    # the same condition ``spintori verify`` applies
    return cls.split != "-" and len(cls.ctype.parts) >= 2


def _expect(what: str, got, want) -> None:
    if got != want:
        raise RuntimeError(f"{what}: expected {want}, got {got}")


class Sweep:
    """Every class of l = 2..8, both forms, at the ten acceptance q."""

    name = "sweep"
    CASES = 4420

    def build(self, seed):
        cases = [Case(f"{c.literal()}@{q}", c, q) for l in range(2, 9) for c in _classes(l) for q in ACCEPTANCE_QS]
        random.Random(f"sweep:{seed}").shuffle(cases)
        _expect("sweep cases", len(cases), self.CASES)
        return cases

    def cases(self, inputs, probe, counts):
        return inputs

    def check(self, case, probe, counts):
        cls, q = case.cls, case.q
        want = _closed(probe, cls, q)
        lattice = probe.call("smith.lattice_snf", invariant_factors, probe.call("matrices.torus_matrix", torus_matrix, cls, q))
        counts.note_diagonal(lattice)
        got = probe.call(TORI, canonical_invariants, lattice)
        checks, bad = 1, ["lattice"] if got != want else []
        alt = probe.call(TORI, alternative_decomposition, cls, q)
        alt_inv = None
        if alt is not None:
            checks += 1
            alt_inv = probe.call(TORI, canonical_invariants, probe.call(TORI, alt.orders, q))
            if alt_inv != want:
                bad.append("alternative")
        identity = reduced = None
        if cls.ctype.degree <= 6 and _has_reduced_route(cls):
            checks += 2
            identity = probe.call("matrices.identity", reduced_form_identity, cls.ctype, q)
            if not identity:
                bad.append("coupling identity")
            m = probe.call("matrices.reduced_matrix", reduced_torus_matrix, cls.ctype, q)
            reduced = probe.call(TORI, canonical_invariants, probe.call("smith.reduced_snf", invariant_factors, m))
            if reduced != want:
                bad.append("reduced matrix")
        return (want, got, alt_inv, reduced, identity), checks, bad

    def cli(self, inputs, probe, checks_per_pass):
        """``spintori verify`` over the same sweep; returns the failed commands."""
        argv = ["verify", "--l-max", "8", "--q", ",".join(map(str, ACCEPTANCE_QS))]
        rc, out = probe.call("cli.verify", run_cli, argv)
        if rc == 0 and out.rstrip().endswith(f"total: {checks_per_pass} checks, 0 failures"):
            return []
        return [f"verify: exit {rc}, last line {out.rstrip().splitlines()[-1:]!r}"]


class SnfGrowth:
    """All classes of l = 10 at q = 25 along both matrix routes, plus the
    named worst cases of worst_cases.json."""

    name = "growth"
    CLASSES = 488

    def build(self, seed):
        classes = _classes(10)
        _expect("l = 10 classes", len(classes), self.CLASSES)
        cases = [Case(f"{c.literal()}@25", c, 25) for c in classes]
        ids = {c.id for c in cases}
        for w in worst_cases():
            cid = f"{w['type']}@{w['q']}"
            if cid not in ids:
                ids.add(cid)
                cases.append(Case(cid, TorusClass.parse(w["type"]), w["q"]))
        random.Random(f"growth:{seed}").shuffle(cases)
        return cases

    def cases(self, inputs, probe, counts):
        return inputs

    def check(self, case, probe, counts):
        cls, q = case.cls, case.q
        want = _closed(probe, cls, q)
        lattice = probe.call("smith.lattice_snf", invariant_factors, probe.call("matrices.torus_matrix", torus_matrix, cls, q))
        counts.note_diagonal(lattice)
        got = probe.call(TORI, canonical_invariants, lattice)
        checks, bad = 1, ["lattice"] if got != want else []
        reduced = None
        if _has_reduced_route(cls):
            checks += 1
            m = probe.call("matrices.reduced_matrix", reduced_torus_matrix, cls.ctype, q)
            diag = probe.call("smith.reduced_snf", invariant_factors, m)
            counts.note_diagonal(diag)
            reduced = probe.call(TORI, canonical_invariants, diag)
            if reduced != want:
                bad.append("reduced matrix")
        return (want, got, reduced), checks, bad


class ClosedScale:
    """Enumeration plus closed form of every class of l = 20 at one odd
    61-bit q drawn from the seed."""

    name = "closed_scale"
    L, CLASSES = 20, 24884

    def build(self, seed):
        q = random.Random(f"closed_scale:{seed}").randrange(2**60, 2**61) | 1
        return {"l": self.L, "q": q}

    def cases(self, inputs, probe, counts):
        l, q = inputs["l"], inputs["q"]
        classes = probe.call("permutations.enumerate", enumerate_classes, l, FORM_PLUS)
        classes += probe.call("permutations.enumerate", enumerate_classes, l, FORM_MINUS)
        _expect(f"l = {l} classes", len(classes), self.CLASSES)
        counts.classes += len(classes)
        return [Case(c.literal(), c, q) for c in classes]

    def check(self, case, probe, counts):
        cls, q = case.cls, case.q
        dec = probe.call(TORI, closed_form_decomposition, cls)
        orders = probe.call(TORI, dec.orders, q)
        inv = probe.call(TORI, canonical_invariants, orders)
        checks, bad = 2, []
        # order law, with the order taken straight from the cycle type
        if prod(orders) != prod(q**n - e for n, e in zip(cls.ctype.lengths, cls.ctype.signs)):
            bad.append("order law")
        if prod(inv) != prod(orders) or any(b % a for a, b in zip(inv, inv[1:])):
            bad.append("canonical chain")
        alt = probe.call(TORI, alternative_decomposition, cls, q)
        if alt is not None:
            checks += 1
            if probe.call(TORI, canonical_invariants, probe.call(TORI, alt.orders, q)) != inv:
                bad.append("alternative")
        return (inv,), checks, bad


class Witness:
    """Witnessed SNF of the l = 9 lattice matrices at q = 25 and of
    seeded random square matrices, all read through the matrix text
    format."""

    name = "witness"
    CLASSES, RANDOM = 300, 200

    def build(self, seed):
        rng = random.Random(f"witness:{seed}")
        classes = _classes(9)
        _expect("l = 9 classes", len(classes), self.CLASSES)
        cases = [Case(f"{c.literal()}@25", c, 25) for c in classes]
        for k in range(self.RANDOM):
            n = rng.randint(4, 8)
            rows = [" ".join(str(rng.randint(-9, 9)) for _ in range(n)) for _ in range(n)]
            cases.append(Case(f"random{k}", text=f"{n} {n}\n" + "\n".join(rows) + "\n"))
        rng.shuffle(cases)
        return cases

    def cases(self, inputs, probe, counts):
        return inputs

    def _matrix_text(self, case, probe):
        """The input as text, and the lattice matrix behind it (None for
        the random inputs, which are made as text)."""
        if case.text is not None:
            return None, case.text
        m = probe.call("matrices.torus_matrix", torus_matrix, case.cls, case.q)
        return m, probe.call("matrices.text", format_matrix_text, m)

    def check(self, case, probe, counts):
        m, text = self._matrix_text(case, probe)
        a = probe.call("matrices.text", parse_matrix_text, text)
        res = probe.call("smith.witness_snf", smith_normal_form, a)
        certified = probe.call("smith.certify", res.verify, a)
        det = probe.call("smith.determinant", determinant, a)
        diag = res.diagonal
        checks, bad = 3, []
        if m is not None and a != m:
            bad.append("text round trip")
        if not certified:
            bad.append("witness certificate")
        if any(d < 0 for d in diag) or any(y % x if x else y for x, y in zip(diag, diag[1:])):
            bad.append("diagonal chain")
        if abs(det) != prod(diag):
            bad.append("determinant")
        counts.note_witnesses(res, counts.note_diagonal(diag))
        if case.cls is not None:
            checks += 1
            if probe.call(TORI, canonical_invariants, diag) != _closed(probe, case.cls, case.q):
                bad.append("closed form")
        return (diag, det), checks, bad

    def cli(self, inputs, probe, checks_per_pass):
        """``spintori snf --witnesses`` on every input; returns the failed commands."""
        failed = []
        for case in inputs:
            _, text = self._matrix_text(case, DIRECT)
            try:
                rc, out = probe.call("cli.snf", run_cli, ["snf", "-", "--witnesses"], text)
            except Exception as exc:  # the command crashed: count it, keep going
                failed.append(f"snf {case.id}: raised {type(exc).__name__}")
                continue
            if rc != 0 or "invariant factors:" not in out:
                failed.append(f"snf {case.id}: exit {rc}")
        return failed


def run_cli(argv, stdin_text=""):
    """``spintori.cli.main`` in process, stdin fed, output captured;
    returns the exit code and standard output."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
    finally:
        sys.stdin = saved
    return rc, out.getvalue()


WORKLOADS = {w.name: w for w in (Sweep(), SnfGrowth(), ClosedScale(), Witness())}
