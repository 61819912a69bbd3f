"""Command line front end.

Subcommands:

  enumerate   list the torus classes for a degree and form
  structure   closed form for one class, optionally checked at a given q
  table       every class of a degree and form with its closed form
  verify      sweep degrees and q values, closed form against lattice
  snf         Smith normal form of a matrix read from a file

Exit codes: 0 ok or stdout closed early, 1 a check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys
from math import prod
from pathlib import Path

from .matrices import (
    MatrixFormatError,
    format_matrix_text,
    parse_matrix_text,
)
from .permutations import (
    FORM_MINUS,
    FORM_PLUS,
    TorusClass,
    class_count,
    iter_classes,
)
from .smith import smith_normal_form
from .tori import (
    Check,
    TorusDecomposition,
    closed_form_decomposition,
    is_prime_power,
    sweep_checks,
    torus_order,
)

FORM_SIGIL = {FORM_PLUS: "+", FORM_MINUS: "-"}

# The largest verify sweep, in (class, q) pairs, and the largest table
# or list, in classes of both forms: l <= 13 at ten q is 49,280 pairs
MAX_VERIFY_PAIRS = 1_000_000
# The highest degree checked at a given q: the lattice check costs l^3
# steps, and a size rule alone would admit l = 256 at q = 13 (4 s)
MAX_CHECK_DEGREE = 64
# The largest check at a given q, as max(l, 9)^2 bits(q), which also
# bounds the composite-q note (13 modular powers on a prime q): degree
# 64 takes q below 2^64, degree 16 q below 2^1024, and a degree of at
# most 9 q of up to 3,236 bits
MAX_CHECK_SIZE = 2**18
# The most work in a sweep, pairs * max(l, 9)^2 bits(max q), which runs at
# 4 to 5 million a second: l <= 13 at ten q is 4.2 * 10^7, 10 s; 2^31, 8 min
MAX_VERIFY_WORK = 2**31

# Rows whose published value is known to disagree with both computation
# routes, keyed by (degree, form, parts).  The table command marks them.
KNOWN_MISPRINTS = {
    (4, FORM_PLUS, (2, 2)): (
        "some tabulations print Z_{q^2-1} x Z_{q+1} x Z_{q+1} here, which has "
        "order (q^2-1)(q+1)^2 instead of the class order (q^2-1)^2"
    ),
}


def _fmt_ints(values) -> str:
    return ", ".join(str(v) for v in values) if values else "(none)"


def _report_entry(cls: TorusClass, dec: TorusDecomposition, checks=()) -> dict:
    """The JSON record of a class and its closed form; with the checks
    of one q, also the lattice route's values and whether every check
    matched."""
    entry = {
        "l": cls.ctype.degree,
        "form": FORM_SIGIL[cls.ctype.form],
        "type": cls.ctype.literal(),
        "split": cls.split,
        "case": dec.case,
        "factors": [[list(t) for t in f] for f in dec.factors],
    }
    if checks:
        lattice = next(c for c in checks if c.route == "lattice")
        entry.update(
            q=lattice.q,
            orders=list(dec.orders(lattice.q)),
            invariants=list(lattice.want),
            oracle_invariants=list(lattice.got),
            match=all(c.ok for c in checks),
        )
    return entry


def _admit_listing(args, noun: str) -> None:
    """A usage error, before any class is built, when a degree up to --l
    has more classes of both forms than the limit; counts grow with l, so
    the count stops at the first degree past it."""
    for l in range(2, args.l + 1):
        if (count := class_count(l)) > MAX_VERIFY_PAIRS:
            args.parser.error(
                f"--l {args.l} is too large a {noun}: l = {l}{' alone' if l < args.l else ''} "
                f"has {count:,} classes of both forms, above the limit of {MAX_VERIFY_PAIRS:,}"
            )


def _admit_checks(args, l: int, qs: list[int], pairs: int) -> None:
    """A usage error, before any class is built, when checks of degree
    up to l at the q of qs, in that many pairs, pass any limit; then the
    note on each q that is not a prime power, which the size limit bounds."""
    if l > MAX_CHECK_DEGREE:
        args.parser.error(
            f"degree {l} is too large a check: l = {l}, above the limit of {MAX_CHECK_DEGREE}"
        )
    bits = max(qs).bit_length()
    if (size := max(l, 9) ** 2 * bits) > MAX_CHECK_SIZE:
        args.parser.error(
            f"degree {l} at a {bits:,}-bit q is too large a check: "
            f"max(l, 9)^2 * bits(q) = {size:,}, above the limit of {MAX_CHECK_SIZE:,}"
        )
    if (work := pairs * size) > MAX_VERIFY_WORK:
        args.parser.error(
            f"{pairs:,} (class, q) pairs of degree up to {l} at a {bits:,}-bit q are too much work: "
            f"pairs * max(l, 9)^2 * bits(q) = {work:,}, above the limit of {MAX_VERIFY_WORK:,}"
        )
    for q in qs:
        if not is_prime_power(q):
            print(f"note: q={q} is not a prime power; orders are formal values", file=sys.stderr)


def _print_failures(checks) -> None:
    """A line on stderr for each failed check, ending with the command
    that reruns every check of its class at its q."""
    for c in (c for c in checks if not c.ok):
        literal = c.cls.literal()
        print(
            f"FAIL {c.route} for {literal} at q={c.q}: want {c.want}, got {c.got}; "
            f"replay: spintori structure --type={literal} --q {c.q}",
            file=sys.stderr,
        )


def _cmd_enumerate(args) -> int:
    _admit_listing(args, "list")
    count = 0
    for count, cls in enumerate(iter_classes(args.l, args.form), 1):
        print(cls.literal())
    print(f"{count} classes")
    return 0


def _cmd_structure(args) -> int:
    try:
        cls = TorusClass.parse(args.type)
    except ValueError as exc:
        args.parser.error(str(exc))
    if args.q is not None:
        _admit_checks(args, cls.ctype.degree, [args.q], 1)
    dec = closed_form_decomposition(cls)
    checks = []
    if args.q is not None:
        checks = list(sweep_checks([cls], [args.q]))
        order = prod(dec.orders(args.q))
        checks.append(Check(cls, args.q, "order law", torus_order(cls, args.q), order))
        _print_failures(checks)

    entry = _report_entry(cls, dec, checks)
    ok = all(c.ok for c in checks)
    if args.format == "json":
        sys.stdout.write(json.dumps(entry, indent=2) + "\n")
        return 0 if ok else 1

    print(f"type: {cls.literal()}")
    print(f"l: {entry['l']}")
    print(f"form: {entry['form']}")
    if entry["split"] is not None:
        print(f"split: {entry['split']}" + ("" if ":" in args.type else " (defaulted)"))
    print(f"case: {entry['case']}")
    print(f"structure: {dec.symbolic()}")
    if args.q is not None:
        print(f"q: {args.q}")
        print(f"orders: {_fmt_ints(entry['orders'])}")
        print(f"invariants: {_fmt_ints(entry['invariants'])}")
        print(f"oracle: {_fmt_ints(entry['oracle_invariants'])}")
        print(f"verdict: {'MATCH' if ok else 'MISMATCH'}")
    return 0 if ok else 1


def _cmd_table(args) -> int:
    _admit_listing(args, "table")
    classes = iter_classes(args.l, args.form)

    if args.format == "json":  # streamed, in the bytes of json.dumps(list, indent=2)
        sep = "[\n"
        for cls in classes:
            record = json.dumps(_report_entry(cls, closed_form_decomposition(cls)), indent=2)
            sys.stdout.write(sep + "  " + record.replace("\n", "\n  "))
            sep = ",\n"
        sys.stdout.write("\n]\n")
        return 0

    rows = []
    notes = []
    for cls in classes:
        if cls.split == "-":  # the row of its '+' twin, just before, covers it
            continue
        label = cls.ctype.literal() + (":+/-" if cls.split else "")
        structure = closed_form_decomposition(cls).symbolic()
        note = KNOWN_MISPRINTS.get((args.l, args.form, cls.ctype.parts))
        if note is not None:
            structure += " [*]"
            notes.append(note)
        rows.append((label, structure))
    width = max(len(label) for label, _ in rows)
    width = max(width, len("type"))
    print(f"{'type':<{width}}  structure")
    for label, structure in rows:
        print(f"{label:<{width}}  {structure}")
    for note in notes:
        print()
        print(f"[*] computed value; {note}")
    return 0


def _cmd_verify(args) -> int:
    counted = 0  # only up to the limit, so no --l-max is slow to count
    for l in range(2, args.l_max + 1):
        counted += class_count(l)
        if (pairs := counted * len(args.q)) > MAX_VERIFY_PAIRS:
            args.parser.error(
                f"--l-max {args.l_max} at {len(args.q)} q is too large a sweep: l = 2..{l}"
                f"{' alone' if l < args.l_max else ''} has {counted:,} classes, "
                f"{pairs:,} (class, q) pairs, above the limit of {MAX_VERIFY_PAIRS:,}"
            )
    _admit_checks(args, args.l_max, args.q, counted * len(args.q))

    failures = []
    total = 0
    classes = (
        cls for l in range(2, args.l_max + 1) for form in (FORM_PLUS, FORM_MINUS)
        for cls in iter_classes(l, form)
    )
    checks = sweep_checks(classes, args.q)
    for l, group in itertools.groupby(checks, key=lambda c: c.cls.ctype.degree):
        count, failed_before = 0, len(failures)
        for count, c in enumerate(group, 1):
            if not c.ok:
                failures.append(c)
        total += count
        print(f"l={l}: {count} checks, {len(failures) - failed_before} failures")
    _print_failures(failures)
    print(f"total: {total} checks, {len(failures)} failures")
    return 1 if failures else 0


@contextlib.contextmanager
def _unlimited_int_text():
    """Lift Python's cap on int <-> str conversion (4300 digits by
    default where it exists): a --q, an order or a witness entry can be
    far longer."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        yield
        return
    saved = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        yield
    finally:
        set_limit(saved)


def _read_matrix_file(args) -> str:
    """The text of the matrix file, or of stdin for '-', decoded as
    UTF-8; a file that cannot be read or decoded is a usage error."""
    try:
        if args.matrix != "-":
            return Path(args.matrix).read_bytes().decode("utf-8")
        stdin = getattr(sys.stdin, "buffer", None)  # absent when stdin is already text
        return stdin.read().decode("utf-8") if stdin is not None else sys.stdin.read()
    except OSError as exc:
        args.parser.error(str(exc))
    except UnicodeDecodeError as exc:
        args.parser.error(f"{args.matrix}: not UTF-8 text ({exc.reason} at byte {exc.start})")


def _cmd_snf(args) -> int:
    text = _read_matrix_file(args)
    try:
        mat = parse_matrix_text(text)
    except MatrixFormatError as exc:
        args.parser.error(str(exc))
    res = smith_normal_form(mat)
    sys.stdout.write("D:\n")
    sys.stdout.write(format_matrix_text(res.d))
    if args.witnesses:
        if not res.verify(mat):
            print("witness check failed", file=sys.stderr)
            return 1
        sys.stdout.write("P:\n")
        sys.stdout.write(format_matrix_text(res.p))
        sys.stdout.write("Q:\n")
        sys.stdout.write(format_matrix_text(res.q))
    print(f"invariant factors: {_fmt_ints([x for x in res.diagonal if x])}")
    return 0


def _at_least_two(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2, got {value}")
    return value


def _q_list(text: str) -> list[int]:
    qs = [_at_least_two(tok) for tok in text.split(",")]
    seen = set()
    for q in qs:
        if q in seen:
            raise argparse.ArgumentTypeError(f"q = {q} is given more than once")
        seen.add(q)
    return qs


def _add_degree(sp):
    sp.add_argument("--l", type=_at_least_two, required=True, metavar="L", help="degree, 2 or more")


def _add_form(sp):
    sp.add_argument("--form", choices=(FORM_PLUS, FORM_MINUS), required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spintori",
        description="cyclic decompositions of the maximal tori of the even spin groups",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("enumerate", help="list torus classes", allow_abbrev=False)
    _add_degree(sp)
    _add_form(sp)
    sp.set_defaults(func=_cmd_enumerate, parser=sp)

    sp = sub.add_parser("structure", help="closed form for one class", allow_abbrev=False)
    sp.add_argument("--type", required=True, help="signed cycle type, e.g. 1,-2,-1 or 2,2:-")
    sp.add_argument("--q", type=_at_least_two, help="evaluate and cross-check at this q")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=_cmd_structure, parser=sp)

    sp = sub.add_parser("table", help="all classes of a degree and form", allow_abbrev=False)
    _add_degree(sp)
    _add_form(sp)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=_cmd_table, parser=sp)

    sp = sub.add_parser("verify", help="cross-check both routes over a sweep", allow_abbrev=False)
    sp.add_argument("--l-max", type=_at_least_two, default=4, metavar="L")
    sp.add_argument("--q", type=_q_list, default="2,3,4,5", help="comma separated q values")
    sp.set_defaults(func=_cmd_verify, parser=sp)

    sp = sub.add_parser("snf", help="Smith normal form of a matrix file", allow_abbrev=False)
    sp.add_argument("matrix", help="path to a matrix file, or - for stdin")
    sp.add_argument("--witnesses", action="store_true", help="print and check P and Q")
    sp.set_defaults(func=_cmd_snf, parser=sp)

    return parser


def main(argv=None) -> int:
    with _unlimited_int_text():
        args = build_parser().parse_args(argv)
        return args.func(args)


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early (``... | head``); stdout goes to
        # devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)


if __name__ == "__main__":
    entry()
