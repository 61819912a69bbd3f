"""Signed permutations, signed cycle types, and torus class bookkeeping.

A signed permutation on n points maps each i in {1, ..., n} to a signed
image w(i), where |w| is a bijection of {1, ..., n} and signs propagate
through w(-i) = -w(i).  An element is the plain tuple of its images of
1..n, so ``(2, -1)`` sends 1 to 2 and 2 to -1.  These are the
symmetries of the hyperoctahedron; the ones with an even number of sign
flips form the type-D reflection group, whose conjugacy data drives
everything else in this package.  The package never multiplies
elements; the tests' brute-force oracle carries its own group law.

Cycles are read off the underlying unsigned permutation; a cycle counts
as negative when the signs met along it multiply to -1.  The multiset of
signed cycle lengths is the conjugacy invariant.  It is written with
positive lengths first, both groups in descending order, e.g. the
element with images (2, 1, 4, -3) has type ``2,-2``, while
(2, 1, -4, -3) carries two flips in one cycle and has type ``2,2``.

Torus classes are signed cycle types, except that an all-positive
all-even type labels two distinct classes, tagged '+' and '-'.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "FORM_MINUS", "FORM_PLUS", "SignedCycleType", "TorusClass", "enumerate_classes",
    "iter_classes", "representative",
]

FORM_PLUS = "plus"
FORM_MINUS = "minus"


@dataclass(frozen=True)
class SignedCycleType:
    """Multiset of signed cycle lengths, held in canonical part order.

    Parts are nonzero integers; a negative part is a negative cycle of
    that length.  Canonical order is positives descending, then
    negatives by length descending.  The degree, the sum of the
    lengths, is at least 2: every part adds at least 1, so only the
    types 1 and -1 fall short.

    >>> SignedCycleType((-1, 2, -2, 1)).parts
    (2, 1, -2, -1)
    >>> SignedCycleType((2, 1, -1)).degree
    4
    >>> SignedCycleType.parse("1,-2,-1").literal()
    '1,-2,-1'
    """

    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("empty cycle type")
        if any(type(p) is not int or p == 0 for p in self.parts):  # bool is an int subclass
            raise ValueError(f"parts must be nonzero integers: {self.parts!r}")
        object.__setattr__(self, "parts", tuple(sorted(self.parts, key=lambda p: (p < 0, -abs(p)))))
        if self.parts in ((1,), (-1,)):
            raise ValueError(f"type {self.literal()} has degree 1, below 2")

    @classmethod
    def parse(cls, text: str) -> "SignedCycleType":
        try:
            parts = tuple(int(tok) for tok in text.split(","))
        except ValueError:
            raise ValueError(f"bad cycle type literal: {text!r}") from None
        return cls(parts)

    def literal(self) -> str:
        return ",".join(str(p) for p in self.parts)

    @property
    def degree(self) -> int:
        return sum(abs(p) for p in self.parts)

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(abs(p) for p in self.parts)

    @property
    def signs(self) -> tuple[int, ...]:
        """+1 / -1 per part, aligned with ``parts``."""
        return tuple(1 if p > 0 else -1 for p in self.parts)

    @property
    def num_negative(self) -> int:
        return sum(1 for p in self.parts if p < 0)

    @property
    def form(self) -> str:
        """'plus' when the number of negative parts is even, else 'minus'."""
        return FORM_PLUS if self.num_negative % 2 == 0 else FORM_MINUS

    def is_split_eligible(self) -> bool:
        """True for all-positive, all-even types, which label two classes."""
        return all(p > 0 and p % 2 == 0 for p in self.parts)


@dataclass(frozen=True)
class TorusClass:
    """A torus class: a signed cycle type plus a split tag when needed.

    A type that splits always carries its tag; left out, it is '+'.

    >>> TorusClass(SignedCycleType((2, 2)), "-").literal()
    '2,2:-'
    >>> TorusClass.parse("2,2").literal()
    '2,2:+'
    >>> TorusClass(SignedCycleType((3, -1))).literal()
    '3,-1'
    """

    ctype: SignedCycleType
    split: str | None = None

    def __post_init__(self):
        if self.split is None:
            if self.ctype.is_split_eligible():
                object.__setattr__(self, "split", "+")
            return
        if self.split not in ("+", "-"):
            raise ValueError(f"split tag must be '+' or '-', got {self.split!r}")
        if not self.ctype.is_split_eligible():
            raise ValueError(f"type {self.ctype.literal()} does not split")

    @classmethod
    def parse(cls, text: str) -> "TorusClass":
        body, sep, tag = text.partition(":")
        return cls(SignedCycleType.parse(body), tag if sep else None)

    @classmethod
    def coerce(cls, tau) -> "TorusClass":
        """A class as given; a cycle type as its class (tagged '+' when
        it splits, as every untagged class is).

        >>> TorusClass.coerce(SignedCycleType((2, 2))).literal()
        '2,2:+'
        >>> TorusClass.coerce("2,2")
        Traceback (most recent call last):
        ...
        TypeError: expected a torus class or cycle type, got str
        """
        if isinstance(tau, TorusClass):
            return tau
        if isinstance(tau, SignedCycleType):
            return cls(tau)
        raise TypeError(f"expected a torus class or cycle type, got {type(tau).__name__}")

    def literal(self) -> str:
        base = self.ctype.literal()
        return f"{base}:{self.split}" if self.split else base


def representative(tau) -> tuple[int, ...]:
    """Images of 1..l under the representative of a class, or of a
    cycle type's class (``TorusClass.coerce``): consecutive points per
    part, one sign flip on the closing image of each negative part.
    The '-' member of a split pair is the '+' one conjugated by the
    sign flip at the last point.

    >>> representative(SignedCycleType((2, -2)))
    (2, 1, 4, -3)
    >>> representative(TorusClass.parse("2,2:-"))
    (2, 1, -4, -3)
    """
    cls = TorusClass.coerce(tau)
    imgs = []
    offset = 0
    for p in cls.ctype.parts:
        k = abs(p)
        for i in range(1, k):
            imgs.append(offset + i + 1)
        imgs.append((offset + 1) if p > 0 else -(offset + 1))
        offset += k
    if cls.split == "-":
        # d w d, d the flip at l, negates the image of l and the image
        # equal to l.  A split type's last cycle has length >= 2, so these
        # are two images, w(l) and w(l-1) = l: the last two.
        imgs[-2:] = [-imgs[-2], -imgs[-1]]
    return tuple(imgs)


def _partitions(n: int):
    """Partitions of n as descending tuples, in ascending lexicographic
    order: (1, ..., 1) first, (n,) last.

    Iterative, so no depth limit: the successor raises by one the last
    part that can grow (the first part, or one below its predecessor)
    and has parts after it, and refills the rest with ones.

    >>> list(_partitions(4))
    [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
    """
    p = [1] * n
    while True:
        yield tuple(p)
        i = len(p) - 2
        while i > 0 and p[i] == p[i - 1]:
            i -= 1
        if i < 0:
            return
        p[i:] = [p[i] + 1] + [1] * (sum(p[i + 1 :]) - 1)


def iter_classes(l: int, form: str) -> Iterator[TorusClass]:
    """The torus classes of ``enumerate_classes``, one at a time, in the
    same canonical order.

    The generation itself makes the order, with no global sort:
    unsigned partitions in ascending lexicographic order (as descending
    tuples), then within each partition by the number of negated parts
    and the negated lengths (descending tuple), and '+' before '-' for
    a split pair.  Only one partition's sign choices are held at a time.

    Sign choices are vectors of negation counts per distinct length,
    longest first.  ``itertools.product`` yields them in lexicographic
    order, and a stable sort by count keeps it.  At equal count that is
    the order of the negated lengths: where two vectors first differ,
    the smaller negates fewer of that length and a shorter one instead.

    >>> [c.literal() for c in iter_classes(3, "minus")]
    ['1,1,-1', '-1,-1,-1', '2,-1', '1,-2', '-3']
    """
    if l < 2:
        raise ValueError(f"degree must be at least 2, got {l}")
    if form not in (FORM_PLUS, FORM_MINUS):
        raise ValueError(f"form must be 'plus' or 'minus', got {form!r}")
    parity = form == FORM_MINUS  # of the number of negated parts
    for partition in _partitions(l):
        runs = Counter(partition).items()  # (length, count), longest first
        choices = itertools.product(*(range(c + 1) for _, c in runs))
        for negs in sorted((v for v in choices if sum(v) % 2 == parity), key=sum):
            parts = [-d if i < k else d for (d, c), k in zip(runs, negs) for i in range(c)]
            cls = TorusClass(SignedCycleType(tuple(parts)))
            yield cls
            if cls.split:
                yield TorusClass(cls.ctype, "-")


def class_count(l: int) -> int:
    """The number of torus classes of degree l, both forms, with none
    built: the coefficient of x^l in prod_d (1 - x^d)^-2, which counts
    the signed cycle types as pairs of partitions, plus p(l/2) for even
    l, the '-' twins of the split types."""
    p = [1] + [0] * l  # partition numbers, one part size d at a time
    for d in range(1, l + 1):
        for n in range(d, l + 1):
            p[n] += p[n - d]
    return sum(x * y for x, y in zip(p, reversed(p))) + (0 if l % 2 else p[l // 2])


def enumerate_classes(l: int, form: str) -> list[TorusClass]:
    """All torus classes of the given degree and form, canonically
    ordered (see ``iter_classes``, which yields them one at a time).

    Split-eligible types contribute two entries ('+' before '-'); the
    form is decided by the parity of the number of negative parts.

    >>> [c.literal() for c in enumerate_classes(2, "plus")]
    ['1,1', '-1,-1', '2:+', '2:-']
    >>> len(enumerate_classes(4, "minus"))
    9
    """
    return list(iter_classes(l, form))
