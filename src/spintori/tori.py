"""Closed-form cyclic decompositions of the maximal tori, plus the
number-theoretic helpers they use.

A torus class is a signed cycle type (positive parts L', negated parts
L'') with a split tag where needed.  ``closed_form_decomposition``
routes it through four mutually exclusive shapes, in this precedence:

  i:    some odd length in L' and some odd length in L''
        -> one composite factor (q^a - 1)(q^b + 1), rest standard;
  ii:   odd lengths on exactly one side, and an even length in L''
        -> composite (q^a -+ 1)(q^b + 1), rest standard;
  iii:  no negated parts and every length even
        -> split a length of least 2-part as (q^(a/2) - 1)(q^(a/2) + 1);
  iv:   anything else -> fully split product of Z_{q^length - sign}.

"Standard" factor for a part of length a and sign eps is Z_{q^a - eps}.
A factor is the tuple of its terms (a, eps), each standing for
q^a - eps, and a decomposition is its case and its factors.

``sweep_checks`` yields every comparison of the closed form with the
other routes for any classes at any q: ``spintori verify`` passes every
class of degree 2..l_max, and ``spintori structure --q`` the one class
it is given, so any failed check replays.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod
from operator import itemgetter
from typing import Iterator, NamedTuple

from .permutations import SignedCycleType, TorusClass, form_sign
from .smith import invariant_factors
from .matrices import reduced_form_identity, reduced_torus_matrix, torus_matrix

__all__ = [
    "Check", "TorusDecomposition", "alternative_decomposition", "canonical_invariants",
    "center_invariants", "closed_form_decomposition", "embeds", "is_prime_power",
    "sweep_checks", "torus_order", "two_part",
]

Factor = tuple[tuple[int, int], ...]


def _factor(*terms: tuple[int, int]) -> Factor:
    """A factor of several terms, by descending exponent, q^a - 1
    before q^a + 1 at equal exponent."""
    return tuple(sorted(terms, reverse=True))


@dataclass(frozen=True)
class TorusDecomposition:
    """The closed-form case of a class and its factor list.

    Each factor is a tuple of terms (a, eps), a cyclic group of order
    the product of the q^a - eps.  ``factors`` keeps the shape the case
    analysis produces (composite factor first); ``symbolic`` renders
    the display form, where a (q^a-1)(q^a+1) pair inside a factor
    merges to q^(2a)-1 and factors are sorted by descending size as
    polynomials in q.

    >>> dec = closed_form_decomposition(SignedCycleType.parse("1,-3"))
    >>> dec.factors
    (((3, -1), (1, 1)),)
    >>> dec.orders(3)
    (56,)
    """

    case: str
    factors: tuple[Factor, ...]

    def orders(self, q: int) -> tuple[int, ...]:
        return tuple(prod(q**a - eps for a, eps in f) for f in self.factors)

    def symbolic(self) -> str:
        shown = sorted(map(_merge_terms, self.factors), key=_poly_key, reverse=True)
        return " x ".join(f"Z_{{{_factor_body(f)}}}" for f in shown)


def _choose(indexed: list[tuple[int, int]]) -> int:
    """Pick the index of the smallest length, earliest among ties
    (``indexed`` is in index order and ``min`` keeps the first)."""
    return min(indexed, key=itemgetter(1))[0]


def _sides(lengths, signs):
    """(index, length) lists of the positive odd, negated odd and
    negated even parts, in index order."""
    pos_odd, neg_odd, neg_even = [], [], []
    for i, (a, eps) in enumerate(zip(lengths, signs)):
        if a % 2:
            (pos_odd if eps > 0 else neg_odd).append((i, a))
        elif eps < 0:
            neg_even.append((i, a))
    return pos_odd, neg_odd, neg_even


def _standard(lengths, signs, *skip) -> tuple[Factor, ...]:
    """The standard factor of every part whose index is not in skip."""
    pairs = enumerate(zip(lengths, signs))
    return tuple(((a, eps),) for k, (a, eps) in pairs if k not in skip)


def two_part(n: int) -> int:
    """Largest power of two dividing n.

    >>> two_part(48)
    16
    >>> two_part(7)
    1
    """
    if n <= 0:
        raise ValueError("positive integers only")
    return n & -n


def closed_form_decomposition(tau) -> TorusDecomposition:
    """Route a class through the four closed-form shapes.

    >>> closed_form_decomposition(SignedCycleType.parse("3,-1")).case
    'i'
    >>> closed_form_decomposition(SignedCycleType.parse("1,1,-2")).case
    'ii'
    >>> closed_form_decomposition(SignedCycleType.parse("4")).factors
    (((2, 1),), ((2, -1),))
    """
    ctype = TorusClass.coerce(tau).ctype
    lengths, signs = ctype.lengths, ctype.signs
    pos_odd, neg_odd, neg_even = _sides(lengths, signs)

    if pos_odd and neg_odd:
        i, j = _choose(pos_odd), _choose(neg_odd)
        head = _factor((lengths[i], 1), (lengths[j], -1))
        return TorusDecomposition("i", (head,) + _standard(lengths, signs, i, j))

    if (pos_odd or neg_odd) and neg_even:
        i, j = _choose(pos_odd or neg_odd), _choose(neg_even)
        head = _factor((lengths[i], signs[i]), (lengths[j], -1))
        return TorusDecomposition("ii", (head,) + _standard(lengths, signs, i, j))

    if ctype.is_split_eligible():
        least = min(two_part(a) for a in lengths)
        i = _choose([(k, a) for k, a in enumerate(lengths) if two_part(a) == least])
        half = lengths[i] // 2
        halves = (((half, 1),), ((half, -1),))
        return TorusDecomposition("iii", halves + _standard(lengths, signs, i))

    return TorusDecomposition("iv", _standard(lengths, signs))


def alternative_decomposition(tau, q: int) -> TorusDecomposition | None:
    """Second factorization available in case i when L'' also holds an
    even length and q is odd: the composite is re-anchored on the even
    part, paired with whichever odd part has sign eps with
    q = eps mod 4.  Returns None when inapplicable.  Isomorphic to the
    primary decomposition (an exchange identity on the 2-parts).  Case i
    is decided from the parts as ``closed_form_decomposition`` decides
    it first (odd lengths in both L' and L''), without building that
    decomposition.
    """
    if q % 2 == 0:
        return None
    ctype = TorusClass.coerce(tau).ctype
    lengths, signs = ctype.lengths, ctype.signs
    pos_odd, neg_odd, neg_even = _sides(lengths, signs)
    if not (pos_odd and neg_odd and neg_even):
        return None
    t = _choose(pos_odd) if q % 4 == 1 else _choose(neg_odd)
    k = _choose(neg_even)
    composite = _factor((lengths[t], signs[t]), (lengths[k], -1))
    return TorusDecomposition("i", (composite,) + _standard(lengths, signs, t, k))


def torus_order(tau, q: int) -> int:
    """prod(q^length - sign) over the parts; the law every
    decomposition must satisfy.

    >>> torus_order(SignedCycleType.parse("1,-3"), 3)
    56
    """
    ctype = TorusClass.coerce(tau).ctype
    return prod(q**length - sign for length, sign in zip(ctype.lengths, ctype.signs))


def canonical_invariants(orders) -> tuple[int, ...]:
    """Canonical divisor chain of a direct product of cyclic groups,
    trivial factors dropped.  Pure gcd/lcm sifting, no factorization.

    One pass suffices.  Row i replaces (v_i, v_j) by (gcd, lcm), which
    keeps the group, for each j > i; v_i only shrinks to its own
    divisors, so after row i it divides every later entry.  Later rows
    keep that true, since the gcd and lcm of multiples of v_i are
    multiples of v_i.  So the result is a divisor chain, in order.

    >>> canonical_invariants([10, 8])
    (2, 40)
    >>> canonical_invariants([5, 3])
    (15,)
    >>> canonical_invariants([1, 7])
    (7,)
    """
    vals = []
    for n in orders:
        if n < 1:
            raise ValueError(f"orders must be positive, got {n}")
        if n > 1:
            vals.append(int(n))
    for i in range(len(vals)):
        a = vals[i]
        for j in range(i + 1, len(vals)):
            b = vals[j]
            if b % a:
                g = gcd(a, b)
                vals[j] = a // g * b
                a = g
        vals[i] = a
    return tuple(v for v in vals if v > 1)


class Check(NamedTuple):
    """One comparison of a sweep: what the closed form predicts for a
    class at q against what one other route gives (invariant factors,
    a group order, or for an identity a bool)."""

    cls: TorusClass
    q: int
    route: str
    want: tuple[int, ...] | int
    got: tuple[int, ...] | int

    @property
    def ok(self) -> bool:
        return self.want == self.got


def sweep_checks(classes, qs) -> Iterator[Check]:
    """Every comparison of the closed form of each torus class in
    ``classes`` at each q in ``qs`` (any iterable, read once on
    entry): the lattice SNF (route ``lattice``), the alternative
    decomposition where one exists (``alternative``), and for l <= 6,
    a class with at least two parts and split tag other than '-', the
    basis-change identity (``coupling identity``, want True) and the
    block-eliminated matrix (``reduced matrix``).  Checks come in the
    order of the classes, then of ``qs``.

    The want of every check but the identity is the closed form's
    divisor chain, sifted by ``canonical_invariants``.  Both matrix
    routes read their got the one way ``_smith_chain`` does, as the
    invariant factors above 1, so no closed-form code touches them.

    >>> [(c.route, c.ok) for c in sweep_checks([TorusClass.parse("1,-1")], [3])]
    [('lattice', True), ('coupling identity', True), ('reduced matrix', True)]
    """
    qs = tuple(qs)
    for cls in classes:
        dec = closed_form_decomposition(cls)
        reduced = cls.ctype.degree <= 6 and cls.split != "-" and len(cls.ctype.parts) >= 2
        for q in qs:
            want = canonical_invariants(dec.orders(q))
            yield Check(cls, q, "lattice", want, _smith_chain(torus_matrix(cls, q)))
            alt = alternative_decomposition(cls, q)
            if alt is not None:
                yield Check(cls, q, "alternative", want, canonical_invariants(alt.orders(q)))
            if reduced:
                yield Check(cls, q, "coupling identity", True, reduced_form_identity(cls.ctype, q))
                got = _smith_chain(reduced_torus_matrix(cls.ctype, q))
                yield Check(cls, q, "reduced matrix", want, got)


def _smith_chain(m) -> tuple[int, ...]:
    """The invariant factors of a matrix route above 1: its divisor
    chain with the trivial factors dropped, as the closed form's is."""
    return tuple(x for x in invariant_factors(m) if x > 1)


# ---------------------------------------------------------------------------
# centers


def center_invariants(l: int, form, q: int) -> tuple[int, ...]:
    """Invariants of the center: (gcd(2,q-1))^2 for form plus with l
    even, else the cyclic gcd(4, q^l - sign).  Trivial factors dropped.
    The form is FORM_PLUS or FORM_MINUS; anything else is a ValueError.

    >>> center_invariants(4, "plus", 3)
    (2, 2)
    >>> center_invariants(4, "minus", 3)
    (2,)
    >>> center_invariants(3, "minus", 3)
    (4,)
    """
    sign = form_sign(form)
    if l < 2:
        raise ValueError("degree must be at least 2")
    if sign == 1 and l % 2 == 0:
        d = gcd(2, q - 1)
        raw: tuple[int, ...] = (d, d)
    else:
        raw = (gcd(4, q**l - sign),)
    return tuple(x for x in raw if x > 1)


def embeds(sub: tuple[int, ...], big: tuple[int, ...]) -> bool:
    """Whether the abelian group with invariants ``sub`` embeds into
    the one with invariants ``big``.  Both are brought to their divisor
    chains by ``canonical_invariants`` (so entries must be positive);
    then aligned from the largest entry, each entry of ``sub`` must
    divide the matching entry of ``big``.  Prime by prime this is the
    domination of the descending exponent lists.

    >>> embeds((2, 2), (2, 4))
    True
    >>> embeds((4,), (2, 2))
    False
    """
    a, b = canonical_invariants(sub), canonical_invariants(big)
    return len(a) <= len(b) and all(y % x == 0 for x, y in zip(reversed(a), reversed(b)))


def is_prime_power(n: int) -> bool:
    """Whether n = p^k for a prime p and k >= 1.

    Each integer k-th root of n, for k up to the bit length of n, is
    tested for primality by ``_is_prime``, so the answer is exact for
    n below 3.3 * 10^24 and never needs a factorization.

    >>> [m for m in range(2, 20) if is_prime_power(m)]
    [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19]
    """
    if n < 2:
        return False
    for k in range(1, n.bit_length() + 1):
        root = _iroot(n, k)
        if root**k == n and _is_prime(root):
            return True
    return False


def _iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the first 13 prime bases.

    Deterministic for n < 3,317,044,064,679,887,385,961,981 (about
    3.3 * 10^24); above that a composite could pass as a strong
    probable prime to all 13 bases.
    """
    if n < 2:
        return False
    for p in _MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# rendering


def _merge_terms(terms: Factor) -> Factor:
    # a closed-form factor has at most two terms, so its one merge is
    # (q^a-1)(q^a+1) = q^(2a)-1
    a = terms[0][0]
    return ((2 * a, 1),) if terms == ((a, 1), (a, -1)) else terms


def _poly_key(terms) -> int:
    # the value at q = 8 sorts factors in polynomial order: after
    # _merge_terms a factor is x^a - e or (x^a - e1)(x^b - e2) with a != b,
    # so each coefficient is -1, 0 or 1; two factors differ by at most 2
    # per coefficient, and 2 (8^k - 1) / 7 < 8^k, so the highest
    # coefficient where they differ decides
    return prod(8**a - eps for a, eps in terms)


def _term_body(a: int, eps: int) -> str:
    base = "q" if a == 1 else f"q^{a}"
    return f"{base}-1" if eps == 1 else f"{base}+1"


def _factor_body(f: Factor) -> str:
    if len(f) == 1:
        return _term_body(*f[0])
    return "".join(f"({_term_body(a, eps)})" for a, eps in f)
