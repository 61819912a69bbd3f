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
routes of ``ROUTES`` for any classes at any q: ``spintori verify``
passes every class of degree 2..l_max, and ``spintori structure --q``
the one class it is given, so any failed check replays.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod
from operator import itemgetter
from typing import Iterator, NamedTuple

from .permutations import SignedCycleType, TorusClass
from .smith import invariant_factors
from .matrices import reduced_form_identity, reduced_torus_matrix, torus_matrix

__all__ = [
    "Check", "TorusDecomposition", "alternative_decomposition", "canonical_invariants",
    "closed_form_decomposition", "is_prime_power", "sweep_checks", "torus_order",
]

Factor = tuple[tuple[int, int], ...]


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
        # most factors have one term, which needs no product
        return tuple([q ** f[0][0] - f[0][1] if len(f) == 1 else prod([q**a - e for a, e in f])
                      for f in self.factors])

    def symbolic(self) -> str:
        # the value at q = 8 sorts factors in polynomial order: a factor
        # is x^a - e, x^(2a) - 1 or (x^a - e1)(x^b - e2) with a != b, so
        # each coefficient is -1, 0 or 1; two factors differ by at most 2
        # per coefficient, and 2 (8^k - 1) / 7 < 8^k, so the highest
        # coefficient where they differ decides
        shown = []
        for f, _ in sorted(zip(self.factors, self.orders(8)), key=itemgetter(1), reverse=True):
            a = f[0][0]
            if f == ((a, 1), (a, -1)):  # the one merge: (q^a-1)(q^a+1) = q^(2a)-1
                f = ((2 * a, 1),)
            terms = [("q" if n == 1 else f"q^{n}") + ("-1" if e == 1 else "+1") for n, e in f]
            body = terms[0] if len(terms) == 1 else "".join(f"({t})" for t in terms)
            shown.append(f"Z_{{{body}}}")
        return " x ".join(shown)


def _sides(parts) -> tuple[int | None, int | None, int | None]:
    """Indices of the least positive odd, least negated odd and least
    negated even part, in one scan; a strict < keeps the earliest among
    equal lengths, in any part order.  None where a side is empty."""
    pos_odd = neg_odd = neg_even = None
    for i, p in enumerate(parts):
        if p > 0:
            if p % 2 and (pos_odd is None or p < parts[pos_odd]):
                pos_odd = i
        elif p % 2:
            if neg_odd is None or p > parts[neg_odd]:
                neg_odd = i
        elif neg_even is None or p > parts[neg_even]:
            neg_even = i
    return pos_odd, neg_odd, neg_even


def _standard(parts) -> list[Factor]:
    """The standard factor of every part, in part order."""
    return [((p, 1),) if p > 0 else ((-p, -1),) for p in parts]


def _composite(case: str, parts, i: int, j: int) -> TorusDecomposition:
    """Case ``case`` with the composite factor (q^a - eps)(q^b + 1) of
    part i (length a, sign eps) and negated part j (length b) first,
    its terms by descending exponent and q^a - 1 before q^a + 1 at
    equal exponent, and every other part standard."""
    factors = _standard(parts)
    head = tuple(sorted(factors[i] + factors[j], reverse=True))
    del factors[max(i, j)], factors[min(i, j)]
    return TorusDecomposition(case, (head, *factors))


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
    parts = ctype.parts
    pos_odd, neg_odd, neg_even = _sides(parts)

    if pos_odd is not None and neg_odd is not None:
        return _composite("i", parts, pos_odd, neg_odd)

    if neg_even is not None and (pos_odd is not None or neg_odd is not None):
        return _composite("ii", parts, neg_odd if pos_odd is None else pos_odd, neg_even)

    if ctype.is_split_eligible():
        # all parts positive even: least 2-part, then least length, earliest first
        i = min(range(len(parts)), key=lambda k: (parts[k] & -parts[k], parts[k]))
        half, factors = parts[i] // 2, _standard(parts)
        del factors[i]
        return TorusDecomposition("iii", (((half, 1),), ((half, -1),), *factors))

    return TorusDecomposition("iv", tuple(_standard(parts)))


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
    parts = TorusClass.coerce(tau).ctype.parts
    pos_odd, neg_odd, neg_even = _sides(parts)
    if pos_odd is None or neg_odd is None or neg_even is None:
        return None
    return _composite("i", parts, pos_odd if q % 4 == 1 else neg_odd, neg_even)


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

    The orders are added in ascending order to a chain, each walking
    it down from the top: x goes in above the first entry that divides
    it, else that entry c becomes lcm(c, x) and x goes on as gcd(c, x),
    which keeps the group and the chain; the walk ends at x = 1.  The
    chain of a finite abelian group is unique, so input order cannot
    change the result, and ascending order makes it cheap, as q^a - eps
    divides q^(ka) - eps: on the closed forms of every class of l = 20
    at a 61-bit q the gcd calls drop from 490,202 (a pairwise sift in
    input order) to 157,831.

    >>> canonical_invariants([10, 8])
    (2, 40)
    >>> canonical_invariants([5, 3])
    (15,)
    >>> canonical_invariants([1, 7])
    (7,)
    """
    vals = sorted(map(int, orders))
    if vals and vals[0] < 1:
        raise ValueError(f"orders must be positive, got {vals[0]}")
    chain: list[int] = []
    for x in vals:
        k = len(chain)
        while x > 1:
            if not k or x % chain[k - 1] == 0:
                chain.insert(k, x)
                break
            k -= 1
            c = chain[k]
            if c % x:
                g = gcd(c, x)
                chain[k] = c // g * x
                x = g
    return tuple(chain)


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


def _reduced(cls) -> bool:
    """Whether the block-pipeline routes check a class: degree at most
    6, split tag other than '-' and at least two parts."""
    return cls.ctype.degree <= 6 and cls.split != "-" and len(cls.ctype.parts) >= 2


# The routes the closed form is checked against, in the order a sweep
# makes them: a name and a function from (class, q, the closed form's
# divisor chain) to the check's (want, got), or None where the route
# does not apply.
ROUTES = (
    ("lattice", lambda cls, q, chain: (chain, _smith_chain(torus_matrix(cls, q)))),
    ("alternative", lambda cls, q, chain: (
        None if (alt := alternative_decomposition(cls, q)) is None
        else (chain, canonical_invariants(alt.orders(q))))),
    ("coupling identity", lambda cls, q, chain: (
        (True, reduced_form_identity(cls.ctype, q)) if _reduced(cls) else None)),
    ("reduced matrix", lambda cls, q, chain: (
        (chain, _smith_chain(reduced_torus_matrix(cls.ctype, q))) if _reduced(cls) else None)),
)


def sweep_checks(classes, qs) -> Iterator[Check]:
    """Every comparison of the closed form of each torus class in
    ``classes`` at each q in ``qs`` (any iterable, read once on
    entry) with each route of ``ROUTES`` that applies: the lattice SNF,
    the alternative decomposition, the basis-change identity (want
    True) and the block-eliminated matrix.  Checks come in the order of
    the classes, then of ``qs``, then of ``ROUTES``.

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
        for q in qs:
            chain = canonical_invariants(dec.orders(q))
            for name, route in ROUTES:
                if (pair := route(cls, q, chain)) is not None:
                    yield Check(cls, q, name, *pair)


def _smith_chain(m) -> tuple[int, ...]:
    """The invariant factors of a matrix route above 1: its divisor
    chain with the trivial factors dropped, as the closed form's is."""
    return tuple(x for x in invariant_factors(m) if x > 1)


def is_prime_power(n: int) -> bool:
    """Whether n = p^k for a prime p and k >= 1, by ``_is_prime``, so
    exact for n below 3.3 * 10^24, with no factorization.

    Roots are taken at prime exponents only, least first: a prime n
    returns at once, and a k-th power n is replaced by its root, the
    search going on from the same k, as no smaller prime is left.

    >>> [m for m in range(2, 20) if is_prime_power(m)]
    [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19]
    """
    k = 2
    while n > 1 and not _is_prime(n):
        exponents = (p for p in range(k, n.bit_length()) if _is_prime(p))
        k = next((p for p in exponents if _iroot(n, p) ** p == n), 0)
        n = _iroot(n, k) if k else 1
    return n > 1


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
