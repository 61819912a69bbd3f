"""Brute force helpers used only by the tests.

They share no code with the library: an element is a plain tuple of
images of 1..n (with w(-i) = -w(i)), and the group law, conjugation and
the cycle-type reader below are written out here.  Class membership is
decided by conjugating actual group elements, so the enumeration in the
package is checked against something that cannot repeat its mistakes.

Composition reads left to right: ``compose(u, v)(i) == v(u(i))``.  Under
this convention ``matrices.permutation_matrix`` is a homomorphism,
``matrix(compose(u, v)) == matrix(u) @ matrix(v)``.
"""

from functools import cache
from itertools import permutations, product


def compose(u: tuple, v: tuple) -> tuple:
    """u then v: the image of i is v(u(i))."""
    return tuple(v[x - 1] if x > 0 else -v[-x - 1] for x in u)


def inverse(w: tuple) -> tuple:
    out = [0] * len(w)
    for i, x in enumerate(w, 1):
        out[abs(x) - 1] = i if x > 0 else -i
    return tuple(out)


def conjugate(w: tuple, g: tuple) -> tuple:
    """g^-1 w g, which has the cycle type of w."""
    return compose(compose(inverse(g), w), g)


def cycle_type(w: tuple) -> str:
    """Signed cycle type as a literal: follow each cycle of |w|, negate
    its length when the signs met along it multiply to -1, and list the
    positive lengths descending, then the negative ones by length
    descending."""
    seen = set()
    parts = []
    for start in range(1, len(w) + 1):
        if start in seen:
            continue
        length, sign, i = 0, 1, start
        while i not in seen:
            seen.add(i)
            img = w[i - 1]
            if img < 0:
                sign = -sign
            i = abs(img)
            length += 1
        parts.append(sign * length)
    parts.sort(key=lambda p: (p < 0, -abs(p)))
    return ",".join(map(str, parts))


def group_generators(l: int) -> list[tuple]:
    """Adjacent swaps plus the swap of the last two points that also
    flips both signs; together they generate the even-sign group."""
    gens = []
    for i in range(1, l):
        images = list(range(1, l + 1))
        images[i - 1], images[i] = images[i], images[i - 1]
        gens.append(tuple(images))
    images = list(range(1, l + 1))
    images[l - 2], images[l - 1] = -l, -(l - 1)
    gens.append(tuple(images))
    return gens


def coset_elements(l: int, parity: int):
    """All signed permutations whose number of sign flips has the given
    parity (0 for the even-sign group itself, 1 for the other coset)."""
    out = []
    for base in permutations(range(1, l + 1)):
        for signs in product((1, -1), repeat=l):
            if sum(1 for s in signs if s < 0) % 2 == parity:
                out.append(tuple(s * b for s, b in zip(signs, base)))
    return out


@cache
def conjugacy_orbits(l: int, parity: int) -> tuple[frozenset, ...]:
    """Orbits of even-sign conjugation on the given coset, as frozensets
    of image tuples.  Exponential in l; fine up to l = 7 or so.  Built
    once per (l, parity) and shared, hence immutable."""
    gens = group_generators(l)
    todo = set(coset_elements(l, parity))
    orbits = []
    while todo:
        seed = todo.pop()
        orbit = {seed}
        queue = [seed]
        while queue:
            w = queue.pop()
            for g in gens:
                c = conjugate(w, g)
                if c not in orbit:
                    orbit.add(c)
                    queue.append(c)
        todo -= orbit
        orbits.append(frozenset(orbit))
    return tuple(orbits)


def orbit_type_census(l: int, parity: int):
    """Map each orbit to its (constant) cycle type literal; returns a
    list of (literal, orbit size) pairs."""
    census = []
    for orbit in conjugacy_orbits(l, parity):
        literals = {cycle_type(w) for w in orbit}
        assert len(literals) == 1, f"orbit mixes cycle types: {literals}"
        census.append((literals.pop(), len(orbit)))
    return census
