"""Brute force helpers used only by the tests.

These deliberately avoid the library's own shortcuts: class membership
is decided by conjugating actual group elements, so the enumeration in
the package is checked against something it does not share code with.
"""

from functools import cache
from itertools import permutations, product

from spintori import SignedPermutation, conjugate, cycle_type


def group_generators(l: int) -> list[SignedPermutation]:
    """Adjacent swaps plus the swap of the last two points that also
    flips both signs; together they generate the even-sign group."""
    gens = []
    for i in range(1, l):
        images = list(range(1, l + 1))
        images[i - 1], images[i] = images[i], images[i - 1]
        gens.append(SignedPermutation(tuple(images)))
    images = list(range(1, l + 1))
    images[l - 2], images[l - 1] = -l, -(l - 1)
    gens.append(SignedPermutation(tuple(images)))
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
    of image tuples.  Exponential in l; fine up to l = 6 or so.  Built
    once per (l, parity) and shared, hence immutable."""
    gens = group_generators(l)
    todo = set(coset_elements(l, parity))
    orbits = []
    while todo:
        seed = todo.pop()
        orbit = {seed}
        queue = [seed]
        while queue:
            images = queue.pop()
            w = SignedPermutation(images)
            for g in gens:
                c = conjugate(w, g).images
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
        literals = {cycle_type(SignedPermutation(t)).literal() for t in orbit}
        assert len(literals) == 1, f"orbit mixes cycle types: {literals}"
        census.append((literals.pop(), len(orbit)))
    return census
