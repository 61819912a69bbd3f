import itertools
import random
import time

import pytest

from spintori import (
    FORM_MINUS,
    FORM_PLUS,
    SignedCycleType,
    TorusClass,
    closed_form_decomposition,
    enumerate_classes,
    iter_classes,
    representative,
    standard_representative,
    torus_matrix,
    torus_order,
)

from spintori.permutations import class_count

from oracle_tools import (
    compose,
    conjugacy_orbits,
    conjugate,
    coset_elements,
    cycle_type,
    inverse,
    orbit_type_census,
)


def random_element(rng, l):
    """Images of a random signed permutation of 1..l, as a plain tuple."""
    base = list(range(1, l + 1))
    rng.shuffle(base)
    return tuple(rng.choice((1, -1)) * b for b in base)


def generating_function_counts(l_max):
    """Classes of each degree l <= l_max, both forms, with no library
    code.  A signed cycle type is a pair of partitions (positive parts,
    negated parts), counted by prod (1 - x^d)^-2; the all-even,
    all-positive types of even degree l split in two, one more class
    per partition of l/2."""
    pairs = [1] + [0] * l_max
    partitions = [1] + [0] * l_max
    for d in range(1, l_max + 1):
        for n in range(d, l_max + 1):
            partitions[n] += partitions[n - d]
        for _ in range(2):
            for n in range(d, l_max + 1):
                pairs[n] += pairs[n - d]
    return [pairs[l] + (partitions[l // 2] if l % 2 == 0 else 0) for l in range(l_max + 1)]


class TestOracleAlgebra:
    # the group law lives in the oracle; these pin it

    def test_composition_is_left_to_right(self):
        # compose(u, v)(1) = v(u(1)) = v(2) = 2
        assert compose((2, 1), (-1, 2)) == (2, -1)

    def test_inverse(self):
        rng = random.Random(7)
        identity = tuple(range(1, 6))
        for _ in range(50):
            w = random_element(rng, 5)
            assert compose(w, inverse(w)) == identity
            assert compose(inverse(w), w) == identity

    def test_conjugation_preserves_cycle_type(self):
        rng = random.Random(11)
        for _ in range(100):
            w = random_element(rng, 6)
            g = random_element(rng, 6)
            assert cycle_type(conjugate(w, g)) == cycle_type(w)


class TestCycleType:
    def test_known_values(self):
        assert cycle_type((2, 1, 4, -3)) == "2,-2"
        assert cycle_type((2, 1, -4, -3)) == "2,2"
        assert cycle_type((1, -2)) == "1,-1"
        assert cycle_type((-1, 3, 2, -5, 4)) == "2,-2,-1"

    def test_canonical_part_order(self):
        assert SignedCycleType((-1, 2, -2, 1)).parts == (2, 1, -2, -1)

    def test_parse_literal_round_trip(self):
        for text in ("1,1", "2,-2", "1,-2,-1", "3,1"):
            assert SignedCycleType.parse(text).literal() == text

    def test_rejects_zero_part(self):
        with pytest.raises(ValueError):
            SignedCycleType((1, 0))
        with pytest.raises(ValueError):
            SignedCycleType.parse("")

    def test_rejects_bool_part(self):
        # True is an int, but its literal "True,True" does not parse back
        for parts in ((True, True), (3, -1, True)):
            with pytest.raises(ValueError, match="parts must be nonzero integers"):
                SignedCycleType(parts)

    def test_rejects_degree_one(self):
        # the one place the degree rule is kept: every class function
        # that takes a type or class relies on it
        for parts in ((1,), (-1,)):
            with pytest.raises(ValueError, match="has degree 1, below 2"):
                SignedCycleType(parts)
        with pytest.raises(ValueError, match="degree"):
            TorusClass.parse("-1")
        assert SignedCycleType((2,)).degree == SignedCycleType((-1, 1)).degree == 2

    def test_form_follows_negative_count(self):
        assert SignedCycleType((2, -1, -1)).form == FORM_PLUS
        assert SignedCycleType((2, -2)).form == FORM_MINUS

    def test_split_eligibility(self):
        assert SignedCycleType((4, 2, 2)).is_split_eligible()
        assert not SignedCycleType((4, 1)).is_split_eligible()
        assert not SignedCycleType((4, -2)).is_split_eligible()


class TestRepresentatives:
    def test_round_trip_all_types(self):
        for l in range(2, 7):
            for form in (FORM_PLUS, FORM_MINUS):
                for cls in enumerate_classes(l, form):
                    images = representative(cls)
                    assert sorted(map(abs, images)) == list(range(1, l + 1))
                    assert cycle_type(images) == cls.ctype.literal()
                    assert sum(x < 0 for x in images) % 2 == (0 if form == FORM_PLUS else 1)

    def test_split_pair_shares_cycle_type(self):
        plus = TorusClass.parse("2,2:+")
        minus = TorusClass.parse("2,2:-")
        wp, wm = representative(plus), representative(minus)
        assert cycle_type(wp) == cycle_type(wm) == "2,2"
        assert wp != wm

    def test_split_representatives_are_flip_conjugates(self):
        # the '-' member is d w d, with w the standard representative
        # and d the flip at the last point; the '+' member is w itself
        split = [c for l in range(2, 13) for c in iter_classes(l, FORM_PLUS) if c.split]
        assert len(split) == 2 * (1 + 2 + 3 + 5 + 7 + 11)
        for cls in split:
            l = cls.ctype.degree
            w = standard_representative(cls.ctype)
            want = conjugate(w, tuple(range(1, l)) + (-l,)) if cls.split == "-" else w
            assert representative(cls) == want, cls.literal()

    def test_split_tag_requires_eligible_type(self):
        with pytest.raises(ValueError):
            TorusClass(SignedCycleType((3, 1)), "+")
        with pytest.raises(ValueError):
            TorusClass.parse("2,2:x")


class TestCoerce:
    def test_class_passes_through(self):
        cls = TorusClass.parse("2,2:-")
        assert TorusClass.coerce(cls) is cls

    def test_cycle_type_takes_plus_tag_when_split(self):
        assert TorusClass.coerce(SignedCycleType((2, 2))) == TorusClass.parse("2,2:+")
        assert TorusClass.coerce(SignedCycleType((3, -1))) == TorusClass.parse("3,-1")

    def test_untagged_split_type_is_the_plus_class(self):
        # "2,2" and "2,2:+" name one class, so they build one value
        bare, tagged = TorusClass.parse("2,2"), TorusClass.parse("2,2:+")
        assert bare == tagged and bare.split == "+"
        assert closed_form_decomposition(bare) == closed_form_decomposition(tagged)
        assert TorusClass.parse("3,-1").split is None

    @pytest.mark.parametrize(
        "call",
        [
            lambda tau: TorusClass.coerce(tau),
            lambda tau: torus_matrix(tau, 3),
            lambda tau: closed_form_decomposition(tau),
            lambda tau: torus_order(tau, 3),
        ],
        ids=["coerce", "torus_matrix", "closed_form_decomposition", "torus_order"],
    )
    def test_string_is_refused(self, call):
        with pytest.raises(TypeError):
            call("2,2")


class TestEnumeration:
    def test_degree_two_plus_literals(self):
        literals = [c.literal() for c in enumerate_classes(2, FORM_PLUS)]
        assert literals == ["1,1", "-1,-1", "2:+", "2:-"]

    def test_degree_two_minus_literals(self):
        literals = [c.literal() for c in enumerate_classes(2, FORM_MINUS)]
        assert literals == ["1,-1", "-2"]

    def test_class_counts(self):
        counts = {
            l: sum(len(enumerate_classes(l, f)) for f in (FORM_PLUS, FORM_MINUS))
            for l in range(2, 9)
        }
        assert counts == {2: 6, 3: 10, 4: 22, 5: 36, 6: 68, 7: 110, 8: 190}

    def test_class_counts_match_generating_function(self):
        want = generating_function_counts(60)
        for l in range(2, 21):
            got = sum(1 for f in (FORM_PLUS, FORM_MINUS) for _ in iter_classes(l, f))
            assert got == want[l], l
        # the count verify and table make, past any degree enumerated here
        assert [class_count(l) for l in range(2, 61)] == want[2:]

    @pytest.mark.slow
    def test_class_counts_match_generating_function_to_thirty(self):
        # 2,148,714 classes, streamed; 589,304 of them have degree 30
        want = generating_function_counts(30)
        for l in range(21, 31):
            got = sum(1 for f in (FORM_PLUS, FORM_MINUS) for _ in iter_classes(l, f))
            assert got == want[l], l
        assert sum(want[21:]) == 2_148_714 and want[30] == 589_304

    def test_class_count_without_building_classes(self):
        # the count ``verify`` makes before it sweeps
        for l in range(2, 13):
            built = sum(1 for f in (FORM_PLUS, FORM_MINUS) for _ in iter_classes(l, f))
            assert class_count(l) == built, l
        assert sum(map(class_count, range(2, 41))) == 38_363_946

    def test_forms_are_consistent(self):
        for l in range(2, 7):
            for form in (FORM_PLUS, FORM_MINUS):
                for cls in enumerate_classes(l, form):
                    assert cls.ctype.form == form
                    assert cls.ctype.degree == l

    def test_split_tags_exactly_on_eligible_types(self):
        for l in range(2, 8):
            tagged = [c for c in enumerate_classes(l, FORM_PLUS) if c.split]
            assert all(c.ctype.is_split_eligible() for c in tagged)
            eligible = {c.ctype for c in tagged}
            assert len(tagged) == 2 * len(eligible)
            assert not [c for c in enumerate_classes(l, FORM_MINUS) if c.split]

    def test_rejects_degree_below_two(self):
        with pytest.raises(ValueError):
            enumerate_classes(1, FORM_PLUS)

    @pytest.mark.parametrize("form", [FORM_PLUS, FORM_MINUS])
    def test_generated_order_is_the_canonical_sort(self, form):
        # the classes come out in the order a global sort by this key
        # would give: unsigned lengths descending as a tuple, then the
        # number of negated parts, the negated lengths, and '+' before '-'
        def key(cls):
            t = cls.ctype
            negated = tuple(sorted((-p for p in t.parts if p < 0), reverse=True))
            unsigned = tuple(sorted(t.lengths, reverse=True))
            return (unsigned, t.num_negative, negated, 0 if cls.split != "-" else 1)

        for l in range(2, 21):
            classes = enumerate_classes(l, form)
            assert type(classes) is list
            assert len(set(classes)) == len(classes), l
            assert classes == sorted(classes, key=key), l

    def test_first_class_without_enumerating_the_rest(self):
        # degree 40 has about 9 million signed cycle types; the
        # generator reaches the first one without building them
        start = time.perf_counter()
        first = next(iter_classes(40, FORM_PLUS))
        assert time.perf_counter() - start < 1.0
        assert first.literal() == ",".join(["1"] * 40)

    def test_large_degree_needs_no_deep_recursion(self):
        # the partitions are generated without a stack frame per part,
        # so a degree past the recursion limit still streams
        first = list(itertools.islice(iter_classes(1500, FORM_MINUS), 3))
        assert [c.ctype.num_negative for c in first] == [1, 3, 5]

    def test_iter_classes_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            next(iter_classes(1, FORM_PLUS))
        with pytest.raises(ValueError):
            next(iter_classes(4, "twisted"))


class TestAgainstBruteForce:
    """The enumeration against actual conjugation orbits."""

    @pytest.mark.parametrize("l", range(2, 7))
    @pytest.mark.parametrize("form,parity", [(FORM_PLUS, 0), (FORM_MINUS, 1)])
    def test_orbit_count_and_types(self, l, form, parity):
        census = orbit_type_census(l, parity)
        classes = enumerate_classes(l, form)
        assert len(census) == len(classes)
        from collections import Counter

        orbit_types = Counter(lit for lit, _ in census)
        class_types = Counter(c.ctype.literal() for c in classes)
        assert orbit_types == class_types
        assert sum(size for _, size in census) == len(coset_elements(l, parity))

    @pytest.mark.parametrize("l", [4, 6])
    def test_representatives_hit_distinct_orbits(self, l):
        orbits = conjugacy_orbits(l, 0)
        classes = enumerate_classes(l, FORM_PLUS)
        hits = []
        for cls in classes:
            images = representative(cls)
            owners = [k for k, orb in enumerate(orbits) if images in orb]
            assert len(owners) == 1
            hits.append(owners[0])
        assert len(set(hits)) == len(classes)

    @pytest.mark.slow
    @pytest.mark.parametrize("form,parity", [(FORM_PLUS, 0), (FORM_MINUS, 1)])
    def test_orbit_count_degree_seven(self, form, parity):
        census = orbit_type_census(7, parity)
        assert len(census) == len(enumerate_classes(7, form))
