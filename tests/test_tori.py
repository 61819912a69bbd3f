import hashlib
import itertools
import math
import random
from collections import Counter
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spintori import (
    FORM_MINUS,
    FORM_PLUS,
    SignedCycleType,
    TorusClass,
    alternative_decomposition,
    canonical_invariants,
    closed_form_decomposition,
    enumerate_classes,
    invariant_factors,
    is_prime_power,
    iter_classes,
    sweep_checks,
    tori,
    torus_matrix,
    torus_order,
)

from test_matrices import torus_classes

T = SignedCycleType.parse

ACCEPTANCE_QS = (2, 3, 4, 5, 7, 9, 11, 13, 16, 25)
M61 = 2**61 - 1


def lattice_invariants(cls, q):
    return tuple(x for x in invariant_factors(torus_matrix(cls, q)) if x > 1)


def all_classes(l_max):
    for l in range(2, l_max + 1):
        for form in (FORM_PLUS, FORM_MINUS):
            yield from enumerate_classes(l, form)


class TestCaseRouting:
    def test_case_i(self):
        dec = closed_form_decomposition(T("3,-1"))
        assert dec.case == "i"
        assert dec.factors[0] == ((3, 1), (1, -1))

    def test_case_i_prefers_smallest_odd_parts(self):
        dec = closed_form_decomposition(T("3,1,-1"))
        assert dec.factors[0] == ((1, 1), (1, -1))
        assert list(dec.factors[1:]) == [((3, 1),)]

    def test_case_ii_positive_side(self):
        dec = closed_form_decomposition(T("1,1,-2"))
        assert dec.case == "ii"
        assert dec.factors[0] == ((2, -1), (1, 1))

    def test_case_ii_negative_side(self):
        dec = closed_form_decomposition(T("-2,-1,-1"))
        assert dec.case == "ii"
        assert dec.factors[0] == ((2, -1), (1, -1))

    def test_case_iii_uses_least_two_part(self):
        dec = closed_form_decomposition(T("4,2"))
        assert dec.case == "iii"
        assert list(dec.factors) == [((1, 1),), ((1, -1),), ((4, 1),)]

    def test_case_iii_single_part(self):
        dec = closed_form_decomposition(T("4"))
        assert dec.case == "iii"
        assert list(dec.factors) == [((2, 1),), ((2, -1),)]

    def test_case_iv(self):
        for text in ("1,1", "-2,-2", "2,1,1", "-4,-2"):
            assert closed_form_decomposition(T(text)).case == "iv"

    def test_case_precedence_i_over_ii(self):
        # both an odd/odd pair and a negated even part present
        dec = closed_form_decomposition(T("1,-2,-1"))
        assert dec.case == "i"

    def test_order_law_symbolically(self):
        for l in range(2, 8):
            for form in (FORM_PLUS, FORM_MINUS):
                for cls in enumerate_classes(l, form):
                    dec = closed_form_decomposition(cls)
                    for q in (2, 3, 7):
                        assert math.prod(dec.orders(q)) == torus_order(cls, q)


class TestEvaluation:
    def test_known_orders(self):
        assert closed_form_decomposition(T("3,-1")).orders(3) == (104,)
        assert closed_form_decomposition(T("1,-3")).orders(3) == (56,)
        assert closed_form_decomposition(T("2,2")).orders(3) == (2, 4, 8)

    def test_oracle_agreement_spot(self):
        for text, q in (("3,-1", 3), ("1,1,-2", 5), ("4,2", 3), ("-2,-2", 2)):
            cls = T(text)
            want = canonical_invariants(closed_form_decomposition(cls).orders(q))
            assert want == lattice_invariants(cls, q)

    def test_wrong_two_part_choice_would_fail(self):
        # splitting the 4 instead of the 2 in [4,2] gives a different
        # group, so the minimality rule is load bearing
        q = 3
        wrong = canonical_invariants([q**2 - 1, q**2 + 1, q**2 - 1])
        right = canonical_invariants(closed_form_decomposition(T("4,2")).orders(q))
        assert right == lattice_invariants(T("4,2"), q)
        assert wrong != right


class TestAlternativeDecomposition:
    def test_even_q_gives_none(self):
        assert alternative_decomposition(T("1,-2,-1"), 4) is None

    def test_requires_case_i_and_negated_even_part(self):
        assert alternative_decomposition(T("3,-1"), 5) is None
        assert alternative_decomposition(T("1,1,-2"), 5) is None

    def test_anchor_follows_q_mod_four(self):
        cls = T("1,-2,-1")
        alt5 = alternative_decomposition(cls, 5)
        assert alt5.factors[0] == ((2, -1), (1, 1))
        alt3 = alternative_decomposition(cls, 3)
        assert alt3.factors[0] == ((2, -1), (1, -1))

    def test_matches_primary_decomposition(self):
        for l in range(2, 7):
            for form in (FORM_PLUS, FORM_MINUS):
                for cls in enumerate_classes(l, form):
                    for q in (3, 5, 7, 9):
                        alt = alternative_decomposition(cls, q)
                        if alt is None:
                            continue
                        assert canonical_invariants(alt.orders(q)) == canonical_invariants(
                            closed_form_decomposition(cls).orders(q)
                        )


def reference_alternative(cls, q):
    """The alternative decomposition as first specified, written from
    the parts alone: None unless q is odd, the class is in case i and
    L'' holds an even length; otherwise the shortest negated even part
    pairs with the shortest odd part of sign eps, q = eps mod 4
    (earliest among ties), and every other part is standard."""
    parts = cls.ctype.parts
    neg_even = [i for i, p in enumerate(parts) if p < 0 and p % 2 == 0]
    if q % 2 == 0 or closed_form_decomposition(cls).case != "i" or not neg_even:
        return None
    eps = 1 if q % 4 == 1 else -1
    odd = [i for i, p in enumerate(parts) if p % 2 and (p > 0) == (eps > 0)]
    t = min(odd, key=lambda i: (abs(parts[i]), i))
    k = min(neg_even, key=lambda i: (abs(parts[i]), i))
    pair = [(abs(parts[t]), eps), (abs(parts[k]), -1)]
    composite = tuple(sorted(pair, key=lambda x: (-x[0], -x[1])))
    rest = [((abs(p), 1 if p > 0 else -1),) for i, p in enumerate(parts) if i not in (t, k)]
    return [composite] + rest


class TestAlternativePinned:
    def test_matches_reference_through_degree_ten(self):
        seen = 0
        for cls in all_classes(10):
            for q in ACCEPTANCE_QS + (M61,):
                alt = alternative_decomposition(cls, q)
                want = reference_alternative(cls, q)
                if want is None:
                    assert alt is None, (cls.literal(), q)
                    continue
                seen += 1
                assert alt.case == "i"
                assert list(alt.factors) == want, (cls.literal(), q)
        assert seen > 1000


def two_pass_sides(lengths, signs):
    """(index, length) lists of the positive odd, negated odd and
    negated even parts, in index order."""
    pos_odd, neg_odd, neg_even = [], [], []
    for i, (a, eps) in enumerate(zip(lengths, signs)):
        if a % 2:
            (pos_odd if eps > 0 else neg_odd).append((i, a))
        elif eps < 0:
            neg_even.append((i, a))
    return pos_odd, neg_odd, neg_even


def two_pass_decompositions(ctype, q):
    """(case, factors) of the closed form and of the alternative
    decomposition at q (None where it does not apply), by the rule the
    library used before it read the parts in one scan: the sides are
    (index, length) lists, ``choose`` takes the least length, earliest
    among ties, and the standard factors skip the chosen indices."""
    lengths = tuple(abs(p) for p in ctype.parts)
    signs = tuple(1 if p > 0 else -1 for p in ctype.parts)

    def choose(indexed):
        return min(indexed, key=itemgetter(1))[0]

    def standard(*skip):
        return tuple(((a, eps),) for k, (a, eps) in enumerate(zip(lengths, signs)) if k not in skip)

    def composite(case, i, j):
        head = tuple(sorted(((lengths[i], signs[i]), (lengths[j], -1)), reverse=True))
        return case, (head,) + standard(i, j)

    pos_odd, neg_odd, neg_even = two_pass_sides(lengths, signs)
    if pos_odd and neg_odd:
        primary = composite("i", choose(pos_odd), choose(neg_odd))
    elif (pos_odd or neg_odd) and neg_even:
        primary = composite("ii", choose(pos_odd or neg_odd), choose(neg_even))
    elif all(p > 0 and p % 2 == 0 for p in ctype.parts):
        i = min(range(len(lengths)), key=lambda k: (lengths[k] & -lengths[k], lengths[k]))
        half = lengths[i] // 2
        primary = "iii", (((half, 1),), ((half, -1),)) + standard(i)
    else:
        primary = "iv", standard()
    alternative = None
    if q % 2 and pos_odd and neg_odd and neg_even:
        t = choose(pos_odd) if q % 4 == 1 else choose(neg_odd)
        alternative = composite("i", t, choose(neg_even))
    return primary, alternative


# even q, and odd q of both residues mod 4, up to 2^64
residue_field_sizes = st.one_of(
    st.sampled_from((2, 3, 4, 5, 7, 9, M61)),
    st.builds(lambda k, r: 4 * k + r, st.integers(1, 2**62 - 1), st.sampled_from((0, 1, 2, 3))),
)


class TestClosedFormPastTheDigests:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(torus_classes(), residue_field_sizes)
    def test_matches_the_two_pass_rule(self, cls, q):
        # the digests pin the closed form up to l = 8 and its rendering
        # up to l = 12; this reaches l = 30 at q up to 2^64
        want, want_alt = two_pass_decompositions(cls.ctype, q)
        dec, alt = closed_form_decomposition(cls), alternative_decomposition(cls, q)
        assert (dec.case, dec.factors) == want
        assert (None if alt is None else (alt.case, alt.factors)) == want_alt
        for got in (dec, alt):
            if got is not None:
                assert got.orders(q) == tuple(
                    math.prod(q**a - eps for a, eps in f) for f in got.factors
                )


def order_lists():
    near_m61 = st.integers(2**61 - 2**20, 2**61 + 2**20)
    term = st.tuples(near_m61, st.integers(1, 4), st.sampled_from((1, -1)))
    large = st.lists(term, min_size=1, max_size=3).map(
        lambda ts: math.prod(q**a - eps for q, a, eps in ts)
    )
    entry = st.one_of(st.just(1), st.integers(1, 60), st.integers(1, 2**64), large)
    return st.lists(entry, min_size=0, max_size=20)


class TestCanonicalInvariants:
    def test_known_values(self):
        assert canonical_invariants([10, 8]) == (2, 40)
        assert canonical_invariants([5, 3]) == (15,)
        assert canonical_invariants([1, 7]) == (7,)
        assert canonical_invariants([]) == ()

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            canonical_invariants([4, 0])

    def test_against_smith_form_of_diagonal(self):
        rng = random.Random(41)
        for _ in range(120):
            orders = [rng.randint(1, 60) for _ in range(rng.randint(1, 5))]
            diag = [
                [orders[i] if i == j else 0 for j in range(len(orders))]
                for i in range(len(orders))
            ]
            want = tuple(x for x in invariant_factors(diag) if x > 1)
            assert canonical_invariants(orders) == want

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(order_lists())
    def test_property_against_diagonal_snf(self, orders):
        n = len(orders)
        diag = [[orders[i] if i == j else 0 for j in range(n)] for i in range(n)]
        want = tuple(x for x in invariant_factors(diag) if x > 1) if n else ()
        assert canonical_invariants(orders) == want

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(order_lists(), st.data())
    def test_does_not_depend_on_input_order(self, orders, data):
        # a divisor chain of a finite abelian group is unique, so sorting
        # the input before the sift cannot change the result
        chain = canonical_invariants(orders)
        assert canonical_invariants(orders[::-1]) == chain
        assert canonical_invariants(data.draw(st.permutations(orders))) == chain

    def test_chain_divides(self):
        rng = random.Random(43)
        for _ in range(100):
            orders = [rng.randint(2, 400) for _ in range(4)]
            chain = canonical_invariants(orders)
            assert math.prod(chain) == math.prod(orders)
            for a, b in zip(chain, chain[1:]):
                assert b % a == 0


class TestSweepChecks:
    def test_takes_any_iterable_of_classes(self):
        one = list(sweep_checks([TorusClass.parse("1,-1")], [3]))
        assert [(c.route, c.ok) for c in one] == [
            ("lattice", True), ("coupling identity", True), ("reduced matrix", True)
        ]
        classes = enumerate_classes(3, FORM_MINUS)
        from_list = list(sweep_checks(classes, [2, 3]))
        assert list(sweep_checks(iter_classes(3, FORM_MINUS), [2, 3])) == from_list
        lattice = [(c.cls, c.q) for c in from_list if c.route == "lattice"]
        assert lattice == [(cls, q) for cls in classes for q in (2, 3)]

    def test_takes_any_iterable_of_qs(self):
        # q values are read once, not once per class
        classes = enumerate_classes(3, FORM_MINUS)
        from_list = list(sweep_checks(classes, [2, 3]))
        assert len(from_list) == 26
        assert list(sweep_checks(classes, iter([2, 3]))) == from_list
        assert list(sweep_checks(iter_classes(3, FORM_MINUS), (q for q in (2, 3)))) == from_list

    def test_matrix_routes_read_no_closed_form_code(self, monkeypatch):
        # with the closed form's sift broken every want is (), while the
        # torus is never trivial at q >= 3; a matrix route whose got went
        # through the same sift would still pass
        monkeypatch.setattr(tori, "canonical_invariants", lambda orders: ())
        checks = [
            c for c in sweep_checks(all_classes(4), [3, 4])
            if c.route in ("lattice", "reduced matrix")
        ]
        assert Counter(c.route for c in checks) == {"lattice": 76, "reduced matrix": 58}
        assert [c for c in checks if c.ok] == []


def center_invariants(l, form, q):
    """Invariants of the center of Spin(2l, q) of the given form, which
    lies in every maximal torus: (gcd(2, q-1))^2 for form plus with l
    even, else the cyclic gcd(4, q^l - sign), sign +1 for plus and -1
    for minus.  Trivial factors dropped."""
    if form not in (FORM_PLUS, FORM_MINUS):
        raise ValueError(f"form must be 'plus' or 'minus', got {form!r}")
    if l < 2:
        raise ValueError("degree must be at least 2")
    sign = 1 if form == FORM_PLUS else -1
    if sign == 1 and l % 2 == 0:
        d = math.gcd(2, q - 1)
        raw = (d, d)
    else:
        raw = (math.gcd(4, q**l - sign),)
    return tuple(x for x in raw if x > 1)


def embeds(sub, big):
    """Whether the abelian group with invariants ``sub`` embeds into
    the one with invariants ``big``.  Both are brought to their divisor
    chains by ``canonical_invariants`` (so entries must be positive);
    then aligned from the largest entry, each entry of ``sub`` must
    divide the matching entry of ``big``.  Prime by prime this is the
    domination of the descending exponent lists."""
    a, b = canonical_invariants(sub), canonical_invariants(big)
    return len(a) <= len(b) and all(y % x == 0 for x, y in zip(reversed(a), reversed(b)))


class TestCenter:
    def test_known_values(self):
        assert center_invariants(4, FORM_PLUS, 3) == (2, 2)
        assert center_invariants(4, FORM_MINUS, 3) == (2,)
        assert center_invariants(3, FORM_MINUS, 3) == (4,)
        assert center_invariants(3, FORM_PLUS, 5) == (4,)
        assert center_invariants(4, FORM_PLUS, 2) == ()
        with pytest.raises(ValueError):
            center_invariants(4, "twisted", 3)

    def test_embeds_in_every_torus_spot(self):
        for l, form, q in ((3, FORM_PLUS, 3), (4, FORM_MINUS, 5), (5, FORM_PLUS, 2)):
            z = center_invariants(l, form, q)
            for cls in enumerate_classes(l, form):
                assert embeds(z, canonical_invariants(closed_form_decomposition(cls).orders(q)))


class TestEmbeds:
    def test_basic(self):
        assert embeds((2, 2), (2, 4))
        assert embeds((2,), (4,))

    def test_cyclic_subgroup_needs_matching_exponent(self):
        assert embeds((4,), (8,))
        assert not embeds((4,), (2, 2))
        assert not embeds((2, 2), (8,))
        assert embeds((), (5,))

    def test_reflexive(self):
        assert embeds((2, 4, 3), (2, 4, 3))

    def test_large_prime_is_quick(self):
        # no factorization: a 61-bit prime once meant trial division
        assert embeds((M61,), (M61,))
        assert embeds((M61,), (2, 2 * M61))
        assert not embeds((M61 * M61,), (M61, M61))

    @pytest.mark.parametrize(
        "sub,big", [((2,), (0,)), ((0,), (2,)), ((-4,), (2, 2)), ((2,), (3, -1))]
    )
    def test_non_positive_entry_is_refused(self, sub, big):
        with pytest.raises(ValueError):
            embeds(sub, big)

    def test_matches_prime_by_prime_reference(self):
        # the definition: for every prime, the descending exponent list
        # of sub is dominated entry by entry by that of big
        def valuation(n, p):
            v = 0
            while n % p == 0:
                n, v = n // p, v + 1
            return v

        primes = [p for p in range(2, 13) if all(p % d for d in range(2, p))]

        def reference(sub, big):
            for p in primes:
                need = sorted((valuation(n, p) for n in sub), reverse=True)
                have = sorted((valuation(n, p) for n in big), reverse=True)
                have += [0] * len(need)
                if any(e > h for e, h in zip(need, have)):
                    return False
            return True

        groups = [()] + [
            g for k in (1, 2, 3) for g in itertools.combinations_with_replacement(range(1, 13), k)
            if k < 3 or max(g) <= 6
        ]
        for sub in groups:
            for big in groups:
                assert embeds(sub, big) == reference(sub, big), (sub, big)


class TestNumberTheory:
    def test_is_prime_power(self):
        assert [n for n in range(2, 20) if is_prime_power(n)] == [
            2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19,
        ]
        assert not is_prime_power(1)
        assert not is_prime_power(36)

    def test_is_prime_power_large(self):
        m31, m61 = 2**31 - 1, 2**61 - 1
        assert is_prime_power(m61)
        assert is_prime_power(m31**2)
        assert is_prime_power(2**127)
        assert not is_prime_power(m31 * m61)
        assert not is_prime_power(m61**2 * 2)

    def test_is_prime_power_against_trial_division(self):
        def reference(n):
            p = next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)
            while n % p == 0:
                n //= p
            return n == 1

        want = [n for n in range(2, 20_000) if reference(n)]
        assert [n for n in range(20_000) if is_prime_power(n)] == want

    def test_is_prime_power_roots_at_prime_exponents_only(self, monkeypatch):
        # 10^3000 + 1 has 9,966 bits, and below 10,000 there are 1,229
        # primes, against 9,966 exponents
        exponents = []
        real = tori._iroot
        monkeypatch.setattr(tori, "_iroot", lambda n, k: exponents.append(k) or real(n, k))
        assert not is_prime_power(10**3000 + 1)
        assert 0 < len(exponents) <= 1_229
        assert all(k % d for k in exponents for d in range(2, math.isqrt(k) + 1))


class TestRendering:
    def test_symbolic_strings(self):
        for text, want in (
            ("3,-1", "Z_{(q^3-1)(q+1)}"),
            ("1,-2,-1", "Z_{q^2+1} x Z_{q^2-1}"),
            ("2,2", "Z_{q^2-1} x Z_{q+1} x Z_{q-1}"),
            ("1,1,-1,-1", "Z_{q^2-1} x Z_{q+1} x Z_{q-1}"),
            ("1,1,-2", "Z_{(q^2+1)(q-1)} x Z_{q-1}"),
            ("-4", "Z_{q^4+1}"),
            ("1,1", "Z_{q-1} x Z_{q-1}"),
        ):
            assert closed_form_decomposition(T(text)).symbolic() == want, text

    def test_merge_only_within_a_factor(self):
        # [2,2] splits one part into q-1 and q+1 as separate factors,
        # which must not merge into a single q^2-1
        assert closed_form_decomposition(T("2,2")).symbolic().count("x") == 2

    def test_rendering_is_unchanged(self):
        # the golden tables render l = 4 only; this covers every class
        # up to l = 12, recorded before the merge of a factor's terms was
        # cut to the one merge a closed-form factor can have
        assert rendering_digest(12) == (
            "86c8a5b616ffeca7b25423ee2c10c78fee9dd01dc277f6893ed69f177da35ed6"
        )


def rendering_digest(l_max):
    """SHA-256 over the display form of the closed form of every class
    with l <= l_max, and of its alternative decomposition at q = 3 and
    at q = 5, which anchor it on opposite sides."""
    h = hashlib.sha256()
    for cls in all_classes(l_max):
        h.update(f"{cls.literal()} {closed_form_decomposition(cls).symbolic()}\n".encode())
        for q in (3, 5):
            alt = alternative_decomposition(cls, q)
            if alt is not None:
                h.update(f"{q} {alt.symbolic()}\n".encode())
    return h.hexdigest()


def closed_form_digest(l_max, qs):
    """SHA-256 over the closed form, its canonical invariants and the
    alternative decomposition of every class with l <= l_max at each q."""

    def shape(dec, split):
        return None if dec is None else (dec.case, split, list(dec.factors))

    h = hashlib.sha256()
    for cls in all_classes(l_max):
        dec = closed_form_decomposition(cls)
        h.update(repr((cls.literal(), shape(dec, cls.split))).encode())
        for q in qs:
            alt, want = alternative_decomposition(cls, q), canonical_invariants(dec.orders(q))
            h.update(repr((q, want, shape(alt, cls.split))).encode())
    return h.hexdigest()


class TestOutputEquivalence:
    def test_closed_form_layer_is_unchanged(self):
        # recorded before the closed-form layer was optimized; a change
        # here is a change of results, not of speed
        assert closed_form_digest(8, ACCEPTANCE_QS + (M61,)) == (
            "9a6751d92106ca7169c199a5412c7477564e139090fdc343432850f37dc1c6f5"
        )
