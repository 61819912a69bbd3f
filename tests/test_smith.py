import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spintori import (
    FORM_MINUS,
    FORM_PLUS,
    TorusClass,
    canonical_invariants,
    closed_form_decomposition,
    determinant,
    enumerate_classes,
    invariant_factors,
    reduced_torus_matrix,
    smith_normal_form,
    torus_matrix,
)
from spintori import smith
from spintori.smith import mat_mul


def random_matrix(rng, rows, cols, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


@st.composite
def square_matrices(draw, max_size, bound):
    """Square integer matrices; about a third are made singular by
    replacing the last row with a combination of the others."""
    n = draw(st.integers(1, max_size))
    entry = st.integers(-bound, bound)
    m = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if n > 1 and draw(st.integers(0, 2)) == 0:
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1))
        m[-1] = [sum(c * row[j] for c, row in zip(coeffs, m)) for j in range(n)]
    return m


@st.composite
def rectangular_matrices(draw, max_size, bound):
    rows, cols = draw(st.integers(1, max_size)), draw(st.integers(1, max_size))
    entry = st.integers(-bound, bound)
    return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))


@st.composite
def sparse_square_matrices(draw, max_size, bound):
    """Square matrices with about three entries in four 0, so that
    elimination meets rows that are 0 in the pivot column and pivots
    equal to the one before; entries are small, so many are units."""
    n = draw(st.integers(1, max_size))
    cell = st.tuples(st.integers(0, 3), st.integers(-bound, bound))
    cells = draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n))
    return [[x if keep == 0 else 0 for keep, x in row] for row in cells]


@st.composite
def prime_product_matrices(draw, max_size):
    """Square matrices of size 2 to max_size with entries products of
    distinct primes among 2, 3 and 5; such a matrix often has content
    1 and no unit modulo its determinant, so the modular kernel has to
    build a unit pivot by stabilization (``_stabilize``)."""
    n = draw(st.integers(2, max_size))
    entry = st.sampled_from((0, 2, -2, 3, -3, 5, -5, 6, -6, 10, -10, 15, -15))
    return draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))


@st.composite
def stale_row_matrices(draw, max_size, bound):
    """Square matrices on which the lazily scaled determinant meets
    stale rows: rows that stay 0 across several pivot columns and are
    eliminated later, and diagonal entries still 0 at their step, which
    force a swap, often with such a row.  About a third are made
    singular as in ``square_matrices``.  Entries are not only units, so
    pivots differ from step to step."""
    n = draw(st.integers(3, max_size))
    entry = st.integers(-bound, bound)
    m = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    for i in range(1, n):
        lead = draw(st.integers(0, n - 1))
        m[i][:lead] = [0] * lead
    for k in draw(st.sets(st.integers(1, n - 2), max_size=2)):
        # column k is 0 in rows 0..k, so (k, k) is still 0 at step k
        for row in m[: k + 1]:
            row[k] = 0
    if draw(st.integers(0, 2)) == 0:
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1))
        m[-1] = [sum(c * row[j] for c, row in zip(coeffs, m)) for j in range(n)]
    return m


@st.composite
def block_diagonal_matrices(draw, max_blocks):
    """Block-diagonal matrices of 2 to max_blocks blocks of size 1 to 3,
    with entries 0 or products of distinct primes among 2, 3 and 5, and
    rows and columns then permuted.  Rows and columns with one nonzero
    entry are common; whether one is a cyclic summand depends on what
    else its column or row holds."""
    entry = st.sampled_from((0, 0, 2, -2, 3, -3, 5, 6, -6, 10, 15, -15, 30))
    blocks = []
    for _ in range(draw(st.integers(2, max_blocks))):
        k = draw(st.integers(1, 3))
        blocks.append(draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=k, max_size=k)))
    n = sum(len(b) for b in blocks)
    m = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            m[at + i][at : at + len(row)] = row
        at += len(b)
    rows = draw(st.permutations(range(n)))
    cols = draw(st.permutations(range(n)))
    return [[m[i][j] for j in cols] for i in rows]


@st.composite
def tail_matrices(draw, max_size):
    """Square matrices c A D B of size 1 to max_size.  A and B are both
    random with entries in -3..3, or both unimodular, products L U of
    unit triangular matrices; D = diag(1, ..., 1, d1, d2, d3), with the
    d all 1 or drawn from small products of 2 and 3; c is 1, 2, 3 or 6.
    Above three rows the unit steps usually clear all but the last
    three, after c is divided out.  The 3-row tail left then often has
    determinantal divisors whose ratios, and whose content, exceed 1,
    and sometimes is zero modulo R = 1."""
    n = draw(st.integers(1, max_size))
    unimodular = draw(st.booleans())

    def factor():
        cells = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n))
        if not unimodular:
            return cells
        low = [[1 if i == j else x if j < i else 0 for j, x in enumerate(row)] for i, row in enumerate(cells)]
        up = [[1 if i == j else x if j > i else 0 for j, x in enumerate(row)] for i, row in enumerate(cells)]
        return mat_mul(low, up)

    a, b = factor(), factor()
    k = min(n, 3)
    tail = st.lists(st.sampled_from((1, 2, 3, 4, 6, 12)), min_size=k, max_size=k)
    d = [1] * (n - k) + draw(st.one_of(st.just([1] * k), tail))
    c = draw(st.sampled_from((1, 1, 2, 3, 6)))
    return [[c * sum(x * e * row[j] for x, e, row in zip(ai, d, b)) for j in range(n)] for ai in a]


def snf_nonzero_diagonal(m):
    return tuple(x for x in smith_normal_form(m).diagonal if x)


def assert_agrees_or_refuses(m, factors):
    """On a nonsingular square m, ``invariant_factors`` gives
    ``factors``, the witness path's nonzero diagonal; any other m has a
    free part, and ``invariant_factors`` refuses it, naming the witness
    path."""
    if len(factors) == len(m) == len(m[0]):
        assert invariant_factors(m) == factors
    else:
        with pytest.raises(ValueError, match="smith_normal_form"):
            invariant_factors(m)


def cofactor_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * cofactor_det(minor)
    return total


class TestDeterminant:
    def test_known_values(self):
        assert determinant([[10, 0], [0, 8]]) == 80
        assert determinant([[2, 1], [0, 2]]) == 4
        assert determinant([[1, 2], [2, 4]]) == 0
        for bad in ([], [[]]):
            with pytest.raises(ValueError):
                determinant(bad)

    def test_against_cofactor_expansion(self):
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randint(1, 4)
            m = random_matrix(rng, n, n, 6)
            assert determinant(m) == cofactor_det(m)

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(stale_row_matrices(max_size=6, bound=9))
    def test_stale_rows_match_cofactor_expansion(self, m):
        assert determinant(m) == cofactor_det(m)

    def test_swap_with_a_stale_row(self):
        # row 2 is 0 in column 0, so step 0 leaves it at the pivot 1
        # while rows 1 and 3 move to -4; row 1 is then 0 in column 1,
        # and the swap makes stale row 2 the pivot row against which
        # row 3 is eliminated
        m = [[-4, 0, 2, -1], [-3, 0, 0, 1], [0, 1, 0, 0], [1, 4, 0, 0]]
        assert determinant(m) == cofactor_det(m) == -2

    def test_multiplicativity(self):
        rng = random.Random(17)
        for _ in range(40):
            a = random_matrix(rng, 3, 3, 5)
            b = random_matrix(rng, 3, 3, 5)
            assert determinant(mat_mul(a, b)) == determinant(a) * determinant(b)


# zeros, units, small entries that often share a factor, and 62-bit ones
DIAGONAL_ENTRIES = st.one_of(
    st.just(0),
    st.integers(-60, 60),
    st.integers(-(2**62), 2**62),
    st.lists(st.sampled_from((2, 3, 5, 7)), max_size=6).map(math.prod),
)


def diagonal_factors(entries):
    """Nonzero invariant factors of diag(entries) from its determinantal
    divisors: d_k is the gcd of the products of k nonzero |entries|, and
    the k-th factor is d_k / d_(k-1)."""
    nonzero = [abs(x) for x in entries if x]
    divisors = [1]
    for k in range(1, len(nonzero) + 1):
        divisors.append(math.gcd(*map(math.prod, itertools.combinations(nonzero, k))))
    return tuple(b // a for a, b in zip(divisors, divisors[1:]))


class TestSmithNormalForm:
    def test_frozen_examples(self):
        assert smith_normal_form([[2, 1], [0, 2]]).diagonal == (1, 4)
        assert smith_normal_form([[10, 0], [0, 8]]).diagonal == (2, 40)
        assert smith_normal_form([[0, 0], [0, 0]]).diagonal == (0, 0)
        assert smith_normal_form([[]]).diagonal == ()
        with pytest.raises(ValueError):
            smith_normal_form([])

    def test_invariant_factors_examples(self):
        assert invariant_factors([[2, 1], [0, 2]]) == (1, 4)
        for free in ([[0, 0], [0, 0]], [[]]):
            with pytest.raises(ValueError, match="smith_normal_form"):
                invariant_factors(free)
        with pytest.raises(ValueError):
            invariant_factors([])

    def check(self, m):
        res = smith_normal_form(m)
        assert res.verify(m)
        assert abs(determinant(res.p)) == 1
        assert abs(determinant(res.q)) == 1
        diag = res.diagonal
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            if b:
                assert a != 0 and b % a == 0
            else:
                pass  # zeros close the chain
        for i, row in enumerate(res.d):
            for j, x in enumerate(row):
                if i != j:
                    assert x == 0
        return res

    def test_random_square(self):
        rng = random.Random(29)
        for _ in range(150):
            n = rng.randint(1, 5)
            self.check(random_matrix(rng, n, n))

    def test_random_rectangular(self):
        rng = random.Random(31)
        for _ in range(100):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            self.check(random_matrix(rng, rows, cols))

    def test_zero_chain_tail(self):
        res = self.check([[2, 4], [1, 2]])
        assert res.diagonal == (1, 0)

    def test_large_entries(self):
        m = [[3**8 - 1, 3**5], [0, 3**8 + 1]]
        res = self.check(m)
        assert math.prod(x for x in res.diagonal if x) == abs(determinant(m))

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(square_matrices(max_size=7, bound=20))
    def test_property_square(self, m):
        res = self.check(m)
        assert_agrees_or_refuses(m, tuple(x for x in res.diagonal if x))

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(rectangular_matrices(max_size=6, bound=20))
    def test_property_rectangular(self, m):
        res = self.check(m)
        assert_agrees_or_refuses(m, tuple(x for x in res.diagonal if x))

    def test_witness_growth_bound(self):
        """Every witness entry has at most 4 bits(|det A|) + 64 bits, on
        every lattice matrix of degree l <= 9 at q = 25 and on the l = 10
        class whose witnesses once did not finish at q = 2^61 - 1."""
        cases = [
            (cls, 25)
            for l in range(2, 10)
            for form in (FORM_PLUS, FORM_MINUS)
            for cls in enumerate_classes(l, form)
        ]
        cases.append((TorusClass.parse("3,-2,-2,-2,-1"), 2**61 - 1))
        for cls, q in cases:
            m = torus_matrix(cls, q)
            res = smith_normal_form(m)
            assert res.verify(m)
            bits = max(abs(x).bit_length() for w in (res.p, res.q) for row in w for x in row)
            assert bits <= 4 * abs(determinant(m)).bit_length() + 64, (cls.literal(), q)


    def test_verify_rejects_a_diagonal_that_is_no_chain(self):
        # p a q == d holds with p = q = I, but d is not in Smith form:
        # 2 does not divide 3, a zero before a nonzero, an entry off the
        # diagonal, a negative entry
        eye = [[1, 0], [0, 1]]
        for d in ([[2, 0], [0, 3]], [[0, 0], [0, 2]], [[1, 1], [0, 2]], [[-1, 0], [0, 2]]):
            assert mat_mul(mat_mul(eye, d), eye) == d
            assert not smith.SnfResult(d, eye, eye).verify(d)

    def test_verify_rejects_a_witness_that_is_not_unimodular(self):
        # p a q == d and d = diag(2, 4) is a chain, but det p = 2
        eye = [[1, 0], [0, 1]]
        a, p, d = [[2, 0], [0, 2]], [[1, 0], [0, 2]], [[2, 0], [0, 4]]
        assert mat_mul(mat_mul(p, a), eye) == d
        assert not smith.SnfResult(d, p, eye).verify(a)
        # a singular a, with det q = 2
        a, q, d = [[2, 0], [0, 0]], [[1, 0], [0, 2]], [[2, 0], [0, 0]]
        assert mat_mul(mat_mul(eye, a), q) == d
        assert not smith.SnfResult(d, eye, q).verify(a)
        # a non-square a, with det p = -3
        a, p, d = [[1, 0, 0], [0, 1, 0]], [[1, 0], [0, -3]], [[1, 0, 0], [0, 3, 0]]
        q = [[1, 0, 0], [0, -1, 0], [0, 0, 1]]
        assert mat_mul(mat_mul(p, a), q) == d
        assert not smith.SnfResult(d, p, q).verify(a)

    def test_verify_without_columns(self):
        # a 1 x 0 or 2 x 0 matrix has q = [], the 0 x 0 identity
        for a in ([[]], [[], []]):
            res = smith_normal_form(a)
            assert res.q == [] and res.diagonal == ()
            assert res.verify(a)
        assert not smith.SnfResult([[]], [[2]], []).verify([[]])
        with pytest.raises(ValueError):
            res.verify([])

    def test_witnesses_are_unchanged(self):
        # recorded when every clearing below a pivot became one row step,
        # ``_clear_below``, and the divisibility repair one pass over the
        # pairs i < j; D was the same as before, P and Q were not.  A
        # change here is a change of the elimination steps, not of speed
        assert witness_digest() == (
            "5f047cfeafb072a83e5ec5ec354976d8aee03589ef1a848a7c18c9c9e343d973"
        )

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.lists(DIAGONAL_ENTRIES, min_size=1, max_size=8))
    def test_repair_on_diagonal_input(self, entries):
        # the Hermite form and the pivot loop only permute a diagonal
        # input, so the divisibility repair alone makes the chain, and
        # many pairs of entries, adjacent or not, divide neither way
        n = len(entries)
        m = [[x if i == j else 0 for j in range(n)] for i, x in enumerate(entries)]
        res = smith_normal_form(m)
        assert res.verify(m)
        factors = tuple(x for x in res.diagonal if x)
        assert factors == diagonal_factors(entries)
        assert_agrees_or_refuses(m, factors)


def witness_digest():
    """SHA-256 of repr((d, p, q)) from ``smith_normal_form`` of every
    lattice matrix with l <= 9 at q = 25, both forms, and of 300 seeded
    random matrices with most entries 0: square, rectangular, and
    square with the last row a combination of the others."""
    mats = [
        torus_matrix(cls, 25)
        for l in range(2, 10)
        for form in (FORM_PLUS, FORM_MINUS)
        for cls in enumerate_classes(l, form)
    ]
    rng = random.Random(53)
    for k in range(300):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7) if k % 3 == 1 else rows
        m = [[rng.randint(-9, 9) if rng.random() < 0.4 else 0 for _ in range(cols)] for _ in range(rows)]
        if k % 3 == 2 and rows > 1:
            coeffs = [rng.randint(-3, 3) for _ in range(rows - 1)]
            m[-1] = [sum(c * row[j] for c, row in zip(coeffs, m)) for j in range(cols)]
        mats.append(m)
    h = hashlib.sha256()
    for m in mats:
        res = smith_normal_form(m)
        h.update(repr((res.d, res.p, res.q)).encode())
    return h.hexdigest()


class TestModularInvariantFactors:
    """``invariant_factors`` works modulo |det|; the witness path works
    over Z.  Both must give the same invariant factors on nonsingular
    square input, and only the witness path takes any other."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(square_matrices(max_size=6, bound=12))
    def test_matches_witness_path(self, m):
        assert_agrees_or_refuses(m, snf_nonzero_diagonal(m))

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(square_matrices(max_size=5, bound=2**62))
    def test_matches_witness_path_large_entries(self, m):
        assert_agrees_or_refuses(m, snf_nonzero_diagonal(m))

    def test_frozen_examples(self):
        # [[6, 0, 0], ...] has no unit modulo its determinant and
        # content 1; its factors are read off its 2 x 2 minors
        assert invariant_factors([[1]]) == (1,)
        assert invariant_factors([[2, 1], [1, 1]]) == (1, 1)
        assert invariant_factors([[6, 0, 0], [0, 10, 0], [0, 0, 15]]) == (1, 30, 30)
        assert invariant_factors([[-4]]) == (4,)

    def test_summands_split_off_without_split_pivot(self, monkeypatch):
        # units clear the first two rows; the block diag(6, 10, 15, 7)
        # left modulo 6300 has no unit and content 1, and every row of it
        # is a cyclic summand, so the block is never stabilized
        def refuse(*args):
            raise AssertionError("_stabilize ran")

        scans = []
        summands = smith._cyclic_summands

        def counted(block, r):
            found = summands(block, r)
            scans.append(len(found[0]))
            return found

        monkeypatch.setattr(smith, "_stabilize", refuse)
        monkeypatch.setattr(smith, "_cyclic_summands", counted)
        m = [
            [1, 0, 6, 0, 0, 0],
            [0, 1, 0, 10, 0, 0],
            [0, 0, 6, 0, 0, 0],
            [0, 0, 0, 10, 0, 0],
            [0, 0, 0, 0, 15, 0],
            [0, 0, 0, 0, 0, 7],
        ]
        assert invariant_factors(m) == snf_nonzero_diagonal(m) == (1, 1, 1, 1, 30, 210)
        assert scans == [4]
        m = [[2, 0, 0, 0], [0, 3, 0, 0], [0, 0, 5, 0], [0, 0, 0, 7]]
        assert invariant_factors(m) == (1, 1, 1, 210)
        assert scans == [4, 4]

    def test_block_without_summand_reaches_stabilize(self, monkeypatch):
        # every row and column has two nonzero entries, so no summand
        # splits off; the block has content 1 and no unit modulo 21204,
        # and one stabilization leaves a unit at (0, 0)
        calls = []
        stabilize = smith._stabilize

        def counted(block, r):
            assert all(math.gcd(x, r) > 1 for row in block for x in row)
            assert math.gcd(r, *(x for row in block for x in row)) == 1
            stabilize(block, r)
            assert math.gcd(block[0][0], r) == 1
            calls.append((len(block), r))

        monkeypatch.setattr(smith, "_stabilize", counted)
        m = [[6, 10, 0, 0], [0, 6, 15, 0], [0, 0, 6, 10], [15, 0, 0, 6]]
        assert invariant_factors(m) == snf_nonzero_diagonal(m) == (1, 1, 6, 3534)
        assert calls == [(4, 21204)]

    def test_column_summands_split_off(self):
        # no row of the first block has one nonzero entry, but column 0
        # does, and its 2 divides row 0: only the column half of the
        # scan finds that Z/2.  In the diagonal block each summand is
        # found by its row and by its column, and counts once.
        block = [[2, 4, 0, 0], [0, 3, 5, 0], [0, 0, 5, 3], [0, 7, 0, 5]]
        assert smith._cyclic_summands(block, 210) == ([2], {0}, {0})
        block = [[2, 0, 0, 0], [0, 3, 0, 0], [0, 0, 5, 0], [0, 0, 0, 7]]
        assert smith._cyclic_summands(block, 210) == ([2, 3, 5, 7], {0, 1, 2, 3}, {0, 1, 2, 3})

    def test_stabilize_refuses_content_above_one(self):
        # every entry is even modulo 8, so no combination makes a unit
        block = [[2, 4, 0, 6], [4, 2, 6, 0], [0, 6, 2, 4], [6, 0, 4, 2]]
        with pytest.raises(ArithmeticError):
            smith._stabilize(block, 8)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(tail_matrices(max_size=6))
    def test_three_row_tail_matches_witness_path(self, m):
        assert_agrees_or_refuses(m, snf_nonzero_diagonal(m))

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(block_diagonal_matrices(max_blocks=4))
    def test_block_diagonal_matches_witness_path(self, m):
        assert_agrees_or_refuses(m, snf_nonzero_diagonal(m))

    # The named worst cases of the benchmark's growth workload, and the
    # l = 10 class whose exact Smith form did not finish at q = 2^61 - 1.
    WORST_CASES = [
        ("3,-2,-2,-2,-1", 25),
        ("1,1,1,1,-2,-2,-2", 25),
        ("1,1,1,-2,-2", 2**31 - 1),
        ("1,1,1,1,-2,-1", 2**31 - 1),
        ("3,-2,-2,-2,-1", 2**61 - 1),
    ]

    @pytest.mark.parametrize("literal, q", WORST_CASES)
    def test_worst_cases_match_closed_form(self, literal, q):
        cls = TorusClass.parse(literal)
        want = canonical_invariants(closed_form_decomposition(cls).orders(q))
        assert canonical_invariants(invariant_factors(torus_matrix(cls, q))) == want
        assert canonical_invariants(invariant_factors(reduced_torus_matrix(cls.ctype, q))) == want


ACCEPTANCE_QS = (2, 3, 4, 5, 7, 9, 11, 13, 16, 25)


def kernel_digest():
    """SHA-256 over ``determinant`` and ``invariant_factors`` of every
    lattice matrix with l <= 8 at each acceptance q, and of the reduced
    matrix of every class with l <= 6 that has one (the sweep's
    condition: two parts or more, split tag other than '-')."""
    h = hashlib.sha256()
    for l in range(2, 9):
        for form in (FORM_PLUS, FORM_MINUS):
            for cls in enumerate_classes(l, form):
                reduced = l <= 6 and cls.split != "-" and len(cls.ctype.parts) >= 2
                for q in ACCEPTANCE_QS:
                    m = torus_matrix(cls, q)
                    h.update(repr((cls.literal(), q, determinant(m), invariant_factors(m))).encode())
                    if reduced:
                        m = reduced_torus_matrix(cls.ctype, q)
                        h.update(repr(("reduced", q, determinant(m), invariant_factors(m))).encode())
    return h.hexdigest()


class TestModularKernel:
    """The fraction-free determinant and the modular elimination skip
    work on zero entries; these pin that nothing else moves."""

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(sparse_square_matrices(max_size=7, bound=4))
    def test_sparse_determinant_matches_cofactor_expansion(self, m):
        assert determinant(m) == cofactor_det(m)

    @settings(max_examples=450, derandomize=True, database=None, deadline=None)
    @given(
        st.one_of(sparse_square_matrices(max_size=7, bound=4), prime_product_matrices(max_size=6)),
        st.sampled_from((1, 1, 2, 3, 6)),
    )
    def test_sparse_matches_witness_path(self, m, scale):
        # with scale > 1 every entry shares a factor with det, so the
        # first step finds no unit and divides the content out instead
        m = [[scale * x for x in row] for row in m]
        det = abs(determinant(m))
        if scale > 1 and det:
            assert all(math.gcd(x, det) > 1 for row in m for x in row)
        assert_agrees_or_refuses(m, snf_nonzero_diagonal(m))

    def test_lattice_results_are_unchanged(self):
        # recorded before the zero-skipping kernel; a change here is a
        # change of results, not of speed
        assert kernel_digest() == (
            "5be8869211405e70fdf366f8ef6ff53d03b3d3b3b7298eb9a58261182e2ac011"
        )

    def test_lattice_factors_are_unchanged(self):
        # recorded before stuck blocks were stabilized and the last three
        # factors read off 2 x 2 minors; a change here is a change of
        # results, not of speed
        assert lattice_factor_digest() == (
            "2c753dca4a1969ca944dad52dffc8e29ce17e0efa74e78f06d5171b68d67f9e6"
        )


def lattice_factor_digest():
    """SHA-256 over ``invariant_factors`` of every lattice matrix, and of
    the reduced matrix of every class of two parts or more, with
    l <= 10 at q = 25 and l <= 9 at q = 2^61 - 1."""
    h = hashlib.sha256()
    for q, l_max in ((25, 10), (2**61 - 1, 9)):
        for l in range(2, l_max + 1):
            for form in (FORM_PLUS, FORM_MINUS):
                for cls in enumerate_classes(l, form):
                    h.update(repr((cls.literal(), q, invariant_factors(torus_matrix(cls, q)))).encode())
                    if len(cls.ctype.parts) >= 2:
                        h.update(repr(invariant_factors(reduced_torus_matrix(cls.ctype, q))).encode())
    return h.hexdigest()
