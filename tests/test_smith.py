import hashlib
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
    xgcd,
)
from spintori.matrices import mat_mul


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
    build a unit pivot with gcd row and column mixes (``_split_pivot``)."""
    n = draw(st.integers(2, max_size))
    entry = st.sampled_from((0, 2, -2, 3, -3, 5, -5, 6, -6, 10, -10, 15, -15))
    return draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))


def snf_nonzero_diagonal(m):
    return tuple(x for x in smith_normal_form(m).diagonal if x)


def cofactor_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * cofactor_det(minor)
    return total


XGCD_OPERANDS = st.one_of(st.just(0), st.integers(-1000, 1000), st.integers(-(2**80), 2**80))


class TestXgcd:
    def test_known_values(self):
        assert xgcd(3, 2) == (1, 1, -1)
        assert xgcd(0, -5) == (5, 0, -1)
        assert xgcd(0, 0)[0] == 0

    def test_bezout_identity(self):
        rng = random.Random(5)
        for _ in range(300):
            a, b = rng.randint(-200, 200), rng.randint(-200, 200)
            g, x, y = xgcd(a, b)
            assert g == math.gcd(a, b)
            assert a * x + b * y == g

    @given(XGCD_OPERANDS, XGCD_OPERANDS, st.integers(1, 2**70))
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    def test_property(self, a, b, c):
        # zero, negative and wider-than-64-bit operands, each pair also
        # with a large common factor c
        for a, b in ((a, b), (a * c, b * c)):
            g, x, y = xgcd(a, b)
            assert a * x + b * y == g == math.gcd(a, b) >= 0
            if b:
                assert abs(x) * g <= abs(b)


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

    def test_multiplicativity(self):
        rng = random.Random(17)
        for _ in range(40):
            a = random_matrix(rng, 3, 3, 5)
            b = random_matrix(rng, 3, 3, 5)
            assert determinant(mat_mul(a, b)) == determinant(a) * determinant(b)


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
        assert invariant_factors([[0, 0], [0, 0]]) == ()
        assert invariant_factors([[]]) == ()
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
        assert tuple(x for x in res.diagonal if x) == invariant_factors(m)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(rectangular_matrices(max_size=6, bound=20))
    def test_property_rectangular(self, m):
        res = self.check(m)
        assert tuple(x for x in res.diagonal if x) == invariant_factors(m)

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


class TestModularInvariantFactors:
    """``invariant_factors`` works modulo |det|; the witness path works
    over Z.  Both must give the same invariant factors."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(square_matrices(max_size=6, bound=12))
    def test_matches_witness_path(self, m):
        assert invariant_factors(m) == snf_nonzero_diagonal(m)

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(square_matrices(max_size=5, bound=2**62))
    def test_matches_witness_path_large_entries(self, m):
        assert invariant_factors(m) == snf_nonzero_diagonal(m)

    def test_frozen_examples(self):
        # [[6, 0, 0], ...] has no unit modulo its determinant, so it
        # takes the gcd-mix path and folds rows into the pivot
        assert invariant_factors([[1]]) == (1,)
        assert invariant_factors([[2, 1], [1, 1]]) == (1, 1)
        assert invariant_factors([[6, 0, 0], [0, 10, 0], [0, 0, 15]]) == (1, 30, 30)
        assert invariant_factors([[-4]]) == (4,)

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
        assert invariant_factors(m) == snf_nonzero_diagonal(m)

    def test_lattice_results_are_unchanged(self):
        # recorded before the zero-skipping kernel; a change here is a
        # change of results, not of speed
        assert kernel_digest() == (
            "5be8869211405e70fdf366f8ef6ff53d03b3d3b3b7298eb9a58261182e2ac011"
        )
