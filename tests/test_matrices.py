import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spintori import (
    FORM_MINUS,
    FORM_PLUS,
    MatrixFormatError,
    SignedCycleType,
    TorusClass,
    canonical_invariants,
    closed_form_decomposition,
    determinant,
    enumerate_classes,
    format_matrix_text,
    invariant_factors,
    iter_classes,
    parse_matrix_text,
    reduced_form_identity,
    reduced_torus_matrix,
    representative,
    standard_representative,
    torus_matrix,
    torus_order,
    weight_action_matrix,
)
from spintori import matrices
from spintori.matrices import (
    coupling_block,
    coupling_matrix,
    mat_mul,
    permutation_matrix,
    twist_factorization_check,
)

from oracle_tools import compose
from test_permutations import random_element

ACCEPTANCE_QS = (2, 3, 4, 5, 7, 9, 11, 13, 16, 25)


def multi_part_types(l_max):
    seen = set()
    for l in range(2, l_max + 1):
        for form in (FORM_PLUS, FORM_MINUS):
            for cls in enumerate_classes(l, form):
                ct = cls.ctype
                if len(ct.parts) >= 2 and ct not in seen:
                    seen.add(ct)
                    yield ct


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def transition_matrix(l):
    """Rows are the simple-root coordinates in the orthonormal basis:
    e_i - e_(i+1) for i < l, and e_(l-1) + e_l last.  Determinant +-2.
    The dense reference's basis change; the library writes W without it."""
    rows = [[0] * i + [1, -1] + [0] * (l - 2 - i) for i in range(l - 1)]
    return rows + [[0] * (l - 2) + [1, 1]]


def doubled_inverse_transition(l):
    """Twice the inverse of ``transition_matrix(l)``, which is integral:
    row k < l - 1 is 2 on columns k to l - 3 and (1, 1) on the last two,
    row l - 1 is (0, ..., 0, -1, 1).  The dense reference's own basis;
    ``test_doubled_inverse`` checks it against the transition matrix."""
    twos = [2] * (l - 2)
    rows = [[0] * k + twos[k:] + [1, 1] for k in range(l - 1)]
    return rows + [[0] * (l - 2) + [-1, 1]]


def dense_weight_action(w):
    # the textbook S R S^-1, through two full products and the halving
    l = len(w)
    doubled = mat_mul(
        mat_mul(transition_matrix(l), permutation_matrix(w)), doubled_inverse_transition(l)
    )
    assert all(x % 2 == 0 for row in doubled for x in row)
    return [[x // 2 for x in row] for row in doubled]


def generic_identity_sides(ct, q):
    # both doubled sides of q (E + J) R (E - J/2) - E == q R - E + q B,
    # through the generic product and whole-matrix sums
    l = ct.degree
    e = identity(l)
    j = [[int(c == l - 1) for c in range(l)] for _ in range(l)]
    r = permutation_matrix(standard_representative(ct))
    e_plus_j = [[x + y for x, y in zip(a, b)] for a, b in zip(e, j)]
    two_e_minus_j = [[2 * x - y for x, y in zip(a, b)] for a, b in zip(e, j)]
    product = mat_mul(mat_mul(e_plus_j, r), two_e_minus_j)
    lhs = [[q * x - 2 * y for x, y in zip(a, b)] for a, b in zip(product, e)]
    rhs = [
        [2 * (q * x - y + q * z) for x, y, z in zip(a, b, c)]
        for a, b, c in zip(r, e, coupling_matrix(ct))
    ]
    return lhs, rhs


@st.composite
def signed_permutations(draw, min_degree=2, max_degree=30):
    l = draw(st.integers(min_degree, max_degree))
    images = draw(st.permutations(range(1, l + 1)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=l, max_size=l))
    # pick the coset outright, so both are drawn whatever the sign list
    if draw(st.booleans()) != (signs.count(-1) % 2 == 1):
        signs[-1] = -signs[-1]
    return tuple(s * x for s, x in zip(signs, images))


@st.composite
def torus_classes(draw, min_degree=2, max_degree=30):
    left = draw(st.integers(min_degree, max_degree))
    parts = []
    while left:
        k = draw(st.integers(1, left))
        parts.append(draw(st.sampled_from((k, -k))))
        left -= k
    ctype = SignedCycleType(tuple(parts))
    split = draw(st.sampled_from("+-")) if ctype.is_split_eligible() else None
    return TorusClass(ctype, split)


field_sizes = st.one_of(
    st.sampled_from((2, 4, 25, 2**31 - 1, 2**61 - 1)), st.integers(2, 2**64 - 1)
)


@st.composite
def matrix_pairs(draw, max_size=7):
    """Factors a (n x k) and b (k x m); a dimension is 1 about half the
    time, so 1 x k and k x 1 shapes are common.  Some rows and columns
    of each factor are zero, and each factor's rows may be tuples."""
    size = st.one_of(st.just(1), st.integers(1, max_size))
    n, k, m = (draw(size) for _ in range(3))
    entry = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(2**100), 2**100))
    a = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=n, max_size=n))
    b = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=k, max_size=k))
    for mat, rows, cols in ((a, n, k), (b, k, m)):
        for i in draw(st.sets(st.integers(0, rows - 1))):
            mat[i] = [0] * cols
        for j in draw(st.sets(st.integers(0, cols - 1))):
            for row in mat:
                row[j] = 0
    if draw(st.booleans()):
        a = [tuple(row) for row in a]
    if draw(st.booleans()):
        b = [tuple(row) for row in b]
    return a, b


class TestBasisMatrices:
    def test_transition_determinant_is_two(self):
        for l in range(2, 9):
            assert abs(determinant(transition_matrix(l))) == 2

    def test_doubled_inverse(self):
        for l in range(2, 9):
            prod = mat_mul(transition_matrix(l), doubled_inverse_transition(l))
            assert prod == [[2 * x for x in row] for row in identity(l)]

    def test_permutation_matrix_is_a_homomorphism(self):
        # for the oracle's left-to-right composition
        rng = random.Random(19)
        for _ in range(60):
            u, v = random_element(rng, 5), random_element(rng, 5)
            assert permutation_matrix(compose(u, v)) == mat_mul(
                permutation_matrix(u), permutation_matrix(v)
            )

    def test_weight_action_is_integral_and_unimodular(self):
        rng = random.Random(23)
        for _ in range(60):
            m = weight_action_matrix(random_element(rng, 6))
            assert all(isinstance(x, int) for row in m for x in row)
            assert abs(determinant(m)) == 1


class TestMatMul:
    @settings(max_examples=120, derandomize=True, database=None, deadline=None)
    @given(matrix_pairs())
    def test_matches_triple_sum(self, ab):
        a, b = ab
        n, k, m = len(a), len(b), len(b[0])
        expected = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]
        assert mat_mul(a, b) == expected

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mat_mul([[1, 2]], [[1, 2]])
        with pytest.raises(ValueError):
            mat_mul([[1], [2]], [[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            mat_mul([], [[1, 2]])
        with pytest.raises(ValueError):
            mat_mul([[]], [])
        # ragged factors: zip would truncate to [[5], [3]] and [[7]]
        with pytest.raises(ValueError):
            mat_mul([[1, 2], [3]], [[1], [2]])
        with pytest.raises(ValueError):
            mat_mul([[1, 2]], [[1, 2], [3]])


class TestDirectWeightAction:
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(signed_permutations())
    def test_matches_dense_reference(self, w):
        assert weight_action_matrix(w) == dense_weight_action(w)

    def test_torus_matrix_matches_dense_reference(self):
        for l in range(2, 13):
            for form in (FORM_PLUS, FORM_MINUS):
                for cls in enumerate_classes(l, form):
                    ref = dense_weight_action(representative(cls))
                    for q in (2, 3, 25, 2**61 - 1):
                        expected = [
                            [q * x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(ref)
                        ]
                        assert torus_matrix(cls, q) == expected, (cls.literal(), q)

    def test_returned_matrices_are_fresh(self):
        # every row is a new list; no caller's edit reaches a later call
        cls = TorusClass.parse("3,-2,1")
        w = representative(cls)
        want_w, want_t = dense_weight_action(w), torus_matrix(cls, 5)
        for m in (weight_action_matrix(w), torus_matrix(cls, 5)):
            for row in m:
                row[:] = [7] * len(row)
            m.append([0] * 6)
        assert weight_action_matrix(w) == want_w
        assert torus_matrix(cls, 5) == want_t


class TestTorusMatrix:
    def test_scalar_cases(self):
        for q in (2, 3, 5):
            l = 3
            plus = SignedCycleType((1,) * l)
            minus = SignedCycleType((-1,) * l)
            assert torus_matrix(plus, q) == [[(q - 1) * e for e in row] for row in identity(l)]
            assert torus_matrix(minus, q) == [[-(q + 1) * e for e in row] for row in identity(l)]

    def test_order_law_per_matrix(self):
        for l in range(2, 6):
            for form in (FORM_PLUS, FORM_MINUS):
                for cls in enumerate_classes(l, form):
                    for q in (2, 3, 4):
                        a = torus_matrix(cls, q)
                        assert abs(determinant(a)) == torus_order(cls, q)

    def test_split_tag_changes_matrix_not_order(self):
        plus = torus_matrix(TorusClass.parse("2,2:+"), 3)
        minus = torus_matrix(TorusClass.parse("2,2:-"), 3)
        assert plus != minus
        assert abs(determinant(plus)) == abs(determinant(minus)) == 64

    def test_rejects_small_q_and_degree(self):
        with pytest.raises(ValueError):
            torus_matrix(SignedCycleType((1, 1)), 1)
        with pytest.raises(ValueError):
            torus_matrix(SignedCycleType((1,)), 3)
        with pytest.raises(ValueError):
            weight_action_matrix((-1,))

    def test_twist_factorization(self):
        for l in range(2, 9):
            for cls in iter_classes(l, FORM_MINUS):
                assert twist_factorization_check(cls.ctype), cls.literal()

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(torus_classes(), field_sizes)
    def test_order_law_and_routes_agree_past_degree_eight(self, cls, q):
        a = torus_matrix(cls, q)
        assert abs(determinant(a)) == torus_order(cls, q)
        expected = canonical_invariants(closed_form_decomposition(cls).orders(q))
        assert canonical_invariants(invariant_factors(a)) == expected
        if len(cls.ctype.parts) >= 2:
            reduced = invariant_factors(reduced_torus_matrix(cls.ctype, q))
            assert canonical_invariants(reduced) == expected


class TestBlockReduction:
    def test_coupling_block_degenerate_shapes(self):
        assert coupling_block(3, 1, 1, -1) == [[-1], [-1], [-1]]
        assert coupling_block(3, 1, 1, 1) == [[0], [0], [0]]
        assert coupling_block(1, -1, 2, -1) == [[-1, 1]]
        assert coupling_block(1, 1, 2, -1) == [[-1, 0]]
        assert coupling_block(1, 1, 1, 1) == [[0]]
        assert coupling_block(1, -1, 1, 1) == [[1]]

    def test_coupling_matrix_only_last_block_column(self):
        ct = SignedCycleType((2, -2, -1))
        b = coupling_matrix(ct)
        for row in b:
            assert row[:4] == [0] * 4

    def test_reduced_form_identity_sweep(self):
        # the row-by-row identity against the generic triple product
        types = list(multi_part_types(8))
        assert len(types) == 417
        for ct in types:
            for q in ACCEPTANCE_QS:
                lhs, rhs = generic_identity_sides(ct, q)
                assert lhs == rhs, (ct.literal(), q)
                assert reduced_form_identity(ct, q), (ct.literal(), q)

    def test_identity_refuses_a_changed_coupling_entry(self, monkeypatch):
        real = coupling_matrix
        for ct in multi_part_types(4):
            l = ct.degree
            for i in range(l):
                for j in range(l):
                    def changed(c, i=i, j=j):
                        b = real(c)
                        b[i][j] += 1
                        return b

                    monkeypatch.setattr(matrices, "coupling_matrix", changed)
                    assert not reduced_form_identity(ct, 3), (ct.literal(), i, j)
        monkeypatch.undo()
        assert all(reduced_form_identity(ct, 3) for ct in multi_part_types(4))

    def test_reduced_matrix_frozen_examples(self):
        assert reduced_torus_matrix(SignedCycleType((1, -1)), 3) == [[2, -3], [0, 4]]
        assert reduced_torus_matrix(SignedCycleType((-2, -2)), 3) == [
            [10, -6, -3],
            [0, -4, 3],
            [0, 6, -2],
        ]

    def test_reduced_matrix_keeps_invariants(self):
        for ct in multi_part_types(5):
            for q in (2, 3):
                big = [x for x in invariant_factors(torus_matrix(ct, q)) if x > 1]
                small = [x for x in invariant_factors(reduced_torus_matrix(ct, q)) if x > 1]
                assert big == small, ct.literal()

    def test_single_part_is_degenerate(self):
        with pytest.raises(ValueError):
            reduced_torus_matrix(SignedCycleType((4,)), 3)

    def test_reduced_matrices_are_unchanged(self):
        # recorded before the two matrix shapes shared one head-row
        # loop; a change here is a change of results, not of speed
        assert reduced_matrix_digest() == (
            "a5770f9330edba692b496713284d48230ae22a39a4b684535a8c52a5d912ad40"
        )


def reduced_matrix_digest():
    """SHA-256 over ``reduced_torus_matrix`` of every class of two parts
    or more with l <= 10, at q = 2, 3, 25 and 2^61 - 1."""
    h = hashlib.sha256()
    for q in (2, 3, 25, 2**61 - 1):
        for l in range(2, 11):
            for form in (FORM_PLUS, FORM_MINUS):
                for cls in iter_classes(l, form):
                    if len(cls.ctype.parts) >= 2:
                        h.update(repr((cls.literal(), q, reduced_torus_matrix(cls.ctype, q))).encode())
    return h.hexdigest()


class TestMatrixText:
    def test_round_trip(self):
        m = [[1, -2, 3], [0, 5, -6]]
        assert parse_matrix_text(format_matrix_text(m)) == m
        big = 7 * 10**399 + 12345
        m = [[-big, 0], [big, -1], [3, -(10**399)]]
        assert len(str(big)) == 400
        assert parse_matrix_text(format_matrix_text(m)) == m

    def test_parse_accepts_any_whitespace_layout(self):
        assert parse_matrix_text("2 2 1 0 0 1") == [[1, 0], [0, 1]]

    def test_parse_errors(self):
        for text in ("", "2", "2 2\n1 0 0", "2 2\n1 0 0 1 5", "2 2\n1 0 0 x", "0 2\n"):
            with pytest.raises(MatrixFormatError):
                parse_matrix_text(text)
