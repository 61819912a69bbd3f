"""Exact integer matrices for the character-lattice route.

Matrices are plain lists of rows of Python ints; everything stays exact.

The object of interest for a torus class tau of degree l and a field
size q is ``torus_matrix(tau, q)``: the l x l matrix of the map
(field-power twist) o (class representative) - (identity) written in
the fundamental-weight basis of the character lattice.  Its cokernel is
the finite torus labelled by tau, so its Smith invariant factors give
the cyclic decomposition.  Both forms are handled by one formula: a
class with an odd number of negative parts has an odd representative,
and feeding that odd element in absorbs the diagram twist exactly
(``twist_factorization_check`` certifies this).

The remaining functions build the two-step reduction used to prove the
closed form: ``reduced_form_identity`` checks the basis-change identity
that replaces the weight-basis matrix by a block matrix q*R - E + q*B,
and ``reduced_torus_matrix`` carries out the block elimination down to
a small matrix with the same nontrivial invariant factors.
"""

from __future__ import annotations

from .permutations import (
    SignedCycleType,
    TorusClass,
    representative,
    standard_representative,
)

Matrix = list[list[int]]


class MatrixFormatError(ValueError):
    """Malformed matrix text input."""


# ---------------------------------------------------------------------------
# generic helpers


def mat_identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """The product a b, each row formed as a sum of rows of b.

    Row i of the product is the sum of a[i][k] * b[k] over k; a zero
    entry of a contributes nothing and is skipped, so a sparse factor
    (a permutation or basis-change matrix) costs only its nonzeros.

    >>> mat_mul([[0, 2], [1, 0]], [[1, 2, 3], [4, 5, 6]])
    [[8, 10, 12], [1, 2, 3]]
    """
    if not a or not b or len(a[0]) != len(b):
        raise ValueError("shape mismatch in matrix product")
    cols = len(b[0])
    out = []
    for row in a:
        acc = [0] * cols
        for x, brow in zip(row, b):
            if x:
                acc = [s + x * y for s, y in zip(acc, brow)]
        out.append(acc)
    return out


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c: int, a: Matrix) -> Matrix:
    return [[c * x for x in row] for row in a]


def _halve_exact(a: Matrix) -> Matrix:
    for row in a:
        for x in row:
            if x % 2:
                raise ArithmeticError("entry not even; lattice bookkeeping broken")
    return [[x // 2 for x in row] for row in a]


# ---------------------------------------------------------------------------
# bases and actions


def transition_matrix(l: int) -> Matrix:
    """Rows are the simple-root coordinates in the orthonormal basis:
    e_i - e_{i+1} for i < l, and e_{l-1} + e_l last.  Determinant +-2.

    >>> transition_matrix(2)
    [[1, -1], [1, 1]]
    """
    if l < 2:
        raise ValueError("need at least two coordinates")
    rows = []
    for i in range(l - 1):
        row = [0] * l
        row[i], row[i + 1] = 1, -1
        rows.append(row)
    last = [0] * l
    last[l - 2] = last[l - 1] = 1
    rows.append(last)
    return rows


def doubled_inverse_transition(l: int) -> Matrix:
    """Twice the inverse of ``transition_matrix(l)``, which is integral.

    >>> doubled_inverse_transition(2)
    [[1, 1], [-1, 1]]
    >>> mat_mul(transition_matrix(3), doubled_inverse_transition(3))
    [[2, 0, 0], [0, 2, 0], [0, 0, 2]]
    """
    if l < 2:
        raise ValueError("need at least two coordinates")
    n = [[0] * l for _ in range(l)]
    for k in range(l - 2):
        for i in range(k + 1):
            n[i][k] = 2
    for i in range(l):
        n[i][l - 2] = -1 if i == l - 1 else 1
        n[i][l - 1] = 1
    return n


def permutation_matrix(images: tuple[int, ...]) -> Matrix:
    """Row i carries sign(w(i)) in column |w(i)|, for the element w
    with these images of 1..l.  A homomorphism for the left-to-right
    ``compose`` of the tests' oracle, compose(u, v)(i) = v(u(i)): the
    matrix of compose(u, v) is the matrix of u times that of v.

    >>> permutation_matrix((2, -1))
    [[0, 1], [-1, 0]]
    """
    l = len(images)
    m = [[0] * l for _ in range(l)]
    for row, img in zip(m, images):
        row[abs(img) - 1] = 1 if img > 0 else -1
    return m


def weight_action_matrix(images: tuple[int, ...]) -> Matrix:
    """The element's matrix on the fundamental-weight basis: S R S^-1,
    with S = ``transition_matrix``, R = ``permutation_matrix(images)``
    and N = 2 S^-1 = ``doubled_inverse_transition``.

    Built row by row in O(l^2), with no matrix product.  Row k of R N
    is sign(w(k)) N[|w(k)|], and row i of S takes the difference of
    rows i and i+1 (the sum of the last two rows for the last simple
    root), so row i of the result is (+-N[|w(a)|] +- N[|w(b)|]) / 2.
    Integral because the action preserves the weight lattice; the
    halving checks that every entry is even.

    >>> weight_action_matrix((2, 1, 3))
    [[-1, 0, 0], [1, 1, 0], [1, 0, 1]]
    """
    l = len(images)
    n = doubled_inverse_transition(l)
    rn = [n[x - 1] if x > 0 else [-v for v in n[-x - 1]] for x in images]
    doubled = [[x - y for x, y in zip(rn[i], rn[i + 1])] for i in range(l - 1)]
    doubled.append([x + y for x, y in zip(rn[l - 2], rn[l - 1])])
    return _halve_exact(doubled)


def torus_matrix(tau, q: int) -> Matrix:
    """q * (weight action of the representative) - E.

    Works uniformly for both forms: an even class feeds the untwisted
    endomorphism; an odd class's representative is odd, which absorbs
    the diagram twist (see ``twist_factorization_check``).

    >>> from .permutations import SignedCycleType
    >>> torus_matrix(SignedCycleType((-1, -1)), 3)
    [[-4, 0], [0, -4]]
    >>> torus_matrix(SignedCycleType((1, 1)), 2)
    [[1, 0], [0, 1]]
    """
    cls = TorusClass.coerce(tau)
    if not isinstance(q, int) or q < 2:
        raise ValueError(f"q must be an integer >= 2, got {q!r}")
    l = cls.ctype.degree
    if l < 2:
        raise ValueError("torus matrices need degree >= 2")
    m = weight_action_matrix(representative(cls))
    return [[q * x - 1 if i == j else q * x for j, x in enumerate(row)] for i, row in enumerate(m)]


def twist_factorization_check(ctype: SignedCycleType) -> bool:
    """For an odd type, the twisted presentation through an even group
    element equals the untwisted one through the odd representative u,
    at every q: q * C * action(d * u) - E == q * action(u) - E, with d
    the last-point flip and C the exchange of the last two coordinates
    (the diagram symmetry on the fundamental-weight basis).  Both sides
    are q times a fixed matrix minus E, so this checks
    C * action(d * u) == action(u)."""
    if ctype.num_negative % 2 == 0:
        raise ValueError("check applies to odd types only")
    u = standard_representative(ctype)
    # d * u, d the last-point flip, sends l to u(-l) = -u(l)
    m = weight_action_matrix(u[:-1] + (-u[-1],))
    m[-2], m[-1] = m[-1], m[-2]  # C * m
    return m == weight_action_matrix(u)


# ---------------------------------------------------------------------------
# block pipeline


def ones_last_column(l: int) -> Matrix:
    return [[1 if j == l - 1 else 0 for j in range(l)] for _ in range(l)]


def coupling_block(length: int, eps: int, last_length: int, last_eps: int) -> Matrix:
    """The correction block a part contributes opposite the final part.

    First column is last_eps throughout; the last column gets
    -(1 + last_eps)/2 on non-closing rows and -(eps + last_eps)/2 on
    the closing row.  When the final part has length 1 the two columns
    coincide and the contributions add, which reproduces all the
    degenerate shapes.

    >>> coupling_block(3, 1, 1, -1)   # single-column degenerate form
    [[-1], [-1], [-1]]
    >>> coupling_block(1, -1, 2, -1)  # single-row degenerate form
    [[-1, 1]]
    """
    b = [[0] * last_length for _ in range(length)]
    for i in range(length):
        b[i][0] += last_eps
    half_pair = -(1 + last_eps) // 2
    for i in range(length - 1):
        b[i][last_length - 1] += half_pair
    b[length - 1][last_length - 1] += -(eps + last_eps) // 2
    return b


def coupling_matrix(ctype: SignedCycleType) -> Matrix:
    """Full l x l correction matrix: zero outside the final block-column."""
    l = ctype.degree
    last_len = ctype.lengths[-1]
    last_eps = ctype.signs[-1]
    out = [[0] * l for _ in range(l)]
    col0 = l - last_len
    row = 0
    for length, eps in zip(ctype.lengths, ctype.signs):
        blk = coupling_block(length, eps, last_len, last_eps)
        for i in range(length):
            for j in range(last_len):
                out[row + i][col0 + j] = blk[i][j]
        row += length
    return out


def reduced_form_identity(ctype: SignedCycleType, q: int) -> bool:
    """Certify the basis-change identity behind the block pipeline:

        q (E + J) R (E - J/2) - E  ==  q R - E + q B,

    with R the standard representative's matrix, J the last-column-ones
    matrix and B the coupling matrix.  Checked doubled, so it stays in
    integers.
    """
    l = ctype.degree
    if l < 2:
        raise ValueError("identity needs degree >= 2")
    r = permutation_matrix(standard_representative(ctype))
    e = mat_identity(l)
    j = ones_last_column(l)
    e_plus_j = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(e, j)]
    two_e_minus_j = mat_sub(mat_scale(2, e), j)
    lhs2 = mat_sub(mat_scale(q, mat_mul(mat_mul(e_plus_j, r), two_e_minus_j)), mat_scale(2, e))
    rhs = mat_sub(mat_scale(q, r), e)
    b = coupling_matrix(ctype)
    rhs2 = mat_scale(2, [[x + q * y for x, y in zip(ra, rb)] for ra, rb in zip(rhs, b)])
    return lhs2 == rhs2


def geometric_sum(q: int, lo: int, hi: int) -> int:
    """q^lo + q^(lo+1) + ... + q^hi, zero when the range is empty.

    >>> geometric_sum(3, 2, 4)
    117
    >>> geometric_sum(3, 2, 1)
    0
    """
    return sum(q**e for e in range(lo, hi + 1))


def reduced_torus_matrix(ctype: SignedCycleType, q: int) -> Matrix:
    """The small matrix left after the block elimination; it has the
    same nontrivial invariant factors as ``torus_matrix``.

    For r+s parts with final part length m and sign f, the shape is
    (r+s+1) x (r+s+1) when m > 1 and (r+s) x (r+s) when m == 1; the
    first r+s-1 rows carry diag(q^length - sign) plus coupling entries
    in the trailing column(s).

    >>> reduced_torus_matrix(SignedCycleType((1, -1)), 3)
    [[2, -3], [0, 4]]
    >>> reduced_torus_matrix(SignedCycleType((-2, -2)), 3)
    [[10, -6, -3], [0, -4, 3], [0, 6, -2]]
    """
    parts = ctype.parts
    if len(parts) < 2:
        raise ValueError("block elimination needs at least two parts")
    lengths, signs = ctype.lengths, ctype.signs
    m, f = lengths[-1], signs[-1]
    head = len(parts) - 1

    def a_entry(i):
        return f * (signs[i] * q + geometric_sum(q, 2, lengths[i]))

    def b_entry(i):
        num = (1 + f * signs[i]) * q + (1 + f) * geometric_sum(q, 2, lengths[i])
        if num % 2:
            raise ArithmeticError("coupling entry not even; block elimination broken")
        return -(num // 2)

    if m > 1:
        n = head + 2
        out = [[0] * n for _ in range(n)]
        for i in range(head):
            out[i][i] = q ** lengths[i] - signs[i]
            out[i][n - 2] = a_entry(i)
            out[i][n - 1] = b_entry(i)
        tail_sum = geometric_sum(q, 1, m - 1)
        out[n - 2][n - 2] = -1 + f * tail_sum
        out[n - 2][n - 1] = q ** (m - 1) - ((1 + f) // 2) * tail_sum
        out[n - 1][n - 2] = 2 * q
        out[n - 1][n - 1] = -q - f
        return out

    n = head + 1
    out = [[0] * n for _ in range(n)]
    for i in range(head):
        out[i][i] = q ** lengths[i] - signs[i]
        out[i][n - 1] = a_entry(i) + b_entry(i)
    out[n - 1][n - 1] = q - f
    return out


# ---------------------------------------------------------------------------
# matrix text format: header "rows cols", then entries in any whitespace
# layout


def parse_matrix_text(text: str) -> Matrix:
    """
    >>> parse_matrix_text("2 2\\n1 0\\n0 1\\n")
    [[1, 0], [0, 1]]
    """
    tokens = text.split()
    if len(tokens) < 2:
        raise MatrixFormatError("missing 'rows cols' header")
    try:
        rows, cols = int(tokens[0]), int(tokens[1])
    except ValueError:
        raise MatrixFormatError(f"bad header: {tokens[0]!r} {tokens[1]!r}") from None
    if rows < 1 or cols < 1:
        raise MatrixFormatError(f"matrix shape must be positive, got {rows}x{cols}")
    body = tokens[2:]
    if len(body) != rows * cols:
        raise MatrixFormatError(f"expected {rows * cols} entries, got {len(body)}")
    try:
        flat = [int(tok) for tok in body]
    except ValueError:
        raise MatrixFormatError("non-integer entry") from None
    return [flat[i * cols : (i + 1) * cols] for i in range(rows)]


def format_matrix_text(m: Matrix) -> str:
    rows, cols = len(m), len(m[0])
    lines = [f"{rows} {cols}"]
    for row in m:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"
