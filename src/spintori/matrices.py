"""Exact integer matrices for the character-lattice route.

Matrices are plain lists of rows of Python ints; everything stays exact.

The object of interest for a torus class tau of degree l and a field
size q is ``torus_matrix(tau, q)``: the l x l matrix of the map
(field-power twist) o (class representative) - (identity) written in
the fundamental-weight basis of the character lattice.  Its cokernel is
the finite torus labelled by tau, so its Smith invariant factors give
the cyclic decomposition.  Both forms are handled by one formula: a
class with an odd number of negative parts has an odd representative,
and feeding that odd element in absorbs the diagram twist exactly, as
the tests check for every odd class up to degree 8.

The remaining functions build the two-step reduction used to prove the
closed form: ``reduced_form_identity`` checks the basis-change identity
that replaces the weight-basis matrix by a block matrix q*R - E + q*B,
and ``reduced_torus_matrix`` carries out the block elimination down to
a small matrix with the same nontrivial invariant factors.

Each check matrix is built in one pass, with no generic matrix product
and no intermediate matrix, and the weight action W in one place only,
``_action_rows``: row i of q W is at most two constant runs and two
tail entries, read off the images w(i) and w(i+1) and written by list
repetition, with no arithmetic on each entry; at q = 1 it is W itself.
"""

from __future__ import annotations

from .permutations import (
    SignedCycleType,
    TorusClass,
    representative,
    standard_representative,
)

__all__ = [
    "MatrixFormatError", "format_matrix_text", "parse_matrix_text", "reduced_form_identity",
    "reduced_torus_matrix", "torus_matrix",
]

Matrix = list[list[int]]


class MatrixFormatError(ValueError):
    """Malformed matrix text input."""


# ---------------------------------------------------------------------------
# bases and actions


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


def _action_rows(images: tuple[int, ...], q: int) -> Matrix:
    """Rows of q W, W the element's matrix on the fundamental-weight
    basis, each a new list built from slices with no product.

    2W = S R N, with S the simple roots in the orthonormal basis (rows
    e_i - e_(i+1) for i < l and e_(l-1) + e_l last, det +-2), R the
    signed permutation and N = 2 S^-1: row k < l - 1 of N is 2 on
    columns k to l - 3 and (1, 1) on the last two, and row l - 1 is
    (0, ..., -1, 1).
    So row i of 2W is sign(w(i)) N[|w(i)|] - sign(w(i+1)) N[|w(i+1)|],
    the sum for the last row.  Halved and times q, that is one side's
    +-q from the lower run start to the higher, their sum from there to
    column l - 3, and half the sum of the two tails, which is exact as
    each tail entry is +-q.  At q = 1 these are the rows of W, which is
    S R S^-1 with R = ``permutation_matrix(images)``:

    >>> _action_rows((2, 1, 3), 1)
    [[-1, 0, 0], [1, 1, 0], [1, 0, 1]]
    """
    l = len(images)
    if l < 2:
        raise ValueError("need at least two coordinates")
    body = l - 2
    lines = []  # row k of q R N / 2: run start, run value, then the tail pair not halved
    for x in images:
        s = q if x > 0 else -q
        lines.append((body, s, -s, s) if abs(x) == l else (abs(x) - 1, s, s, s))
    pairs = [(p, (b, -v, -s0, -s1)) for p, (b, v, s0, s1) in zip(lines, lines[1:])]
    pairs.append((lines[-2], lines[-1]))
    rows = []
    for (a, u, t0, t1), (b, v, s0, s1) in pairs:
        if a > b:
            a, b, u, v = b, a, v, u
        rows.append([0] * a + [u] * (b - a) + [u + v] * (body - b) + [(t0 + s0) >> 1, (t1 + s1) >> 1])
    return rows


def torus_matrix(tau, q: int) -> Matrix:
    """q * (weight action of the representative) - E, in one pass: the
    rows of q W come from ``_action_rows``, less 1 on the diagonal.

    Works uniformly for both forms: an even class feeds the untwisted
    endomorphism; an odd class's representative is odd, which absorbs
    the diagram twist (see the module docstring).

    >>> from .permutations import SignedCycleType
    >>> torus_matrix(SignedCycleType((-1, -1)), 3)
    [[-4, 0], [0, -4]]
    >>> torus_matrix(SignedCycleType((1, 1)), 2)
    [[1, 0], [0, 1]]
    """
    cls = TorusClass.coerce(tau)
    if not isinstance(q, int) or q < 2:
        raise ValueError(f"q must be an integer >= 2, got {q!r}")
    out = _action_rows(representative(cls), q)
    for i, row in enumerate(out):
        row[i] -= 1
    return out


# ---------------------------------------------------------------------------
# block pipeline


def coupling_matrix(ctype: SignedCycleType) -> Matrix:
    """Full l x l correction matrix, zero outside the block-column of
    the final part (length m, sign last_eps), each row written once.
    Column l - m is last_eps throughout; the last column gets
    -(1 + last_eps)/2 on a part's non-closing rows and -(eps + last_eps)/2
    on its closing row.  When m = 1 the two columns coincide and the
    contributions add, which reproduces all the degenerate shapes.

    >>> coupling_matrix(SignedCycleType((1, -2)))   # single-row block
    [[0, -1, 0], [0, -1, 0], [0, -1, 1]]
    >>> coupling_matrix(SignedCycleType((3, -1)))   # single-column block
    [[0, 0, 0, -1], [0, 0, 0, -1], [0, 0, 0, -1], [0, 0, 0, 0]]
    """
    l, last_len, last_eps = ctype.degree, ctype.lengths[-1], ctype.signs[-1]
    rows = []
    for length, eps in zip(ctype.lengths, ctype.signs):
        for i in range(length):
            row = [0] * l
            row[l - last_len] = last_eps
            row[-1] -= (1 + last_eps if i < length - 1 else eps + last_eps) // 2
            rows.append(row)
    return rows


def reduced_form_identity(ctype: SignedCycleType, q: int) -> bool:
    """Certify the basis-change identity behind the block pipeline:

        q (E + J) R (E - J/2) - E  ==  q R - E + q B,

    with R the standard representative's matrix, J the last-column-ones
    matrix and B the coupling matrix.  Checked doubled, so it stays in
    integers, row by row with no matrix product: row i of (E + J) R is
    r = R[i] + R[l-1], and r (2E - J) is 2r less sum(r) in its last
    entry.  The -E on both sides cancels, so neither side takes it.
    """
    r = permutation_matrix(standard_representative(ctype))
    last, last_sum, q2 = r[-1], sum(r[-1]), 2 * q
    for ri, bi in zip(r, coupling_matrix(ctype)):
        lhs = [q2 * (x + y) for x, y in zip(ri, last)]
        lhs[-1] -= q * (sum(ri) + last_sum)
        rhs = [q2 * (x + y) for x, y in zip(ri, bi)]
        if lhs != rhs:
            return False
    return True


def reduced_torus_matrix(ctype: SignedCycleType, q: int) -> Matrix:
    """The small matrix left after the block elimination; it has the
    same nontrivial invariant factors as ``torus_matrix``.

    For r+s parts with final part length m and sign f, head row i < r+s-1
    carries q^length - sign on the diagonal and then the part's coupling
    entries (a_i, b_i) when m > 1, or their sum a_i + b_i when m == 1,
    since the final part's two coupling columns then coincide.  The tail
    block follows: 2 x 2 when m > 1, [[q - f]] when m == 1.  Every entry
    is read off one table of the powers of q and their running sums,
    built once per call.

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
    # power[k] = q^k and above[k] = q^2 + ... + q^k, zero for k < 2
    power, above = [1, q], [0, 0]
    for _ in range(max(lengths) - 1):
        power.append(power[-1] * q)
        above.append(above[-1] + power[-1])
    out = []
    for i in range(head):
        length, eps = lengths[i], signs[i]
        a = f * (eps * q + above[length])
        # b = -num / 2, exact: 1 + f eps and 1 + f are each 0 or 2
        num = (1 + f * eps) * q + (1 + f) * above[length]
        row = [0] * head + ([a, -(num // 2)] if m > 1 else [a - num // 2])
        row[i] = power[length] - eps
        out.append(row)
    if m > 1:
        tail_sum = q + above[m - 1]
        tail = [[-1 + f * tail_sum, power[m - 1] - (1 + f) // 2 * tail_sum], [2 * q, -q - f]]
    else:
        tail = [[q - f]]
    out += [[0] * head + row for row in tail]
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
        flat = list(map(int, body))
    except ValueError:
        raise MatrixFormatError("non-integer entry") from None
    return [flat[i * cols : (i + 1) * cols] for i in range(rows)]


def format_matrix_text(m: Matrix) -> str:
    lines = [f"{len(m)} {len(m[0])}"]
    lines += [" ".join(map(str, row)) for row in m]
    return "\n".join(lines) + "\n"
