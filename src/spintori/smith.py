"""Smith normal form over the integers, along two paths.

``smith_normal_form`` is the witness path: it diagonalizes an integer
matrix A as P A Q = D with unimodular P, Q and d1 | d2 | ... >= 0 on
the diagonal.  It works over Z, but first brings A to row Hermite form
H = U A, with the entries above each pivot reduced modulo that pivot
(Kannan & Bachem, SIAM J. Comput. 8(4), 1979), and diagonalizes H with
P started at U.  Row i of D and of P are one list [D_i | P_i] and Q is
kept by columns, so each elementary step is one list build.  Each
clearing below a pivot is one row step, ``_clear_below``: subtraction
where the pivot divides, else a 2 x 2 gcd mix.
``SnfResult.verify`` checks the whole certificate: D diagonal with a
divisor chain, P A Q = D by a product over nonzeros, |det P| = |det Q|
= 1.  On every lattice matrix of degree l <= 9 at q = 25, and on the
l = 10 class 3,-2,-2,-2,-1 at q = 2^61 - 1, no entry of P or Q has more
than 4 bits(|det A|) + 64 bits; the tests hold it to that bound.

``invariant_factors`` is the invariants-only path.  For a nonsingular
square A it works modulo R, a divisor of D = |det A|, and never keeps
an entry outside [0, R) (Hafner & McCurley, SIAM J. Comput. 20(6),
1991; Cohen, GTM 138, Alg. 2.4.14).  It keeps no witnesses.  Each
elimination step finds its pivot in one scan of the block, and a step
on a unit pivot touches only the columns where the pivot row is
nonzero.  A k x k block with no unit modulo R whose content
c = gcd(R, entries) exceeds 1 is c times a block B' whose cokernel has
order R / c^k: the step divides c out, with no row or column
operation, and every later factor is multiplied by c.  In a block of
content 1 and no unit, a row whose one nonzero entry x has
g = gcd(x, R) dividing the rest of its column is a cyclic summand
Z/g, and so is such a column: it is deleted, R is divided by g, and
the summand's order is merged into the factor chain at the end.  A
block with no summand is stabilized (Storjohann, PhD thesis, ETH
Zurich, 2000): one column combination and one row combination put a
unit at (0, 0) (``_stabilize``), and a unit step follows.  The last
three rows are read off their determinantal divisors (Newman,
Integral Matrices, 1972): d1 = gcd(R, entries) and d2 = gcd(R, 2 x 2
minors) give the factors d1, d2 / d1 and R / d2.  Input with a free
part, singular or non-square, is refused: it is the witness path's.

``determinant`` is an independent fraction-free elimination, kept
deliberately separate from the SNF path so the two can cross-check
each other; it calls no other function of this module.
``invariant_factors`` takes its modulus from it; the two paths share
nothing else, and the module imports nothing from the package.  A row
that is zero in the pivot column is not touched at all: each row keeps
the pivot it was last brought to, so the sparse lattice matrices cost
far less than dense ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm, prod

__all__ = ["SnfResult", "determinant", "invariant_factors", "smith_normal_form"]

Matrix = list[list[int]]


def determinant(a: Matrix) -> int:
    """Exact determinant by lazily scaled fraction-free elimination
    (Bareiss, Math. Comp. 22, 1968).

    Bareiss's step k sets x <- (x p - f y) / prev, exact since every
    entry is then a minor of a (Sylvester's identity); a row with f = 0
    in the pivot column is only rescaled by p / prev.  Here such a row
    is not touched at all.  Each row keeps the pivot s it was last
    brought to, starting at 1, and holds Bareiss's entries times s /
    prev.  A row eliminated later divides by its own s, which gives
    the same minor as Bareiss; the pivot row and the last entry are
    brought current as x prev / s, also exact.  On dense input every
    s equals prev, and the steps are Bareiss's.

    >>> determinant([[10, 0], [0, 8]])
    80
    >>> determinant([[1, 2], [2, 4]])
    0
    """
    n = len(a)
    if not n:
        raise ValueError("empty matrix")
    if any(len(row) != n for row in a):
        raise ValueError("determinant needs a square matrix")
    m = [row[:] for row in a]
    level = [1] * n  # the pivot each row was last brought to
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    level[k], level[i] = level[i], level[k]
                    sign = -sign
                    break
            else:
                return 0
        top = m[k]
        s = level[k]
        if s != prev:
            top = [x * prev // s for x in top]
        p = top[k]
        for i in range(k + 1, n):
            row = m[i]
            f = row[k]
            if f:
                s = level[i]
                for j in range(k + 1, n):
                    row[j] = (row[j] * p - f * top[j]) // s
                row[k] = 0
                level[i] = p
        prev = p
    return sign * (m[n - 1][n - 1] * prev // level[n - 1])


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """The product a b, over the nonzeros of both factors.

    Each row of b is listed once as its (column, value) nonzeros; row i
    of the product adds a[i][k] * y only there, for each nonzero a[i][k],
    so a sparse factor costs only its nonzeros.  Rows may be tuples.
    Every row of a needs len(b) entries, every row of b the same number.

    >>> mat_mul([[0, 2], [1, 0]], [[1, 2, 3], [4, 5, 6]])
    [[8, 10, 12], [1, 2, 3]]
    """
    k = len(b)
    if not a or not k or any(len(row) != k for row in a) or len({len(row) for row in b}) != 1:
        raise ValueError("shape mismatch in matrix product")
    cols = len(b[0])
    nonzeros = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [0] * cols
        for x, terms in zip(row, nonzeros):
            if x:
                for j, y in terms:
                    acc[j] += x * y
        out.append(acc)
    return out


@dataclass
class SnfResult:
    """Diagonal form ``d`` with unimodular witnesses: p @ a @ q == d."""

    d: Matrix
    p: Matrix
    q: Matrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.d[i][i] for i in range(min(len(self.d), len(self.d[0]))))

    def verify(self, a: Matrix) -> bool:
        """True if d is diagonal, its diagonal a nonnegative divisor chain
        with zeros only at the end, p a q == d and |det p| = |det q| = 1;
        as det p det a det q = det d, a square a with |det a| = |det d| > 0
        proves the last."""
        if not a or not a[0]:
            raise ValueError("empty matrix")
        d, p, q, diag = self.d, self.p, self.q, self.diagonal
        if len(q) != len(a[0]) or any(any(row[:i]) or any(row[i + 1 :]) for i, row in enumerate(d)):
            return False
        if any(x < 0 for x in diag) or any(y % x if x else y for x, y in zip(diag, diag[1:])):
            return False
        if mat_mul(mat_mul(p, a), q) != d:
            return False
        if len(a) == len(q) and (det := prod(diag)) and abs(determinant(a)) == det:
            return True
        return abs(determinant(p)) == 1 and abs(determinant(q)) == 1


def _clear_below(rows: Matrix, r: int, j: int) -> None:
    """Clear column j below row r in place, on rows [D_i | P_i]: where the
    pivot a divides the entry b below it, subtract b / a pivot rows, and
    elsewhere mix the two rows by a unimodular 2 x 2 step that leaves
    gcd(a, b) as the pivot and 0 below it."""
    top = rows[r]
    a = top[j]
    for i in range(r + 1, len(rows)):
        row = rows[i]
        b = row[j]
        if not b:
            continue
        if b % a == 0:
            f = b // a
            rows[i] = [t - f * s for s, t in zip(top, row)]
        else:
            # (top, row) <- (x top + y row, u top + v row), a x + b y = g, x v - y u = 1
            g = gcd(a, b)
            x = pow(a // g, -1, abs(b) // g)
            y = (g - a * x) // b
            u, v = -(b // g), a // g
            rows[i] = [u * s + v * t for s, t in zip(top, row)]
            rows[r] = top = [x * s + y * t for s, t in zip(top, row)]
            a = g


def _hermite(rows: Matrix, n: int) -> None:
    """Row Hermite form H = U A in place, on rows [H_i | U_i] whose first
    n entries are H's, so each row operation is one list build.

    Columns are taken left to right in row echelon order; a column with
    no nonzero entry from the current row down has no pivot and is
    skipped, so singular and non-square input take the same path.  The
    row with the least nonzero entry becomes the pivot row, clears the
    column below it (``_clear_below``) and is made positive.  Then the
    entries above each pivot are reduced into [0, pivot) (Kannan &
    Bachem, SIAM J. Comput. 8(4), 1979).
    """
    m = len(rows)
    pivots = []
    for j in range(n):
        r = len(pivots)
        if r == m:
            break
        col = [(abs(rows[i][j]), i) for i in range(r, m) if rows[i][j]]
        if not col:
            continue
        least = min(col)[1]
        rows[r], rows[least] = rows[least], rows[r]
        _clear_below(rows, r, j)
        if rows[r][j] < 0:
            rows[r] = [-s for s in rows[r]]
        pivots.append(j)
    # Reduce from the bottom row up, so each row is reduced against rows
    # that are already reduced and sparse: on a chain of unit pivots that
    # is one step a row, where reducing as each pivot is found takes one
    # a pair of rows.  H and U come out the same either way, since the
    # reduced form of a row against the independent rows below is unique.
    for i in range(len(pivots) - 2, -1, -1):
        for r in range(i + 1, len(pivots)):
            j = pivots[r]
            f = rows[i][j] // rows[r][j]
            if f:
                rows[i] = [s - f * t for s, t in zip(rows[i], rows[r])]


def _least_entry(rows: Matrix, t: int, n: int) -> tuple[int, int] | None:
    """Position of the least nonzero |entry| of rows[t:] in columns t to
    n - 1, row-major among ties; the scan stops at the first unit."""
    least, at = 0, None
    for i in range(t, len(rows)):
        row = rows[i]
        for j in range(t, n):
            x = row[j]
            if x and (not least or abs(x) < least):
                if x == 1 or x == -1:
                    return i, j
                least, at = abs(x), (i, j)
    return at


def smith_normal_form(a: Matrix) -> SnfResult:
    """P A Q = D with d1 | d2 | ..., all diagonal entries >= 0.

    A is brought to row Hermite form H = U A, P starting at U, and H is
    diagonalized: the pivot is the least |entry| of the working block,
    row-major among ties; ``_clear_below`` clears its column and column
    steps reduce its row, a remainder that beats the pivot being swapped
    in, until both are clear.  The divisibility repair takes each pair
    i < j once: where d_i does not divide d_j, column j is added to
    column i, ``_clear_below`` leaves (gcd, lcm) on the diagonal and a
    column step clears row i.  A column swap is O(1) on Q's columns.

    >>> smith_normal_form([[2, 1], [0, 2]]).diagonal
    (1, 4)
    >>> smith_normal_form([[10, 0], [0, 8]]).diagonal
    (2, 40)
    >>> smith_normal_form([[0, 0], [0, 0]]).diagonal
    (0, 0)

    No pair divides either way, and 6 and 15 are not adjacent:

    >>> smith_normal_form([[6, 0, 0], [0, 10, 0], [0, 0, 15]]).diagonal
    (1, 30, 30)
    """
    if not a or not a[0]:
        raise ValueError("empty matrix")
    m, n = len(a), len(a[0])
    if any(len(row) != n for row in a):
        raise ValueError("ragged matrix")
    rows = [[*row, *[0] * i, 1, *[0] * (m - 1 - i)] for i, row in enumerate(a)]
    qt = [[*[0] * j, 1, *[0] * (n - 1 - j)] for j in range(n)]  # Q by columns
    _hermite(rows, n)

    rank = 0
    for t in range(min(m, n)):
        best = _least_entry(rows, t, n)
        if best is None:
            break
        bi, bj = best
        rows[t], rows[bi] = rows[bi], rows[t]
        if bj != t:
            for row in rows[t:]:  # the rows above are zero from column t on
                row[t], row[bj] = row[bj], row[t]
            qt[t], qt[bj] = qt[bj], qt[t]
        moved = True
        while moved:
            _clear_below(rows, t, t)
            # column t is zero off the pivot until a swap, so until then
            # a column operation changes only row t of d
            top = rows[t]
            touched = [top]
            moved = False
            for j in range(t + 1, n):
                if top[j] == 0:
                    continue
                f = top[j] // top[t]
                if f:
                    for row in touched:
                        row[j] -= f * row[t]
                    qt[j] = [x - f * y for x, y in zip(qt[j], qt[t])]
                if top[j]:
                    touched = rows[t:]
                    for row in touched:
                        row[t], row[j] = row[j], row[t]
                    qt[t], qt[j] = qt[j], qt[t]
                    moved = True
        rank = t + 1

    # divisibility repair, one pass: (d_i, d_j) <- (gcd, lcm) for each
    # pair i < j in order, so d_i divides every later d_j when row i is
    # done, and gcds and lcms of its multiples stay its multiples
    for i in range(rank):
        for j in range(i + 1, rank):
            rj = rows[j]
            if rj[j] % rows[i][i] == 0:
                continue
            rj[i] = rj[j]  # column i += column j, as d is diagonal
            qt[i] = [s + t for s, t in zip(qt[i], qt[j])]
            _clear_below(rows, i, i)
            # column j -= f column i clears d[i][j] against d[i][i]
            f = rows[i][j] // rows[i][i]
            rows[i][j] = 0
            qt[j] = [s - f * t for s, t in zip(qt[j], qt[i])]

    for i in range(rank):
        if rows[i][i] < 0:
            rows[i] = [-s for s in rows[i]]

    return SnfResult([r[:n] for r in rows], [r[n:] for r in rows], list(map(list, zip(*qt))))


def invariant_factors(a: Matrix) -> tuple[int, ...]:
    """Smith form diagonal of a nonsingular square matrix, 1s included.

    The matrix is eliminated modulo R, which starts at
    D = |det a| and is divided by each invariant factor as it is found.
    The cokernel is unchanged by this, since D kills it, and every
    stored entry lies in [0, R), so no entry ever reaches D.

    Each step scans the block once.  A unit pivot clears its column,
    updating rows in place only where the pivot row is nonzero (else
    the update is x mod R = x), and records the factor 1.  A k x k
    block without one is first tested for content: if
    c = gcd(R, every entry) > 1, the block is c B' and every factor
    left is a multiple of c, so c joins a running ``scale``, R becomes
    R / c^k, the order of the cokernel of B', and each entry x becomes
    (x / c) mod R.  That costs no row or column operation.  A block of
    content 1 and no unit next gives up its cyclic summands
    (``_cyclic_summands``): each is deleted with its row and column, its
    order g is recorded times ``scale``, and R becomes R / g.  A block
    with none is stabilized (``_stabilize``): a column combination and
    a row combination put a unit at (0, 0), and a unit step follows.
    The loop stops at three rows, whose factors are read off the
    determinantal divisors (Newman, Integral Matrices, 1972): with
    d1 = gcd(R, entries) and d2 = gcd(R, the nine 2 x 2 minors) they
    are d1, d2 / d1 and R / d2, as the cokernel has order R.  A 2 x 2
    block has the factors d1 and R / d1, a 1 x 1 block the factor R.
    Every factor is recorded times ``scale``.  The summands' orders are
    merged into the chain last, each inserted from the top factor down
    by Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b).

    The tail:

    >>> invariant_factors([[2, 0], [0, 3]])
    (1, 6)
    >>> invariant_factors([[10, 0], [0, 8]])
    (2, 40)
    >>> invariant_factors([[6, 10, 0], [0, 6, 15], [10, 0, 15]])
    (1, 2, 1020)

    No unit modulo 210 and content 1; each row is a summand, Z/2, Z/3,
    Z/5 and Z/7, and the merge gives

    >>> invariant_factors([[2, 0, 0, 0], [0, 3, 0, 0], [0, 0, 5, 0], [0, 0, 0, 7]])
    (1, 1, 1, 210)

    No unit modulo 21204, content 1 and no summand, so ``_stabilize``
    runs:

    >>> invariant_factors([[6, 10, 0, 0], [0, 6, 15, 0], [0, 0, 6, 10], [15, 0, 0, 6]])
    (1, 1, 6, 3534)

    Content 6 modulo 6^4 * 2 is divided out, leaving R = 2:

    >>> invariant_factors([[6, 0, 0, 0], [0, 6, 0, 0], [0, 0, 6, 0], [0, 0, 0, 12]])
    (6, 6, 6, 12)

    A free part is refused; ``smith_normal_form`` keeps it:

    >>> invariant_factors([[0, 0], [0, 0]])
    Traceback (most recent call last):
    ValueError: invariant_factors takes a nonsingular square matrix; use smith_normal_form
    """
    if any(len(row) != len(a) for row in a) or not (r := abs(determinant(a))):
        raise ValueError("invariant_factors takes a nonsingular square matrix; use smith_normal_form")
    det = r
    block = [[x % r for x in row] for row in a]
    factors = []
    summands = []  # orders of the cyclic summands split off whole
    scale = 1
    while len(block) > 3:
        at = _pivot(block, r)
        if at is None:
            c = gcd(r, *map(gcd, *block))
            if c > 1:
                scale *= c
                r //= c ** len(block)
                block = [[x // c % r for x in row] for row in block]
                continue
            orders, rows, cols = _cyclic_summands(block, r)
            if orders:
                summands += [scale * g for g in orders]
                r //= prod(orders)
                block = [
                    [x % r for j, x in enumerate(row) if j not in cols]
                    for i, row in enumerate(block)
                    if i not in rows
                ]
                continue
            _stabilize(block, r)
            at = 0, 0
        i, j = at
        top = block.pop(i)
        inv = pow(top[j], -1, r)
        nonzero = [(c, y) for c, y in enumerate(top) if y]
        for row in block:
            f = row[j] * inv % r
            if f:
                for c, y in nonzero:
                    row[c] = (row[c] - f * y) % r
            del row[j]
        factors.append(scale)
    if len(block) == 3:
        (x0, x1, x2), (y0, y1, y2), (z0, z1, z2) = block
        d1 = gcd(r, x0, x1, x2, y0, y1, y2, z0, z1, z2)
        d2 = gcd(
            r,
            x0 * y1 - x1 * y0, x0 * y2 - x2 * y0, x1 * y2 - x2 * y1,
            x0 * z1 - x1 * z0, x0 * z2 - x2 * z0, x1 * z2 - x2 * z1,
            y0 * z1 - y1 * z0, y0 * z2 - y2 * z0, y1 * z2 - y2 * z1,
        )
        factors += [scale * d1, scale * (d2 // d1), scale * (r // d2)]
    elif len(block) == 2:
        g = gcd(r, *block[0], *block[1])
        factors += [scale * g, scale * (r // g)]
    elif block:
        factors.append(scale * r)
    for g in summands:
        # Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b), from the top factor down
        for t in range(len(factors) - 1, -1, -1):
            factors[t], g = lcm(factors[t], g), gcd(factors[t], g)
        factors.insert(0, g)
    if prod(factors) != det or any(y % x for x, y in zip(factors, factors[1:])):
        raise ArithmeticError(f"modular Smith form broke the divisor chain: {factors}")
    return tuple(factors)


def _pivot(block: Matrix, r: int) -> tuple[int, int] | None:
    """(i, j) of the first unit modulo r in row-major order, or None.

    For r = 1 every entry is a unit, 0 included, and the block is all
    zero, so the pivot is (0, 0).  Without a unit the caller divides
    out the block's content if it exceeds 1, else splits off its
    cyclic summands, and only if it has none stabilizes the block.
    """
    for i, row in enumerate(block):
        for j, x in enumerate(row):
            if x and gcd(x, r) == 1:
                return i, j
    return (0, 0) if r == 1 else None


def _cyclic_summands(block: Matrix, r: int) -> tuple[list[int], set[int], set[int]]:
    """(orders, rows, cols) of the rows and columns of the block that
    are direct summands Z/g.

    Row i is one if its one nonzero entry x sits in column j and
    g = gcd(x, r) divides the rest of column j; a column is one by the
    same rule read on the transpose, so one loop scans the rows of the
    block and then those of its transpose.  Modulo r, x is g times a
    unit, so one row (column) operation per entry clears the rest of
    column j (row i) and changes nothing else: every summand found in
    the scan splits off at once, and row i and column j are deleted.
    Summands are keyed by (i, j), so a column taken with its row is the
    same summand.  Two rows cannot qualify in one column, nor two
    columns in one row: the cokernel would then have order above r.
    """
    k = len(block)
    columns = list(zip(*block))
    found = {}  # (row, column) -> order
    for lines, across, flip in ((block, columns, False), (columns, block, True)):
        # entries lie in [0, r), so a line's one nonzero entry is its maximum
        for i, line in enumerate(lines):
            if line.count(0) == k - 1:
                j = line.index(max(line))
                g = gcd(line[j], r)
                if gcd(g, *across[j]) == g:
                    found[(j, i) if flip else (i, j)] = g
    return list(found.values()), {i for i, _ in found}, {j for _, j in found}


def _stabilize(block: Matrix, r: int) -> None:
    """Put a unit modulo r at (0, 0) of a block of content 1, in place
    (Storjohann, PhD thesis, ETH Zurich, 2000, stabilization).

    Column l is added t times to column 0, for l = 1, 2, ... until
    gcd(r, column 0) = 1, with t the largest divisor of r prime to
    g = gcd(r, column 0): a prime of r that divides t does not divide
    column 0, and one that divides g does not divide t, so a prime of r
    divides the new column 0 only if it divides both columns.  After
    at most k - 1 such steps each surviving prime would divide every
    column, and the content is 1.  Then the same is done with rows,
    each row i added t times to row 0 until gcd(r, block[0][0]) = 1.
    """
    def prime_to(g: int) -> int:
        t = r
        while g > 1:
            t //= g
            g = gcd(t, g)
        return t

    for l in range(1, len(block)):
        g = gcd(r, *(row[0] for row in block))
        if g == 1:
            break
        t = prime_to(g)
        for row in block:
            row[0] = (row[0] + t * row[l]) % r
    for row in block[1:]:
        g = gcd(r, block[0][0])
        if g == 1:
            break
        t = prime_to(g)
        block[0] = [(x + t * y) % r for x, y in zip(block[0], row)]
    if gcd(r, block[0][0]) != 1:
        raise ArithmeticError("stabilization left no unit pivot; the block has content above 1")
