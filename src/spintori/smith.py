"""Smith normal form over the integers, along two paths.

``smith_normal_form`` is the witness path: it diagonalizes an integer
matrix A as P A Q = D with unimodular P, Q and d1 | d2 | ... >= 0 on
the diagonal.  The witnesses are maintained through every elementary
step, so the result can always be re-verified by multiplication;
``SnfResult.verify`` does exactly that.  It works over Z, but first
brings A to row Hermite form H = U A, with the entries above each
pivot reduced modulo that pivot (Kannan & Bachem, SIAM J. Comput.
8(4), 1979), and diagonalizes H with P started at U.  On every lattice
matrix of degree l <= 9 at q = 25, and on the l = 10 class
3,-2,-2,-2,-1 at q = 2^61 - 1, no entry of P or Q has more than
4 bits(|det A|) + 64 bits; the tests hold it to that bound.

``invariant_factors`` is the invariants-only path.  For a nonsingular
square A it works modulo R, a divisor of D = |det A|, and never keeps
an entry outside [0, R) (Hafner & McCurley, SIAM J. Comput. 20(6),
1991; Cohen, GTM 138, Alg. 2.4.14).  It keeps no witnesses.  Each
elimination step finds its pivot in one scan of the block, and a step
on a unit pivot touches only the columns where the pivot row is
nonzero.  A k x k block with no unit modulo R whose content
c = gcd(R, entries) exceeds 1 is c times a block B' whose cokernel has
order R / c^k: the step divides c out, with no row or column
operation, and every later factor is multiplied by c.  Only a block
with content 1 and no unit is split by gcd row and column operations
(``_split_pivot``), which leave a unit pivot.  The last two rows are
read off directly: a 2 x 2 block has the factors g = gcd(R, entries)
and R / g, a 1 x 1 block the factor R.  Singular and non-square
input, the only kind with a free part, goes through the witness path.

``determinant`` is an independent fraction-free elimination, kept
deliberately separate from the SNF path so the two can cross-check
each other.  ``invariant_factors`` takes its modulus from it.  It does
no work on the zero entries of a row that is zero in the pivot column,
so the sparse lattice matrices cost far less than dense ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod

from .matrices import mat_mul

Matrix = list[list[int]]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, x, y) with a*x + b*y == g == gcd(a, b) >= 0.

    Read off ``math.gcd`` and a modular inverse, with no Python loop:
    x is the inverse of a/g modulo |b|/g, taken in [0, |b|/g), and
    y = (g - a x) / b exactly.  For b == 0 it is (|a|, +-1, 0).

    >>> xgcd(3, 2)
    (1, 1, -1)
    >>> xgcd(0, -5)
    (5, 0, -1)
    """
    if not b:
        return abs(a), -1 if a < 0 else 1, 0
    g = gcd(a, b)
    x = pow(a // g, -1, abs(b) // g)
    return g, x, (g - a * x) // b


def determinant(a: Matrix) -> int:
    """Exact determinant by fraction-free elimination (Bareiss, Math.
    Comp. 22, 1968).

    Each step sets x <- (x p - f y) / prev, exact since every entry is
    a minor of a (Sylvester's identity).  A row with f = 0 in the pivot
    column only has its nonzero entries rescaled, and none if p == prev.

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
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        top = m[k]
        p = top[k]
        for row in m[k + 1 :]:
            f = row[k]
            if f:
                for j in range(k + 1, n):
                    row[j] = (row[j] * p - f * top[j]) // prev
                row[k] = 0
            elif p != prev:
                for j in range(k + 1, n):
                    if row[j]:
                        row[j] = row[j] * p // prev
        prev = p
    return sign * m[n - 1][n - 1]


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
        return mat_mul(mat_mul(self.p, a), self.q) == self.d


def _swap_rows(d, p, i, j):
    d[i], d[j] = d[j], d[i]
    p[i], p[j] = p[j], p[i]


def _swap_cols(d, q, i, j):
    for row in d:
        row[i], row[j] = row[j], row[i]
    for row in q:
        row[i], row[j] = row[j], row[i]


def _add_row(d, p, i, j, f):
    # row_i += f * row_j
    d[i] = [x + f * y for x, y in zip(d[i], d[j])]
    p[i] = [x + f * y for x, y in zip(p[i], p[j])]


def _add_col(d, q, i, j, f):
    # col_i += f * col_j
    for row in d:
        row[i] += f * row[j]
    for row in q:
        row[i] += f * row[j]


def _negate_row(d, p, i):
    d[i] = [-x for x in d[i]]
    p[i] = [-x for x in p[i]]


def _mix_rows(d, p, i, j, x, y, u, v):
    # (row_i, row_j) <- (x row_i + y row_j, u row_i + v row_j); x v - y u = +-1
    di, dj = d[i], d[j]
    d[i] = [x * a + y * b for a, b in zip(di, dj)]
    d[j] = [u * a + v * b for a, b in zip(di, dj)]
    pi, pj = p[i], p[j]
    p[i] = [x * a + y * b for a, b in zip(pi, pj)]
    p[j] = [u * a + v * b for a, b in zip(pi, pj)]


def _hermite(h: Matrix, u: Matrix) -> None:
    """Row Hermite form H = U A in place, every row operation applied to u too.

    Columns are taken left to right in row echelon order; a column with
    no nonzero entry from the current row down has no pivot and is
    skipped, so singular and non-square input take the same path.  The
    row with the least nonzero entry becomes the pivot row and clears
    the column below it, by subtraction where the pivot divides and by
    a unimodular 2 x 2 gcd mix elsewhere, and the pivot is made
    positive.  Then the entries above each pivot are reduced into
    [0, pivot) (Kannan & Bachem, SIAM J. Comput. 8(4), 1979).
    """
    m, n = len(h), len(h[0])
    pivots = []
    for j in range(n):
        r = len(pivots)
        if r == m:
            break
        rows = [(abs(h[i][j]), i) for i in range(r, m) if h[i][j]]
        if not rows:
            continue
        least = min(rows)[1]
        if least != r:
            _swap_rows(h, u, r, least)
        for i in range(r + 1, m):
            a, b = h[r][j], h[i][j]
            if not b:
                continue
            if b % a == 0:
                _add_row(h, u, i, r, -(b // a))
            else:
                g, x, y = xgcd(a, b)
                _mix_rows(h, u, r, i, x, y, -(b // g), a // g)
        if h[r][j] < 0:
            _negate_row(h, u, r)
        pivots.append(j)
    # Reduce from the bottom row up, so each row is reduced against rows
    # that are already reduced and sparse: on a chain of unit pivots that
    # is one step a row, where reducing as each pivot is found takes one
    # a pair of rows.  H and U come out the same either way, since the
    # reduced form of a row against the independent rows below is unique.
    for i in range(len(pivots) - 2, -1, -1):
        for r in range(i + 1, len(pivots)):
            j = pivots[r]
            f = h[i][j] // h[r][j]
            if f:
                _add_row(h, u, i, r, -f)


def _least_entry(d: Matrix, t: int) -> tuple[int, int] | None:
    """Position of the least nonzero |entry| of d[t:][t:], row-major
    among ties; the scan stops at the first unit, which nothing beats."""
    best = None
    for i in range(t, len(d)):
        for j, x in enumerate(d[i][t:], t):
            v = abs(x)
            if v and (best is None or v < best[0]):
                if v == 1:
                    return i, j
                best = (v, i, j)
    return best and best[1:]


def smith_normal_form(a: Matrix) -> SnfResult:
    """P A Q = D with d1 | d2 | ..., all diagonal entries >= 0.

    A is first brought to row Hermite form H = U A, and P starts at U.
    Then H is diagonalized deterministically: the pivot is the least
    |entry| in the working submatrix, row-major among ties.

    >>> smith_normal_form([[2, 1], [0, 2]]).diagonal
    (1, 4)
    >>> smith_normal_form([[10, 0], [0, 8]]).diagonal
    (2, 40)
    >>> smith_normal_form([[0, 0], [0, 0]]).diagonal
    (0, 0)
    """
    if not a:
        raise ValueError("empty matrix")
    m, n = len(a), len(a[0])
    if any(len(row) != n for row in a):
        raise ValueError("ragged matrix")
    d = [row[:] for row in a]
    p = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    q = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    _hermite(d, p)

    rank = 0
    for t in range(min(m, n)):
        best = _least_entry(d, t)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            _swap_rows(d, p, t, bi)
        if bj != t:
            _swap_cols(d, q, t, bj)
        while True:
            moved = False
            for i in range(t + 1, m):
                if d[i][t] == 0:
                    continue
                f = d[i][t] // d[t][t]
                if f:
                    _add_row(d, p, i, t, -f)
                if d[i][t]:
                    # remainder beats the pivot; promote it
                    _swap_rows(d, p, i, t)
                    moved = True
            if moved:
                continue
            # column t is zero off the pivot until a swap, so until then
            # a column operation changes only row t of d
            rows = [d[t]]
            for j in range(t + 1, n):
                if d[t][j] == 0:
                    continue
                f = d[t][j] // d[t][t]
                if f:
                    _add_col(rows, q, j, t, -f)
                if d[t][j]:
                    _swap_cols(d, q, j, t)
                    moved = True
                    rows = d
            if not moved:
                break
        rank = t + 1

    # divisibility repair: adjacent pairs until the chain holds
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            di, dj = d[i][i], d[i + 1][i + 1]
            if dj % di == 0:
                continue
            changed = True
            j = i + 1
            _add_col(d, q, i, j, 1)  # makes d[j][i] = dj
            g, x, y = xgcd(di, dj)
            _mix_rows(d, p, i, j, x, y, -(dj // g), di // g)
            # clear the leftover d[i][j] = y * dj against the new pivot g
            _add_col(d, q, j, i, -(y * (dj // g)))

    for i in range(rank):
        if d[i][i] < 0:
            _negate_row(d, p, i)

    return SnfResult(d, p, q)


def invariant_factors(a: Matrix) -> tuple[int, ...]:
    """Nonzero diagonal of the Smith form, trivial factors included.

    A nonsingular square matrix is eliminated modulo R, which starts at
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
    (x / c) mod R.  That costs no row or column operation.  Only a
    block of content 1 and no unit goes to ``_split_pivot``, which
    builds a unit pivot by gcd row and column mixes and so splits off
    the factor 1.  The loop stops at two rows:
    a 2 x 2 block has the factors g = gcd(R, its entries) and R / g, a
    1 x 1 block the factor R.  Every factor is recorded times
    ``scale``.

    The tail:

    >>> invariant_factors([[2, 0], [0, 3]])
    (1, 6)
    >>> invariant_factors([[2, 1], [0, 2]])
    (1, 4)
    >>> invariant_factors([[10, 0], [0, 8]])
    (2, 40)

    No unit modulo 30 and content 1, so ``_split_pivot`` runs:

    >>> invariant_factors([[2, 0, 0], [0, 3, 0], [0, 0, 5]])
    (1, 1, 30)

    Content 6 modulo 432 is divided out, leaving R = 2:

    >>> invariant_factors([[6, 0, 0], [0, 6, 0], [0, 0, 12]])
    (6, 6, 12)

    Singular input takes the witness path:

    >>> invariant_factors([[0, 0], [0, 0]])
    ()
    """
    n = len(a)
    if any(len(row) != n for row in a) or not (r := abs(determinant(a))):
        return tuple(x for x in smith_normal_form(a).diagonal if x)
    det = r
    block = [[x % r for x in row] for row in a]
    factors = []
    scale = 1
    while len(block) > 2:
        g, i, j = _pivot(block, r)
        if g == 1:
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
            continue
        c = gcd(r, *(x for row in block for x in row))
        if c > 1:
            scale *= c
            r //= c ** len(block)
            block = [[x // c % r for x in row] for row in block]
            continue
        # content 1 makes the block's least factor 1, so the split
        # only has to build a unit pivot, and r stays
        _split_pivot(block, r, i, j)
        factors.append(scale)
        block = [row[1:] for row in block[1:]]
    if len(block) == 2:
        g = gcd(r, *block[0], *block[1])
        factors += [scale * g, scale * (r // g)]
    else:
        factors.append(scale * r)
    if prod(factors) != det or any(y % x for x, y in zip(factors, factors[1:])):
        raise ArithmeticError(f"modular Smith form broke the divisor chain: {factors}")
    return tuple(factors)


def _pivot(block: Matrix, r: int) -> tuple[int, int, int]:
    """(g, i, j) for the pivot of one elimination step, in one scan.

    g = gcd(block[i][j], r).  The first entry in row-major order with
    g = 1, a unit modulo r, ends the scan; without one it is the first
    entry of least g.  A block that is zero modulo r gives (r, 0, 0);
    for r = 1 that is a unit too, as every entry is modulo 1.  When
    g > 1 the caller divides out the block's content if it exceeds 1,
    and only otherwise splits at (i, j).
    """
    best = (r, 0, 0)
    for i, row in enumerate(block):
        for j, x in enumerate(row):
            if x:
                g = gcd(x, r)
                if g < best[0]:
                    if g == 1:
                        return 1, i, j
                    best = (g, i, j)
    return best


def _split_pivot(block: Matrix, r: int, i: int, j: int) -> None:
    """Split the factor 1 off a block with no unit modulo r.

    The fallback of ``invariant_factors``: it runs only on a block of at
    least three rows whose content gcd(r, entries) is 1, since content
    above 1 is divided out without it and the last two rows are read
    off directly.  Moves the pivot at (i, j), the entry with the least
    gcd to r, to (0, 0), and clears row 0 and column 0 modulo r by gcd
    row and column mixes until the pivot divides the block.  These
    mixes keep the content, so the pivot ends as a unit modulo r.
    """
    block[0], block[i] = block[i], block[0]
    if j:
        for row in block:
            row[0], row[j] = row[j], row[0]
    while True:
        _clear_column(block, r)
        if not _clear_row(block, r):
            continue
        g = gcd(block[0][0], r)
        for row in block[1:]:
            if any(x % g for x in row):
                # the pivot does not divide the block: fold the row in
                block[0] = [(x + y) % r for x, y in zip(block[0], row)]
                break
        else:
            return


def _clear_column(block: Matrix, r: int) -> None:
    """Zero column 0 below the pivot by row operations modulo r."""
    for i in range(1, len(block)):
        top, row = block[0], block[i]
        x, p = row[0], top[0]
        if not x:
            continue
        if x % p == 0:
            # identity combination: an xgcd mix would swap the rows
            f = x // p
            block[i] = [(b - f * a) % r for a, b in zip(top, row)]
        else:
            g, s, t = xgcd(p, x)
            u, v = x // g, p // g
            block[0] = [(s * a + t * b) % r for a, b in zip(top, row)]
            block[i] = [(v * b - u * a) % r for a, b in zip(top, row)]


def _clear_row(block: Matrix, r: int) -> bool:
    """Zero row 0 right of the pivot by column operations modulo r.

    An entry the pivot divides is set to 0 directly, which is the
    column operation only while column 0 is zero below the pivot.
    Returns False once a gcd mix has made column 0 nonzero again.
    """
    top = block[0]
    clean = True
    for j in range(1, len(top)):
        y, p = top[j], top[0]
        if not y:
            continue
        if y % p == 0:
            if clean:
                top[j] = 0
            else:
                f = y // p
                for row in block:
                    row[j] = (row[j] - f * row[0]) % r
        else:
            g, s, t = xgcd(p, y)
            u, v = y // g, p // g
            for row in block:
                a, b = row[0], row[j]
                row[0], row[j] = (s * a + t * b) % r, (v * b - u * a) % r
            clean = False
    return clean
