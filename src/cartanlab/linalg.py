"""Dense exact linear algebra over the Gaussian rationals.

Matrices are tuples of tuples of Scalar (row major).  Everything is small
(dimensions rarely above 64), so plain elimination with exact pivoting is
the right tool.  This module holds every matrix operation of the package
and one elimination, `_forward`: `rref` is that pass plus
back-substitution (and `rank`, `nullspace`, `kernel_rref`, `solve` and
`invert` read `rref`), and `det` is the signed product of its pivots.
Row operations touch only the columns where the row being subtracted is
nonzero, and scaling a pivot row only its nonzero entries: elsewhere an
entry keeps its value, with no Scalar work.

`kernel_rref` eliminates once for a canonical kernel basis.  A nullspace
vector of the column-reversed matrix is 1 at its free column, 0 at the
other free columns, and nonzero elsewhere only to the left; read back in
the original order, it leads with that 1, so the vectors sorted by it are
already the rref of the kernel.
"""

from __future__ import annotations

from math import prod

from .scalars import ONE, ZERO, Scalar


def as_matrix(rows):
    return tuple(tuple(Scalar.of(x) for x in row) for row in rows)


def square_matrix(rows, n, what="matrix"):
    """as_matrix(rows), raising ValueError unless it is n x n."""
    a = as_matrix(rows)
    if len(a) != n or any(len(row) != n for row in a):
        raise ValueError(f"{what} must be {n} x {n}")
    return a


def diagonal(entries):
    entries = [Scalar.of(x) for x in entries]
    return tuple(
        tuple(x if i == j else ZERO for j in range(len(entries))) for i, x in enumerate(entries)
    )


def identity(n):
    return diagonal([ONE] * n)


def mat_mul(a, b):
    """a b; ValueError when b is ragged or a row of a is not as long as b
    is tall."""
    bt = tuple(zip(*b, strict=True))
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col, strict=True) if x and y), ZERO) for col in bt)
        for row in a
    )


def mat_vec(a, v):
    """a v; ValueError unless v is as long as each row of a."""
    return tuple(sum((x * y for x, y in zip(row, v, strict=True)), ZERO) for row in a)


def transpose(a):
    return tuple(zip(*a))


def _forward(m):
    """The one elimination of the package, in place on the row lists m:
    take the columns in order; at each, swap up the first row at or below
    the current one that is nonzero there, scale it to a leading 1 and
    clear the entries below that 1.  Returns (pivot columns, the pivots
    divided out, row swap count); the first len(pivot columns) rows of m
    are then a row echelon form and the rows after them are zero."""
    nrows = len(m)
    pivots, divisors, swaps = [], [], 0
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            swaps += 1
        p = m[r][c]
        inv = ONE / p
        # left of column c every row from r on is zero already
        tail = [x * inv if x else x for x in m[r][c + 1 :]]
        m[r] = [ZERO] * c + [ONE] + tail
        for i in range(r + 1, nrows):
            f = m[i][c]
            if f:
                m[i] = [ZERO] * (c + 1) + [
                    x - f * y if y else x for x, y in zip(m[i][c + 1 :], tail)
                ]
        pivots.append(c)
        divisors.append(p)
    return pivots, divisors, swaps


def rref(rows):
    """Reduced row echelon form; returns (rref rows, pivot column list).

    Zero rows are dropped, so the output is a canonical basis of the row
    space: two row sets span the same space iff their rrefs are equal.
    `_forward` gives the echelon form; back-substitution, last pivot
    first, clears the entries above each leading 1.  Ragged rows raise
    ValueError.
    """
    m = [list(row) for row in rows]
    if any(len(row) != len(m[0]) for row in m):
        raise ValueError("matrix rows must have equal length")
    pivots, _, _ = _forward(m)
    for r in range(len(pivots) - 1, 0, -1):
        c, row = pivots[r], m[r]
        for i in range(r):
            f = m[i][c]
            if f:
                m[i] = [x - f * y if y else x for x, y in zip(m[i], row)]
    return tuple(tuple(row) for row in m[: len(pivots)]), tuple(pivots)


def rank(rows):
    return len(rref(rows)[0])


def nullspace(rows, ncols=None):
    """Canonical basis of {x : A x = 0}, one vector per free column.
    ValueError when ncols is not the length of the rows."""
    if not rows:
        if ncols is None:
            raise ValueError("nullspace of an empty system needs ncols")
        return list(identity(ncols))
    if ncols is None:
        ncols = len(rows[0])
    elif ncols != len(rows[0]):
        raise ValueError(f"rows have {len(rows[0])} columns, not {ncols}")
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [ZERO] * ncols
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(tuple(v))
    return basis


def kernel_rref(rows, ncols=None):
    """rref of the kernel of A (see the module docstring), equal to
    rref(nullspace(rows, ncols))[0] at the cost of one elimination."""
    basis = nullspace([row[::-1] for row in rows], ncols)
    return tuple(v[::-1] for v in reversed(basis))


def det(rows):
    """Exact determinant: the product of the pivots `_forward` divides
    out, negated for an odd number of row swaps, and 0 below full rank."""
    m = [list(row) for row in square_matrix(rows, len(rows))]
    pivots, divisors, swaps = _forward(m)
    if len(pivots) < len(m):
        return ZERO
    out = prod(divisors, start=ONE)
    return -out if swaps % 2 else out


def solve(a, b):
    """Solve A x = b exactly; returns None when inconsistent.  ValueError
    for an empty system, whose number of unknowns is unknown."""
    if not a:
        raise ValueError("solve of an empty system has no column count")
    ncols = len(a[0])
    aug = [list(row) + [Scalar.of(y)] for row, y in zip(a, b, strict=True)]
    red, pivots = rref(aug)
    x = [ZERO] * ncols
    for r, p in enumerate(pivots):
        if p == ncols:
            return None
        x[p] = red[r][ncols]
    return tuple(x)


def invert(a):
    """a^-1; ValueError unless a is square and nonsingular."""
    n = len(a)
    a = square_matrix(a, n)
    aug = [list(row) + list(unit) for row, unit in zip(a, identity(n))]
    red, pivots = rref(aug)
    if pivots[:n] != tuple(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(red[i][n:]) for i in range(n))
