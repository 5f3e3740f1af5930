"""Exact linear algebra over the Gaussian rationals, on sparse rows.

An elimination reads sparse rows, dicts {column: Scalar} with the zeros
left out (the idiom of `exterior` and `liealg`), and a column count.
Callers hand over rows as they build them; `sparse_rows` reads a dense
matrix into that form and holds the one shape check.  The one
elimination is `_forward`: `rref` is that pass plus back-substitution
(`nullspace`, `kernel_rref`, `solve` and `invert` read `rref`), and `det`
is the signed product of its pivots.  A row operation is
`exterior.add_scaled`: Scalar work only at the entries of the row it
subtracts.  `mat_mul`, `mat_vec` and `transpose` stay dense, tuples of
tuples of Scalar: `charpoly` on `adjoint_rows`, matrix files and
`change_basis` are dense math.

`kernel_rref` eliminates once for a canonical kernel basis.  A nullspace
vector of the column-reversed matrix is 1 at its free column, 0 at the
other free columns, and nonzero elsewhere only to the left; read back in
the original order, it leads with that 1, so the vectors sorted by it are
already the rref of the kernel.  Kernel vectors come out dense.
"""

from __future__ import annotations

from math import prod

from .exterior import add_scaled
from .scalars import ONE, ZERO, Scalar


def as_matrix(rows):
    return tuple(tuple(Scalar.of(x) for x in row) for row in rows)


def square_matrix(rows, n, what="matrix"):
    """as_matrix(rows), raising ValueError unless it is n x n."""
    a = as_matrix(rows)
    if len(a) != n or any(len(row) != n for row in a):
        raise ValueError(f"{what} must be {n} x {n}")
    return a


def sparse_rows(rows, ncols):
    """The dense rows as sparse rows; ValueError unless each has ncols
    entries."""
    out = []
    for row in rows:
        if len(row) != ncols:
            raise ValueError(f"matrix rows must have {ncols} entries")
        out.append({c: x for c, x in enumerate(map(Scalar.of, row)) if x})
    return out


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


def _forward(m, ncols):
    """The one elimination of the package, in place on the sparse rows m:
    take the columns in order; at each, swap up the first row at or below
    the current one that holds it, scale that row to a leading 1 and clear
    the column below.  Returns (pivot columns, the pivots divided out, row
    swap count).  The first len(pivot columns) rows of m are then a row
    echelon form with each leading 1 left implicit, row r holding only its
    entries right of pivot column r; the rows after them are empty."""
    nrows = len(m)
    pivots, divisors, swaps = [], [], 0
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if c in m[i]), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            swaps += 1
        p = m[r].pop(c)
        inv = ONE / p
        tail = m[r] = {k: x * inv for k, x in m[r].items()}
        for i in range(r + 1, nrows):
            f = m[i].pop(c, None)
            if f is not None:
                add_scaled(m[i], tail, f, -1)
        pivots.append(c)
        divisors.append(p)
    return pivots, divisors, swaps


def rref(rows, ncols):
    """Reduced row echelon form of sparse rows with ncols columns; returns
    (rref rows, pivot column tuple), the rows sparse.

    Zero rows are dropped, so the output is a canonical basis of the row
    space: two row sets span the same space iff their rrefs are equal.
    `_forward` gives the echelon form; back-substitution, last pivot
    first, clears the entries above each leading 1.
    """
    m = [dict(row) for row in rows]
    pivots, _, _ = _forward(m, ncols)
    for r in range(len(pivots) - 1, 0, -1):
        c, row = pivots[r], m[r]
        for i in range(r):
            f = m[i].pop(c, None)
            if f is not None:
                add_scaled(m[i], row, f, -1)
    return [{c: ONE, **row} for c, row in zip(pivots, m)], tuple(pivots)


def nullspace(rows, ncols):
    """Canonical basis of {x : A x = 0} for the sparse rows A with ncols
    columns, one dense vector per free column."""
    red, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [ZERO] * ncols
        v[f] = ONE
        for p, row in zip(pivots, red):
            x = row.get(f)
            if x is not None:
                v[p] = -x
        basis.append(tuple(v))
    return basis


def kernel_rref(rows, ncols):
    """rref of the kernel of the sparse rows A (see the module docstring),
    dense, equal to rref(nullspace(rows, ncols)) at the cost of one
    elimination."""
    last = ncols - 1
    basis = nullspace([{last - c: x for c, x in row.items()} for row in rows], ncols)
    return tuple(v[::-1] for v in reversed(basis))


def det(rows):
    """Exact determinant of a dense square matrix: the product of the
    pivots `_forward` divides out, negated for an odd number of row swaps,
    and 0 below full rank."""
    n = len(rows)
    pivots, divisors, swaps = _forward(sparse_rows(rows, n), n)
    if len(pivots) < n:
        return ZERO
    out = prod(divisors, start=ONE)
    return -out if swaps % 2 else out


def solve(a, b):
    """Solve the dense system A x = b exactly; returns None when
    inconsistent.  ValueError for an empty system, whose number of
    unknowns is unknown."""
    if not a:
        raise ValueError("solve of an empty system has no column count")
    ncols = len(a[0])
    aug = sparse_rows(a, ncols)
    for row, y in zip(aug, b, strict=True):
        y = Scalar.of(y)
        if y:
            row[ncols] = y
    red, pivots = rref(aug, ncols + 1)
    x = [ZERO] * ncols
    for row, p in zip(red, pivots):
        if p == ncols:
            return None
        x[p] = row.get(ncols, ZERO)
    return tuple(x)


def invert(a):
    """a^-1 for a dense a; ValueError unless a is square and nonsingular."""
    n = len(a)
    aug = sparse_rows(a, n)
    for i, row in enumerate(aug):
        row[n + i] = ONE
    red, pivots = rref(aug, 2 * n)
    if pivots[:n] != tuple(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(row.get(n + j, ZERO) for j in range(n)) for row in red[:n])
