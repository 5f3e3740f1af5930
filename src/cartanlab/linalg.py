"""Dense exact linear algebra over the Gaussian rationals.

Matrices are tuples of tuples of Scalar (row major).  Everything is small
(dimensions rarely above 64), so plain Gauss-Jordan elimination with exact
pivoting is the right tool.

`kernel_rref` eliminates once for a canonical kernel basis.  A nullspace
vector of the column-reversed matrix is 1 at its free column, 0 at the
other free columns, and nonzero elsewhere only to the left; read back in
the original order, it leads with that 1, so the vectors sorted by it are
already the rref of the kernel.
"""

from __future__ import annotations

from .scalars import ONE, ZERO, Scalar


def as_matrix(rows):
    return tuple(tuple(Scalar.of(x) for x in row) for row in rows)


def identity(n):
    return tuple(
        tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)
    )


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_mul(a, b):
    bt = transpose(b)
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col) if x and y), ZERO) for col in bt)
        for row in a
    )


def mat_vec(a, v):
    return tuple(sum((row[j] * v[j] for j in range(len(v))), ZERO) for row in a)


def transpose(a):
    return tuple(tuple(row[j] for row in a) for j in range(len(a[0])))


def rref(rows):
    """Reduced row echelon form; returns (rref rows, pivot column list).

    Zero rows are dropped, so the output is a canonical basis of the row
    space: two row sets span the same space iff their rrefs are equal.
    """
    m = [list(row) for row in rows]
    if not m:
        return (), ()
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if m[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = ONE / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    reduced = tuple(tuple(row) for row in m[:r])
    return reduced, tuple(pivots)


def rank(rows):
    return len(rref(rows)[0])


def nullspace(rows, ncols=None):
    """Canonical basis of {x : A x = 0}, one vector per free column."""
    if not rows:
        if ncols is None:
            raise ValueError("nullspace of an empty system needs ncols")
        return [tuple(ONE if j == k else ZERO for j in range(ncols)) for k in range(ncols)]
    ncols = len(rows[0]) if ncols is None else ncols
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
    """Exact determinant by plain Gaussian elimination over Q(i) Fractions."""
    m = [list(row) for row in rows]
    n = len(m)
    sign = ONE
    out = ONE
    for c in range(n):
        pivot = None
        for i in range(c, n):
            if m[i][c]:
                pivot = i
                break
        if pivot is None:
            return ZERO
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        p = m[c][c]
        out = out * p
        inv = ONE / p
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return out * sign


def solve(a, b):
    """Solve A x = b exactly; returns None when inconsistent."""
    n = len(a)
    ncols = len(a[0])
    aug = [list(a[i]) + [Scalar.of(b[i])] for i in range(n)]
    red, pivots = rref(aug)
    x = [ZERO] * ncols
    for r, p in enumerate(pivots):
        if p == ncols:
            return None
        x[p] = red[r][ncols]
    return tuple(x)


def invert(a):
    n = len(a)
    aug = [list(row) + list(unit) for row, unit in zip(a, identity(n))]
    red, pivots = rref(aug)
    if tuple(pivots[:n]) != tuple(range(n)) or len(red) < n:
        raise ValueError("matrix is singular")
    return tuple(tuple(red[i][n:]) for i in range(n))
