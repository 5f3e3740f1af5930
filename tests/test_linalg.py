import random
from fractions import Fraction
from itertools import permutations

import pytest

from cartanlab.linalg import (
    as_matrix,
    det,
    identity,
    invert,
    kernel_rref,
    mat_mul,
    mat_vec,
    nullspace,
    rref,
    solve,
    sparse_rows,
)
from cartanlab.scalars import ONE, ZERO, Scalar


def _rand_matrix(r, n, m):
    return as_matrix(
        [[Fraction(r.randint(-5, 5), r.randint(1, 4)) for _ in range(m)] for _ in range(n)]
    )


def _rank(a, m):
    return len(rref(sparse_rows(a, m), m)[1])


def test_rref_canonical():
    a = as_matrix([[2, 4], [1, 2]])
    red, pivots = rref(sparse_rows(a, 2), 2)
    assert red == sparse_rows([[1, 2]], 2)
    assert pivots == (0,)
    b = as_matrix([[1, 2], [3, 7]])
    red_b, _ = rref(sparse_rows(b, 2), 2)
    assert red_b == sparse_rows(identity(2), 2)


def test_rank_and_nullspace():
    a = as_matrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert _rank(a, 3) == 2
    basis = nullspace(sparse_rows(a, 3), 3)
    assert len(basis) == 1
    for v in basis:
        assert all(x == ZERO for x in mat_vec(a, v))


def test_nullspace_empty_system():
    assert nullspace([], 3) == list(identity(3))


def test_det_and_invert():
    r = random.Random(0)
    for _ in range(10):
        a = _rand_matrix(r, 4, 4)
        d = det(a)
        if d == ZERO:
            continue
        inv = invert(a)
        assert mat_mul(a, inv) == identity(4)


def test_det_singular():
    a = as_matrix([[1, 2], [2, 4]])
    assert det(a) == ZERO


def test_solve():
    a = as_matrix([[1, 1], [1, -1]])
    x = solve(a, [Scalar(3), Scalar(1)])
    assert x == (Scalar(2), ONE)
    inconsistent = as_matrix([[1, 1], [1, 1]])
    assert solve(inconsistent, [Scalar(1), Scalar(2)]) is None


def test_rref_row_space_invariance():
    r = random.Random(1)
    for _ in range(10):
        a = _rand_matrix(r, 3, 5)
        # mixing rows does not change the canonical form
        mixed = [
            tuple(x + y for x, y in zip(a[0], a[1])),
            a[1],
            tuple(x - y for x, y in zip(a[2], a[0])),
        ]
        first, second = sparse_rows(a + tuple([mixed[0]]), 5), sparse_rows(list(a) + list(mixed), 5)
        assert rref(first, 5)[0] == rref(second, 5)[0]


def _sparse_matrix(r, n, m, gaussian, zero_share=0.4):
    """Seeded n x m matrix, ~40 % zeros by default so that kernels are not
    trivial."""
    def entry():
        if r.random() < zero_share:
            return ZERO
        im = Fraction(r.randint(-2, 2), r.randint(1, 3)) if gaussian else 0
        return Scalar(Fraction(r.randint(-3, 3), r.randint(1, 3)), im)

    return tuple(tuple(entry() for _ in range(m)) for _ in range(n))


def test_kernel_rref_matches_rref_of_nullspace():
    # rref(nullspace(...)) eliminates twice; it stays as the reference
    r = random.Random(16)
    cases = [(as_matrix([[0] * 4] * 3), 4), (as_matrix([[1, 2], [3, 4], [5, 7]]), 2), ((), 3)]
    for gaussian in (False, True):
        for n, m in ((2, 6), (3, 5), (6, 3), (7, 4), (4, 4), (1, 9)):
            cases += [(_sparse_matrix(r, n, m, gaussian), m) for _ in range(15)]
    for a, m in cases:
        rows = sparse_rows(a, m)
        kernel = kernel_rref(rows, m)
        assert sparse_rows(kernel, m) == rref(sparse_rows(nullspace(rows, m), m), m)[0], a
        assert all(not x for v in kernel for x in mat_vec(a, v))
    assert kernel_rref(sparse_rows(cases[0][0], 4), 4) == identity(4)
    assert kernel_rref(sparse_rows(cases[1][0], 2), 2) == ()
    assert kernel_rref([], 3) == identity(3)


def _leibniz(a):
    """det as the sum over permutations of signed products, the reference."""
    total = ZERO
    for perm in permutations(range(len(a))):
        inversions = sum(1 for i in range(len(perm)) for j in range(i) if perm[j] > perm[i])
        term = ONE
        for row, col in enumerate(perm):
            term = term * a[row][col]
        total = total + (-term if inversions % 2 else term)
    return total


def test_det_matches_the_leibniz_sum():
    r = random.Random(17)
    cases = [()]
    for gaussian in (False, True):
        for n in range(1, 6):
            for _ in range(6):
                a = _sparse_matrix(r, n, n, gaussian)
                cases.append(a)
                if n > 1:
                    # a zero first pivot forces a row swap and a sign change
                    zeroed = (tuple(ZERO if j == 0 else x for j, x in enumerate(a[0])),) + a[1:]
                    cases.append(zeroed)
                    # rank below n: the last row repeats a combination of two others
                    mix = tuple(x + y * Scalar(2, 1) for x, y in zip(a[0], a[-1]))
                    cases.append(a[:-1] + (mix,) if n > 2 else (a[0], a[0]))
    swapped = as_matrix([[0, 1, 2], [3, 0, 1], [1, 1, 0]])
    cases.append(swapped)
    assert det(swapped) == Scalar(7)
    nonzero = singular = 0
    for a in cases:
        d = det(a)
        assert d == _leibniz(a), a
        assert (d == ZERO) == (_rank(a, len(a)) < len(a)), a
        nonzero += bool(d)
        singular += not d
    assert nonzero > 40 and singular > 20, (nonzero, singular)
    assert det(()) == ONE


def _gauss_jordan(rows, ncols):
    """rref of dense rows by full Gauss-Jordan elimination, clearing above
    and below each pivot as it is found: the reference for the forward
    pass plus back-substitution of `rref`, its rows read back sparse."""
    m = [list(row) for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r:
                m[i] = [x - m[i][c] * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return sparse_rows(m[: len(pivots)], ncols), tuple(pivots)


def test_rref_matches_gauss_jordan_and_solvers_check_out():
    r = random.Random(18)
    cases = [((), 2), (as_matrix([[0, 0], [0, 0]]), 2)]
    for gaussian in (False, True):
        for n, m in ((1, 4), (2, 5), (3, 3), (4, 4), (5, 5), (5, 2), (6, 3)):
            cases += [(_sparse_matrix(r, n, m, gaussian), m) for _ in range(8)]
        # mostly zero, up to the 10 x 11 shape of the class-scan matrices
        for share in (0.7, 0.9):
            for n, m in ((4, 5), (7, 6), (8, 9), (10, 11)):
                cases += [(_sparse_matrix(r, n, m, gaussian, share), m) for _ in range(4)]
    for a, m in cases:
        rows = sparse_rows(a, m)
        red, pivots = rref(rows, m)
        assert (red, pivots) == _gauss_jordan(a, m), a
        for v in nullspace(rows, m):
            assert not any(mat_vec(a, v))
        # the same rows with their keys stored in another order and empty
        # rows between them
        shuffled = []
        for row in rows:
            shuffled += [{}] * r.randint(0, 1) + [{c: row[c] for c in r.sample(list(row), len(row))}]
        dense = [tuple(row.get(c, ZERO) for c in range(m)) for row in shuffled]
        assert rref(shuffled + [{}], m) == _gauss_jordan(dense + [(ZERO,) * m], m), a
        if not a:
            continue
        b = [Scalar(k + 1, k % 2) for k in range(len(a))]
        x = solve(a, b)
        if x is None:
            assert _rank(a, m) < _rank([row + (y,) for row, y in zip(a, b)], m + 1)
        else:
            assert mat_vec(a, x) == tuple(b)
        if len(a) == m and det(a):
            assert mat_mul(a, invert(a)) == identity(m)


def test_rref_of_one_nonzero_per_row_makes_no_product_by_zero(monkeypatch):
    # the stacked ad-rows of a Heisenberg algebra have this shape: scaling
    # a pivot row and clearing below it touch no zero entry
    rows = sparse_rows(
        [[0, 3, 0, 0, 0], [Fraction(1, 2), 0, 0, 0, 0], [0, 0, 0, 0, Scalar(0, -7)],
         [0, Fraction(-2, 5), 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 4]], 5
    )
    zero_products = []
    mul = Scalar.__mul__

    def counted(a, b):
        if not (a and Scalar.of(b)):
            zero_products.append((a, b))
        return mul(a, b)

    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(Scalar, name, counted)
    red, pivots = rref(rows, 5)
    assert pivots == (0, 1, 4)
    assert red == [{p: ONE} for p in pivots]
    assert kernel_rref(rows, 5) == as_matrix([[0, 0, 1, 0, 0], [0, 0, 0, 1, 0]])
    assert zero_products == []


def test_mat_mul_and_mat_vec_reject_mismatched_shapes():
    a = as_matrix([[1, 2, 3], [4, 5, 6]])
    assert mat_vec(a, [1, 1, 1]) == (6, 15)
    assert mat_mul(a, as_matrix([[1], [1], [1]])) == ((6,), (15,))
    for v in ([1, 1], [1, 1, 1, 1]):
        with pytest.raises(ValueError):
            mat_vec(a, v)
    for b in ([[1, 2], [3, 4]], [[1], [1], [1], [1]], [[1, 2], [3], [5, 6]]):
        with pytest.raises(ValueError):
            mat_mul(a, as_matrix(b))
    with pytest.raises(ValueError):
        invert(a)
    # the one shape check of dense input to an elimination
    for rows in ([[1, 2, 3], [4, 5]], [[1, 2], [3, 4, 5]], [[0, 1], [1]]):
        rows = as_matrix(rows)
        for fn in (lambda a: sparse_rows(a, len(a[0])), det, invert):
            with pytest.raises(ValueError):
                fn(rows)
    with pytest.raises(ValueError):
        solve(as_matrix([[1, 2], [3]]), [ONE, ONE])
    with pytest.raises(ValueError, match="empty system"):
        solve((), ())
    row = sparse_rows(as_matrix([[1, 0, 0]]), 3)
    assert row == [{0: ONE}] and len(nullspace(row, 3)) == 2
    for ncols in (2, 4):
        with pytest.raises(ValueError):
            sparse_rows(as_matrix([[1, 0, 0]]), ncols)
