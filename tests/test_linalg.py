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
    rank,
    rref,
    solve,
)
from cartanlab.scalars import ONE, ZERO, Scalar


def _rand_matrix(r, n, m):
    return as_matrix(
        [[Fraction(r.randint(-5, 5), r.randint(1, 4)) for _ in range(m)] for _ in range(n)]
    )


def test_rref_canonical():
    a = as_matrix([[2, 4], [1, 2]])
    red, pivots = rref(a)
    assert red == as_matrix([[1, 2]])
    assert pivots == (0,)
    b = as_matrix([[1, 2], [3, 7]])
    red_b, _ = rref(b)
    assert red_b == identity(2)


def test_rank_and_nullspace():
    a = as_matrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert rank(a) == 2
    basis = nullspace(a)
    assert len(basis) == 1
    for v in basis:
        assert all(x == ZERO for x in mat_vec(a, v))


def test_nullspace_empty_system():
    assert len(nullspace([], ncols=3)) == 3


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
        assert rref(a + tuple([mixed[0]]))[0] == rref(list(a) + list(mixed))[0]


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
        kernel = kernel_rref(a, m)
        assert kernel == rref(nullspace(a, m))[0], a
        assert all(not x for v in kernel for x in mat_vec(a, v))
    assert kernel_rref(cases[0][0], 4) == identity(4)
    assert kernel_rref(cases[1][0], 2) == ()
    assert kernel_rref((), 3) == identity(3)


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
        assert (d == ZERO) == (rank(a) < len(a)), a
        nonzero += bool(d)
        singular += not d
    assert nonzero > 40 and singular > 20, (nonzero, singular)
    assert det(()) == ONE


def _gauss_jordan(rows):
    """rref by full Gauss-Jordan elimination, clearing above and below each
    pivot as it is found: the reference for the forward pass plus
    back-substitution of `rref`."""
    m = [list(row) for row in rows]
    pivots = []
    for c in range(len(m[0]) if m else 0):
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
    return tuple(tuple(row) for row in m[: len(pivots)]), tuple(pivots)


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
        red, pivots = rref(a)
        assert (red, pivots) == _gauss_jordan(a), a
        for v in nullspace(a, m):
            assert not any(mat_vec(a, v))
        if not a:
            continue
        b = [Scalar(k + 1, k % 2) for k in range(len(a))]
        x = solve(a, b)
        if x is None:
            assert rank(a) < rank([row + (y,) for row, y in zip(a, b)])
        else:
            assert mat_vec(a, x) == tuple(b)
        if len(a) == m and det(a):
            assert mat_mul(a, invert(a)) == identity(m)


def test_rref_of_one_nonzero_per_row_makes_no_product_by_zero(monkeypatch):
    # the stacked ad-rows of a Heisenberg algebra have this shape: scaling
    # a pivot row and clearing below it touch no zero entry
    rows = as_matrix(
        [[0, 3, 0, 0, 0], [Fraction(1, 2), 0, 0, 0, 0], [0, 0, 0, 0, Scalar(0, -7)],
         [0, Fraction(-2, 5), 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 4]]
    )
    zero_products = []
    mul = Scalar.__mul__

    def counted(a, b):
        if not (a and Scalar.of(b)):
            zero_products.append((a, b))
        return mul(a, b)

    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(Scalar, name, counted)
    red, pivots = rref(rows)
    assert pivots == (0, 1, 4)
    assert red == tuple(tuple(ONE if c == p else ZERO for c in range(5)) for p in pivots)
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
    for rows in ([[1, 2, 3], [4, 5]], [[1, 2], [3, 4, 5]], [[0, 1], [1]]):
        rows = as_matrix(rows)
        for fn in (rref, rank, kernel_rref):
            with pytest.raises(ValueError):
                fn(rows)
    with pytest.raises(ValueError):
        solve(as_matrix([[1, 2], [3]]), [ONE, ONE])
    with pytest.raises(ValueError, match="empty system"):
        solve((), ())
    row = as_matrix([[1, 0, 0]])
    assert len(nullspace(row, 3)) == 2 and kernel_rref(row, 3) == kernel_rref(row)
    for ncols in (2, 4):
        for fn in (nullspace, kernel_rref):
            with pytest.raises(ValueError):
                fn(row, ncols)
