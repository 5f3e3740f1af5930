from fractions import Fraction
from math import isqrt

import pytest

from cartanlab import catalog as cat
from cartanlab import forms, structure
from cartanlab.contraction import ContractionSpec, contract
from cartanlab.deformation import coboundary_of_map
from cartanlab.forms import cartan_class, ce_differential, characteristic_space
from cartanlab.liealg import (
    LieAlgebra,
    Subspace,
    change_basis,
    coordinates,
    kernel_subspace,
    table_entry,
)
from cartanlab.linalg import det, diagonal, identity, mat_mul, nullspace, rref, sparse_rows
from cartanlab.randgen import random_covector, random_rational, rng
from cartanlab.scalars import ONE, ZERO, Scalar
from cartanlab.structure import (
    PreconditionError,
    bracket_compatible_dimension,
    bracket_compatible_endomorphisms,
    center,
    diagonal_derivations,
    heisenberg_table,
    jacobi_check,
    jacobi_defects,
    lower_central_series,
)

from dense_cochains import (
    COEFFICIENTS,
    dense_circle_product,
    dense_lower_central_series,
    gaussian_basis,
    random_table,
    vector_sum,
)


def test_jacobi_heisenberg_and_model():
    assert jacobi_check(cat.heisenberg(2).algebra).ok
    assert jacobi_check(cat.frobenius_model(3, [2, -3]).algebra).ok


def test_jacobi_witness():
    bad = LieAlgebra(3, {(1, 2): {3: 1}, (1, 3): {1: 1}})
    res = jacobi_check(bad)
    assert not res.ok
    i, j, k, defect = res.witness
    assert (i, j, k) == (1, 2, 3)
    # cyclic sum is [[X1,X2],X3] + [[X2,X3],X1] + [[X3,X1],X2] = -X3
    assert defect == (ZERO, ZERO, -ONE)


def _random_rebasing(g, r):
    """g in a random basis: a dense table that satisfies Jacobi iff g does."""
    while True:
        p = [[random_rational(r) for _ in range(g.dim)] for _ in range(g.dim)]
        if det(p):
            return change_basis(g, p)


def _dense_defects(g, first):
    """Reference cyclic sums from the full structure-constant array."""
    n = g.dim
    c = {(a, b, m): g.constant(a, b, m) for a in range(1, n + 1)
         for b in range(1, n + 1) for m in range(1, n + 1)}
    out = []
    for i in range(first, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                comps = tuple(
                    sum(
                        (c[a, b, l] * c[l, d, m]
                         for a, b, d in ((i, j, k), (j, k, i), (k, i, j))
                         for l in range(1, n + 1)),
                        ZERO,
                    )
                    for m in range(1, n + 1)
                )
                if any(comps):
                    out.append((i, j, k, comps))
    return out


def _bracket_defects(g, first):
    """Cyclic sums from dense brackets of basis vectors."""
    n = g.dim
    e = identity(n)
    out = []
    for i in range(first, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                xi, xj, xk = e[i - 1], e[j - 1], e[k - 1]
                defect = vector_sum(
                    g.bracket(g.bracket(xi, xj), xk),
                    g.bracket(g.bracket(xj, xk), xi),
                    g.bracket(g.bracket(xk, xi), xj),
                )
                if any(defect):
                    out.append((i, j, k, defect))
    return out


def _jacobi_cases():
    r = rng(211)
    cases = [random_table(r, n, coeff) for coeff in COEFFICIENTS for n in (3, 4, 5, 6) for _ in range(5)]
    for entry in (cat.heisenberg(2), cat.dim3("sl2", lam=2),
                  cat.frobenius_model(2, [3]), cat.filiform_model(6)):
        cases.append(entry.algebra)
        cases.append(_random_rebasing(entry.algebra, r))
        cases.append(change_basis(entry.algebra, gaussian_basis(entry.algebra.dim, r)))
    for a in ((1, 1, 1), (2, -1, 5), (0, 1, 3)):
        cases.append(cat.mu_c9_table(*(Scalar.of(x) for x in a)))
    return cases


@pytest.mark.parametrize("first", [1, 2])
def test_sparse_jacobi_defects_match_dense_routes(first):
    seen = {True: 0, False: 0}
    for g in _jacobi_cases():
        sparse = list(jacobi_defects(g, first=first))
        assert sparse == _dense_defects(g, first)
        assert sparse == _bracket_defects(g, first)
        circle = [
            key + (comps,) for key, comps in dense_circle_product(g.dim, g.c, g.c).items()
            if key[0] >= first
        ]
        assert sparse == circle
        seen[not sparse] += 1
    assert min(seen.values()) >= 10  # both verdicts are exercised


# (Scalar products, additions and subtractions, negations) of one
# jacobi_check on a fresh instance of each table; the last is open
_JACOBI_OPS = {
    "frobenius:p=4,a=[2,-1/3,1]": (9, 6, 0),
    "mu_c9:a=[1,2,3]": (19, 12, 1),
    "dim5:variant=nondiag_case4,a=1,b=1,c=2/3,d=-2": (60, 42, 7),
    "heisenberg:p=5": (0, 0, 0),
    "mu_c9:a=[1,2,4]": (19, 12, 1),
}
# the same for contract on a fresh frobenius:p=3,a=[2/5,-4/3] at each
# exponent vector: the first call checks the input and the limit, and the
# second returns the limit the first one kept, checking nothing
_CONTRACT_OPS = {
    (0, 0, 0, 0, 0, 0): ((12, 8, 0), (0, 0, 0)),
    (2, 0, 1, 1, 0, 2): ((12, 8, 0), (0, 0, 0)),
    (0, 1, 0, 0, 0, 0): ((6, 4, 0), (0, 0, 0)),
}


def test_jacobi_check_and_contract_make_no_negated_copies(monkeypatch):
    # one product per nonzero product of constants, added or subtracted by
    # the pair-table sign; no negated copy of a constant and no ZERO + term
    counts = [0, 0, 0]

    def counted(slot, fn):
        def op(*args):
            counts[slot] += 1
            return fn(*args)

        return op

    mul, add, sub, neg = Scalar.__mul__, Scalar.__add__, Scalar.__sub__, Scalar.__neg__
    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(Scalar, name, counted(0, mul))
    for name in ("__add__", "__radd__"):
        monkeypatch.setattr(Scalar, name, counted(1, add))
    monkeypatch.setattr(Scalar, "__sub__", counted(1, sub))
    monkeypatch.setattr(Scalar, "__neg__", counted(2, neg))

    def ops(fn, *args):
        counts[:] = [0, 0, 0]
        result = fn(*args)
        return result, tuple(counts)

    for cid, bound in _JACOBI_OPS.items():
        g = cat.resolve(cid, allow_nonjacobi=True).algebra
        res, found = ops(jacobi_check, LieAlgebra(g.dim, g.c))
        assert res.ok == (cid != "mu_c9:a=[1,2,4]")
        assert all(x <= y for x, y in zip(found, bound)), (cid, found)
    for exps, bounds in _CONTRACT_OPS.items():
        g = cat.frobenius_model(3, [Fraction(2, 5), Fraction(-4, 3)]).algebra
        g = LieAlgebra(g.dim, g.c)
        for bound in bounds:
            res, found = ops(contract, ContractionSpec(g, exps))
            assert res.converges
            assert all(x <= y for x, y in zip(found, bound)), (exps, found)


def test_bracket_of_basis_vectors_makes_no_scalar_addition(monkeypatch):
    # each coordinate of [X_a, X_b] starts at its product, not at ZERO + it
    algebras = [entry.algebra for entry in (cat.heisenberg(2), cat.dim3("sl2", lam=2),
                                            cat.frobenius_model(2, [3]), cat.filiform_model(6))]
    additions = []

    def counted(fn):
        def op(a, b):
            additions.append((a, b))
            return fn(a, b)

        return op

    for name in ("__add__", "__radd__", "__sub__"):
        monkeypatch.setattr(Scalar, name, counted(getattr(Scalar, name)))
    for g in algebras:
        e = identity(g.dim)
        for a in range(1, g.dim + 1):
            for b in range(1, g.dim + 1):
                bracket = g.bracket(e[a - 1], e[b - 1])
                assert bracket == coordinates(g.dim, g.pair(a, b)), (g, a, b)
    assert additions == []


@pytest.mark.parametrize("dim", [2.5, True, "2", 0, -1])
def test_lie_algebra_dimension_is_a_positive_int(dim):
    # int() made 2.5 dimension 2, and True was taken as 1
    with pytest.raises(ValueError, match="dimension must be an integer >= 1"):
        LieAlgebra(dim, {})


def test_lie_algebra_is_immutable():
    g = cat.heisenberg(2).algebra
    with pytest.raises(TypeError):
        g.c[(1, 2)] = {5: ONE}
    with pytest.raises(TypeError):
        g.c[(1, 2)][5] = ONE
    with pytest.raises(AttributeError):
        g.dim = 3
    with pytest.raises(AttributeError):
        g.basis = ("a", "b", "c", "d", "e")
    assert g.dim == 5 and g.c[(1, 2)][5] == ONE


def test_jacobi_verdict_is_kept_per_instance():
    good = cat.heisenberg(2).algebra
    bad = LieAlgebra(3, {(1, 2): {3: 1}, (1, 3): {1: 1}})
    for g in (good, bad):
        assert jacobi_check(g) is jacobi_check(g)
    # an equal table is another instance, with its own verdict
    twin = LieAlgebra(3, {(1, 2): {3: 1}, (1, 3): {1: 1}})
    res, twin_res = jacobi_check(bad), jacobi_check(twin)
    assert twin_res is not res
    assert twin_res.witness[:3] == res.witness[:3]
    assert twin_res.witness[3] == res.witness[3]


def test_center_examples():
    h7 = cat.heisenberg(3).algebra
    z = center(h7)
    assert z.dim == 1 and z.contains(identity(7)[6])

    ab = cat.abelian(4).algebra
    assert center(ab).dim == 4

    assert center(cat.dim3("sl2").algebra).dim == 0


def test_kernel_subspace_matches_the_two_elimination_reference(monkeypatch):
    # every kernel that characteristic_space and center build, checked
    # against the subspace spanned by the nullspace (a second rref)
    sizes = []

    def checked(g, rows):
        space = kernel_subspace(g, rows)
        assert space == Subspace(g, nullspace(rows, ncols=g.dim)), rows
        sizes.append(space.dim)
        return space

    monkeypatch.setattr(forms, "kernel_subspace", checked)
    monkeypatch.setattr(structure, "kernel_subspace", checked)
    r = rng(16)
    for entry in cat.standard_entries() + cat.nilpotent_entries():
        g = entry.algebra
        for w in [entry.distinguished_form] + [random_covector(g, r) for _ in range(3)]:
            characteristic_space(w, ce_differential(w))
        center(g)
    assert len(sizes) == 5 * (len(cat.standard_entries()) + len(cat.nilpotent_entries()))
    assert 0 in sizes and max(sizes) > 1


def test_contains_agrees_with_the_stacked_rref():
    g = cat.abelian(6).algebra
    r = rng(16)

    def vector(zero_share):
        return [ZERO if r.random() < zero_share else random_rational(r) for _ in range(g.dim)]

    seen = set()
    for _ in range(60):
        space = Subspace(g, [vector(0.5) for _ in range(r.randint(0, 4))])
        for member in (True, False):
            if member:
                coeffs = [random_rational(r) for _ in space.rows]
                comps = [sum((c * row[j] for c, row in zip(coeffs, space.rows)), ZERO) for j in range(g.dim)]
            else:
                comps = vector(0.3)
            stacked = sparse_rows(list(space.rows) + [comps], g.dim)
            expected = len(rref(stacked, g.dim)[0]) == space.dim
            assert expected or not member
            assert space.contains(comps) == expected
            seen.add(expected)
    assert seen == {True, False}


def test_center_requires_jacobi():
    bad = LieAlgebra(3, {(1, 2): {3: 1}, (1, 3): {1: 1}})
    with pytest.raises(PreconditionError):
        center(bad)


def test_lower_central_series():
    for p in (1, 2, 3):
        s = lower_central_series(cat.heisenberg(p).algebra)
        assert s.nilindex == 2

    mu = cat.mu_c9([1, 2, 3]).algebra
    s = lower_central_series(mu)
    assert s.nilindex == 8

    sl2 = cat.dim3("sl2").algebra
    s = lower_central_series(sl2)
    assert s.nilindex is None

    L5 = cat.filiform_model(5).algebra
    s5 = lower_central_series(L5)
    assert s5.nilindex == 4


def test_lower_central_series_matches_the_adjoint_images():
    # every term and the stop against the dense reference; the basis-change
    # tests run the same check on a dense Gaussian rebasing of each algebra
    for entry in cat.standard_entries():
        series = lower_central_series(entry.algebra)
        terms = list(series.terms)
        assert dense_lower_central_series(entry.algebra, len(terms) + 1) == terms + terms[-1:], entry.id
        assert series.nilindex == (None if terms[-1].dim else len(terms)), entry.id


def test_is_derivation():
    h3 = cat.heisenberg(1).algebra
    # f is a derivation exactly when its coboundary vanishes
    assert not coboundary_of_map(diagonal([5, -5, 0]), h3)
    assert coboundary_of_map(diagonal([1, 1, 1]), h3)
    ab = cat.abelian(3).algebra
    assert not coboundary_of_map(diagonal([1, 1, 1]), ab)


def test_diagonal_derivation_pairing():
    # any diagonal derivation of h_{2p+1} vanishing on the center pairs
    # opposite eigenvalues on each bracket pair
    for p in (1, 2, 3):
        g = cat.heisenberg(p).algebra
        for rho in diagonal_derivations(g):
            if rho[2 * p]:
                continue
            for k in range(p):
                assert rho[2 * k] + rho[2 * k + 1] == ZERO


def test_bracket_compatible_dimension():
    for p in (1, 2, 3):
        assert bracket_compatible_dimension(p) == p * (2 * p + 1)


def test_the_trace_check_fires_on_a_compatible_basis_with_trace(monkeypatch):
    # a nullspace that also hands back the identity, trace 2p, is refused
    solve = structure.nullspace

    def with_identity(rows, ncols):
        m = isqrt(ncols)
        return solve(rows, ncols) + [tuple(ONE if r == c else ZERO for r in range(m) for c in range(m))]

    monkeypatch.setattr(structure, "nullspace", with_identity)
    with pytest.raises(AssertionError, match="nonzero trace"):
        bracket_compatible_dimension(2)


def test_bracket_compatible_closure():
    basis = bracket_compatible_endomorphisms(2)
    m = 4
    j = [[ZERO] * m for _ in range(m)]
    for k in range(2):
        j[2 * k][2 * k + 1] = ONE
        j[2 * k + 1][2 * k] = -ONE

    def in_space(mat):
        ft = tuple(tuple(mat[r][c] for r in range(m)) for c in range(m))
        lhs = mat_mul(ft, j)
        rhs = mat_mul(j, mat)
        return all(
            lhs[a][b] + rhs[a][b] == ZERO for a in range(m) for b in range(m)
        )

    for f in basis:
        assert in_space(f)
    ab, ba = mat_mul(basis[0], basis[1]), mat_mul(basis[1], basis[0])
    comm = [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(ab, ba)]
    assert in_space(comm)


def _hand_filled_compatible_endomorphisms(p):
    """bracket_compatible_endomorphisms(p) with the pairing J filled by hand."""
    m = 2 * p
    j = [[ZERO] * m for _ in range(m)]
    for k in range(p):
        j[2 * k][2 * k + 1] = ONE
        j[2 * k + 1][2 * k] = -ONE
    rows = []
    for a in range(m):
        for b in range(a + 1, m):
            row = [ZERO] * (m * m)
            for s in range(m):
                if j[s][b]:
                    row[s * m + a] = row[s * m + a] + j[s][b]
                if j[a][s]:
                    row[s * m + b] = row[s * m + b] + j[a][s]
            if any(row):
                rows.append(tuple(row))
    basis = nullspace(sparse_rows(rows, m * m), m * m)
    return [tuple(tuple(vec[r * m + c] for c in range(m)) for r in range(m)) for vec in basis]


def test_bracket_compatible_endomorphisms_read_the_heisenberg_table():
    for p in (1, 2, 3, 4):
        assert bracket_compatible_endomorphisms(p) == _hand_filled_compatible_endomorphisms(p)


def test_table_entry_and_coordinates_read_one_skew_table():
    h5 = heisenberg_table(2)
    assert h5 == {(1, 2): {5: ONE}, (3, 4): {5: ONE}}
    assert cat.heisenberg(2).algebra.c == h5
    assert table_entry(h5, 3, 4) == {5: ONE}
    assert table_entry(h5, 4, 3) == {5: -ONE}
    assert table_entry(h5, 2, 2) == {} and table_entry(h5, 1, 3) == {}
    assert coordinates(5, table_entry(h5, 2, 1)) == (ZERO, ZERO, ZERO, ZERO, -ONE)
    # more slots: skew in the first two, the rest looked up as they are
    left = {(1, 2, 3): {1: Scalar(2)}}
    assert table_entry(left, 2, 1, 3) == {1: Scalar(-2)}
    assert table_entry(left, 1, 2, 1) == {}
    with pytest.raises(PreconditionError):
        heisenberg_table(0)


def test_same_constants_compares_dimensions_and_tables():
    a3, a4 = cat.abelian(3).algebra, cat.abelian(4).algebra
    assert a3.c == a4.c and not a3.same_constants(a4)
    assert a3.same_constants(LieAlgebra(3, {}))
    h3 = cat.heisenberg(1).algebra
    assert h3.same_constants(LieAlgebra(3, {(1, 2): {3: 1}}))
    assert not h3.same_constants(LieAlgebra(3, {(1, 2): {3: 2}}))


def test_central_vectors_in_characteristic_space():
    r = rng(12)
    for entry in (cat.heisenberg(2), cat.filiform_model(6), cat.mu_c9([1, 2, 3])):
        g = entry.algebra
        z = center(g)
        for _ in range(10):
            w = random_covector(g, r)
            info = cartan_class(w)
            for v in z.rows:
                if w.evaluate(v) == ZERO:
                    assert info.characteristic_space.contains(v)


def test_frobenius_entries_have_trivial_center():
    for entry in (
        cat.frobenius_model(2, [Scalar(1)]),
        cat.frobenius_model(3, [1, -2]),
        cat.frobenius_model(3, [0, 0]),
    ):
        assert center(entry.algebra).dim == 0
