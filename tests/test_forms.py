from fractions import Fraction

import pytest

from cartanlab import catalog as cat
from cartanlab import exterior, forms, liealg, structure
from cartanlab.forms import (
    ClassOracleError,
    DualForm,
    FormError,
    cartan_class,
    ce_differential,
    characteristic_space,
    interior_product,
    skew_reduce,
    wedge,
    wedge_power,
    wedge_power_class,
)
from cartanlab.liealg import LieAlgebra, Subspace, kernel_subspace
from cartanlab.linalg import det, identity
from cartanlab.randgen import random_covector, random_rational, rng
from cartanlab.scalars import ONE, ZERO, Scalar

from dense_cochains import random_form


def test_wedge_basis_products_heisenberg():
    h3 = cat.heisenberg(1).algebra
    w1, w2 = DualForm.basis(h3, 1), DualForm.basis(h3, 2)
    assert wedge(w1, w2) == DualForm(h3, 2, {(1, 2): 1})
    assert wedge(w1, w1).is_zero
    assert wedge(w2, w1) == DualForm(h3, 2, {(1, 2): -1})


def test_wedge_associative_volume():
    so3 = cat.dim3("so3").algebra
    w1, w2, w3 = (DualForm.basis(so3, i) for i in (1, 2, 3))
    vol = wedge(wedge(w1, w2), w3)
    assert vol == DualForm(so3, 3, {(1, 2, 3): 1})
    assert vol == wedge(w1, wedge(w2, w3))


def test_wedge_above_dimension_vanishes():
    h3 = cat.heisenberg(1).algebra
    vol = DualForm(h3, 3, {(1, 2, 3): 1})
    assert wedge(vol, DualForm.basis(h3, 1)).is_zero


def test_wedge_mixed_algebras_error():
    a, b = cat.heisenberg(1).algebra, cat.heisenberg(1).algebra
    with pytest.raises(FormError):
        wedge(DualForm.basis(a, 1), DualForm.basis(b, 1))


def test_wedge_power_takes_a_nonnegative_int():
    # True read as 1 and 1.5 as a range bound before exterior.wedge_power
    # checked its k
    d = ce_differential(DualForm.basis(cat.heisenberg(2).algebra, 5))
    assert wedge_power(d, 0) == DualForm(d.algebra, 0, {(): 1})
    assert wedge_power(d, 1) == d and not wedge_power(d, 2).is_zero
    with pytest.raises(FormError, match="negative"):
        wedge_power(d, -1)
    for k in (True, False, 1.5):
        with pytest.raises(ValueError, match="integer >= 0"):
            wedge_power(d, k)


@pytest.mark.parametrize("grade", [1.5, True, "1", -1])
def test_dual_form_grade_is_a_nonnegative_int(grade):
    # a grade of 1.5 was kept as it was, and True was taken as 1
    with pytest.raises(ValueError, match="grade must be an integer >= 0"):
        DualForm(cat.heisenberg(1).algebra, grade, {})


# (coefficients, grade, refusal): an index tuple of the wrong length, out
# of order and out of range, for a form on a 3-dimensional algebra
BAD_INDICES = [
    ({(1, 2): 1}, 1, "length does not match grade"),
    ({(2, 1): 1}, 2, "strictly increasing"),
    ({(1, 1): 1}, 2, "strictly increasing"),
    ({(0,): 1}, 1, "out of range"),
    ({(4,): 1}, 1, "out of range"),
]


@pytest.mark.parametrize("coeffs, grade, refusal", BAD_INDICES)
def test_dual_form_refuses_bad_index_tuples(coeffs, grade, refusal):
    with pytest.raises(FormError, match=refusal):
        DualForm(cat.heisenberg(1).algebra, grade, coeffs)


def test_dual_form_refuses_mismatched_operands():
    h3, other, h5 = cat.heisenberg(1).algebra, cat.heisenberg(1).algebra, cat.heisenberg(2).algebra
    w1, w12 = DualForm.basis(h3, 1), DualForm(h3, 2, {(1, 2): 1})
    for bad, refusal in ((DualForm.basis(other, 1), "mismatched algebras"), (w12, "mismatched grades"),
                         ((1, 0, 0), "expected a DualForm")):
        for op in (w1.__add__, w1.__sub__):
            with pytest.raises(FormError, match=refusal):
                op(bad)
    assert w1 + DualForm.basis(h3, 2) - DualForm.basis(h3, 2) == w1
    for comps in ((1, 0), (1, 0, 0, 0, 0, 0)):
        with pytest.raises(FormError, match="covector length"):
            DualForm.covector(h3, comps)
    assert DualForm.covector(h5, (0, 0, 0, 0, 1)) == DualForm.basis(h5, 5)
    x1, x2 = identity(3)[0], identity(3)[1]
    for vectors in ((x1,), (x1, x2, x1)):
        with pytest.raises(FormError, match="wrong number of arguments"):
            w12.evaluate(*vectors)


def test_pairing_and_membership_refuse_vectors_of_another_algebra():
    # a vector of an algebra of another dimension has the wrong length
    h3, h5 = cat.heisenberg(1).algebra, cat.heisenberg(2).algebra
    x1, v5 = identity(3)[0], (1, 0, 0, 0, 7)
    with pytest.raises(ValueError):
        Subspace(h3, [x1]).contains(v5)
    for form, v in ((DualForm.basis(h3, 1), v5), (DualForm.basis(h5, 1), x1)):
        with pytest.raises(FormError):
            form.evaluate(v)


def test_vector_arguments_need_one_coordinate_per_dimension():
    h3 = cat.heisenberg(1).algebra
    x1, line, w12 = identity(3)[0], Subspace(h3, [[1, 0, 0]]), DualForm(h3, 2, {(1, 2): 1})
    for v in ((1, 0), (1, 0, 0, 0)):
        with pytest.raises(ValueError):
            h3.bracket(x1, v)
        with pytest.raises(ValueError):
            h3.bracket(v, x1)
        with pytest.raises(ValueError):
            line.contains(v)
        with pytest.raises(FormError):
            w12.evaluate(x1, v)
        with pytest.raises(FormError):
            w12.evaluate(v, x1)
        with pytest.raises(FormError):
            interior_product(v, w12)
    # the checks let a vector of the right length through
    assert h3.bracket(x1, identity(3)[1]) == (ZERO, ZERO, ONE)
    assert line.contains(x1) and w12.evaluate(x1, identity(3)[1]) == 1
    assert interior_product(x1, w12) == DualForm.basis(h3, 2)


def test_subspace_rows_need_one_entry_per_dimension():
    h3 = cat.heisenberg(1).algebra
    for rows in ([[1, 0]], [[1, 0, 0, 0]], [[1, 0, 0], [0, 1]]):
        with pytest.raises(ValueError):
            Subspace(h3, rows)
    line = Subspace(h3, [[1, 0, 0]])
    assert line.contains((2, 0, 0))
    assert not line.contains((1, 0, 5))
    # equal spans are equal; a Subspace's slots can be reassigned, so it has no hash
    assert line == Subspace(h3, [[3, 0, 0]])
    with pytest.raises(TypeError, match="unhashable"):
        hash(line)


def test_graded_commutativity_random():
    g = cat.heisenberg(2).algebra
    r = rng(5)
    for _ in range(25):
        p, q = r.randint(1, 3), r.randint(1, 3)
        a, b = random_form(g, p, r), random_form(g, q, r)
        left = wedge(a, b)
        right = wedge(b, a)
        assert left == (right if (p * q) % 2 == 0 else -right)


def test_ce_differential_heisenberg():
    h3 = cat.heisenberg(1).algebra
    assert ce_differential(DualForm.basis(h3, 3)) == DualForm(h3, 2, {(1, 2): -1})
    assert ce_differential(DualForm.basis(h3, 1)).is_zero
    assert ce_differential(DualForm.basis(h3, 2)).is_zero


def test_ce_differential_so3_display():
    so3 = cat.dim3("so3").algebra
    assert ce_differential(DualForm.basis(so3, 1)) == DualForm(so3, 2, {(2, 3): 1})


def _wedge_antiderivation(a):
    """d as two generic wedges per term, w_I' ^ d(w_m) ^ w_I'', with d(w_m)
    read off the table for each m: the reference for `ce_differential`."""
    alg = a.algebra
    dbasis = {}
    out = {}
    for idx, coeff in a.coeffs.items():
        for r, m in enumerate(idx):
            if m not in dbasis:
                dbasis[m] = {ij: -tv[m] for ij, tv in alg.c.items() if tv.get(m)}
            left = {idx[:r]: coeff if r % 2 == 0 else -coeff}
            piece = exterior.wedge(exterior.wedge(left, dbasis[m]), {idx[r + 1 :]: ONE})
            out = exterior.add(out, piece)
    return DualForm(alg, a.grade + 1, out)


def test_ce_differential_matches_the_wedge_reference():
    r = rng(19)
    for entry in cat.standard_entries() + cat.nilpotent_entries():
        g = entry.algebra
        gaussian = [Scalar(random_rational(r), random_rational(r)) for _ in range(g.dim)]
        cases = [entry.distinguished_form, random_covector(g, r), DualForm.covector(g, gaussian)]
        for grade in range(4):
            cases.append(random_form(g, grade, r))
            idxs = random_form(g, grade, r).coeffs
            cases.append(DualForm(g, grade, {i: Scalar(random_rational(r), 1) for i in idxs}))
        for w in cases:
            assert ce_differential(w) == _wedge_antiderivation(w), (entry.id, w)


# Scalar operations of `ce_differential` and `characteristic_space` on fixed
# covectors, (mul, add + sub) each: one product per output term of d, and
# eliminations that skip the zero entries of a pivot row
_OP_BOUNDS = {
    "heisenberg:p=5": [((5, 0), (55, 0)), ((5, 0), (65, 10))],
    "filiform_contact:p=4,a=[1,2,3]": [((4, 0), (36, 0)), ((16, 0), (68, 32))],
}


def test_ce_differential_and_characteristic_space_skip_zero_work(monkeypatch):
    counts = [0, 0]

    def counted(slot, fn):
        def op(a, b):
            counts[slot] += 1
            return fn(a, b)

        return op

    mul, add, sub = Scalar.__mul__, Scalar.__add__, Scalar.__sub__
    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(Scalar, name, counted(0, mul))
    for name in ("__add__", "__radd__"):
        monkeypatch.setattr(Scalar, name, counted(1, add))
    monkeypatch.setattr(Scalar, "__sub__", counted(1, sub))

    def ops(fn, *args):
        counts[:] = [0, 0]
        result = fn(*args)
        return result, tuple(counts)

    for cid, bounds in _OP_BOUNDS.items():
        entry = cat.resolve(cid)
        g = entry.algebra
        fixed = DualForm.covector(g, [Fraction((-1) ** k * (k + 1), k + 2) for k in range(g.dim)])
        for w, (d_bound, c_bound) in zip((entry.distinguished_form, fixed), bounds):
            dw, d_ops = ops(ce_differential, w)
            _, c_ops = ops(characteristic_space, w, dw)
            assert all(x <= y for x, y in zip(d_ops, d_bound)), (cid, d_ops)
            assert all(x <= y for x, y in zip(c_ops, c_bound)), (cid, c_ops)


def test_antiderivation_random():
    g = cat.frobenius_model(2, [Scalar.of("1/2")]).algebra
    r = rng(6)
    for _ in range(20):
        p = r.randint(1, 2)
        a, b = random_form(g, p, r), random_form(g, r.randint(1, 2), r)
        lhs = ce_differential(wedge(a, b))
        rhs = wedge(ce_differential(a), b) + (
            wedge(a, ce_differential(b)) if p % 2 == 0 else -wedge(a, ce_differential(b))
        )
        assert lhs == rhs


def test_d_squared_zero_on_jacobi_algebras():
    for entry in (cat.heisenberg(2), cat.dim3("sl2"), cat.filiform_model(6)):
        g = entry.algebra
        for i in range(1, g.dim + 1):
            assert ce_differential(ce_differential(DualForm.basis(g, i))).is_zero


def test_d_squared_detects_jacobi_failure():
    bad = LieAlgebra(3, {(1, 2): {3: 1}, (1, 3): {1: 1}})
    w3 = DualForm.basis(bad, 3)
    assert not ce_differential(ce_differential(w3)).is_zero


def test_interior_product_examples():
    h3 = cat.heisenberg(1).algebra
    x1, x2, x3 = identity(3)
    w12 = DualForm(h3, 2, {(1, 2): 1})
    assert interior_product(x1, w12) == DualForm.basis(h3, 2)
    assert interior_product(x2, w12) == -DualForm.basis(h3, 1)
    # the center contracts the differential of the contact form to zero
    dw3 = ce_differential(DualForm.basis(h3, 3))
    assert interior_product(x3, dw3).is_zero


def test_interior_product_nilpotency_and_linearity():
    g = cat.heisenberg(2).algebra
    r = rng(7)
    for _ in range(10):
        w = random_form(g, 3, r)
        v = random_covector(g, r)
        x = tuple(c * v.coeffs.get((1,), ONE) for c in identity(g.dim)[0])
        assert interior_product(x, interior_product(x, w)).is_zero


def test_interior_grade0_error():
    h3 = cat.heisenberg(1).algebra
    with pytest.raises(FormError):
        interior_product(identity(3)[0], DualForm(h3, 0, {(): ONE}))


def test_cartan_class_examples():
    h3 = cat.heisenberg(1)
    info = cartan_class(h3.distinguished_form)
    assert info.value == 3 and info.characteristic_space.dim == 0

    ab = cat.abelian(4)
    assert cartan_class(DualForm.covector(ab.algebra, [1, 2, 0, 0])).value == 1

    so3 = cat.dim3("so3").algebra
    assert cartan_class(DualForm.covector(so3, [1, 1, 0])).value == 3

    frob = cat.frobenius_model(2, [Scalar.of("1/2")])
    assert cartan_class(frob.distinguished_form).value == 4


def _sparse_covectors(g, r, count):
    """Seeded rational and Gaussian covectors with ~40 % zero entries."""
    out = []
    while len(out) < count:
        for draw in (random_rational, lambda r: Scalar(random_rational(r), random_rational(r))):
            comps = [ZERO if r.random() < 0.4 else draw(r) for _ in range(g.dim)]
            if any(comps):
                out.append(DualForm.covector(g, comps))
    return out


def test_cartan_class_matches_the_wedge_power_route():
    # the skew elimination in cartan_class and the wedge-power loop give
    # the same (q, branch) on every catalog form
    r = rng(20)
    for entry in cat.standard_entries() + cat.nilpotent_entries():
        g = entry.algebra
        for w in [entry.distinguished_form, *_sparse_covectors(g, r, 6)]:
            if w.is_zero:
                continue
            info = cartan_class(w)
            assert (info.power, info.branch == "odd") == wedge_power_class(w), (entry.id, w)
            assert info.value == 2 * info.power + (info.branch == "odd")
    # dw = 0: class 1, no pivot
    ab = DualForm.covector(cat.abelian(3).algebra, [0, 2, 0])
    assert wedge_power_class(ab) == (0, True)
    assert (cartan_class(ab).value, cartan_class(ab).power) == (1, 0)
    # exact-symplectic: dw has full rank 4 and w vanishes on its radical 0
    frob = cartan_class(cat.frobenius_model(2, [Scalar.of("1/2")]).distinguished_form)
    assert (frob.value, frob.branch, frob.power) == (4, "even", 2)
    # contact: dw has rank 2p and w is nonzero on its radical, the center
    h7 = cat.heisenberg(3).distinguished_form
    assert wedge_power_class(h7) == (3, True)
    assert (cartan_class(h7).value, cartan_class(h7).branch) == (7, "odd")


def test_skew_reduce_rank_and_radical():
    ab = cat.abelian(5).algebra
    theta = DualForm(ab, 2, {(1, 2): 1, (1, 3): 2, (2, 3): Scalar.of("1/2"), (4, 5): -3})
    # rank 4, and the radical is spanned by X_1/2 - 2 X_2 + X_3
    assert skew_reduce(theta) == (2, False)
    assert interior_product((Scalar.of("1/2"), -2, 1, 0, 0), theta).is_zero
    for comps, odd in (([0, 0, 0, 1, 1], False), ([4, 1, 0, 0, 0], False), ([1, 0, 0, 0, 0], True)):
        assert skew_reduce(theta, DualForm.covector(ab, comps)) == (2, odd), comps
    assert skew_reduce(DualForm(ab, 2), DualForm.basis(ab, 2)) == (0, True)
    with pytest.raises(FormError):
        skew_reduce(DualForm.basis(ab, 1))
    with pytest.raises(FormError):
        wedge_power_class(theta)


def test_skew_reduce_mirrors_only_updated_entries(monkeypatch):
    # one seeded covector w per catalog entry: dw has 217 entries, each
    # negated once into its mirror row, and the elimination negates 8 more
    # (new entries of a subtracted update and the mirrors of updated
    # entries); rewriting the mirror of every pair of the pivot support,
    # updated or not, made 258
    entries = cat.standard_entries() + cat.nilpotent_entries()
    r = rng(5)
    pairs = []
    for entry in entries:
        w = random_covector(entry.algebra, r)
        pairs.append((ce_differential(w), w))
    assert sum(len(dw.coeffs) for dw, _ in pairs) == 217
    negations = []
    neg = Scalar.__neg__

    def counted(a):
        negations.append(a)
        return neg(a)

    monkeypatch.setattr(Scalar, "__neg__", counted)
    for dw, w in pairs:
        skew_reduce(dw, w)
    assert len(negations) <= 217 + 8


def test_cartan_class_never_calls_the_wedge(monkeypatch):
    def refuse(a, b):
        raise AssertionError("exterior.wedge called")

    monkeypatch.setattr(exterior, "wedge", refuse)
    r = rng(21)
    for entry in (cat.heisenberg(3), cat.frobenius_model(3, [1, -2]), cat.mu_c9([1, 2, 3])):
        for w in [entry.distinguished_form, *_sparse_covectors(entry.algebra, r, 2)]:
            cartan_class(w)
    with pytest.raises(AssertionError, match="exterior.wedge called"):
        wedge_power_class(cat.heisenberg(1).distinguished_form)


def test_cartan_class_zero_form_error():
    h3 = cat.heisenberg(1).algebra
    with pytest.raises(FormError):
        cartan_class(DualForm(h3, 1))


def test_class_equals_characteristic_codimension_random():
    r = rng(8)
    for entry in cat.standard_entries():
        g = entry.algebra
        for _ in range(10):
            w = random_covector(g, r)
            info = cartan_class(w)  # raises ClassOracleError on any mismatch
            assert info.value == g.dim - info.characteristic_space.dim


def test_the_codimension_oracle_fires_when_the_kernel_loses_a_row(monkeypatch):
    # X1* on h_5 has class 1 and a 4-dimensional characteristic space; a
    # kernel that drops its last row reads codimension 2
    g = cat.heisenberg(2).algebra
    w = DualForm.covector(g, [1, 0, 0, 0, 0])
    assert cartan_class(w).value == 1
    kernel_rref = liealg.kernel_rref
    monkeypatch.setattr(liealg, "kernel_rref", lambda rows, ncols: kernel_rref(rows, ncols)[:-1])
    with pytest.raises(ClassOracleError, match="class 1 != codimension 2"):
        cartan_class(w)


def test_the_codimension_oracle_fires_when_skew_reduce_overcounts(monkeypatch):
    entry = cat.heisenberg(2)
    skew = forms.skew_reduce

    def overcount(theta, w=None):
        q, odd = skew(theta, w)
        return q + 1, odd

    monkeypatch.setattr(forms, "skew_reduce", overcount)
    for w, value in ((DualForm.covector(entry.algebra, [1, 0, 0, 0, 0]), 1), (entry.distinguished_form, 5)):
        with pytest.raises(ClassOracleError, match=f"class {value + 2} != codimension {value}"):
            cartan_class(w)


def test_parity_on_nilpotent_entries():
    r = rng(9)
    for entry in cat.nilpotent_entries():
        for _ in range(30):
            assert cartan_class(random_covector(entry.algebra, r)).value % 2 == 1


def test_semisimple_rank_one_bound():
    r = rng(10)
    for entry in (cat.dim3("sl2"), cat.dim3("so3")):
        for _ in range(50):
            assert cartan_class(random_covector(entry.algebra, r)).value <= 3


def test_evaluate_and_pair():
    h3 = cat.heisenberg(1).algebra
    x1, x2, x3 = identity(3)
    w = DualForm.covector(h3, [1, 2, 3])
    assert w.evaluate(x2) == 2
    vol = DualForm(h3, 3, {(1, 2, 3): 2})
    assert vol.evaluate(x1, x2, x3) == 2
    assert vol.evaluate(x2, x1, x3) == -2


def test_evaluate_matches_the_minor_formula():
    # theta(v_1..v_q) = sum over stored indices I of theta_I * det(v_a[I_b])
    r = rng(17)
    for entry in cat.standard_entries():
        g = entry.algebra
        for grade in (1, 2, 3):
            for _ in range(5):
                theta = random_form(g, grade, r)
                vectors = [tuple(random_rational(r) for _ in range(g.dim)) for _ in range(grade)]
                minors = sum(
                    (c * det([[v[t - 1] for t in idx] for v in vectors])
                     for idx, c in theta.coeffs.items()),
                    ZERO,
                )
                assert theta.evaluate(*vectors) == minors, (entry.id, theta)


def _sparse(entries):
    return {c: x for c, x in enumerate(entries) if x}


def _skew_lookup_rows(w, dw):
    """The constraint rows of C(w) by n^2 skew lookups, zeros left out: w,
    then for each j the row dw(X_i, X_j) as i runs over the basis."""
    n = w.algebra.dim
    rows = [_sparse(w.coeffs.get((i,), ZERO) for i in range(1, n + 1))]
    for j in range(1, n + 1):
        row = []
        for i in range(1, n + 1):
            if i < j:
                row.append(dw.coeffs.get((i, j), ZERO))
            elif i > j:
                row.append(-dw.coeffs.get((j, i), ZERO))
            else:
                row.append(ZERO)
        rows.append(_sparse(row))
    return rows


def _ad_lookup_rows(g):
    """The nonzero rows of ad(X_1), ..., ad(X_n) by n^3 constant lookups,
    zeros left out: row m of ad(X_a) holds c_ab^m as b runs over the
    basis."""
    n = g.dim
    rows = [
        _sparse(g.constant(a, b, m) for b in range(1, n + 1))
        for a in range(1, n + 1)
        for m in range(1, n + 1)
    ]
    return [row for row in rows if row]


def test_characteristic_space_matches_the_skew_lookup_reference(monkeypatch):
    # the rows filled from the nonzero coefficients of w and dw, and the
    # ad-rows of `center`, are the lookup rows as sparse dicts, on every
    # catalog entry and seeded rational and Gaussian covectors: a caller
    # that densified its rows would hand over zeros
    built = []

    def recorded(g, rows):
        built.append(list(rows))
        return kernel_subspace(g, rows)

    monkeypatch.setattr(forms, "kernel_subspace", recorded)
    monkeypatch.setattr(structure, "kernel_subspace", recorded)
    r = rng(18)
    for entry in cat.standard_entries() + cat.nilpotent_entries():
        g = entry.algebra
        gaussian = [Scalar(random_rational(r), random_rational(r)) for _ in range(g.dim)]
        for w in (entry.distinguished_form, random_covector(g, r), DualForm.covector(g, gaussian)):
            dw = ce_differential(w)
            reference = _skew_lookup_rows(w, dw)
            space = characteristic_space(w, dw)
            assert built.pop() == reference, entry.id
            assert space == kernel_subspace(g, reference), entry.id
        reference = _ad_lookup_rows(g)
        space = structure.center(g)
        assert built.pop() == reference, entry.id
        assert space == kernel_subspace(g, reference), entry.id
