from fractions import Fraction
from itertools import product
from types import MappingProxyType

import pytest

from cartanlab import catalog as cat
from cartanlab import contraction, structure
from cartanlab.contraction import (
    ContractionSpec,
    contract,
    frobenius_model_parameters,
    is_reduced_frobenius_shape,
)
from cartanlab.forms import DualForm, cartan_class
from cartanlab.liealg import LieAlgebra
from cartanlab.randgen import random_rational, rng
from cartanlab.scalars import ONE, ZERO, Scalar
from cartanlab.structure import center, jacobi_check


def test_contract_sl2_to_heisenberg():
    sl2 = cat.dim3("sl2").algebra
    res = contract(ContractionSpec(sl2, (1, 1, 2)))
    assert res.converges
    assert res.limit.same_constants(cat.heisenberg(1).algebra)


def test_identity_rescaling_fixed_point():
    for entry in (cat.heisenberg(2), cat.frobenius_model(3, [1, -2])):
        g = entry.algebra
        res = contract(ContractionSpec(g, (0,) * g.dim))
        assert res.converges and res.limit.same_constants(g)


def test_divergence_witness():
    h3 = cat.heisenberg(1).algebra
    res = contract(ContractionSpec(h3, (0, 0, 1)))
    assert not res.converges
    assert res.witness == (1, 2, 3, -1)


def test_contract_exponent_count_checked():
    h3 = cat.heisenberg(1).algebra
    with pytest.raises(ValueError):
        ContractionSpec(h3, (1, 1))


def test_exponents_are_integers_and_not_bools():
    sl2 = cat.dim3("sl2").algebra
    for exps in ((True, True, 2), (1, False, 2), (1, 1, 2.0), (1, 1, "2")):
        with pytest.raises(ValueError, match="exponents must be integers"):
            ContractionSpec(sl2, exps)
    # negative exponents stay allowed
    h3 = cat.heisenberg(1).algebra
    assert contract(ContractionSpec(h3, (-1, -1, -2))).limit.same_constants(h3)


def _jordan_sample(a):
    """Exact-symplectic dim-4 algebra in an adapted basis with a Jordan
    block in the principal action: [X1,X2]=X1, [X3,X4]=X1,
    [X2,X3] = a X3, [X2,X4] = X3 - (1+a) X4."""
    a = Scalar.of(a)
    return LieAlgebra(
        4,
        {
            (1, 2): {1: ONE},
            (3, 4): {1: ONE},
            (2, 3): {3: a},
            (2, 4): {3: ONE, 4: -(ONE + a)},
        },
    )


def _decorated_sample():
    """Adapted-basis sample with an extra horizontal term that dies in the
    limit: parameter a = -1 allows [X3,X4] = X1 + 2 X3."""
    return LieAlgebra(
        4,
        {
            (1, 2): {1: ONE},
            (3, 4): {1: ONE, 3: Scalar(2)},
            (2, 3): {3: Scalar(-1)},
        },
    )


def test_generic_samples_are_jacobi():
    assert jacobi_check(_jordan_sample(Scalar("2"))).ok
    assert jacobi_check(_decorated_sample()).ok


def test_adapted_contraction_reaches_reduced_shape():
    g = _decorated_sample()
    assert cartan_class(DualForm.basis(g, 1)).value == 4
    res = contract(ContractionSpec(g, (2, 0, 1, 1)))
    assert res.converges
    assert is_reduced_frobenius_shape(res.limit)
    assert frobenius_model_parameters(res.limit) == (Scalar(-1),)


def test_jordan_sample_contracts_within_reduced_shape():
    g = _jordan_sample(Scalar(2))
    res = contract(ContractionSpec(g, (2, 0, 1, 1)))
    assert res.converges
    assert is_reduced_frobenius_shape(res.limit)
    # off-diagonal Jordan term survives, so no diagonal model parameters
    assert frobenius_model_parameters(res.limit) is None


def test_model_family_membership():
    g = cat.frobenius_model(2, [3]).algebra
    assert frobenius_model_parameters(g) == (Scalar(3),)
    base = cat.frobenius_model(3, [0, 0]).algebra
    assert frobenius_model_parameters(base) == (ZERO, ZERO)
    assert frobenius_model_parameters(cat.heisenberg(2).algebra) is None


def test_model_family_fixed_point_under_grid():
    for p, params in ((2, [Scalar("1/2")]), (2, [Scalar(-2)])):
        g = cat.frobenius_model(p, params).algebra
        original = tuple(Scalar.of(x) for x in params)
        for exps in product((0, 1, 2), repeat=2 * p):
            res = contract(ContractionSpec(g, exps))
            if not res.converges:
                continue
            assert jacobi_check(res.limit).ok
            found = frobenius_model_parameters(res.limit)
            if found is not None:
                assert found == original, (exps, found)


def _kept_constants(g, exps):
    """{(i, j): {k: v}} of the exponent-zero constants of g under t^exps,
    in table order, or None when some constant diverges."""
    kept = {}
    for (i, j), terms in g.c.items():
        for k, v in terms.items():
            e = exps[i - 1] + exps[j - 1] - exps[k - 1]
            if e < 0:
                return None
            if e == 0:
                kept.setdefault((i, j), {})[k] = v
    return kept


def test_limits_equal_the_checked_construction_and_stay_read_only():
    # contract wraps the kept entries of g.c without LieAlgebra's checks;
    # at every point of the p = 2, 3 grids its limit must equal the checked
    # LieAlgebra(...) of the exponent-zero constants, entry order included,
    # and refuse every write.  Each grid is scanned twice, the second time
    # in reverse order: equal kept sets give the same limit object, and
    # distinct kept sets distinct ones
    models = ((2, [Scalar("3/7")]), (2, [Scalar(1, 1)]), (3, [Scalar("2/5"), Scalar(-1)]))
    converged = 0
    for p, a in models:
        g = cat.frobenius_model(p, a).algebra
        grid = list(product((0, 1, 2), repeat=2 * p))
        limits = {}
        for exps in grid + grid[::-1]:
            kept = _kept_constants(g, exps)
            res = contract(ContractionSpec(g, exps))
            assert res.converges == (kept is not None)
            if kept is None:
                continue
            converged += 1
            key = tuple((i, j, k) for (i, j), terms in kept.items() for k in terms)
            assert limits.setdefault(key, res.limit) is res.limit, exps
            limit, checked = res.limit, LieAlgebra(g.dim, kept, basis=g.basis)
            assert limit.same_constants(checked) and limit.basis == checked.basis
            assert list(limit.c.items()) == list(checked.c.items())
            assert isinstance(limit.c, MappingProxyType)
            assert all(isinstance(t, MappingProxyType) for t in limit.c.values())
            with pytest.raises(TypeError):
                limit.c[(1, 2)] = {1: ONE}
            for terms in limit.c.values():
                with pytest.raises(TypeError):
                    terms[1] = ONE
            with pytest.raises(AttributeError):
                limit.dim = 1
            assert jacobi_check(limit).ok
        assert len({id(limit) for limit in limits.values()}) == len(limits)
    assert converged > 1200


def test_instances_with_equal_tables_share_no_limit():
    g = cat.frobenius_model(3, [Scalar("2/5"), Scalar(-1)]).algebra
    twin = LieAlgebra(g.dim, g.c, basis=g.basis)
    for exps in product((0, 1, 2), repeat=g.dim):
        res, twin_res = contract(ContractionSpec(g, exps)), contract(ContractionSpec(twin, exps))
        assert res.converges == twin_res.converges
        if res.converges:
            assert res.limit is not twin_res.limit
            assert list(res.limit.c.items()) == list(twin_res.limit.c.items())
    # the kept limits are the input's own, and the slot is write-once
    with pytest.raises(AttributeError):
        g._limits = {}


def test_a_grid_scan_checks_each_distinct_limit_once(monkeypatch):
    # the 543 converging points of a fresh p = 3 grid reach 8 distinct
    # limits: one Jacobi check of the input and one of each limit
    model = cat.frobenius_model(3, [Scalar("2/5"), Scalar("-4/3")]).algebra
    g = LieAlgebra(model.dim, model.c)
    calls = []
    defects = structure.jacobi_defects

    def counted(h, *args):
        calls.append(h)
        return defects(h, *args)

    monkeypatch.setattr(structure, "jacobi_defects", counted)
    results = [contract(ContractionSpec(g, exps)) for exps in product((0, 1, 2), repeat=6)]
    limits = [res.limit for res in results if res.converges]
    assert len(limits) == 543 and len({id(limit) for limit in limits}) == 8
    assert len(calls) <= 1 + 8


def test_the_limit_jacobi_oracle_fires_on_a_corrupt_table(monkeypatch):
    # [X1, X2] = X2 and [X2, X3] = X1 break Jacobi by -X1; with the input
    # check passed over, exponents 0 keep every constant and only the
    # Jacobi check of the limit is left to refuse the table
    g = LieAlgebra(3, {(1, 2): {2: 1}, (2, 3): {1: 1}})
    assert not jacobi_check(g).ok
    monkeypatch.setattr(contraction, "require_jacobi", lambda h: None)
    with pytest.raises(AssertionError, match="contraction limit violates Jacobi"):
        contract(ContractionSpec(g, (0, 0, 0)))


def test_classical_contact_rescaling_reaches_heisenberg():
    # any entry written in a classical contact basis contracts onto the
    # Heisenberg algebra under (1, ..., 1, 2)
    entries = [
        cat.dim3("solvable_b"),
        cat.dim3("sl2"),
        cat.dim5("diag_ii_c", a=1, b=2, c=Scalar("-3/2"), d=1),
        cat.dim5("nondiag_case4", a=1, b=1, c=Scalar("2/3"), d=-2),
    ]
    for entry in entries:
        g = entry.algebra
        exps = (1,) * (g.dim - 1) + (2,)
        res = contract(ContractionSpec(g, exps))
        assert res.converges
        p = (g.dim - 1) // 2
        assert res.limit.same_constants(cat.heisenberg(p).algebra)


def test_contraction_preserves_jacobi_and_center_monotone():
    r = rng(21)
    entries = [cat.dim3("sl2"), cat.frobenius_model(2, [1]), cat.heisenberg(2)]
    for entry in entries:
        g = entry.algebra
        z0 = center(g).dim
        for _ in range(10):
            exps = tuple(r.randint(0, 2) for _ in range(g.dim))
            res = contract(ContractionSpec(g, exps))
            if res.converges:
                assert jacobi_check(res.limit).ok
                assert center(res.limit).dim >= z0


def _model_parameter(r):
    """0 or -1 (each drops a constant of the model), another rational or a
    Gaussian rational."""
    return r.choice([ZERO, -ONE, Scalar(random_rational(r) or 2),
                     Scalar(random_rational(r), random_rational(r) or 1)])


def _with_term(g, i, j, k, v):
    """g's table with v added to the constant c_ij^k."""
    table = {ij: dict(terms) for ij, terms in g.c.items()}
    terms = table.setdefault((i, j), {})
    terms[k] = terms.get(k, ZERO) + v
    return LieAlgebra(g.dim, table)


def test_recognizers_rebuild_the_model_table():
    assert frobenius_model_parameters(LieAlgebra(2, {(1, 2): {1: ONE}})) == ()
    r = rng(23)
    for _ in range(60):
        p = r.randint(2, 4)
        a = tuple(_model_parameter(r) for _ in range(p - 1))
        g = cat.frobenius_model(p, a).algebra
        n, v = g.dim, Scalar(random_rational(r) or 1)
        assert frobenius_model_parameters(g) == a
        assert is_reduced_frobenius_shape(g)
        # one constant changed, or one added: no longer the model
        if r.random() < 0.5:
            i, j, k = r.choice(sorted(g.constants()))
        else:
            (i, j), k = sorted(r.sample(range(1, n + 1), 2)), r.randint(1, n)
        assert frobenius_model_parameters(_with_term(g, i, j, k, v)) is None
        # X2 acts freely on span{X3..Xn}, and nothing else may change
        assert is_reduced_frobenius_shape(_with_term(g, 2, r.randint(3, n), r.randint(3, n), v))
        while i == 2 and k >= 3:
            (i, j), k = sorted(r.sample(range(1, n + 1), 2)), r.randint(1, n)
        assert not is_reduced_frobenius_shape(_with_term(g, i, j, k, v))


def _feasible(rows):
    """Whether some rational e has a . e >= b for every (a, b) in rows:
    Fourier-Motzkin elimination over Fractions, one variable at a time,
    each row scaled to a leading coefficient of magnitude 1 and repeats
    dropped."""
    rows = list(rows)
    for v in range(len(rows[0][0])):
        pos = [(a, b) for a, b in rows if a[v] > 0]
        neg = [(a, b) for a, b in rows if a[v] < 0]
        combined = [
            (tuple(-n[v] * x + p[v] * y for x, y in zip(p, n)), -n[v] * bp + p[v] * bn)
            for p, bp in pos
            for n, bn in neg
        ]
        kept = set()
        for a, b in [(a, b) for a, b in rows if a[v] == 0] + combined:
            lead = next((abs(x) for x in a if x), None)
            if lead is None:
                if b > 0:
                    return False
            else:
                kept.add((tuple(x / lead for x in a), b / lead))
        rows = list(kept)
        if not rows:
            return True
    return True


def _cone_faces(forms):
    """Every kept set that some exponent vector realizes, as a frozenset of
    constant numbers: the tight sets of the faces of the convergence cone
    {e : L_m(e) >= 0 for every m}, walked down from the cone one tight
    constraint at a time.  A face's tight set T holds the m with L_m = 0
    on the whole face; the m outside it are each positive somewhere on
    the face, so their sum is a point where exactly T is tight."""

    def tight(eqs):
        rows = [(a, Fraction(0)) for a in forms] + [(tuple(-x for x in forms[m]), Fraction(0)) for m in eqs]
        return frozenset(
            m for m in range(len(forms)) if m in eqs or not _feasible(rows + [(forms[m], Fraction(1))])
        )

    cone = tight(frozenset())
    faces, todo = {cone}, [cone]
    while todo:
        face = todo.pop()
        for m in set(range(len(forms))) - face:
            lower = tight(face | {m})
            if lower not in faces:
                faces.add(lower)
                todo.append(lower)
    return faces


def test_a_grid_scan_keeps_exactly_the_faces_of_the_convergence_cone():
    # the limit depends only on the kept set, and the kept sets that exponents
    # reach are the faces of the convergence cone; the {0, 1, 2} grid reaches
    # every one of them on these models, and the recognizer reads the model
    # back off the one face that keeps every constant and off no other
    models = ((2, ("1/2",), 4), (3, ("1", "-3/2"), 8), (4, ("1", "-3/2", "2"), 16))
    for p, a, count in models:
        a = tuple(Scalar(x) for x in a)
        model = cat.frobenius_model(p, a).algebra
        g = LieAlgebra(model.dim, model.c)
        constants = [(i, j, k) for (i, j), terms in g.c.items() for k in terms]
        forms = []
        for i, j, k in constants:
            form = [Fraction(0)] * g.dim
            for index, s in ((i, 1), (j, 1), (k, -1)):
                form[index - 1] += s
            forms.append(tuple(form))
        faces = _cone_faces(forms)
        assert len(faces) == count
        for exps in product((0, 1, 2), repeat=2 * p):
            contract(ContractionSpec(g, exps))
        masks = {sum(1 << m for m in face): face for face in faces}
        assert set(g._limits) == set(masks), p
        everything = (1 << len(constants)) - 1
        for mask, limit in g._limits.items():
            kept = [constants[m] for m in sorted(masks[mask])]
            assert [(i, j, k) for (i, j), terms in limit.c.items() for k in terms] == kept
            assert frobenius_model_parameters(limit) == (a if mask == everything else None)
