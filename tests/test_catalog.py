from fractions import Fraction

import pytest

from cartanlab import catalog as cat
from cartanlab.deformation import assemble, check_quadratic_deformation
from cartanlab.forms import DualForm, cartan_class, ce_differential
from cartanlab.liealg import change_basis
from cartanlab.randgen import random_rational, rng
from cartanlab.scalars import ONE, Scalar
from cartanlab.structure import center, jacobi_check, lower_central_series

from dense_cochains import combine


def test_heisenberg_family():
    for p, expect in ((1, 3), (2, 5), (3, 7)):
        e = cat.heisenberg(p)
        assert e.algebra.dim == 2 * p + 1
        assert cartan_class(e.distinguished_form).value == expect
    assert lower_central_series(cat.heisenberg(3).algebra).nilindex == 2


def test_dim3_kinds():
    sl2 = cat.dim3("sl2", lam=1)
    assert cartan_class(sl2.distinguished_form).value == 3
    solv = cat.dim3("solvable_b", b=2)
    assert jacobi_check(solv.algebra).ok
    assert cartan_class(solv.distinguished_form).value == 3
    so3 = cat.dim3("so3")
    assert cartan_class(so3.distinguished_form).value == 3
    with pytest.raises(Exception):
        cat.dim3("solvable_b", b=0)


def test_constructors_reject_parameters_their_table_ignores():
    for build in (
        lambda: cat.dim3("so3", lam=7),
        lambda: cat.dim3("heisenberg", b=3),
        lambda: cat.dim5("diag_ii_b", a=5, b=1, c=2, d=3),
    ):
        with pytest.raises(ValueError, match="takes no parameter"):
            build()
    # every parameter a kind or variant reads is taken
    for kind, defaults in cat.DIM3_KINDS.items():
        assert cat.dim3(kind, **defaults).params.keys() == defaults.keys()
    for variant, letters in cat.DIM5_VARIANTS.items():
        entry = cat.dim5(variant, allow_nonjacobi=True, **dict.fromkeys(letters, 1))
        assert entry.params.keys() == {"variant", *letters}


def test_so3_deformation_matches_display_after_swap():
    so3 = cat.dim3("so3")
    assembled = assemble(so3.deformation)
    swap = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
    assert change_basis(so3.algebra, swap).same_constants(assembled)


def test_dim5_random_parameters_pass_jacobi_and_quadra():
    r = rng(31)
    for variant, letters in cat.DIM5_VARIANTS.items():
        for _ in range(25):
            params = {ch: random_rational(r) for ch in letters}
            entry = cat.dim5(variant, **params)  # raises on a Jacobi failure
            res = check_quadratic_deformation(entry.deformation)
            assert res.ok, (variant, params, res.failures)
            assert assemble(entry.deformation).same_constants(entry.algebra)


def test_dim5_zero_parameters_collapse_to_heisenberg():
    for variant, zeros in (
        ("diag_ii_a", dict(a=0, b=0, c=0, d=0)),
        ("diag_ii_b", dict(b=0, c=0, d=0)),
        ("nondiag_case1", dict(c=0, d=0, e=0, f=0)),
    ):
        entry = cat.dim5(variant, **zeros)
        assert entry.algebra.same_constants(cat.heisenberg(2).algebra)


def test_filiform_model():
    L5 = cat.filiform_model(5)
    assert lower_central_series(L5.algebra).nilindex == 4
    r = rng(32)
    from cartanlab.randgen import random_covector

    # generic covector class on the graded model lives in {1, 3}
    seen = set()
    for _ in range(60):
        w = random_covector(cat.filiform_model(9).algebra, r)
        seen.add(cartan_class(w).value)
    assert seen <= {1, 3} and 3 in seen
    # the even-dimensional model is never exact-symplectic: class stays odd
    L4 = cat.filiform_model(4).algebra
    for _ in range(60):
        assert cartan_class(random_covector(L4, r)).value % 2 == 1


def test_filiform_cocycle_matches_golden_table():
    r = rng(33)
    for _ in range(10):
        a = [random_rational(r) for _ in range(3)]
        built = cat.filiform_contact(4, a, allow_nonjacobi=True).algebra
        assert built.same_constants(cat.mu_c9_table(*a))


def test_filiform_contact_conditions_dim9():
    conds = cat.filiform_contact_conditions(4, [0, 2, 1])
    assert conds == [ONE, ONE, Scalar(-5)]
    # contact exactly when every condition is nonzero
    entry = cat.mu_c9([0, 2, 1], allow_nonjacobi=True)
    assert entry.constraints_hold
    assert cartan_class(entry.distinguished_form).value == 9
    degenerate = cat.mu_c9([0, 1, 1], allow_nonjacobi=True)
    assert not degenerate.constraints_hold
    assert cartan_class(degenerate.distinguished_form).value < 9


def test_filiform_contact_all_zero_is_graded_model():
    entry = cat.filiform_contact(4, [0, 0, 0])
    assert entry.algebra.same_constants(cat.filiform_model(9).algebra)
    assert not entry.constraints_hold


def test_filiform_quadratic_closure_constraint():
    # dimensions 5 and 7 close for every coefficient choice
    r = rng(34)
    for p in (2, 3):
        for _ in range(25):
            a = [random_rational(r) for _ in range(p - 1)]
            assert jacobi_check(cat.filiform_contact(p, a).algebra).ok
    # dimension 9 closes exactly on the quadratic relation
    assert cat.filiform_contact_closure(4, [1, 2, 3]) == []
    assert cat.filiform_contact_closure(4, [0, 2, 1]) != []
    with pytest.raises(cat.NonJacobiDisplayError):
        cat.mu_c9([0, 2, 1])
    for _ in range(25):
        a2, a3 = random_rational(r), random_rational(r)
        while not a3:
            a3 = random_rational(r)
        a1 = (3 * a2 * a2 - a2 * a3) / (2 * a3)
        entry = cat.filiform_contact(4, [a1, a2, a3])
        assert jacobi_check(entry.algebra).ok


def test_frobenius_model_family():
    e = cat.frobenius_model(3, [1, -2])
    assert jacobi_check(e.algebra).ok
    assert cartan_class(e.distinguished_form).value == 6
    assert center(e.algebra).dim == 0
    base = cat.frobenius_model(3, [0, 0])
    # d of the even coframe legs is a multiple of w2 ^ w_{2k+2} only
    d6 = ce_differential(DualForm.basis(base.algebra, 6))
    assert set(d6.coeffs) == {(2, 6)}


def test_frobenius_psi_cocycles_reassemble_model():
    r = rng(35)
    for p in (2, 3, 4):
        base = cat.frobenius_model(p, [0] * (p - 1))
        psis = cat.psi_cocycles(p, base.algebra)
        for _ in range(5):
            a = [random_rational(r) for _ in range(p - 1)]
            from cartanlab.liealg import LieAlgebra

            total = combine(2 * p, (1, base.algebra.c), *zip(a, psis))
            rebuilt = LieAlgebra(2 * p, total)
            assert rebuilt.same_constants(cat.frobenius_model(p, a).algebra)


def test_nilpotent_entries_have_odd_classes_and_expected_class_matches():
    r = rng(36)
    from cartanlab.randgen import random_covector

    for entry in cat.standard_entries():
        if entry.constraints_hold:
            assert cartan_class(entry.distinguished_form).value == entry.expected_class, entry.id
    for entry in cat.nilpotent_entries():
        for _ in range(10):
            assert cartan_class(random_covector(entry.algebra, r)).value % 2 == 1


def test_standard_entries_all_jacobi():
    for entry in cat.standard_entries():
        assert jacobi_check(entry.algebra).ok, entry.id


def test_catalog_id_grammar():
    e = cat.resolve("frobenius:p=3,a=[1,-2]")
    assert e.params == {"p": 3, "a": (Scalar(1), Scalar(-2))}
    # spaces around an item belong to the list, not to the number
    assert cat.resolve("frobenius: p=3 , a=[ 1, -2 ]").params == e.params
    e = cat.resolve("dim5:variant=diag_ii_a,a=1/2,b=0,c=1,d=1")
    assert e.params["variant"] == "diag_ii_a" and e.params["a"] == Scalar("1/2")
    assert cat.resolve("dim3:kind=so3").params == {"a": ONE}


def test_catalog_resolve():
    e = cat.resolve("heisenberg:p=2")
    assert e.algebra.dim == 5
    e = cat.resolve("frobenius:p=2,a=[-1/2]")
    assert e.params["a"] == (Scalar("-1/2"),)
    e = cat.resolve("mu_c9:a=[1,2,3]")
    assert e.expected_class == 9
    e = cat.resolve("dim5:variant=nondiag_case2,a=1,c=-1,d=2")
    assert e.algebra.dim == 5
    with pytest.raises(KeyError):
        cat.resolve("nonsense:p=1")
    with pytest.raises(KeyError):
        cat.resolve("filiform_contact:p=3")  # the array a is required
    with pytest.raises(ValueError):
        cat.resolve("dim3:kind=so3,lam=7")
    # a repeated key is refused, not read as its last value
    for cid in ("heisenberg:p=1,p=2", "frobenius:p=2,a=[1],a=[2]", "dim3:kind=so3,kind=sl2"):
        with pytest.raises(ValueError, match="given twice"):
            cat.resolve(cid)
    with pytest.raises(cat.NonJacobiDisplayError):
        cat.resolve("mu_c9:a=[0,2,1]")
    assert cat.resolve("mu_c9:a=[0,2,1]", allow_nonjacobi=True).algebra.dim == 9


def test_quarantine_checks_jacobi_even_when_allowed(monkeypatch):
    calls = []

    def counted(g):
        calls.append(g)
        return jacobi_check(g)

    monkeypatch.setattr(cat, "jacobi_check", counted)
    entry = cat.mu_c9([0, 2, 1], allow_nonjacobi=True)
    assert calls == [entry.algebra] and not jacobi_check(entry.algebra).ok


# one well-formed id per family, with the direct constructor call it names
FAMILY_IDS = {
    "heisenberg": ("heisenberg:p=2", lambda: cat.heisenberg(2)),
    "abelian": ("abelian:n=3", lambda: cat.abelian(3)),
    "dim3": ("dim3:kind=solvable_b,b=-3/2", lambda: cat.dim3("solvable_b", b=Fraction(-3, 2))),
    "dim5": (
        "dim5:variant=nondiag_case1,c=2,d=1,e=1/2,f=-1",
        lambda: cat.dim5("nondiag_case1", c=2, d=1, e=Fraction(1, 2), f=-1),
    ),
    "filiform": ("filiform:n=6", lambda: cat.filiform_model(6)),
    "filiform_contact": ("filiform_contact:p=3,a=[1,2]", lambda: cat.filiform_contact(3, [1, 2])),
    "mu_c9": ("mu_c9:a=[1,2,3]", lambda: cat.mu_c9([1, 2, 3])),
    "frobenius": ("frobenius:p=3,a=[1,-2]", lambda: cat.frobenius_model(3, [1, -2])),
}


def _drawn_entries(r, gaussian=False):
    """Each family drawn with seeded rational parameters, or Gaussian ones
    with a nonzero imaginary part, every dim3 kind with a parameter other
    than its default among them."""

    def q():  # a nonzero rational or a non-real Gaussian rational
        if gaussian:
            return Scalar(random_rational(r), random_rational(r) or 1)
        return random_rational(r) or Fraction(1)

    out = [cat.heisenberg(r.randint(1, 4)), cat.abelian(r.randint(1, 5))]
    out += [cat.dim3(kind, **{k: q() for k in defaults}) for kind, defaults in cat.DIM3_KINDS.items()]
    out += [cat.dim5(v, **{k: q() for k in letters}) for v, letters in cat.DIM5_VARIANTS.items()]
    out.append(cat.filiform_model(r.randint(3, 9)))
    out += [cat.filiform_contact(p, [q() for _ in range(p - 1)]) for p in (2, 3)]
    a2, a3 = q(), q()
    out.append(cat.filiform_contact(4, [(3 * a2 * a2 - a2 * a3) / (2 * a3), a2, a3]))
    out.append(cat.mu_c9([q(), q(), q()], allow_nonjacobi=True))
    out += [cat.frobenius_model(p, [q() for _ in range(p - 1)]) for p in (2, 3, 4)]
    p = r.randint(2, 4)
    out.append(cat.frobenius_model(p, [0] * (p - 1)))
    return out


def test_every_entry_id_resolves_to_the_entry():
    r = rng(37)
    drawn = [e for gaussian in (False, True) for _ in range(3) for e in _drawn_entries(r, gaussian)]
    for entry in cat.standard_entries() + cat.nilpotent_entries() + drawn:
        got = cat.resolve(entry.id, allow_nonjacobi=True)
        assert (got.id, got.params) == (entry.id, entry.params)
        assert got.algebra.constants() == entry.algebra.constants(), entry.id
    # a dim3 id carries its parameter, a Gaussian one as str(Scalar) prints it
    assert cat.dim3("sl2", lam=3).id == "dim3:kind=sl2,lam=3"
    assert cat.resolve("dim3:kind=sl2,lam=1+2i").params == {"lam": Scalar(1, 2)}


def test_every_family_resolves_from_its_id():
    assert FAMILY_IDS.keys() == cat._FAMILIES.keys()
    for name, (cid, build) in FAMILY_IDS.items():
        got, want = cat.resolve(cid), build()
        assert (got.id, got.params) == (want.id, want.params), name
        assert got.algebra.constants() == want.algebra.constants(), name
        assert got.distinguished_form.coeffs == want.distinguished_form.coeffs, name
        assert got.expected_class == want.expected_class, name
        assert got.constraints_hold == want.constraints_hold, name
        assert (got.deformation is None) == (want.deformation is None), name
        if want.deformation is not None:
            assert got.deformation.phi1 == want.deformation.phi1, name
            assert got.deformation.phi2 == want.deformation.phi2, name
