import pytest

from cartanlab import catalog as cat
from cartanlab.forms import DualForm, interior_product, wedge
from cartanlab.liealg import Vector
from cartanlab.poly import Poly, VariableMismatch
from cartanlab.polyforms import (
    PolyForm,
    PolyVectorField,
    exterior_d,
    form_on_field,
    poly_interior,
    poly_wedge,
    poly_wedge_power,
    pullback_linear,
    vf_bracket,
)
from cartanlab.randgen import random_poly, rng
from cartanlab.scalars import Scalar

V = ("x", "y", "z")


def _x(name):
    return Poly.variable(V, name)


def test_poly_arithmetic():
    x, y = _x("x"), _x("y")
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (x + 1) ** 2 == x * x + 2 * x + 1
    assert p - p == Poly.zero(V)
    assert (x * 0).is_zero


def test_poly_variable_mismatch():
    x = _x("x")
    u = Poly.variable(("u",), "u")
    with pytest.raises(VariableMismatch):
        x + u


def test_poly_diff_and_eval():
    x, y, z = (_x(n) for n in V)
    p = x * y * y + z
    assert p.diff("y") == 2 * x * y
    assert p.diff(2) == Poly.constant(V, 1)
    assert p.eval([Scalar(2), Scalar(3), Scalar(-1)]) == Scalar(17)


def test_poly_subs():
    x, y, z = (_x(n) for n in V)
    p = x * x + y
    image = p.subs([y, x * z, Poly.zero(V)])
    assert image == y * y + x * z


def test_poly_univariate_coeffs():
    u = Poly.variable(("u",), "u")
    p = u * u * 3 - u + 2
    assert p.univariate_coeffs() == (Scalar(2), Scalar(-1), Scalar(3))
    with pytest.raises(VariableMismatch):
        (_x("x")).univariate_coeffs()


def test_exterior_d_basics():
    x, y = _x("x"), _x("y")
    f = x * y
    df = exterior_d(PolyForm.function(f))
    assert df == PolyForm(V, 1, {(0,): y, (1,): x})


def test_d_squared_zero_random():
    r = rng(41)
    for _ in range(15):
        grade = r.randint(0, 3)
        from itertools import combinations

        idx_pool = list(combinations(range(3), grade))
        coeffs = {idx: random_poly(V, r) for idx in idx_pool[: r.randint(1, len(idx_pool))]}
        form = PolyForm(V, grade, coeffs)
        assert exterior_d(exterior_d(form)).is_zero


def test_wedge_antiderivation_random():
    r = rng(42)
    for _ in range(10):
        a = PolyForm(V, 1, {(r.randint(0, 2),): random_poly(V, r)})
        b = PolyForm(V, 1, {(r.randint(0, 2),): random_poly(V, r)})
        lhs = exterior_d(poly_wedge(a, b))
        rhs = poly_wedge(exterior_d(a), b) - poly_wedge(a, exterior_d(b))
        assert lhs == rhs


def test_interior_product_rules():
    x, y, z = (_x(n) for n in V)
    vf = PolyVectorField(V, (y, Poly.zero(V), Poly.constant(V, 1)))
    form = PolyForm(V, 2, {(0, 2): x})
    contracted = poly_interior(vf, form)
    assert contracted == PolyForm(V, 1, {(2,): x * y, (0,): -x})
    assert poly_interior(vf, poly_interior(vf, form)).is_zero
    with pytest.raises(ValueError):
        poly_interior(vf, PolyForm.function(x))


def test_vf_bracket_coordinate_fields_commute():
    one = Poly.constant(V, 1)
    zero = Poly.zero(V)
    dx = PolyVectorField(V, (one, zero, zero))
    dy = PolyVectorField(V, (zero, one, zero))
    assert vf_bracket(dx, dy) == PolyVectorField(V, (zero, zero, zero))


def test_pullback_linear_composition():
    r = rng(43)
    a = PolyForm(V, 2, {(0, 1): random_poly(V, r), (1, 2): random_poly(V, r)})
    m1 = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    m2 = [[1, 0, 0], [0, 2, 0], [1, 0, 1]]
    once = pullback_linear(pullback_linear(a, m1), m2)
    composed = [[sum(m1[i][k] * m2[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    assert once == pullback_linear(a, composed)


def test_pullback_commutes_with_d():
    r = rng(44)
    m = [[1, 2, 0], [0, 1, 1], [3, 0, 1]]
    a = PolyForm(V, 1, {(0,): random_poly(V, r), (2,): random_poly(V, r)})
    assert exterior_d(pullback_linear(a, m)) == pullback_linear(exterior_d(a), m)


def test_form_on_field():
    x, y = _x("x"), _x("y")
    form = PolyForm(V, 1, {(0,): y, (1,): x})
    vf = PolyVectorField(V, (x, y, Poly.zero(V)))
    assert form_on_field(form, vf) == 2 * x * y


def test_wedge_power_top():
    omega = PolyForm(
        ("a", "b", "c", "d"),
        2,
        {(0, 1): Poly.constant(("a", "b", "c", "d"), 1), (2, 3): Poly.constant(("a", "b", "c", "d"), 1)},
    )
    top = poly_wedge_power(omega, 2)
    assert top == PolyForm(
        ("a", "b", "c", "d"), 4, {(0, 1, 2, 3): Poly.constant(("a", "b", "c", "d"), 2)}
    )


@pytest.mark.parametrize(
    "a, b, x",
    [
        ({(0,): 1, (2,): "1/2"}, {(1,): 3, (3,): -1}, (1, 0, 2, 0)),
        ({(0, 1): 2, (2, 3): 1}, {(0, 1): 1, (2, 3): -3}, (0, 1, 0, "-2/3")),
        ({(1,): -2}, {(0, 2, 3): 5, (1, 2, 3): 4}, (1, 1, 1, 1)),
    ],
)
def test_exterior_kernel_agrees_across_rings(a, b, x):
    """Constant-coefficient forms: DualForm (1-based, Scalar) and PolyForm
    (0-based, Poly) give the same wedge and interior product."""
    g = cat.abelian(4).algebra
    w = ("p", "q", "r", "s")

    def dual(c):
        return DualForm(g, len(next(iter(c))), {tuple(t + 1 for t in i): v for i, v in c.items()})

    def poly(c):
        return PolyForm(w, len(next(iter(c))), {i: Poly.constant(w, v) for i, v in c.items()})

    def shifted(f):
        assert all(p.is_constant() for p in f.coeffs.values())
        return {tuple(t + 1 for t in i): p.constant_value() for i, p in f.coeffs.items()}

    dual_ab, poly_ab = wedge(dual(a), dual(b)), poly_wedge(poly(a), poly(b))
    assert not dual_ab.is_zero
    assert shifted(poly_ab) == dual_ab.coeffs
    contracted = interior_product(Vector(g, x), dual_ab)
    assert shifted(poly_interior(PolyVectorField(w, x), poly_ab)) == contracted.coeffs
    assert not Poly.zero(w) and Poly.constant(w, 2)
