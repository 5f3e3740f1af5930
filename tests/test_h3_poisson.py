import pytest

from cartanlab.heisenberg_group import (
    H3_VARS,
    U_VAR,
    h3_contact_polynomial,
    h3_is_contact_everywhere,
    h3_singular_system,
    invariant_form,
    left_invariant_coframes,
    left_invariant_frames,
    right_invariant_frames,
)
from cartanlab.poisson import darboux_poisson, darboux_vars
from cartanlab.poly import Poly
from cartanlab.polyforms import (
    exterior_d,
    form_on_field,
    poly_interior,
    poly_wedge,
    vf_bracket,
)
from cartanlab.randgen import random_poly, random_rational, rng
from cartanlab.scalars import ONE, Scalar
from cartanlab.structure import PreconditionError
from cartanlab.sturm import count_real_roots


def test_frame_brackets():
    X1, X2, X3 = left_invariant_frames()
    assert vf_bracket(X1, X2) == X3
    assert vf_bracket(X1, X3) == tuple(Poly.zero(H3_VARS) for _ in range(3))
    R1, R2, R3 = right_invariant_frames()
    minus_r3 = tuple(-p for p in R3)
    assert vf_bracket(R1, R2) == minus_r3


def test_coframe_duality_and_maurer_cartan():
    frames = left_invariant_frames()
    coframes = left_invariant_coframes()
    for i, w in enumerate(coframes):
        for j, X in enumerate(frames):
            expected = Poly.constant(H3_VARS, 1 if i == j else 0)
            assert form_on_field(w, X) == expected
    w1, w2, w3 = coframes
    assert exterior_d(w1).is_zero and exterior_d(w2).is_zero
    assert exterior_d(w3) == poly_wedge(w1, w2).scale(Scalar(-1))


def test_interior_of_contact_coframe():
    dz = (Poly.zero(H3_VARS), Poly.zero(H3_VARS), Poly.constant(H3_VARS, 1))
    w3 = left_invariant_coframes()[2]
    assert poly_interior(dz, w3).coeffs == {(): Poly.constant(H3_VARS, 1)}


def test_contact_polynomial_examples():
    u = Poly.variable(U_VAR, "u")
    one = Poly.constant(U_VAR, 1)
    zero = Poly.zero(U_VAR)

    p = h3_contact_polynomial(0, one, zero, u)
    assert p == 1 - u * u
    assert count_real_roots(p) == 2
    assert p.eval([ONE]) == 0 and p.eval([Scalar.of(-1)]) == 0
    assert not h3_is_contact_everywhere(0, one, zero, u)

    c = Poly.constant(U_VAR, 3)
    assert h3_contact_polynomial(0, zero, zero, c) == Poly.constant(U_VAR, -9)
    assert h3_is_contact_everywhere(0, zero, zero, c)

    assert h3_contact_polynomial(0, one, one, zero).is_zero
    assert not h3_is_contact_everywhere(0, one, one, zero)


def test_singular_system():
    u = Poly.variable(U_VAR, "u")
    one = Poly.constant(U_VAR, 1)
    b3, combo = h3_singular_system(Scalar.of(2), one, u, u - 1)
    assert b3 == u - 1
    assert combo == 1 + 2 * u


def test_invariant_form_against_exterior_calculus():
    # w ^ dw = (contact polynomial at u = y - alpha x) dx^dy^dz, exactly
    r = rng(51)
    for _ in range(8):
        alpha = Scalar.of(random_rational(r))
        profiles = []
        for _ in range(3):
            deg = r.randint(0, 2)
            profiles.append(
                Poly(U_VAR, {(k,): random_rational(r) for k in range(deg + 1)})
            )
        w = invariant_form(alpha, *profiles)
        top = poly_wedge(w, exterior_d(w))
        u_image = Poly(H3_VARS, {(0, 1, 0): 1, (1, 0, 0): -alpha})
        expect = h3_contact_polynomial(alpha, *profiles).subs([u_image])
        assert top.coeffs.get((0, 1, 2), Poly.zero(H3_VARS)) == expect


def test_darboux_poisson_examples():
    v = darboux_vars(1)
    x1, x2 = Poly.variable(v, "x1"), Poly.variable(v, "x2")
    assert darboux_poisson(1, x1, x2) == Poly.constant(v, 1)
    assert darboux_poisson(1, x1 * x1, x2) == 2 * x1
    f = x1 * x2 + x2 * x2
    assert darboux_poisson(1, f, f).is_zero


def test_darboux_poisson_rejects_contact_coordinate():
    v = darboux_vars(1, with_contact_coordinate=True)
    x1, x3 = Poly.variable(v, "x1"), Poly.variable(v, "x3")
    with pytest.raises(PreconditionError):
        darboux_poisson(1, x1, x3)
    # independence of the contact coordinate is fine
    assert darboux_poisson(1, x1, Poly.variable(v, "x2")) == Poly.constant(v, 1)


def test_darboux_poisson_axioms():
    r = rng(52)
    for p in (1, 2):
        v = darboux_vars(p)
        for _ in range(25):
            f, g, h = (random_poly(v, r) for _ in range(3))
            assert darboux_poisson(p, f, g) == -darboux_poisson(p, g, f)
            leibniz = darboux_poisson(p, f * g, h) - (
                f * darboux_poisson(p, g, h) + darboux_poisson(p, f, h) * g
            )
            assert leibniz.is_zero
            jac = (
                darboux_poisson(p, f, darboux_poisson(p, g, h))
                + darboux_poisson(p, g, darboux_poisson(p, h, f))
                + darboux_poisson(p, h, darboux_poisson(p, f, g))
            )
            assert jac.is_zero
