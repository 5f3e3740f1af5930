"""Coordinate geometry of the 3-dimensional Heisenberg group.

Global coordinates (x, y, z) on the unipotent upper-triangular matrices;
the left-invariant coframe is (dx, dy, dz - x dy), and a frame field is
the tuple of its Poly components along (d/dx, d/dy, d/dz).  Forms
invariant under the 2-dimensional right-invariant subalgebra spanned by
a_1*R1 + a_2*R2 and R3 have coefficients b_i(y - alpha*x) of one
variable, a Poly over (u,) or a constant, and both the contact condition
and the singular set reduce to exact univariate polynomials.
"""

from __future__ import annotations

from .poly import Poly
from .polyforms import PolyForm, as_poly
from .scalars import ONE, Scalar
from .sturm import count_real_roots

H3_VARS = ("x", "y", "z")
U_VAR = ("u",)


def left_invariant_frames():
    """X1 = d/dx, X2 = d/dy + x d/dz, X3 = d/dz; [X1, X2] = X3."""
    x = Poly.variable(H3_VARS, "x")
    one = Poly.constant(H3_VARS, ONE)
    zero = Poly.zero(H3_VARS)
    return (
        (one, zero, zero),
        (zero, one, x),
        (zero, zero, one),
    )


def right_invariant_frames():
    """R1 = d/dx + y d/dz, R2 = d/dy, R3 = d/dz; [R1, R2] = -R3."""
    y = Poly.variable(H3_VARS, "y")
    one = Poly.constant(H3_VARS, ONE)
    zero = Poly.zero(H3_VARS)
    return (
        (one, zero, y),
        (zero, one, zero),
        (zero, zero, one),
    )


def left_invariant_coframes():
    """(dx, dy, dz - x dy), dual to the left-invariant frames."""
    one = Poly.constant(H3_VARS, ONE)
    x = Poly.variable(H3_VARS, "x")
    return (
        PolyForm(H3_VARS, 1, {(0,): one}),
        PolyForm(H3_VARS, 1, {(1,): one}),
        PolyForm(H3_VARS, 1, {(2,): one, (1,): -x}),
    )


def invariant_form(alpha, b1, b2, b3) -> PolyForm:
    """The invariant 1-form with profile functions b_i(y - alpha*x):
    b1 w1 + b2 w2 + b3 w3 in the left-invariant coframe."""
    alpha = Scalar.of(alpha)
    b = [as_poly(U_VAR, p) for p in (b1, b2, b3)]
    # substitute u -> y - alpha x
    u_image = Poly(
        H3_VARS,
        {
            (0, 1, 0): ONE,
            (1, 0, 0): -alpha,
        },
    )
    coeff = [p.subs([u_image]) for p in b]
    w1, w2, w3 = left_invariant_coframes()
    return (
        w1.scale(coeff[0]) + w2.scale(coeff[1]) + w3.scale(coeff[2])
    )


def h3_contact_polynomial(alpha, b1, b2, b3) -> Poly:
    """b1 b3' - b1' b3 + alpha (b2 b3' - b2' b3) - b3^2, a polynomial in u.

    The form is contact at a point iff this does not vanish at
    u = y - alpha*x; it is contact on the whole group iff the polynomial
    has no real root.
    """
    alpha = Scalar.of(alpha)
    b1, b2, b3 = (as_poly(U_VAR, p) for p in (b1, b2, b3))
    d1, d2, d3 = b1.diff(0), b2.diff(0), b3.diff(0)
    return b1 * d3 - d1 * b3 + (b2 * d3 - d2 * b3) * alpha - b3 * b3


def h3_singular_system(alpha, b1, b2, b3):
    """The two polynomials cutting out the singular set: (b3, b1 + alpha b2)."""
    alpha = Scalar.of(alpha)
    b1, b2, b3 = (as_poly(U_VAR, p) for p in (b1, b2, b3))
    return b3, b1 + b2 * alpha


def h3_is_contact_everywhere(alpha, b1, b2, b3) -> bool:
    """No real root of the contact polynomial (and not identically zero)."""
    poly = h3_contact_polynomial(alpha, b1, b2, b3)
    if poly.is_zero:
        return False
    return count_real_roots(poly) == 0
