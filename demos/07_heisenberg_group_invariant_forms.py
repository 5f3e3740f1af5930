"""Partially invariant forms on the 3-dimensional Heisenberg group.

Forms invariant under a 2-dimensional subalgebra of right-invariant fields
have coefficients that depend on the single variable u = y - alpha*x.  The
contact condition collapses to one univariate polynomial,

    b1 b3' - b1' b3 + alpha (b2 b3' - b2' b3) - b3^2,

so deciding "contact everywhere" is exact real-root counting, and the
wedge oracle below confirms the polynomial against raw exterior calculus.
"""

from cartanlab.heisenberg_group import (
    U_VAR,
    h3_contact_polynomial,
    h3_is_contact_everywhere,
    h3_singular_system,
    invariant_form,
    left_invariant_frames,
    right_invariant_frames,
)
from cartanlab.poly import Poly
from cartanlab.polyforms import exterior_d, poly_wedge, vf_bracket
from cartanlab.sturm import count_real_roots

print(__doc__)

X1, X2, X3 = left_invariant_frames()
R1, R2, R3 = right_invariant_frames()
print("Frames: [X1,X2] = X3 and [R1,R2] = -R3 as exact field brackets:")
print("  [X1,X2] components:", [str(p) for p in vf_bracket(X1, X2)])
print("  [R1,R2] components:", [str(p) for p in vf_bracket(R1, R2)])

u = Poly.variable(U_VAR, "u")
one = Poly.constant(U_VAR, 1)
zero = Poly.zero(U_VAR)

print()
print("Profile (b1, b2, b3) = (1, 0, u), alpha = 0:")
p = h3_contact_polynomial(0, one, zero, u)
print("  contact polynomial:", p)
print("  real roots:", count_real_roots(p), "(vanishes on the planes u = +-1)")
print("  contact everywhere:", h3_is_contact_everywhere(0, one, zero, u))
b3, combo = h3_singular_system(0, one, zero, u)
print("  singular system: b3 =", b3, " and b1 + alpha b2 =", combo,
      " -> no common zero, empty singular set")

print()
print("Constant profile (0, 0, c): the left-invariant contact form itself")
c = Poly.constant(U_VAR, 3)
print("  contact polynomial:", h3_contact_polynomial(0, zero, zero, c))
print("  contact everywhere:", h3_is_contact_everywhere(0, zero, zero, c))

print()
print("Oracle: w ^ dw computed by raw exterior calculus equals the contact")
print("polynomial evaluated at u = y - alpha x, as a coefficient of the")
print("volume form.")
w = invariant_form(0, one, zero, u)
top = poly_wedge(w, exterior_d(w))
print("  w =", w)
print("  w ^ dw =", top)
