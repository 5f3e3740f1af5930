"""Cartan class of left-invariant 1-forms, two ways.

A covector w on a structure-constant Lie algebra has a wedge-power class
(the largest q with (dw)^q != 0, refined by whether w ^ (dw)^q survives)
and a kernel-theoretic class (the codimension of the characteristic space
{X : w(X) = 0, i(X) dw = 0}).  cartan_class finds q as half the rank of
dw by skew elimination, and the refinement as whether w survives on the
radical of dw; it computes the codimension too and refuses to answer if
the two ever disagree, so every number printed below has been checked
against an independent computation.
"""

from cartanlab import catalog as cat
from cartanlab.forms import DualForm, cartan_class, ce_differential
from cartanlab.randgen import random_covector, rng

print(__doc__)

h5 = cat.heisenberg(2)
print("Heisenberg algebra, dimension 5")
print("  d w5 =", ce_differential(h5.distinguished_form))
info = cartan_class(h5.distinguished_form)
print("  class(w5) =", info.value, "->  a contact form (class = dimension)")
print("  characteristic space dimension:", info.characteristic_space.dim)

print()
ab = cat.abelian(4)
w = DualForm.covector(ab.algebra, [1, 2, 0, 3])
print("Abelian algebra, dimension 4: every nonzero covector is closed")
print("  class =", cartan_class(w).value)

print()
so3 = cat.dim3("so3")
print("Compact rank-1 algebra: the coframe satisfies the cyclic equations")
for i in (1, 2, 3):
    print(f"  d w{i} =", ce_differential(DualForm.basis(so3.algebra, i)))
r = rng(1)
classes = {cartan_class(random_covector(so3.algebra, r)).value for _ in range(200)}
print("  classes of 200 random nonzero covectors:", classes, "(always 3)")

print()
frob = cat.frobenius_model(2, ["1/2"])
print("Exact-symplectic model in dimension 4 (parameter 1/2)")
info = cartan_class(frob.distinguished_form)
print("  class(w1) =", info.value, " branch:", info.branch, "(even class = exact symplectic)")

print()
print("Parity check: classes on nilpotent algebras are always odd")
for entry in (cat.heisenberg(3), cat.filiform_model(7), cat.mu_c9([1, 2, 3])):
    seen = {cartan_class(random_covector(entry.algebra, r)).value for _ in range(100)}
    print(f"  {entry.id:<24} classes seen: {sorted(seen)}")
