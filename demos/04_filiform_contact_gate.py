"""The contact gate for dimension-9 filiform algebras.

The graded filiform bracket [e0, e_i] = e_{i+1} deforms by weighted
cocycles with coefficients (a14, a26, a38).  Whether the dual of the last
basis vector is a contact form is governed by three polynomial conditions

    a38 != 0,     a26 - a38 != 0,     a14 - 3 a26 + a38 != 0,

and being a Lie algebra at all imposes one more quadratic closure relation
3 a26^2 - a26 a38 - 2 a14 a38 = 0 (the displayed table omits it; the
builder quarantines the non-closed instances behind allow_nonjacobi).
"""

from fractions import Fraction

from cartanlab import catalog as cat
from cartanlab.forms import cartan_class
from cartanlab.structure import jacobi_check, lower_central_series

print(__doc__)

print("A fully valid member: (a14, a26, a38) = (1, 2, 3)")
entry = cat.mu_c9([1, 2, 3])
g = entry.algebra
print("  Jacobi:", jacobi_check(g).ok)
print("  nilindex:", lower_central_series(g).nilindex, "(filiform: dimension - 1)")
print("  contact conditions:", [str(c) for c in cat.filiform_contact_conditions(4, [1, 2, 3])])
print("  class of the distinguished covector:", cartan_class(entry.distinguished_form).value)

print()
print("Scanning the gate on a small grid (class 9 iff all conditions nonzero):")
grid = [Fraction(v) for v in (-1, 0, 1, 2)]
hits = misses = 0
for a1 in grid:
    for a2 in grid:
        for a3 in grid:
            e = cat.filiform_contact(4, [a1, a2, a3], allow_nonjacobi=True)
            value = cartan_class(e.distinguished_form).value
            expect = all(bool(c) for c in cat.filiform_contact_conditions(4, [a1, a2, a3]))
            assert (value == 9) == expect
            hits += value == 9
            misses += value != 9
print(f"  contact members: {hits}, degenerate members: {misses}, gate exact on all {hits+misses}")

print()
print("Closure relation in action: (0,2,1) satisfies the contact conditions")
print("but is not a Lie bracket; its Jacobi defect is purely central:")
bad = cat.filiform_contact(4, [0, 2, 1], allow_nonjacobi=True).algebra
res = jacobi_check(bad)
i, j, k, defect = res.witness
terms = " + ".join(f"{x}*{label}" for x, label in zip(defect, bad.basis) if x)
print(f"  defect at (e{i-1}, e{j-1}, e{k-1}) = {terms}")
print("  closure obstruction values:", [str(x) for x in cat.filiform_contact_closure(4, [0, 2, 1])])
