"""Every 3-dimensional contact algebra as a deformation of the Heisenberg
bracket.

The bracket mu_0 + phi_1 + phi_2 is a Lie bracket exactly when the four
compatibility equations hold:

    d phi_1 = 0
    phi_1 o phi_1 + d phi_2 = 0
    phi_1 o phi_2 + phi_2 o phi_1 = 0
    phi_2 o phi_2 = 0

Walking the classification: phi_1 = 0 with a split diagonal endomorphism
gives the rank-1 simple algebra; a rotation gives its compact real form;
phi_1(X1,X2) = X1 forces f(X1) = 0 and lands in the solvable families.
"""

from cartanlab import catalog as cat
from cartanlab.deformation import (
    DeformationSpec,
    assemble,
    bilinear_from_endomorphism,
    check_quadratic_deformation,
)
from cartanlab.structure import jacobi_check

print(__doc__)

for kind in ("heisenberg", "solvable1", "solvable_b", "sl2", "so3"):
    entry = cat.dim3(kind)
    res = check_quadratic_deformation(entry.deformation)
    g = assemble(entry.deformation)
    print(f"{kind:<12} compatibility: {'ok' if res.ok else res.failing_equations()}"
          f"   assembled Jacobi: {jacobi_check(g).ok}")
    for (i, j), terms in sorted(g.c.items()):
        txt = " + ".join(f"({v})X{k}" for k, v in sorted(terms.items()))
        print(f"    [X{i},X{j}] = {txt}")

print()
print("The forced failure: phi_1(X1,X2) = X1 against a split diagonal f")
h3 = cat.heisenberg(1).algebra
spec = DeformationSpec(
    h3,
    {(1, 2): {1: 1}},
    bilinear_from_endomorphism(h3, ((1, 0), (0, -1))),
)
res = check_quadratic_deformation(spec)
print("  failing equations:", res.failing_equations(), " (the mixed one, as expected:"
      " it forces f(X1) = 0)")
