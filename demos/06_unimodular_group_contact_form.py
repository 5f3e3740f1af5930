"""A rotation-invariant contact form on the unimodular matrix group.

On the (2n) x (2n) matrix coordinates, pair the columns and set

    omega = sum_j sum_i  x_{j,2i-1} dx_{j,2i} - x_{j,2i} dx_{j,2i-1}.

Everything below is an exact polynomial identity: the candidate Reeb field,
read off d(det) by swapping each column pair, pairs to the determinant, its
contraction with d omega is an exact multiple of d(det), the top-form identity

    omega ^ (d omega)^q ^ d(det) = constant * det * volume

holds with q = ((2n)^2 - 2)/2, and the form is invariant under exact
rational rotations acting on the left.
"""

import time

from cartanlab.slgroup import (
    block_rotation,
    evaluate_singular_equations,
    pythagorean_rotation,
    reeb_identities,
    sl_contact_data,
    sl_contact_identity,
    so_invariance_check,
)

print(__doc__)

for n in (1, 2):
    t0 = time.monotonic()
    data = sl_contact_data(n)
    res = sl_contact_identity(n)
    defect, scale = reeb_identities(n)
    print(f"n = {n} ({(2*n)**2} variables)")
    print(f"  top-form identity: q = {res.q}, constant = {res.constant}")
    print(f"  omega(Z) - det == 0: {defect.is_zero}")
    print(f"  i(Z) d omega = ({scale}) * d(det)")
    print(f"  elapsed: {time.monotonic() - t0:.3f}s")

print()
print("Rotation invariance (exact Pythagorean rotations):")
for a, b in ((2, 1), (3, 2), (4, 1)):
    m = pythagorean_rotation(a, b)
    print(f"  rotation from triple ({a},{b}): invariant = {so_invariance_check(1, m)}")
m4 = block_rotation(2, [pythagorean_rotation(2, 1), pythagorean_rotation(3, 1)])
print("  rank-4 block rotation: invariant =", so_invariance_check(2, m4))

print()
print("Singular equations at the identity matrix (n = 1): the pairing")
vals = evaluate_singular_equations(1, ((1, 0), (0, 1)))
print("  values:", {f"({i},{j})": str(v) for (i, j), v in sorted(vals.items())})
print("  the (1,2) pairing equals 1 on the whole unimodular variety, so the")
print("  singular set is empty there.")
