"""Structural analysis of structure-constant Lie algebras.

Jacobi verification (with explicit witnesses) on the sparse cyclic-sum
kernel that also serves deformation's circle products and coboundaries,
center, lower central series, derivations, the one table of the
Heisenberg algebra h_{2p+1}, and the space of endomorphisms compatible
with its bracket pairing.  A vector is its coordinate tuple, as in
`liealg`: a Jacobi witness carries its defect as one, and the center and
the terms of the lower central series hold theirs as `Subspace` rows.

The kernel reads a bracket table {(i, j): {m: v}}, i < j, through its
`pair_table`: signed rows {i: {j: (s, terms)}} that hold each stored
pair twice, as (1, terms) in row i and (-1, terms) in row j, without
copying or negating a coefficient.  `exterior.add_scaled` adds or
subtracts each product by the sign, so a check costs one Scalar product
per nonzero product of constants and one addition per merge into a sum.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from . import exterior
from .liealg import LieAlgebra, Subspace, bracket_table, coordinates, kernel_subspace, table_entry
from .linalg import identity, nullspace
from .scalars import ONE, ZERO


class PreconditionError(ValueError):
    """An operation was called outside its stated domain."""


class JacobiResult(NamedTuple):
    ok: bool
    witness: Optional[tuple] = None  # (i, j, k, coordinate tuple of the defect)


def pair_table(table) -> dict:
    """Both orientations of a bracket table {(i, j): {m: v}}, i < j, as
    signed rows {i: {j: (s, terms)}}: row i holds (1, terms) at j and row j
    holds (-1, terms) at i, so [X_a, X_b] = s * terms for
    (s, terms) = rows[a][b].

    Both rows share the table's own read-only `terms`; nothing is negated.
    The readers (`cyclic_sums`, `center`, and `deformation`'s left
    compositions and coboundaries) pass s on to `exterior.add_scaled`,
    which adds or subtracts each product by it.
    """
    rows = {}
    for (i, j), terms in table.items():
        if terms:
            rows.setdefault(i, {})[j] = (1, terms)
            rows.setdefault(j, {})[i] = (-1, terms)
    return rows


def cyclic_sums(products) -> dict:
    """Sum over the (outer, inner) pairs in products of

        outer(inner(X_i,X_j),X_k) + outer(inner(X_j,X_k),X_i) + outer(inner(X_k,X_i),X_j),

    as {(i, j, k): {m: coeff}} for the nonzero sums, i < j < k, in
    lexicographic order.  outer is the `pair_table` of a bracket table and
    inner a bracket table itself.  Only nonzero products are visited: each
    stored inner pair a < b, each l in inner(a, b) and each signed entry
    (s, out) = outer[l][c] add s * u * out to the sorted triple {a, b, c},
    with s flipped when (a, b, c) is an odd permutation of it.
    """
    sums = {}
    for outer, inner in products:
        for (a, b), terms in inner.items():
            for l, u in terms.items():
                for c, (s, out) in outer.get(l, {}).items():
                    if c > b:
                        key = (a, b, c)
                    elif c < a:
                        key = (c, a, b)
                    elif c != a and c != b:
                        key, s = (a, c, b), -s
                    else:
                        continue
                    exterior.add_scaled(sums.setdefault(key, {}), out, u, s)
    return {key: sums[key] for key in sorted(sums) if sums[key]}


def jacobi_defects(g: LieAlgebra, first: int = 1):
    """Yield (i, j, k, defect) for every triple first <= i < j < k
    whose cyclic sum [[X_i,X_j],X_k] + [[X_j,X_k],X_i] + [[X_k,X_i],X_j]
    is nonzero, in lexicographic order; the defect is that sum's
    coordinate tuple.

    This is `cyclic_sums` with the structure constants as both tables, so
    every sum is computed before the first triple is yielded.
    """
    for (i, j, k), acc in cyclic_sums([(pair_table(g.c), g.c)]).items():
        if i >= first:
            yield i, j, k, coordinates(g.dim, acc)


def jacobi_check(g: LieAlgebra) -> JacobiResult:
    """Cyclic sum on all triples; the witness is the first failing one.

    The verdict is kept on g, which is immutable, so later calls on the
    same instance return the same JacobiResult without recomputing it.
    """
    try:
        return g._jacobi
    except AttributeError:
        pass
    witness = next(jacobi_defects(g), None)
    g._jacobi = JacobiResult(witness is None, witness)
    return g._jacobi


def require_jacobi(g: LieAlgebra):
    res = jacobi_check(g)
    if not res.ok:
        i, j, k, _ = res.witness
        raise PreconditionError(f"Jacobi identity fails at triple ({i},{j},{k})")


def center(g: LieAlgebra) -> Subspace:
    """Exact kernel of the stacked adjoint maps ad(X_1), ..., ad(X_n).

    Row m of ad(X_a) holds s * c_ab^m in column b for each signed entry
    (s, terms) = rows[a][b] of `pair_table(g.c)`: only stored constants are
    read, and only the nonzero rows are built, in the order a, then m, as
    the sparse rows that `kernel_subspace` eliminates.
    """
    require_jacobi(g)
    rows = []
    for a, row in sorted(pair_table(g.c).items()):
        ad = {}
        for b, (s, terms) in row.items():
            for m, v in terms.items():
                ad.setdefault(m, {})[b - 1] = v if s > 0 else -v
        rows.extend(ad[m] for m in sorted(ad))
    return kernel_subspace(g, rows)


class LowerCentralSeries(NamedTuple):
    terms: tuple  # (C^1, C^2, ...) down to stabilization or zero
    nilindex: Optional[int]  # smallest k with C^k = 0, None when not nilpotent


def lower_central_series(g: LieAlgebra) -> LowerCentralSeries:
    """C^1 = [g,g], C^{k+1} = [g, C^k]; detects non-nilpotency by stabilization.

    [g, V] is the span of the brackets [X_i, v] of the basis vectors X_i,
    the rows of the identity, with the rows v of V.
    """
    require_jacobi(g)
    basis = identity(g.dim)

    def bracket_with(space):
        return Subspace(g, [g.bracket(x, v) for v in space.rows for x in basis])

    terms = [bracket_with(Subspace(g, basis))]
    while terms[-1].dim:
        nxt = bracket_with(terms[-1])
        if nxt == terms[-1]:
            return LowerCentralSeries(tuple(terms), None)
        terms.append(nxt)
    return LowerCentralSeries(tuple(terms), len(terms))


def diagonal_derivations(g: LieAlgebra) -> list:
    """Basis of diagonal tuples rho with diag(rho) a derivation of g.

    diag(rho) is a derivation iff (rho_i + rho_j - rho_k) c_ijk = 0 for every
    stored constant, a linear system over the rho coordinates.
    """
    n = g.dim
    rows = []
    for (i, j), terms in g.c.items():
        for k in terms:
            row = {}
            for col, s in ((i, 1), (j, 1), (k, -1)):
                exterior.accumulate(row, col - 1, ONE, s)
            rows.append(row)
    return nullspace(rows, n)


def heisenberg_table(p: int):
    """The bracket table of h_{2p+1}: [X_{2k-1}, X_{2k}] = X_{2p+1}."""
    if p < 1:
        raise PreconditionError("p must be >= 1")
    n = 2 * p + 1
    return bracket_table(n, {(2 * k - 1, 2 * k): {n: ONE} for k in range(1, p + 1)})


def bracket_compatible_endomorphisms(p: int) -> list:
    """Endomorphisms f of span{X_1..X_2p} inside the Heisenberg algebra
    with mu(f(X_i), X_j) = -mu(X_i, f(X_j)) for all i < j.

    Returns a nullspace basis of (2p)x(2p) matrices (row-major tuples).
    Every solution is traceless; the solution space closes under the
    matrix commutator.
    """
    h = heisenberg_table(p)
    m = 2 * p
    # pairing J from the Heisenberg bracket: mu(X_a, X_b) = J[a][b] * X_{2p+1}
    j = [[table_entry(h, a, b).get(m + 1, ZERO) for b in range(1, m + 1)] for a in range(1, m + 1)]

    def unknown(r, c):
        return r * m + c

    rows = []
    for a in range(m):
        for b in range(a + 1, m):
            # sum_s f[s][a] J[s][b] + J[a][s] f[s][b] = 0
            row = {}
            for s in range(m):
                if j[s][b]:
                    exterior.accumulate(row, unknown(s, a), j[s][b])
                if j[a][s]:
                    exterior.accumulate(row, unknown(s, b), j[a][s])
            if row:
                rows.append(row)
    basis = nullspace(rows, m * m)
    return [
        tuple(tuple(vec[r * m + c] for c in range(m)) for r in range(m))
        for vec in basis
    ]


def bracket_compatible_dimension(p: int) -> int:
    """Dimension of the compatible-endomorphism space; asserts tracelessness."""
    basis = bracket_compatible_endomorphisms(p)
    for mat in basis:
        tr = sum((mat[i][i] for i in range(len(mat))), ZERO)
        if tr != ZERO:
            raise AssertionError("compatible endomorphism with nonzero trace")
    return len(basis)
