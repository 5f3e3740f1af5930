"""Structural analysis of structure-constant Lie algebras.

Jacobi verification (with explicit witnesses) on the sparse cyclic-sum
kernel that also serves deformation's circle products and coboundaries,
center, lower central series, derivations, the one table of the
Heisenberg algebra h_{2p+1}, and the space of endomorphisms compatible
with its bracket pairing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .liealg import LieAlgebra, Subspace, Vector, bracket_table, kernel_subspace, table_entry
from .linalg import nullspace
from .scalars import ONE, ZERO


class PreconditionError(ValueError):
    """An operation was called outside its stated domain."""


@dataclass(frozen=True)
class JacobiResult:
    ok: bool
    witness: Optional[tuple] = None  # (i, j, k, defect Vector)

    def __bool__(self):
        return self.ok


def pair_table(table) -> dict:
    """Skew-completed rows {i: {j: {m: v}}} of a bracket table
    {(i, j): {m: v}}, i < j: row j holds the negated (i, j) value."""
    rows = {}
    for (i, j), terms in table.items():
        if terms:
            rows.setdefault(i, {})[j] = terms
            rows.setdefault(j, {})[i] = {m: -v for m, v in terms.items()}
    return rows


def cyclic_sums(products) -> dict:
    """Sum over the (outer, inner) pair tables in products of

        outer(inner(X_i,X_j),X_k) + outer(inner(X_j,X_k),X_i) + outer(inner(X_k,X_i),X_j),

    as {(i, j, k): {m: coeff}} for the nonzero sums, i < j < k, in
    lexicographic order.  Only nonzero products are visited: each stored
    inner pair a < b, each l in inner(a, b) and each nonzero outer(l, c) add
    a term to the sorted triple {a, b, c}, negated when (a, b, c) is an odd
    permutation of it.
    """
    sums = {}
    for outer, inner in products:
        for a, row in inner.items():
            for b, terms in row.items():
                if b < a:
                    continue
                for l, u in terms.items():
                    for c, out in outer.get(l, {}).items():
                        if c > b:
                            key, w = (a, b, c), u
                        elif c < a:
                            key, w = (c, a, b), u
                        elif c != a and c != b:
                            key, w = (a, c, b), -u
                        else:
                            continue
                        acc = sums.setdefault(key, {})
                        for m, v in out.items():
                            acc[m] = acc.get(m, ZERO) + w * v
    return {key: sums[key] for key in sorted(sums) if any(sums[key].values())}


def jacobi_defects(g: LieAlgebra, first: int = 1):
    """Yield (i, j, k, defect Vector) for every triple first <= i < j < k
    whose cyclic sum [[X_i,X_j],X_k] + [[X_j,X_k],X_i] + [[X_k,X_i],X_j]
    is nonzero, in lexicographic order.

    This is `cyclic_sums` with the structure constants as both tables, so
    every sum is computed before the first triple is yielded.
    """
    table = pair_table(g.c)
    for (i, j, k), acc in cyclic_sums([(table, table)]).items():
        if i >= first:
            yield i, j, k, Vector.from_sparse(g, acc)


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
    """Exact kernel of the stacked adjoint maps ad(X_1), ..., ad(X_n)."""
    require_jacobi(g)
    rows = [row for j in range(1, g.dim + 1) for row in g.adjoint_rows(j) if any(row)]
    return kernel_subspace(g, rows)


def _bracket_with_space(g: LieAlgebra, space: Subspace) -> Subspace:
    gens = []
    for v in space.vectors():
        for i in range(1, g.dim + 1):
            w = g.bracket(g.basis_vector(i), v)
            if not w.is_zero:
                gens.append(w)
    return Subspace(g, gens)


@dataclass(frozen=True)
class LowerCentralSeries:
    terms: tuple  # (C^1, C^2, ...) down to stabilization or zero
    nilindex: Optional[int]  # smallest k with C^k = 0, None when not nilpotent

    @property
    def nilpotent(self):
        return self.nilindex is not None

    def filiform(self, g: LieAlgebra) -> bool:
        return self.nilindex == g.dim - 1


def lower_central_series(g: LieAlgebra) -> LowerCentralSeries:
    """C^1 = [g,g], C^{k+1} = [g, C^k]; detects non-nilpotency by stabilization."""
    require_jacobi(g)
    whole = Subspace(g, [g.basis_vector(i) for i in range(1, g.dim + 1)])
    terms = []
    current = _bracket_with_space(g, whole)
    k = 1
    while True:
        terms.append(current)
        if current.dim == 0:
            return LowerCentralSeries(tuple(terms), k)
        nxt = _bracket_with_space(g, current)
        if nxt == current:
            return LowerCentralSeries(tuple(terms), None)
        current = nxt
        k += 1


def diagonal_derivations(g: LieAlgebra) -> list:
    """Basis of diagonal tuples rho with diag(rho) a derivation of g.

    diag(rho) is a derivation iff (rho_i + rho_j - rho_k) c_ijk = 0 for every
    stored constant, a linear system over the rho coordinates.
    """
    n = g.dim
    rows = []
    for (i, j), terms in g.c.items():
        for k, v in terms.items():
            if v:
                row = [ZERO] * n
                row[i - 1] = row[i - 1] + ONE
                row[j - 1] = row[j - 1] + ONE
                row[k - 1] = row[k - 1] - ONE
                rows.append(tuple(row))
    return nullspace(rows, ncols=n)


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
            row = [ZERO] * (m * m)
            for s in range(m):
                if j[s][b]:
                    row[unknown(s, a)] = row[unknown(s, a)] + j[s][b]
                if j[a][s]:
                    row[unknown(s, b)] = row[unknown(s, b)] + j[a][s]
            if any(row):
                rows.append(tuple(row))
    basis = nullspace(rows, ncols=m * m)
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
