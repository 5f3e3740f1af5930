"""Structural analysis of structure-constant Lie algebras.

Jacobi verification (with explicit witnesses), center, lower central
series, derivations, and the space of endomorphisms compatible with the
Heisenberg bracket pairing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .liealg import LieAlgebra, LinearMap, Subspace, kernel_subspace
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


def jacobi_defects(g: LieAlgebra, first: int = 1):
    """Yield (i, j, k, defect Vector) for every triple first <= i < j < k
    whose cyclic sum [[X_i,X_j],X_k] + [[X_j,X_k],X_i] + [[X_k,X_i],X_j]
    is nonzero, in lexicographic order."""
    n = g.dim
    for i in range(first, n + 1):
        xi = g.basis_vector(i)
        for j in range(i + 1, n + 1):
            xj = g.basis_vector(j)
            bij = g.bracket_basis(i, j)
            for k in range(j + 1, n + 1):
                xk = g.basis_vector(k)
                defect = (
                    g.bracket(bij, xk)
                    + g.bracket(g.bracket_basis(j, k), xi)
                    + g.bracket(g.bracket_basis(k, i), xj)
                )
                if not defect.is_zero:
                    yield i, j, k, defect


def jacobi_check(g: LieAlgebra) -> JacobiResult:
    """Cyclic sum on all triples; the witness is the first failing one."""
    witness = next(jacobi_defects(g), None)
    return JacobiResult(witness is None, witness)


def require_jacobi(g: LieAlgebra):
    res = jacobi_check(g)
    if not res.ok:
        i, j, k, _ = res.witness
        raise PreconditionError(f"Jacobi identity fails at triple ({i},{j},{k})")


def center(g: LieAlgebra) -> Subspace:
    """Exact kernel of the stacked adjoint maps."""
    require_jacobi(g)
    n = g.dim
    rows = []
    for j in range(1, n + 1):
        # row block: [x, X_j] = 0, one scalar row per output coordinate
        for k in range(1, n + 1):
            row = tuple(g.constant(i, j, k) for i in range(1, n + 1))
            if any(row):
                rows.append(row)
    if not rows:
        return Subspace(g, [g.basis_vector(i) for i in range(1, n + 1)])
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


def is_derivation(f: LinearMap, g: LieAlgebra) -> bool:
    """f([X,Y]) = [f(X),Y] + [X,f(Y)] on all basis pairs."""
    if f.algebra is not g:
        raise ValueError("map is not an endomorphism of this algebra")
    n = g.dim
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            lhs = f.apply(g.bracket_basis(i, j))
            rhs = g.bracket(f.apply_basis(i), g.basis_vector(j)) + g.bracket(
                g.basis_vector(i), f.apply_basis(j)
            )
            if lhs != rhs:
                return False
    return True


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


def bracket_compatible_endomorphisms(p: int) -> list:
    """Endomorphisms f of span{X_1..X_2p} inside the Heisenberg algebra
    with mu(f(X_i), X_j) = -mu(X_i, f(X_j)) for all i < j.

    Returns a nullspace basis of (2p)x(2p) matrices (row-major tuples).
    Every solution is traceless; the solution space closes under the
    matrix commutator.
    """
    if p < 1:
        raise PreconditionError("p must be >= 1")
    m = 2 * p
    # pairing J from the Heisenberg bracket: mu(X_a, X_b) = J[a][b] * Z
    j = [[ZERO] * m for _ in range(m)]
    for k in range(p):
        j[2 * k][2 * k + 1] = ONE
        j[2 * k + 1][2 * k] = -ONE

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
