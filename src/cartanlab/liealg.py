"""Lie algebras given by exact structure constants.

A skew bilinear table has one format across the package: a read-only
{(i, j): {k: coeff}} with 1-based indices, i < j only (the other half is
implied by skew symmetry) and zero coefficients dropped.  `bracket_table`
builds it, `apply_table` evaluates it on coordinates, `table_entry` reads
one entry of it (or of a table with more slots, skew in its first two)
and `coordinates` turns such a sparse {k: coeff} into a coordinate tuple;
the bracket `c` of a LieAlgebra and the cochains of `deformation` are all
such tables, and no other module reads them by hand.  A vector of the
space is its coordinate tuple of length dim (X_i is row i of
`linalg.identity`), which `LieAlgebra.bracket` takes and returns, a
`Subspace` spans and holds as its rows, and `check_length` checks; a
linear map is a plain n x n matrix, column j = image of X_j, as
`adjoint_rows` returns ad(X_index).  There is no wrapper type for either.
A LieAlgebra is immutable: `c` is a bracket table, and `dim` and `basis`
cannot be reassigned, so a verdict computed from the table stays true for
the instance's whole life.  Every instance, a contraction limit included,
comes through the checked constructor; there is no unchecked one.  The Jacobi identity is deliberately *not* an
invariant of the type: deformation intermediates are allowed to violate
it, and `structure.jacobi_check` is the gatekeeper.  Two write-once slots
hold what is computed from the table: `_jacobi`, the verdict of
`structure.jacobi_check`, and `_limits`, the checked limits that
`contraction.contract` built from it, keyed by the kept-set bitmask (bit
m for the m-th constant of `c` in table order).
"""

from __future__ import annotations

from types import MappingProxyType

from . import exterior
from .linalg import invert, kernel_rref, mat_vec, rref, sparse_rows, square_matrix, transpose
from .scalars import ZERO, Scalar, check_int


def bracket_table(dim, brackets):
    """Checked, read-only copy of {(i, j): {k: coeff}} on a dim-dimensional
    space: 1 <= i < j <= dim and 1 <= k <= dim, coefficients coerced to
    Scalar, zero coefficients and then empty pairs dropped."""
    table = {}
    for (i, j), terms in brackets.items():
        if not (1 <= i < j <= dim):
            raise ValueError(f"bad bracket pair ({i},{j}) for dim {dim}")
        clean = {}
        for k, v in terms.items():
            if not (1 <= k <= dim):
                raise ValueError(f"bad bracket target {k} for dim {dim}")
            v = Scalar.of(v)
            if v:
                clean[k] = v
        if clean:
            table[(i, j)] = MappingProxyType(clean)
    return MappingProxyType(table)


def apply_table(table, x, y) -> dict:
    """{k: coeff} of the bilinear extension of a bracket table to the
    coordinate sequences x and y, merged by `exterior.add_scaled`.

    Products with a zero factor are skipped: the callers mostly pass
    basis vectors, where at most one of the two products survives.
    """
    acc = {}
    for (i, j), terms in table.items():
        xi, yj, xj, yi = x[i - 1], y[j - 1], x[j - 1], y[i - 1]
        if xi and yj:
            w = xi * yj - xj * yi if xj and yi else xi * yj
        elif xj and yi:
            w = -(xj * yi)
        else:
            continue
        if w:
            exterior.add_scaled(acc, terms, w)
    return acc


def table_entry(table, i, j, *rest) -> dict:
    """{k: coeff} at (i, j, *rest) of a table skew in its first two slots
    and stored for i < j only: the stored value, its negation for j < i,
    and {} for i == j or an absent entry."""
    if i < j:
        return table.get((i, j, *rest), {})
    if i > j:
        return {k: -v for k, v in table.get((j, i, *rest), {}).items()}
    return {}


def coordinates(n, terms) -> tuple:
    """Coordinate tuple of the sparse vector {k: coeff} in dimension n."""
    return tuple(terms.get(k, ZERO) for k in range(1, n + 1))


def check_length(v, n, error=ValueError):
    """v itself when it has n coordinates, as a vector of an n-dimensional
    algebra does; error otherwise."""
    if len(v) != n:
        raise error(f"a vector of a {n}-dimensional algebra has {n} coordinates, not {len(v)}")
    return v


class LieAlgebra:
    """dim, basis labels and the sparse skew bracket table, all read-only."""

    __slots__ = ("dim", "basis", "c", "_jacobi", "_limits")

    def __init__(self, dim, brackets, basis=None):
        """brackets: {(i, j): {k: coeff}} with 1 <= i < j <= dim."""
        dim = check_int(dim, 1, "dimension")
        if basis is None:
            basis = tuple(f"X{i}" for i in range(1, dim + 1))
        basis = tuple(str(b) for b in basis)
        if len(basis) != dim:
            raise ValueError("basis label count does not match dimension")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "c", bracket_table(dim, brackets))

    def __setattr__(self, name, value):
        # the write-once slots: `_jacobi` for structure.jacobi_check and
        # `_limits` for contraction.contract
        if name in ("_jacobi", "_limits") and not hasattr(self, name):
            object.__setattr__(self, name, value)
        else:
            raise AttributeError("LieAlgebra is immutable")

    def __delattr__(self, name):
        raise AttributeError("LieAlgebra is immutable")

    # -- raw access ------------------------------------------------------

    def pair(self, i, j):
        """{k: coeff} for [X_i, X_j], handling order and i == j."""
        return table_entry(self.c, i, j)

    def constant(self, i, j, k):
        return self.pair(i, j).get(k, ZERO)

    def bracket(self, x, y) -> tuple:
        """Coordinate tuple of [x, y] for the coordinate sequences x and y."""
        n = self.dim
        return coordinates(n, apply_table(self.c, check_length(x, n), check_length(y, n)))

    def adjoint_rows(self, index):
        """Matrix of ad(X_index), column j = coordinates of [X_index, X_j]."""
        n = self.dim
        return transpose([coordinates(n, self.pair(index, j)) for j in range(1, n + 1)])

    # -- structural equality ----------------------------------------------

    def constants(self):
        """The table flattened to {(i, j, k): coeff}, i < j."""
        return {(i, j, k): v for (i, j), terms in self.c.items() for k, v in terms.items()}

    def same_constants(self, other: "LieAlgebra") -> bool:
        return self.dim == other.dim and self.c == other.c

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim}, brackets={len(self.c)})"


class Subspace:
    """Subspace of a LieAlgebra in canonical reduced-echelon form.

    The stored basis rows are the rref of whatever spanning set was given,
    so equality of subspaces is plain tuple equality of the bases.
    `kernel_subspace` keeps that invariant: it stores `linalg.kernel_rref`,
    which is already the canonical rref, without eliminating again.
    """

    __slots__ = ("algebra", "rows")

    def __init__(self, algebra, vectors=()):
        """The span of the coordinate sequences in vectors."""
        n = algebra.dim
        reduced, _ = rref(sparse_rows(vectors, n), n)
        self.algebra = algebra
        self.rows = tuple(tuple(row.get(c, ZERO) for c in range(n)) for row in reduced)

    @property
    def dim(self):
        return len(self.rows)

    def contains(self, v) -> bool:
        """The coordinate sequence v is in the span iff reducing it by the
        rref rows leaves nothing."""
        rest = check_length(v, self.algebra.dim)
        for row in self.rows:
            f = rest[next(p for p, x in enumerate(row) if x)]
            if f:
                rest = [x - f * y for x, y in zip(rest, row)]
        return not any(rest)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.algebra is other.algebra
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"Subspace(dim={self.dim})"


def kernel_subspace(algebra, rows) -> Subspace:
    """Kernel of sparse constraint rows {column: Scalar}, column c for
    coordinate c + 1 and zeros left out, in one elimination."""
    space = Subspace.__new__(Subspace)
    space.algebra, space.rows = algebra, kernel_rref(rows, algebra.dim)
    return space


def change_basis(g: LieAlgebra, p_rows) -> LieAlgebra:
    """Structure constants of g in the basis Y_j = sum_i P[i][j] X_i."""
    n = g.dim
    p = square_matrix(p_rows, n, "change of basis matrix")
    pinv = invert(p)
    ys = transpose(p)
    new_brackets = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            coords = mat_vec(pinv, g.bracket(ys[i - 1], ys[j - 1]))
            terms = {k + 1: coords[k] for k in range(n) if coords[k]}
            if terms:
                new_brackets[(i, j)] = terms
    return LieAlgebra(n, new_brackets, basis=g.basis)
