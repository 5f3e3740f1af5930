"""Cochain calculus for deformations of a 2-step nilpotent bracket.

Implements the circle product

    phi o psi (X,Y,Z) = phi(psi(X,Y),Z) + phi(psi(Y,Z),X) + phi(psi(Z,X),Y),

the single-term bullet product psi1(psi2(X,Y),Z), the adjoint-valued
coboundaries, and the four compatibility equations of a quadratic
deformation mu_0 + phi_1 + phi_2.  A bracket written in a classical
contact basis is split into these three pieces by one function,
`deformation_from_classical_basis`, which the catalog uses too.

The coboundary of a 2-cochain is a sum of two circle products with the
bracket mu,

    d phi = phi o mu + mu o phi,

so circle products, coboundaries and the Jacobi defects of
`structure.jacobi_defects` (mu o mu) all run on the one sparse cyclic-sum
kernel `structure.cyclic_sums`: phi o psi reads phi through the signed
rows of `structure.pair_table` and psi as stored.  The left compositions
and `coboundary_of_map` read the same signed rows, and every sum here
merges through `exterior.accumulate`, so no result holds a zero.

Every cochain is its sparse table; there is no wrapper type.  A
2-cochain is a `liealg.bracket_table` {(i, j): {k: coeff}}, the format of
`LieAlgebra.c`, and a 3-cochain is the {(i, j, k): {m: coeff}} of
`structure.cyclic_sums`, stored on i < j < k.  The left compositions
`bullet_product` and `bullet_power` return the same format with only the
first two slots ordered.  A table does not carry its dimension, so the
functions that need it take the base algebra.  An endomorphism f is its
n x n matrix, column j = f(X_j), as `LieAlgebra.adjoint_rows` returns it.
Only `QuadraticCheck.failures` holds dense coordinate tuples, through
`liealg.coordinates`.

Coboundary signs are pinned so that on the Heisenberg algebra a diagonal
endomorphism f (acting through phi_2(X_l, X_{2p+1}) = f(X_l)) satisfies

    d phi_2 (X_{2k-1}, X_{2k}, X_l) = -f(X_l),

which together with d o d = 0 fixes every other sign.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from typing import NamedTuple

from . import exterior
from .forms import DualForm, ce_differential, skew_reduce
from .liealg import LieAlgebra, bracket_table, coordinates
from .linalg import solve, square_matrix, transpose
from .scalars import ONE, ZERO
from .structure import (
    PreconditionError,
    cyclic_sums,
    heisenberg_table,
    pair_table,
    require_jacobi,
)


def _table_sum(a, b, s=1):
    """a + s * b on sparse {(i, j): {k: coeff}} tables, s = 1 or -1:
    `exterior.add` merges each pair, and `bracket_table` drops the pairs
    that cancel."""
    out = dict(a)
    for key, terms in b.items():
        out[key] = exterior.add(out.get(key, {}), terms, s)
    return out


def circle_product(phi, psi) -> dict:
    """Cyclic composition phi o psi of two 2-cochains, as a 3-cochain;
    mu o mu = 0 is exactly the Jacobi identity."""
    return cyclic_sums([(pair_table(phi), psi)])


# the signed entry of a pair-table row for a pair whose bracket vanishes
_ABSENT = (1, {})


def _left_compose(outer, table):
    """{key + (c,): {m: coeff}} of outer(table[key], X_c), for the signed
    rows `outer` of a `structure.pair_table`; zero sums dropped."""
    out = {}
    for key, terms in table.items():
        for l, u in terms.items():
            for c, (s, values) in outer.get(l, {}).items():
                exterior.add_scaled(out.setdefault(key + (c,), {}), values, u, s)
    return {key: acc for key, acc in out.items() if acc}


def bullet_product(psi1, psi2) -> dict:
    """psi1(psi2(X_i, X_j), X_k) as {(i, j, k): {m: coeff}} for i < j,
    the format of `bullet_power`; empty when the product vanishes."""
    return _left_compose(pair_table(psi1), psi2)


def bullet_power(mu, k: int) -> dict:
    """Left-iterated table mu(mu(...mu(X,Y)...), Z): arity k+1 entries.

    Returns {index tuple: {m: coeff}}; the first two indices satisfy i < j,
    the remaining slots run over the whole basis.  Empty dict means the
    iterate vanishes, i.e. the bracket is at most k-step nilpotent.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    outer = pair_table(mu)
    table = dict(mu)
    for _ in range(k - 1):
        table = _left_compose(outer, table)
        if not table:
            break
    return table


def coboundary_of_map(f, g: LieAlgebra):
    """(df)(X,Y) = f([X,Y]) - [f(X),Y] - [X,f(Y)] for the n x n matrix f of
    an endomorphism of g's space, column j = f(X_j)."""
    n = g.dim
    f = square_matrix(f, n, "the matrix of an endomorphism")
    mu = pair_table(g.c)
    # column j of f, f(X_j), as a sparse vector
    cols = [{m + 1: x for m, x in enumerate(col) if x} for col in transpose(f)]
    values = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            acc = {}
            for l, u in g.c.get((i, j), {}).items():  # f([X_i, X_j])
                exterior.add_scaled(acc, cols[l - 1], u)
            for a, u in cols[i - 1].items():  # -[f(X_i), X_j]
                s, terms = mu.get(a, {}).get(j, _ABSENT)
                exterior.add_scaled(acc, terms, u, -s)
            for b, u in cols[j - 1].items():  # -[X_i, f(X_j)]
                s, terms = mu.get(i, {}).get(b, _ABSENT)
                exterior.add_scaled(acc, terms, u, -s)
            values[(i, j)] = acc
    return bracket_table(n, values)


def coboundary_of_bilinear(phi, g: LieAlgebra) -> dict:
    """(d phi)(X,Y,Z) = sum_cyc phi([X,Y],Z) - sum_cyc [X, phi(Y,Z)],
    computed as phi o mu + mu o phi."""
    return cyclic_sums([(pair_table(phi), g.c), (pair_table(g.c), phi)])


class DeformationSpec(namedtuple("DeformationSpec", "base phi1 phi2")):
    """mu_0 + phi_1 + phi_2 over the bracket of `base`; the cochains are
    stored as `bracket_table`s on base's space, so an index out of its
    range raises ValueError."""

    __slots__ = ()

    def __new__(cls, base: LieAlgebra, phi1: Mapping, phi2: Mapping):
        return super().__new__(cls, base, bracket_table(base.dim, phi1), bracket_table(base.dim, phi2))


class QuadraticCheck(NamedTuple):
    ok: bool
    failures: tuple  # ((equation number, witness triple, defect comps), ...)

    def failing_equations(self):
        return tuple(sorted({eq for eq, _, _ in self.failures}))


def check_quadratic_deformation(spec: DeformationSpec) -> QuadraticCheck:
    """The four compatibility equations of mu_0 + phi_1 + phi_2:

      1. d phi_1 = 0
      2. phi_1 o phi_1 + d phi_2 = 0
      3. phi_1 o phi_2 + phi_2 o phi_1 = 0
      4. phi_2 o phi_2 = 0

    All four hold iff mu_0 + phi_1 + phi_2 satisfies Jacobi with the graded
    pieces vanishing separately.
    """
    base = spec.base
    require_jacobi(base)
    if bullet_power(base.c, 2):
        raise PreconditionError("base bracket must be (at most) 2-step nilpotent")
    # phi o psi is the product (rows of phi, table of psi) of `cyclic_sums`
    mu, p1, p2 = base.c, spec.phi1, spec.phi2
    r0, r1, r2 = pair_table(mu), pair_table(p1), pair_table(p2)
    failures = []
    for eq, products in (
        (1, [(r1, mu), (r0, p1)]),
        (2, [(r1, p1), (r2, mu), (r0, p2)]),
        (3, [(r1, p2), (r2, p1)]),
        (4, [(r2, p2)]),
    ):
        table = cyclic_sums(products)
        if table:
            key = next(iter(table))  # the least triple: the sums come sorted
            failures.append((eq, key, coordinates(base.dim, table[key])))
    return QuadraticCheck(not failures, tuple(failures))


def assemble(spec: DeformationSpec) -> LieAlgebra:
    """The deformed bracket mu_0 + phi_1 + phi_2 (parameter specialized to 1:
    all nonzero parameter values give isomorphic brackets)."""
    base = spec.base
    total = _table_sum(_table_sum(base.c, spec.phi1), spec.phi2)
    return LieAlgebra(base.dim, total, basis=base.basis)


def bilinear_from_endomorphism(base: LieAlgebra, f_rows):
    """phi_2 with phi_2(X_l, X_n) = f(X_l) for l < n and zero on the rest.

    f_rows is a (n-1)x(n-1) matrix acting on span{X_1..X_{n-1}} whose image
    must stay inside that span (the quadratic normal form for a deformation
    of the Heisenberg algebra).
    """
    n = base.dim
    m = n - 1
    f_rows = square_matrix(f_rows, m, "an endomorphism of the non-central subspace")
    values = {(l, n): {t + 1: f_rows[t][l - 1] for t in range(m)} for l in range(1, m + 1)}
    return bracket_table(n, values)


def endomorphism_of(base: LieAlgebra, phi2) -> tuple:
    """Inverse of `bilinear_from_endomorphism`: f read off phi_2(X_l, X_n).
    Raises ValueError unless `bilinear_from_endomorphism` rebuilds phi_2
    from that f, i.e. unless phi_2 vanishes off the pairs (X_l, X_n) and
    keeps their values inside span{X_1..X_{n-1}}."""
    n = base.dim
    f = transpose([coordinates(n, phi2.get((l, n), {}))[:-1] for l in range(1, n)])
    if bilinear_from_endomorphism(base, f) != phi2:
        raise ValueError("phi_2 is not of the endomorphism form phi_2(X_l, X_n) = f(X_l)")
    return f


def normalize_linear_deformation(base: LieAlgebra, phi1):
    """Subtract a coboundary so the cocycle vanishes on (X_i, X_n) pairs.

    For a 2-cocycle of the Heisenberg algebra the values phi1(X_i, X_n) =
    lam_i X_n are forced into the center.  With f zero but for f(X_n),
    (df)(X_i, X_n) = -[X_i, f(X_n)], so f(X_n) solves the linear system
    [X_i, f(X_n)] = -lam_i X_n, whose matrix is the pairing
    base.constant(i, t, n).  Returns (phi1', f) with phi1' = phi1 - df and
    f the n x n matrix of the endomorphism, and raises PreconditionError
    unless phi1' vanishes on every (X_i, X_n).
    """
    n = base.dim
    if n % 2 == 0:
        raise PreconditionError("normalization expects odd dimension")
    phi1 = bracket_table(n, phi1)
    rhs = []  # -lam_i
    for i in range(1, n):
        terms = phi1.get((i, n), {})
        if any(t != n for t in terms):
            raise PreconditionError(
                "phi1(X_i, X_n) has a non-central component; not a cocycle shape"
            )
        rhs.append(-terms.get(n, ZERO))
    if not any(rhs):
        return phi1, ((ZERO,) * n,) * n
    pairing = [[base.constant(i, t, n) for t in range(1, n + 1)] for i in range(1, n)]
    image = solve(pairing, rhs)
    if image is None:
        raise PreconditionError("no coboundary normalizes phi1: the pairing system is inconsistent")
    f = tuple(tuple(x if c == n - 1 else ZERO for c in range(n)) for x in image)
    adjusted = bracket_table(n, _table_sum(phi1, coboundary_of_map(f, base), -1))
    if any((i, n) in adjusted for i in range(1, n)):
        raise PreconditionError("phi1 - df does not vanish on every (X_i, X_n): not normalized")
    return adjusted, f


def deformation_from_classical_basis(g: LieAlgebra) -> DeformationSpec:
    """Split a bracket written in a classical contact basis into
    mu_0 + phi_1 + phi_2 over the Heisenberg algebra of the same dimension:
    phi_1 keeps the non-central part of the brackets among X_1..X_2p, and
    phi_2 the brackets with X_{2p+1}.  This is the one split of the
    package; the catalog's dim-3 and dim-5 entries are built with it.

    Requires: odd dimension 2p+1; every [X_{2k-1}, X_{2k}] carries X_{2p+1}
    with coefficient exactly 1; no other bracket among the first 2p vectors
    hits X_{2p+1}; brackets with X_{2p+1} stay inside span{X_1..X_2p}.  The
    split checks itself: mu_0 + phi_1 + phi_2 must reassemble g exactly.
    """
    n = g.dim
    if n % 2 == 0 or n < 3:
        raise PreconditionError("classical contact basis needs odd dimension >= 3")
    pairs = heisenberg_table((n - 1) // 2)
    for i, j in pairs:
        if g.constant(i, j, n) != ONE:
            raise PreconditionError(
                f"bracket ({i},{j}) must carry the center with coefficient 1"
            )
    base = LieAlgebra(n, pairs)
    phi1_vals = {}
    phi2_vals = {}
    for (i, j), terms in g.c.items():
        central = terms.get(n, ZERO)
        if j < n:
            if central and (i, j) not in pairs:
                raise PreconditionError(
                    f"bracket ({i},{j}) has a stray central component"
                )
            phi1_vals[(i, j)] = {k: v for k, v in terms.items() if k != n}
        else:
            if central:
                raise PreconditionError("brackets with the center must stay horizontal")
            phi2_vals[(i, j)] = terms
    spec = DeformationSpec(base, phi1_vals, phi2_vals)
    if assemble(spec).c != g.c:
        raise PreconditionError("the split does not reassemble the bracket table")
    return spec


class NotCocycleError(ValueError):
    pass


class DegenerateFormError(ValueError):
    pass


def central_extension(k: LieAlgebra, theta: DualForm) -> LieAlgebra:
    """Extend k by a 1-dimensional center with bracket twisted by theta.

    Preconditions: theta is a closed 2-form on k (a 2-cocycle) and
    nondegenerate (a symplectic form: `forms.skew_reduce` finds rank
    dim(k)), so the dual of the new central generator has Cartan class
    dim(k) + 1.
    """
    if theta.algebra is not k or theta.grade != 2:
        raise ValueError("theta must be a 2-form on the base algebra")
    if k.dim % 2 != 0:
        raise PreconditionError("central extensions here take an even-dimensional base")
    if not ce_differential(theta).is_zero:
        raise NotCocycleError("not a 2-cocycle")
    if 2 * skew_reduce(theta)[0] != k.dim:
        raise DegenerateFormError("not symplectic")
    n = k.dim + 1
    central = {key: {n: v} for key, v in theta.coeffs.items()}
    return LieAlgebra(n, _table_sum(k.c, central), basis=tuple(k.basis) + ("Z",))


def central_quotient(g: LieAlgebra):
    """Quotient by the central line spanned by the last basis vector.

    Returns (k, theta): the quotient bracket on the first n-1 coordinates
    and the induced 2-form theta(X_i, X_j) = (last coordinate of [X_i, X_j]).
    """
    n = g.dim
    if n < 2:
        raise PreconditionError("a central quotient needs dimension >= 2")
    # the table stores nonzero brackets only, so (i, n) is a key iff
    # [X_i, X_n] != 0
    if any((i, n) in g.c for i in range(1, n)):
        raise PreconditionError("last basis vector is not central")
    brackets = {}
    theta_terms = {}
    for (i, j), terms in g.c.items():
        reduced = {t: v for t, v in terms.items() if t < n}
        if reduced:
            brackets[(i, j)] = reduced
        if n in terms:
            theta_terms[(i, j)] = terms[n]
    k = LieAlgebra(n - 1, brackets, basis=g.basis[: n - 1])
    theta = DualForm(k, 2, theta_terms)
    return k, theta
