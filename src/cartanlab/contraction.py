"""Contractions of Lie algebras by diagonal one-parameter rescalings.

With f_t(X_i) = t^{e_i} X_i the conjugated bracket has Laurent-monomial
structure constants t^{e_i + e_j - e_k} c_ijk; the contraction exists iff
no nonzero constant carries a negative exponent, and the limit keeps the
exponent-zero terms.  Divergence is data (a witness triple), not a crash:
exponent grids are meant to be scanned.

The limit is a `LieAlgebra` built from the kept constants like any other,
its table checked and copied.  Its Jacobi check is an oracle against a
corrupt input table.  Construction and check run once per limit: the
limit is a function of the input's immutable table and of the kept
constants, so the input keeps each limit it built in its write-once
`_limits` dict, keyed by the kept-set bitmask (bit m set when the m-th
constant c_ij^k in table order is kept, one int that the divergence scan
builds), and a later call that keeps the same constants returns the same
checked instance.  A scan over an exponent grid reaches few distinct
limits (8 for the 543 converging points of the p = 3 grid), and a
diverging call is never kept.

The diagonal frobenius model that such limits reach is written once, as
`frobenius_table(p, a)`; the catalog builds its model family from it.  Its
two recognizers read the parameters off a table, rebuild the model's
constants as plain dicts (`_frobenius_brackets`, which `frobenius_table`
checks and wraps) and compare: `frobenius_model_parameters` against the
whole table, `is_reduced_frobenius_shape` against all of it but the action
of X_2.
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple, Optional

from .liealg import LieAlgebra, bracket_table
from .scalars import ONE, ZERO
from .structure import jacobi_check, require_jacobi


class ContractionSpec(namedtuple("ContractionSpec", "algebra exponents")):
    __slots__ = ()

    def __new__(cls, algebra: LieAlgebra, exponents: tuple):
        if len(exponents) != algebra.dim:
            raise ValueError("exponent count does not match dimension")
        for e in exponents:
            # a bool is an int to isinstance, but True is no exponent
            if type(e) is not int and (isinstance(e, bool) or not isinstance(e, int)):
                raise ValueError("exponents must be integers")
        return super().__new__(cls, algebra, exponents)


class ContractionResult(NamedTuple):
    converges: bool
    limit: Optional[LieAlgebra]
    witness: Optional[tuple]  # (i, j, k, negative exponent)


def contract(spec: ContractionSpec) -> ContractionResult:
    """Limit of f_t^{-1} mu (f_t x f_t) for the diagonal rescaling."""
    g = spec.algebra
    require_jacobi(g)
    e = spec.exponents
    key = 0
    bit = 1
    for (i, j), terms in g.c.items():
        for k in terms:
            # the constant rescales to t^exp * c_ij^k
            exp = e[i - 1] + e[j - 1] - e[k - 1]
            if exp < 0:
                return ContractionResult(False, None, (i, j, k, exp))
            if exp == 0:
                key |= bit
            bit <<= 1
    try:
        limits = g._limits
    except AttributeError:
        limits = g._limits = {}
    limit = limits.get(key)
    if limit is None:
        limit = limits[key] = _checked_limit(g, key)
    return ContractionResult(True, limit, None)


def _checked_limit(g: LieAlgebra, key: int) -> LieAlgebra:
    """The limit keeping the constants of g whose bits are set in key, bit
    m for the m-th constant c_ij^k in table order, after its Jacobi check."""
    kept = {}
    bit = 1
    for ij, terms in g.c.items():
        for k, v in terms.items():
            if key & bit:
                kept.setdefault(ij, {})[k] = v
            bit <<= 1
    limit = LieAlgebra(g.dim, kept, basis=g.basis)
    if not jacobi_check(limit).ok:
        raise AssertionError(
            "contraction limit violates Jacobi; the input table must be corrupt"
        )
    return limit


def _frobenius_brackets(p: int, a) -> dict:
    """The constants of `frobenius_table(p, a)` as plain {(i, j): {k: v}}
    dicts, zero constants dropped, in the table's order."""
    brackets = {(1, 2): {1: ONE}}
    for k in range(1, p):
        brackets[(2 * k + 1, 2 * k + 2)] = {1: ONE}
        for j, v in ((2 * k + 1, a[k - 1]), (2 * k + 2, -(ONE + a[k - 1]))):
            if v:
                brackets[(2, j)] = {j: v}
    return brackets


def frobenius_table(p: int, a):
    """The bracket table of the diagonal frobenius model on dim 2p:

        [X_1,X_2] = X_1,                [X_{2k+1},X_{2k+2}] = X_1,
        [X_2,X_{2k+1}] = a_k X_{2k+1},  [X_2,X_{2k+2}] = -(1+a_k) X_{2k+2}

    for k = 1..p-1, zero constants dropped.  The basis is normalized so the
    adjoint action of X_2 carries the invariants a_k and -(1+a_k).
    """
    return bracket_table(2 * p, _frobenius_brackets(p, a))


def is_reduced_frobenius_shape(g: LieAlgebra) -> bool:
    """Post-contraction normal form for an even-dimensional exact-symplectic
    algebra: X_2 acts freely on span{X_3..X_n}, and the rest of the table
    is `frobenius_table` without its X_2 row."""
    n = g.dim
    if n % 2:
        return False
    row = {(2, j) for j in range(3, n + 1)}
    if any(k < 3 for key in row for k in g.c.get(key, ())):
        return False
    model = _frobenius_brackets(n // 2, [ZERO] * (n // 2 - 1))
    return {key: t for key, t in g.c.items() if key not in row} == {
        key: t for key, t in model.items() if key not in row
    }


def frobenius_model_parameters(g: LieAlgebra):
    """(a_1, ..., a_{p-1}), read as a_k = c_{2,2k+1}^{2k+1}, when g's table
    is `frobenius_table(p, a)` constant by constant, else None."""
    n = g.dim
    if n % 2:
        return None
    a = tuple(g.constant(2, 2 * k + 1, 2 * k + 1) for k in range(1, n // 2))
    return a if g.c == _frobenius_brackets(n // 2, a) else None
