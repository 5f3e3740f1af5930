"""Contractions of Lie algebras by diagonal one-parameter rescalings.

With f_t(X_i) = t^{e_i} X_i the conjugated bracket has Laurent-monomial
structure constants t^{e_i + e_j - e_k} c_ijk; the contraction exists iff
no nonzero constant carries a negative exponent, and the limit keeps the
exponent-zero terms.  Divergence is data (a witness triple), not a crash:
exponent grids are meant to be scanned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .liealg import LieAlgebra
from .scalars import ONE
from .structure import jacobi_check, require_jacobi


@dataclass(frozen=True)
class ContractionSpec:
    algebra: LieAlgebra
    exponents: tuple

    def __post_init__(self):
        if len(self.exponents) != self.algebra.dim:
            raise ValueError("exponent count does not match dimension")
        if any(not isinstance(e, int) for e in self.exponents):
            raise ValueError("exponents must be integers")


@dataclass(frozen=True)
class ContractionResult:
    converges: bool
    limit: Optional[LieAlgebra]
    witness: Optional[tuple]  # (i, j, k, negative exponent)

    def __bool__(self):
        return self.converges


def contract(spec: ContractionSpec) -> ContractionResult:
    """Limit of f_t^{-1} mu (f_t x f_t) for the diagonal rescaling."""
    g = spec.algebra
    require_jacobi(g)
    e = spec.exponents
    brackets = {}
    for (i, j), terms in g.c.items():
        for k, v in terms.items():
            # the constant rescales to t^exp * v
            exp = e[i - 1] + e[j - 1] - e[k - 1]
            if exp < 0:
                return ContractionResult(False, None, (i, j, k, exp))
            if exp == 0:
                brackets.setdefault((i, j), {})[k] = v
    limit = LieAlgebra(g.dim, brackets, basis=g.basis)
    check = jacobi_check(limit)
    if not check.ok:
        raise AssertionError(
            "contraction limit violates Jacobi; the input table must be corrupt"
        )
    return ContractionResult(True, limit, None)


def is_reduced_frobenius_shape(g: LieAlgebra) -> bool:
    """Post-contraction normal form for an even-dimensional exact-symplectic
    algebra: [X_1,X_2] = X_1, [X_{2k+1},X_{2k+2}] = X_1, the second basis
    vector acts on span{X_3..X_n}, and nothing else survives."""
    n = g.dim
    if n % 2 or n < 2:
        return False
    p = n // 2
    for (i, j), terms in g.c.items():
        for k, v in terms.items():
            if (i, j) == (1, 2) and k == 1:
                continue
            if i >= 3 and j == i + 1 and i % 2 == 1 and k == 1:
                continue
            if i == 2 and j >= 3 and k >= 3:
                continue
            return False
    if g.constant(1, 2, 1) != ONE:
        return False
    for k in range(1, p):
        if g.constant(2 * k + 1, 2 * k + 2, 1) != ONE:
            return False
    return True


def frobenius_model_parameters(g: LieAlgebra):
    """Parameters (a_1, ..., a_{p-1}) when g matches the diagonal model

        [X_1,X_2] = X_1,            [X_{2k+1},X_{2k+2}] = X_1,
        [X_2,X_{2k+1}] = a_k X_{2k+1},  [X_2,X_{2k+2}] = -(1+a_k) X_{2k+2},

    constant-by-constant, else None.  (The basis is normalized so the
    adjoint action of X_2 carries the invariants a_k and -(1+a_k).)
    """
    n = g.dim
    if n % 2 or n < 2:
        return None
    p = n // 2
    expected = {}
    expected[(1, 2, 1)] = ONE
    params = []
    for k in range(1, p):
        a_k = g.constant(2, 2 * k + 1, 2 * k + 1)
        params.append(a_k)
        expected[(2 * k + 1, 2 * k + 2, 1)] = ONE
        expected[(2, 2 * k + 1, 2 * k + 1)] = a_k
        expected[(2, 2 * k + 2, 2 * k + 2)] = -(ONE + a_k)
    actual = g.constants()
    clean_expected = {key: v for key, v in expected.items() if v}
    if actual != clean_expected:
        return None
    return tuple(params)
