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
from .scalars import ONE, ZERO, Scalar
from .structure import jacobi_check, require_jacobi


class LaurentScalar:
    """Finite Laurent polynomial in the contraction parameter."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for e, v in (terms or {}).items():
            v = Scalar.of(v)
            if v:
                clean[int(e)] = v
        self.terms = clean

    @staticmethod
    def monomial(exponent: int, coeff) -> "LaurentScalar":
        return LaurentScalar({exponent: coeff})

    @property
    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for e, v in other.terms.items():
            w = out.get(e, ZERO) + v
            if w:
                out[e] = w
            else:
                out.pop(e, None)
        return LaurentScalar(out)

    def __mul__(self, other):
        out = {}
        for e1, v1 in self.terms.items():
            for e2, v2 in other.terms.items():
                e = e1 + e2
                w = out.get(e, ZERO) + v1 * v2
                if w:
                    out[e] = w
                else:
                    out.pop(e, None)
        return LaurentScalar(out)

    def limit0(self) -> Optional[Scalar]:
        """Value at t -> 0, or None when a negative exponent survives."""
        if any(e < 0 for e in self.terms):
            return None
        return self.terms.get(0, ZERO)

    def __eq__(self, other):
        return isinstance(other, LaurentScalar) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({v})*t^{e}" for e, v in sorted(self.terms.items()))


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
    rescaled: dict  # (i, j, k) -> LaurentScalar, the curve of constants

    def __bool__(self):
        return self.converges


def contract(spec: ContractionSpec) -> ContractionResult:
    """Limit of f_t^{-1} mu (f_t x f_t) for the diagonal rescaling."""
    g = spec.algebra
    require_jacobi(g)
    e = spec.exponents
    rescaled = {}
    witness = None
    for (i, j), terms in g.c.items():
        for k, v in terms.items():
            exp = e[i - 1] + e[j - 1] - e[k - 1]
            rescaled[(i, j, k)] = LaurentScalar.monomial(exp, v)
            if exp < 0 and witness is None:
                witness = (i, j, k, exp)
    if witness is not None:
        return ContractionResult(False, None, witness, rescaled)
    brackets = {}
    for (i, j, k), laurent in rescaled.items():
        v = laurent.limit0()
        if v:
            brackets.setdefault((i, j), {})[k] = v
    limit = LieAlgebra(g.dim, brackets, basis=g.basis)
    check = jacobi_check(limit)
    if not check.ok:
        raise AssertionError(
            "contraction limit violates Jacobi; the input table must be corrupt"
        )
    return ContractionResult(True, limit, None, rescaled)


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
