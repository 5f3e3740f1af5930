"""Exterior forms on the dual of a structure-constant Lie algebra.

The differential is fixed once and for all by

    d omega (X, Y) = -omega([X, Y])

on grade 1 and extends as an antiderivation.  Under this convention the
Heisenberg coframe satisfies d w_{2p+1} = -w_1^w_2 - ... - w_{2p-1}^w_{2p}.

`cartan_class` computes the class twice, by wedge powers and by the exact
codimension of the characteristic space, and refuses to return if the two
answers disagree: the second computation is the module's built-in oracle
for the first.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import exterior
from .liealg import LieAlgebra, Subspace, Vector, kernel_subspace
from .scalars import ONE, ZERO, Scalar


class FormError(ValueError):
    pass


class DualForm:
    """Sparse exterior form: strictly increasing index tuples -> Scalar."""

    __slots__ = ("algebra", "grade", "coeffs")

    def __init__(self, algebra: LieAlgebra, grade: int, coeffs=None):
        if grade < 0:
            raise FormError("grade must be nonnegative")
        self.algebra = algebra
        self.grade = grade
        self.coeffs = exterior.normalize(coeffs, grade, 1, algebra.dim + 1, Scalar.of, FormError)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(algebra, grade=1):
        return DualForm(algebra, grade)

    @staticmethod
    def one(algebra):
        return DualForm(algebra, 0, {(): ONE})

    @staticmethod
    def basis(algebra, *indices):
        return DualForm(algebra, len(indices), {tuple(indices): ONE})

    @staticmethod
    def covector(algebra, comps):
        comps = list(comps)
        if len(comps) != algebra.dim:
            raise FormError("covector length does not match dimension")
        return DualForm(algebra, 1, {(i + 1,): c for i, c in enumerate(comps)})

    # -- basic algebra -----------------------------------------------------

    @property
    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        self._check(other)
        return DualForm(self.algebra, self.grade, exterior.add(self.coeffs, other.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return DualForm(self.algebra, self.grade, exterior.negate(self.coeffs))

    def scale(self, s):
        return DualForm(self.algebra, self.grade, exterior.scale(self.coeffs, Scalar.of(s)))

    def __eq__(self, other):
        return (
            isinstance(other, DualForm)
            and self.algebra is other.algebra
            and self.grade == other.grade
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.grade, tuple(sorted(self.coeffs.items()))))

    def _check(self, other):
        if not isinstance(other, DualForm):
            raise FormError("expected a DualForm")
        if other.algebra is not self.algebra:
            raise FormError("mismatched algebras")
        if other.grade != self.grade:
            raise FormError("mismatched grades")

    # -- evaluation ---------------------------------------------------------

    def pair(self, v: Vector) -> Scalar:
        if self.grade != 1:
            raise FormError("pair() is for grade-1 forms")
        return exterior.interior(self.coeffs, v.comps, 1).get((), ZERO)

    def evaluate(self, *vectors) -> Scalar:
        """theta(v_1, ..., v_q) by exact minors."""
        if len(vectors) != self.grade:
            raise FormError("wrong number of arguments")
        from .linalg import det

        total = ZERO
        for idx, c in self.coeffs.items():
            minor = [[v.comps[t - 1] for t in idx] for v in vectors]
            total = total + c * det(minor)
        return total

    def __repr__(self):
        if self.is_zero:
            return "0"
        parts = []
        for idx in sorted(self.coeffs):
            mono = "^".join(f"w{t}" for t in idx) if idx else "1"
            parts.append(f"({self.coeffs[idx]})*{mono}")
        return " + ".join(parts)


def wedge(a: DualForm, b: DualForm) -> DualForm:
    """Exterior product; graded commutative, zero above the dimension."""
    if a.algebra is not b.algebra:
        raise FormError("mismatched algebras")
    return DualForm(a.algebra, a.grade + b.grade, exterior.wedge(a.coeffs, b.coeffs))


def wedge_power(a: DualForm, k: int) -> DualForm:
    if k < 0:
        raise FormError("negative wedge power")
    return DualForm(a.algebra, a.grade * k, exterior.wedge_power(a.coeffs, k, ONE))


def ce_differential(a: DualForm) -> DualForm:
    """Chevalley-Eilenberg differential, antiderivation extension of
    d w_m = -sum_{i<j} c_ijm  w_i ^ w_j."""
    alg = a.algebra
    dbasis = {}
    out = {}
    for idx, coeff in a.coeffs.items():
        for r, m in enumerate(idx):
            if m not in dbasis:
                dbasis[m] = {ij: -tv[m] for ij, tv in alg.c.items() if tv.get(m)}
            left = {idx[:r]: coeff if r % 2 == 0 else -coeff}
            piece = exterior.wedge(exterior.wedge(left, dbasis[m]), {idx[r + 1 :]: ONE})
            out = exterior.add(out, piece)
    return DualForm(alg, a.grade + 1, out)


def interior_product(x: Vector, a: DualForm) -> DualForm:
    """i(X)theta(X_1,..,X_{q-1}) = theta(X, X_1, .., X_{q-1})."""
    if x.algebra is not a.algebra:
        raise FormError("mismatched algebras")
    if a.grade == 0:
        raise FormError("no interior product of a grade-0 form")
    return DualForm(a.algebra, a.grade - 1, exterior.interior(a.coeffs, x.comps, 1))


@dataclass(frozen=True)
class CartanClass:
    value: int
    characteristic_space: Subspace
    branch: str  # "odd" when w ^ (dw)^q != 0, else "even"
    power: int  # the maximal q with (dw)^q != 0


class ClassOracleError(AssertionError):
    """Wedge-power class and characteristic-space codimension disagreed."""


def characteristic_space(w: DualForm) -> Subspace:
    """C(w) = {X : w(X) = 0, i(X) dw = 0} by exact kernel computation."""
    alg = w.algebra
    n = alg.dim
    dw = ce_differential(w)
    rows = [tuple(w.coeffs.get((i,), ZERO) for i in range(1, n + 1))]
    for j in range(1, n + 1):
        # row j: dw(X_i, X_j) as i runs over the basis
        row = []
        for i in range(1, n + 1):
            if i < j:
                row.append(dw.coeffs.get((i, j), ZERO))
            elif i > j:
                row.append(-dw.coeffs.get((j, i), ZERO))
            else:
                row.append(ZERO)
        rows.append(tuple(row))
    return kernel_subspace(alg, rows)


def cartan_class(w: DualForm) -> CartanClass:
    """Cartan class of a nonzero grade-1 form, with its characteristic space.

    Wedge-power route: q = max{k : (dw)^k != 0}; the class is 2q+1 when
    w ^ (dw)^q != 0 and 2q otherwise.  Cross-checked against
    dim(g) - dim C(w); any disagreement raises ClassOracleError.
    """
    if w.grade != 1:
        raise FormError("Cartan class is defined for grade-1 forms")
    if w.is_zero:
        raise FormError("class undefined for the zero form")
    dw = ce_differential(w)
    q = 0
    power = DualForm.one(w.algebra)
    while True:
        nxt = wedge(power, dw)
        if nxt.is_zero:
            break
        power = nxt
        q += 1
    top = wedge(w, power)
    if not top.is_zero:
        value, branch = 2 * q + 1, "odd"
    else:
        value, branch = 2 * q, "even"
    space = characteristic_space(w)
    codim = w.algebra.dim - space.dim
    if codim != value:
        raise ClassOracleError(
            f"wedge-power class {value} != codimension {codim} of the characteristic space"
        )
    return CartanClass(value, space, branch, q)
