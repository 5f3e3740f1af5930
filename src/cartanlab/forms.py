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
        """theta(v_1, ..., v_q), one interior product per vector."""
        if len(vectors) != self.grade:
            raise FormError("wrong number of arguments")
        coeffs = self.coeffs
        for v in vectors:
            coeffs = exterior.interior(coeffs, v.comps, 1)
        return coeffs.get((), ZERO)

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
    d w_m = -sum_{i<j} c_ijm  w_i ^ w_j.

    The terms c_ijm w_i ^ w_j of every d(w_m) come from one scan of the
    bracket table.  A term c w_I, with m at position r of I, contributes
    (-1)^r c d(w_m) ^ w_{I - m}, since the 2-form d(w_m) commutes with
    every form: one Scalar product per output term, signed by the minus of
    d(w_m), (-1)^r and the `merge_sign` of (i, j) with I - m.
    """
    alg = a.algebra
    dbasis = {}
    for ij, tv in alg.c.items():
        for m, v in tv.items():
            dbasis.setdefault(m, []).append((ij, v))
    out = {}
    for idx, coeff in a.coeffs.items():
        for r, m in enumerate(idx):
            rest = idx[:r] + idx[r + 1 :]
            for ij, v in dbasis.get(m, ()):
                merged, sign = exterior.merge_sign(ij, rest)
                if merged is None:
                    continue
                term = coeff * v
                exterior.accumulate(out, merged, -term if (sign > 0) == (r % 2 == 0) else term)
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


def characteristic_space(w: DualForm, dw: DualForm) -> Subspace:
    """C(w) = {X : w(X) = 0, i(X) dw = 0} by exact kernel computation,
    where dw is ce_differential(w)."""
    n = w.algebra.dim
    # row 0 is w; row j holds dw(X_i, X_j) as i runs over the basis
    rows = [[ZERO] * n for _ in range(n + 1)]
    for (i,), v in w.coeffs.items():
        rows[0][i - 1] = v
    for (i, j), v in dw.coeffs.items():
        rows[j][i - 1] = v
        rows[i][j - 1] = -v
    return kernel_subspace(w.algebra, rows)


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
    space = characteristic_space(w, dw)
    codim = w.algebra.dim - space.dim
    if codim != value:
        raise ClassOracleError(
            f"wedge-power class {value} != codimension {codim} of the characteristic space"
        )
    return CartanClass(value, space, branch, q)
