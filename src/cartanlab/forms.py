"""Exterior forms on the dual of a structure-constant Lie algebra.

The differential is fixed once and for all by

    d omega (X, Y) = -omega([X, Y])

on grade 1 and extends as an antiderivation.  Under this convention the
Heisenberg coframe satisfies d w_{2p+1} = -w_1^w_2 - ... - w_{2p-1}^w_{2p}.

A vector is its coordinate tuple, as in `liealg`: `DualForm.evaluate` and
`interior_product` take one coordinate sequence per vector argument and
raise FormError on one whose length is not the dimension of the form's
algebra.  The characteristic space is a `liealg.Subspace`, whose rows
are such tuples.

`cartan_class` computes the class twice and refuses to return if the two
answers disagree.  The first route is `skew_reduce`, a pivoted symplectic
elimination of dw that carries w along: 2q is the rank of dw, and the
class is 2q+1 when w is nonzero on the radical of dw and 2q otherwise
(the linear Darboux theorem).  The second, the module's built-in oracle,
is the exact codimension of the characteristic space.  The wedge-power
route, q = max{k : (dw)^k != 0}, stays as `wedge_power_class`, the
reference that the tests compare with; its cost grows exponentially with
the dimension, the elimination's as its cube.
"""

from __future__ import annotations

from typing import NamedTuple

from . import exterior
from .liealg import LieAlgebra, Subspace, check_length, kernel_subspace
from .scalars import ONE, ZERO, Scalar, check_int


class FormError(ValueError):
    pass


class DualForm:
    """Sparse exterior form: strictly increasing index tuples -> Scalar."""

    __slots__ = ("algebra", "grade", "coeffs")

    def __init__(self, algebra: LieAlgebra, grade: int, coeffs=None):
        self.algebra = algebra
        self.grade = check_int(grade, 0, "grade")
        self.coeffs = exterior.normalize(coeffs, grade, 1, algebra.dim + 1, Scalar.of, FormError)

    # -- constructors -----------------------------------------------------

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

    def __add__(self, other, s=1):
        self._check(other)
        return DualForm(self.algebra, self.grade, exterior.add(self.coeffs, other.coeffs, s))

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __neg__(self):
        return DualForm(self.algebra, self.grade, {idx: -v for idx, v in self.coeffs.items()})

    def __eq__(self, other):
        return (
            isinstance(other, DualForm)
            and self.algebra is other.algebra
            and self.grade == other.grade
            and self.coeffs == other.coeffs
        )

    def _check(self, other):
        if not isinstance(other, DualForm):
            raise FormError("expected a DualForm")
        if other.algebra is not self.algebra:
            raise FormError("mismatched algebras")
        if other.grade != self.grade:
            raise FormError("mismatched grades")

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, *vectors) -> Scalar:
        """theta(v_1, ..., v_q) for coordinate sequences v_1, ..., v_q, one
        interior product per vector."""
        if len(vectors) != self.grade:
            raise FormError("wrong number of arguments")
        coeffs = self.coeffs
        for v in vectors:
            coeffs = exterior.interior(coeffs, check_length(v, self.algebra.dim, FormError), 1)
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
                exterior.accumulate(out, merged, coeff * v, sign if r % 2 else -sign)
    return DualForm(alg, a.grade + 1, out)


def interior_product(x, a: DualForm) -> DualForm:
    """i(X)theta(X_1,..,X_{q-1}) = theta(X, X_1, .., X_{q-1}) for the
    coordinate sequence x of X."""
    if a.grade == 0:
        raise FormError("no interior product of a grade-0 form")
    x = check_length(x, a.algebra.dim, FormError)
    return DualForm(a.algebra, a.grade - 1, exterior.interior(a.coeffs, x, 1))


class CartanClass(NamedTuple):
    value: int
    characteristic_space: Subspace
    branch: str  # "odd" when w ^ (dw)^q != 0, i.e. w is nonzero on the radical of dw
    # the maximal q with (dw)^q != 0: half the rank of dw, read off as the
    # number of pivot pairs of `skew_reduce`
    power: int


class ClassOracleError(AssertionError):
    """Skew-elimination class and characteristic-space codimension disagreed."""


def _require_covector(w: DualForm):
    if w.grade != 1:
        raise FormError("Cartan class is defined for grade-1 forms")
    if w.is_zero:
        raise FormError("class undefined for the zero form")


def skew_reduce(theta: DualForm, w: DualForm | None = None) -> tuple[int, bool]:
    """(q, odd) for a 2-form theta, with 2q its rank and odd true iff the
    covector w is nonzero on the radical of theta (false without w).

    Pivoted symplectic elimination: each step takes an entry
    p = theta(X_a, X_c) != 0, counts one pair and replaces every other X_k
    by X_k - (theta_kc/p) X_a + (theta_ka/p) X_c, which theta pairs with
    neither X_a nor X_c:

        theta'_kl = theta_kl - (theta_ka theta_lc - theta_la theta_kc)/p,
        w'_k = w_k - (theta_kc/p) w_a + (theta_ka/p) w_c.

    Only the k where theta_ka or theta_kc is nonzero change, and theta is
    kept as sparse skew rows, so zero entries cost nothing.  When no
    nonzero entry is left, the X_k not taken as pivots span the radical.
    """
    if theta.grade != 2:
        raise FormError("skew elimination is for 2-forms")
    rows = {}
    for (i, j), v in theta.coeffs.items():
        rows.setdefault(i, {})[j] = v
        rows.setdefault(j, {})[i] = -v
    cov = {i: v for (i,), v in w.coeffs.items()} if w is not None else {}
    q = 0
    while rows:
        a, ra = rows.popitem()
        c = next(iter(ra))
        rc = rows.pop(c)
        inv = ONE / ra.pop(c)
        del rc[a]
        q += 1
        # ra[k] = theta_ak = -theta_ka, rc[k] = -theta_kc
        x = {k: v * inv for k, v in ra.items()}
        y = {k: v * inv for k, v in rc.items()}
        wa, wc = cov.pop(a, None), cov.pop(c, None)
        if wa:
            exterior.add_scaled(cov, y, wa)
        if wc:
            exterior.add_scaled(cov, x, wc, -1)
        # row k is final once its pairs with the later l are updated
        support = sorted(ra.keys() | rc.keys())
        for n, k in enumerate(support):
            rk, ak, ck = rows[k], ra.get(k), rc.get(k)
            rk.pop(a, None)
            rk.pop(c, None)
            for l in support[n + 1 :]:
                dy, dx = ak and l in y, ck and l in x
                if not (dy or dx):
                    continue  # untouched, so its mirror is still right
                if dy:
                    exterior.accumulate(rk, l, ak * y[l], -1)
                if dx:
                    exterior.accumulate(rk, l, ck * x[l])
                if l in rk:
                    rows[l][k] = -rk[l]
                else:
                    rows[l].pop(k, None)
            if not rk:
                del rows[k]
    return q, bool(cov)


def wedge_power_class(w: DualForm) -> tuple[int, bool]:
    """(q, odd) by wedge powers, the reference route of `cartan_class`:
    q = max{k : (dw)^k != 0}, and odd iff w ^ (dw)^q != 0."""
    _require_covector(w)
    dw = ce_differential(w)
    q = 0
    power = DualForm(w.algebra, 0, {(): ONE})
    while True:
        nxt = wedge(power, dw)
        if nxt.is_zero:
            break
        power = nxt
        q += 1
    return q, not wedge(w, power).is_zero


def characteristic_space(w: DualForm, dw: DualForm) -> Subspace:
    """C(w) = {X : w(X) = 0, i(X) dw = 0} by exact kernel computation,
    where dw is ce_differential(w)."""
    n = w.algebra.dim
    # row 0 is w; row j holds dw(X_i, X_j) as i runs over the basis
    rows = [{i - 1: v for (i,), v in w.coeffs.items()}] + [{} for _ in range(n)]
    for (i, j), v in dw.coeffs.items():
        rows[j][i - 1] = v
        rows[i][j - 1] = -v
    return kernel_subspace(w.algebra, rows)


def cartan_class(w: DualForm) -> CartanClass:
    """Cartan class of a nonzero grade-1 form, with its characteristic space.

    Two routes run on every call.  `skew_reduce` eliminates dw and carries
    w along: the class is 2q+1 when w is nonzero on the radical of dw and
    2q otherwise, where 2q is the rank of dw.  The oracle is
    dim(g) - dim C(w), by exact kernel computation; any disagreement
    raises ClassOracleError.
    """
    _require_covector(w)
    dw = ce_differential(w)
    q, odd = skew_reduce(dw, w)
    value, branch = (2 * q + 1, "odd") if odd else (2 * q, "even")
    space = characteristic_space(w, dw)
    codim = w.algebra.dim - space.dim
    if codim != value:
        raise ClassOracleError(
            f"skew-elimination class {value} != codimension {codim} of the characteristic space"
        )
    return CartanClass(value, space, branch, q)
