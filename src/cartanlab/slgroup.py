"""Polynomial contact geometry of the special linear group of even rank.

All objects live on the (2n)^2 matrix coordinates x_{ij}: the rotation-pair
1-form, the determinant and its differential, the explicit Reeb-type field
read off that differential (the tuple of its Poly components), the
rotation-invariance pullback check, and the singular set pairing
polynomials.  Everything is an exact polynomial identity.

The coordinates come in N/2 = 2n^2 column pairs p = (u, v) = (x_{j,2i-1},
x_{j,2i}), with v = u + 1 in the row-major variable order, and

    omega = sum_p x_u dx_v - x_v dx_u,   d omega = 2 sigma,
    sigma = sum_p dx_u ^ dx_v.

Every check below runs on sigma and on fields and forms with coefficients
+-1, and applies each constant (q! 2^q, 2n, 1/2n) once, to a Scalar or
to det alone.

The constant of the top-form identity.  With q = 2n^2 - 1,

    omega ^ (d omega)^q ^ d(det) = c det vol,   c = -q! n 2^(2n^2).

Proof.  The 2-forms dx_u ^ dx_v commute, so sigma^q = q! sum_p sigma_p'
with sigma_p' the product, in increasing order, of every pair but p; as
v = u + 1 it is dx_0 ^ ... ^ dx_{N-1} with dx_u and dx_v left out.  Only
the terms of omega and of d(det) = sum_k D_k dx_k on the omitted pair p
survive the wedge with sigma_p', so

    omega ^ sigma^q / q! ^ d(det)
      = sum_p (x_u D_u dx_v ^ sigma_p' ^ dx_u - x_v D_v dx_u ^ sigma_p' ^ dx_v).

sigma_p' has even grade, so dx_u ^ sigma_p' ^ dx_v = dx_u ^ dx_v ^
sigma_p' = vol, the 2-form dx_u ^ dx_v moving to its place for free,
and dx_v ^ sigma_p' ^ dx_u = dx_v ^ dx_u ^ sigma_p' = -vol.  Both terms
come with the sign -1, and the pairs cover every coordinate once, so the
sum is -(sum_k x_k D_k) vol = -2n det vol by Euler's identity for det,
homogeneous of degree 2n.  Then (d omega)^q = 2^q sigma^q gives c =
-q! 2^q 2n = -q! n 2^(2n^2).  `sl_contact_identity` expands the middle
line with the generic wedge and reads c' = -2n off its one coefficient;
the tests assert the closed form for n = 1, 2, 3, 4.

The objects fixed by n are built once per n, each on its first use, by
private caches keyed by the checked int n: omega; det, d(det) and the
integral field 2n Z; sigma, kept only after d omega = 2 sigma is checked
(None when it fails, so that check runs on the first use of each n);
sigma^q/q!; and the pairings P_ij.  Each cache keeps the two most
recently used n; a third n evicts the less recent one, which is rebuilt and
checked again on its next use.  The four checks read these objects;
every other step (the top-form expansion and its residual test, the
Reeb pairings and the multiple test, the orthogonality and det
preconditions, the pullback comparison) runs on every call.  No cached
object is handed out: `rotation_pair_form`, `det_poly`, `sl_contact_data`
and `singular_pairings` build fresh ones, whose dicts a caller may
change.  n = 3 holds about 0.76 MB and n = 4 about 67 MB, nearly all of
it det and d(det).  Every public function here reads n through
`check_int(n, 1, "n")`, so 0, True or 1.0 raise ValueError; `coordinate`
reads i and j in 1..2n by the same rule, and `reeb_candidate` takes only
a 1-form over the variables of its n.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache, reduce
from itertools import combinations
from math import factorial
from typing import NamedTuple, Optional

from . import exterior
from .linalg import det, identity, mat_mul, square_matrix, transpose
from .poly import Poly
from .polyforms import (
    PolyForm,
    exterior_d,
    form_on_field,
    poly_interior,
    poly_wedge,
    pullback_rows,
)
from .scalars import ONE, ZERO, Scalar, check_int


def matrix_vars(n: int):
    """Variable names for the (2n) x (2n) matrix coordinates, row major."""
    return _matrix_vars(check_int(n, 1, "n"))


@cache
def _matrix_vars(n: int):
    m = 2 * n
    return tuple(f"x{i}_{j}" for i in range(1, m + 1) for j in range(1, m + 1))


def _vid(n, i, j):
    m = 2 * n
    return (i - 1) * m + (j - 1)


def coordinate(n, i, j) -> Poly:
    """x_{ij}; ValueError unless i and j are ints in 1..2n."""
    n = check_int(n, 1, "n")
    for what, k in (("i", i), ("j", j)):
        if check_int(k, 1, what) > 2 * n:
            raise ValueError(f"{what} must be at most 2n = {2 * n}, not {k}")
    return Poly.var_index(matrix_vars(n), _vid(n, i, j))


def _column_pairs(n: int):
    """The variable indices (u, v) of (x_{j,2i-1}, x_{j,2i}) for every row
    j and column pair i, in increasing order; v = u + 1."""
    return [(_vid(n, j, 2 * i - 1), _vid(n, j, 2 * i)) for j in range(1, 2 * n + 1) for i in range(1, n + 1)]


def det_poly(n: int) -> Poly:
    """det of the symbolic (2n) x (2n) matrix: the one coefficient of the
    wedge product of its rows, row r read as the 1-form sum_c x_{rc} e_c.

    Folding the rows in order, the k-form after k rows holds each k x k
    minor of the first k rows once, on the columns that index it.
    """
    n = check_int(n, 1, "n")
    m = 2 * n
    rows = [{(c,): coordinate(n, r, c) for c in range(1, m + 1)} for r in range(1, m + 1)]
    return reduce(exterior.wedge, rows)[tuple(range(1, m + 1))]


def rotation_pair_form(n: int) -> PolyForm:
    """omega = sum_j sum_i x_{j,2i-1} dx_{j,2i} - x_{j,2i} dx_{j,2i-1}."""
    n = check_int(n, 1, "n")
    vars = matrix_vars(n)
    coeffs = {}
    for u, v in _column_pairs(n):
        coeffs[(v,)] = Poly.var_index(vars, u)
        coeffs[(u,)] = -Poly.var_index(vars, v)
    return PolyForm(vars, 1, coeffs)


def _pair_form(n: int, c) -> PolyForm:
    """c sigma = sum c dx_{j,2i-1} ^ dx_{j,2i}; d omega = 2 sigma."""
    vars = matrix_vars(n)
    c = Poly.constant(vars, c)
    return PolyForm(vars, 2, {pair: c for pair in _column_pairs(n)})


def _integral_reeb(n: int, d_delta: PolyForm) -> tuple:
    """The components of 2n Z = sum_{j,i} (D_{j,2i-1} d/dx_{j,2i} -
    D_{j,2i} d/dx_{j,2i-1}), D_{jl} = d det / dx_{jl} the coefficients of
    ``d_delta`` = d(det): a cofactor each, with coefficients +-1."""
    vars = matrix_vars(n)
    zero = Poly.zero(vars)
    comps = [zero] * len(vars)
    for u, v in _column_pairs(n):
        comps[v] = d_delta.coeffs.get((u,), zero)
        comps[u] = -d_delta.coeffs.get((v,), zero)
    return tuple(comps)


def reeb_candidate(n: int, d_delta: PolyForm) -> tuple:
    """The components of Z = (1/2n) sum_{j,i} (D_{j,2i-1} d/dx_{j,2i} -
    D_{j,2i} d/dx_{j,2i-1}), one Poly per variable, with D_{jl} = d det /
    dx_{jl} the coefficients of ``d_delta`` = d(det).

    A cofactor is a partial derivative of det, so this is the field built
    from minors.  Euler's identity for det, homogeneous of degree 2n, gives
    omega(Z) = (1/2n) sum_{j,l} x_{jl} D_{jl} = det; and d omega = 2 sigma
    gives i(Z) d omega = -(1/n) d(det).  It is the integral field 2n Z
    scaled once; ``reeb_identities`` checks both identities on 2n Z.
    ValueError unless ``d_delta`` is a 1-form over ``matrix_vars(n)``.
    """
    n = check_int(n, 1, "n")
    if not isinstance(d_delta, PolyForm) or d_delta.grade != 1 or d_delta.vars != matrix_vars(n):
        raise ValueError(f"d_delta must be a 1-form over matrix_vars({n})")
    scale = Fraction(1, 2 * n)
    return tuple(c * scale for c in _integral_reeb(n, d_delta))


class SLContactData(NamedTuple):
    n: int
    omega: PolyForm
    delta: Poly  # the determinant polynomial
    d_delta: PolyForm  # its exterior differential (cofactor 1-form)
    reeb: tuple  # the components of the Reeb-type field, one per variable


def _det_forms(n: int):
    """(det, d det), fresh."""
    delta = det_poly(n)
    return delta, exterior_d(PolyForm.function(delta))


def sl_contact_data(n: int) -> SLContactData:
    n = check_int(n, 1, "n")
    delta, d_delta = _det_forms(n)
    return SLContactData(n, rotation_pair_form(n), delta, d_delta, reeb_candidate(n, d_delta))


# Two n, so that a caller alternating two sizes stays warm while a process
# that has used n = 1, ..., 4 does not hold them all for its lifetime.
_per_n = lru_cache(maxsize=2)


@_per_n
def _omega(n: int) -> PolyForm:
    return rotation_pair_form(n)


@_per_n
def _det_data(n: int):
    """(det, d det, the components of 2n Z)."""
    delta, d_delta = _det_forms(n)
    return delta, d_delta, _integral_reeb(n, d_delta)


@_per_n
def _sigma(n: int) -> Optional[PolyForm]:
    """sigma, once d omega = 2 sigma is checked exactly; None if not."""
    if exterior_d(_omega(n)) != _pair_form(n, 2):
        return None
    return _pair_form(n, ONE)


@_per_n
def _index_form(n: int) -> PolyForm:
    """sigma^q/q!, q = 2n^2 - 1, when sigma is not None: the sum of the
    q-subsets of the column pairs, each with coefficient 1."""
    sigma = _sigma(n)
    vars = sigma.vars
    q = (len(vars) - 2) // 2
    one = Poly.constant(vars, ONE)
    return PolyForm(vars, 2 * q, {idx: one for idx, _ in _pair_subsets(sigma, q)})


@_per_n
def _pairings(n: int) -> dict:
    return singular_pairings(n)


def _scalar_multiple(target: PolyForm, unit: PolyForm):
    """(c, target - c * unit), c read off one term of the nonzero ``unit``:
    target = c * unit exactly iff the residual is zero.  The equality is
    tested first, so an exact multiple builds no difference."""
    idx, p = next(iter(unit.coeffs.items()))
    key, val = next(iter(p.terms.items()))
    q = target.coeffs.get(idx)
    c = (ZERO if q is None else q.terms.get(key, ZERO)) / val
    scaled = unit.scale(c)
    if target == scaled:
        return c, PolyForm(target.vars, target.grade)
    return c, target - scaled


def _pair_subsets(pair_form: PolyForm, q: int):
    """(index, coefficients) of each q-subset of the pairs of a 2-form
    sum c dx_u ^ dx_v whose pairs, in increasing order, concatenate to an
    increasing tuple (disjoint and not interleaved).  The subset's pairs
    concatenate to its index, so their wedge is that index with sign +1."""
    if pair_form.grade != 2:
        raise ValueError("a pair power needs a 2-form")
    pairs = sorted(pair_form.coeffs.items())
    flat = [t for idx, _ in pairs for t in idx]
    if any(a >= b for a, b in zip(flat, flat[1:])):
        raise ValueError("a pair power needs disjoint pairs in increasing order")
    for subset in combinations(pairs, q):
        yield tuple(t for idx, _ in subset for t in idx), [p for _, p in subset]


def two_form_pair_power(domega: PolyForm, q: int) -> PolyForm:
    """(d omega)^q for the constant-coefficient pair form d omega =
    sum_pairs c dx_u ^ dx_v over disjoint, non-interleaved coordinate pairs.

    Combinatorial route: q! * sum over q-subsets of the pairs of the product
    of their coefficients on the concatenated index tuple.  Cross-checked
    in the tests against the generic wedge loop.
    """
    for p in domega.coeffs.values():
        if any(p.terms):
            raise ValueError("fast power path needs constant coefficients")
    vars = domega.vars
    fact = Scalar(factorial(q))
    out = {}
    for idx, coeffs in _pair_subsets(domega, q):
        c = fact
        for p in coeffs:
            c = c * p.terms.get(0, ZERO)
        out[idx] = Poly.constant(vars, c)
    return PolyForm(vars, 2 * q, out)


class ContactIdentity(NamedTuple):
    ok: bool
    q: int
    constant: Optional[Scalar]
    residual: Optional[Poly]  # top coefficient minus c' det where the identity fails


def sl_contact_identity(n: int) -> ContactIdentity:
    """Expand omega ^ (d omega)^q ^ d(det) exactly, at the top-degree
    exponent q = ((2n)^2 - 2) / 2, and compare it against
    constant * det * volume with a nonzero constant.

    It checks d omega = 2 sigma, expands omega ^ sigma^q/q! ^ d(det) with
    coefficients +-1 by the generic wedge, reads c' off its one
    coefficient and reports c = q! 2^q c' (the proof in the module
    docstring).  The residual is None when d omega != 2 sigma."""
    n = check_int(n, 1, "n")
    omega = _omega(n)
    vars = omega.vars
    q = (len(vars) - 2) // 2
    if _sigma(n) is None:
        return ContactIdentity(False, q, None, None)
    delta, d_delta, _ = _det_data(n)
    top = poly_wedge(poly_wedge(omega, _index_form(n)), d_delta)
    volume = tuple(range(len(vars)))
    c, residual = _scalar_multiple(top, PolyForm(vars, len(vars), {volume: delta}))
    if c and residual.is_zero:
        return ContactIdentity(True, q, c * (factorial(q) << q), None)
    return ContactIdentity(False, q, None, residual.coeffs.get(volume, Poly.zero(vars)))


def singular_pairings(n: int) -> dict:
    """P_{ij} = sum_{l=1}^{n} (x_{i,2l-1} x_{j,2l} - x_{i,2l} x_{j,2l-1}),
    one polynomial per pair i <= j (the diagonal ones vanish identically)."""
    n = check_int(n, 1, "n")
    vars = matrix_vars(n)
    out = {}
    for i in range(1, 2 * n + 1):
        for j in range(i, 2 * n + 1):
            total = Poly.zero(vars)
            for l in range(1, n + 1):
                total = total + coordinate(n, i, 2 * l - 1) * coordinate(n, j, 2 * l)
                total = total - coordinate(n, i, 2 * l) * coordinate(n, j, 2 * l - 1)
            out[(i, j)] = total
    return out


def evaluate_singular_equations(n: int, point) -> dict:
    """Evaluate every pairing polynomial at an exact matrix point."""
    n = check_int(n, 1, "n")
    mat = square_matrix(point, 2 * n, "point")
    flat = [x for row in mat for x in row]
    return {key: p.eval(flat) for key, p in _pairings(n).items()}


class OrthogonalityError(ValueError):
    pass


def so_invariance_check(n: int, m) -> bool:
    """Pullback of the rotation form under x -> m.x equals the form itself.

    Preconditions, checked: m^T m = identity exactly and det m = 1.
    """
    n = check_int(n, 1, "n")
    size = 2 * n
    mat = square_matrix(m, size)
    if mat_mul(transpose(mat), mat) != identity(size):
        raise OrthogonalityError("matrix is not orthogonal")
    if det(mat) != ONE:
        raise OrthogonalityError("matrix must have determinant 1")
    # x_{jl} -> sum_r m_{jr} x_{rl}: the sparse rows of the (2n)^2 substitution
    support = [[(r, c) for r, c in enumerate(row, 1) if c] for row in mat]
    rows = [{_vid(n, r, l): c for r, c in row} for row in support for l in range(1, size + 1)]
    omega = _omega(n)
    return pullback_rows(omega, rows) == omega


def pythagorean_rotation(a: int, b: int):
    """Exact rational rotation from the (a^2-b^2, 2ab, a^2+b^2) triple;
    ValueError when a^2 + b^2 = 0, as for a = b = 0."""
    a2, b2 = a * a, b * b
    if not a2 + b2:
        raise ValueError(f"no rotation: a^2 + b^2 = 0 for a = {a}, b = {b}")
    h = Scalar(a2 + b2)
    c = Scalar(a2 - b2) / h
    s = Scalar(2 * a * b) / h
    return ((c, s), (-s, c))


def block_rotation(n: int, blocks):
    """Block-diagonal orthogonal matrix from n 2x2 rotation blocks;
    ValueError unless there are exactly n blocks, each 2 x 2."""
    n = check_int(n, 1, "n")
    blocks = [square_matrix(block, 2, "a rotation block") for block in blocks]
    if len(blocks) != n:
        raise ValueError(f"block_rotation({n}) needs {n} blocks, got {len(blocks)}")
    size = 2 * n
    out = [[ZERO] * size for _ in range(size)]
    for k, block in enumerate(blocks):
        for r in range(2):
            for c in range(2):
                out[2 * k + r][2 * k + c] = block[r][c]
    return tuple(tuple(row) for row in out)


def reeb_identities(n: int):
    """Exact pairings of the candidate Reeb field: returns
    (omega(Z) - det, the scalar c with i(Z) d omega = c * d det).

    Both are checked on the integral field W = 2n Z: omega(W) against
    2n det, and, once d omega = 2 sigma holds, i(W) sigma = c' d(det).
    Then omega(Z) - det is (omega(W) - 2n det) / 2n and c = c' / n, each
    scaled once at the end.  c is None unless d omega = 2 sigma and
    i(W) sigma is a multiple of d(det)."""
    n = check_int(n, 1, "n")
    omega = _omega(n)
    delta, d_delta, field = _det_data(n)
    pair_defect = (form_on_field(omega, field) + delta * (-2 * n)) * Fraction(1, 2 * n)
    sigma = _sigma(n)
    if sigma is None:
        return pair_defect, None
    c, defect = _scalar_multiple(poly_interior(field, sigma), d_delta)
    return pair_defect, (c / n if defect.is_zero else None)
