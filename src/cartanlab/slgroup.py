"""Polynomial contact geometry of the special linear group of even rank.

All objects live on the (2n)^2 matrix coordinates x_{ij}: the rotation-pair
1-form, the determinant and its differential, the explicit Reeb-type field
read off that differential, the rotation-invariance pullback check, and the
singular set pairing polynomials.  Everything is an exact polynomial identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from math import factorial
from typing import Optional

from . import exterior
from .linalg import det, identity, mat_mul, square_matrix, transpose
from .poly import Poly
from .polyforms import (
    PolyForm,
    PolyVectorField,
    exterior_d,
    form_on_field,
    poly_interior,
    poly_wedge,
    pullback_linear,
)
from .scalars import ONE, ZERO, Scalar


@cache
def matrix_vars(n: int):
    """Variable names for the (2n) x (2n) matrix coordinates, row major."""
    m = 2 * n
    return tuple(f"x{i}_{j}" for i in range(1, m + 1) for j in range(1, m + 1))


def _vid(n, i, j):
    m = 2 * n
    return (i - 1) * m + (j - 1)


def coordinate(n, i, j) -> Poly:
    return Poly.var_index(matrix_vars(n), _vid(n, i, j))


def det_poly(n: int) -> Poly:
    """det of the symbolic (2n) x (2n) matrix: the one coefficient of the
    wedge product of its rows, row r read as the 1-form sum_c x_{rc} e_c.

    Folding the rows in order, the k-form after k rows holds each k x k
    minor of the first k rows once, on the columns that index it.
    """
    m = 2 * n
    rows = [{(c,): coordinate(n, r, c) for c in range(1, m + 1)} for r in range(1, m + 1)]
    return reduce(exterior.wedge, rows)[tuple(range(1, m + 1))]


def rotation_pair_form(n: int) -> PolyForm:
    """omega = sum_j sum_i x_{j,2i-1} dx_{j,2i} - x_{j,2i} dx_{j,2i-1}."""
    vars = matrix_vars(n)
    coeffs = {}
    for j in range(1, 2 * n + 1):
        for i in range(1, n + 1):
            u, v = _vid(n, j, 2 * i - 1), _vid(n, j, 2 * i)
            coeffs[(v,)] = coeffs.get((v,), Poly.zero(vars)) + coordinate(n, j, 2 * i - 1)
            coeffs[(u,)] = coeffs.get((u,), Poly.zero(vars)) - coordinate(n, j, 2 * i)
    return PolyForm(vars, 1, coeffs)


def reeb_candidate(n: int, d_delta: PolyForm) -> PolyVectorField:
    """Z = (1/2n) sum_{j,i} (D_{j,2i-1} d/dx_{j,2i} - D_{j,2i} d/dx_{j,2i-1})
    with D_{jl} = d det / dx_{jl}, the coefficients of ``d_delta`` = d(det).

    A cofactor is a partial derivative of det, so this is the field built
    from minors.  Euler's identity for det, homogeneous of degree 2n, gives
    omega(Z) = (1/2n) sum_{j,l} x_{jl} D_{jl} = det; and d omega = 2 sum
    dx_{j,2i-1} ^ dx_{j,2i} gives i(Z) d omega = -(1/n) d(det).
    ``reeb_identities`` checks both exactly, as checks of this construction.
    """
    vars = matrix_vars(n)
    zero = Poly.zero(vars)
    scale = ONE / Scalar(2 * n)
    comps = [zero] * len(vars)
    for j in range(1, 2 * n + 1):
        for i in range(1, n + 1):
            u, v = _vid(n, j, 2 * i - 1), _vid(n, j, 2 * i)
            comps[v] = d_delta.coeffs.get((u,), zero) * scale
            comps[u] = d_delta.coeffs.get((v,), zero) * -scale
    return PolyVectorField(vars, comps)


@dataclass(frozen=True)
class SLContactData:
    n: int
    omega: PolyForm
    delta: Poly  # the determinant polynomial
    d_delta: PolyForm  # its exterior differential (cofactor 1-form)
    reeb: PolyVectorField


def _contact_forms(n: int):
    """(omega, det, d det): the contact data without the Reeb field."""
    if n < 1:
        raise ValueError("n must be >= 1")
    omega = rotation_pair_form(n)
    delta = det_poly(n)
    return omega, delta, exterior_d(PolyForm.function(delta))


def sl_contact_data(n: int) -> SLContactData:
    omega, delta, d_delta = _contact_forms(n)
    return SLContactData(n, omega, delta, d_delta, reeb_candidate(n, d_delta))


def _scalar_multiple(target: PolyForm, unit: PolyForm):
    """(c, target - c * unit), c read off one term of the nonzero ``unit``:
    target = c * unit exactly iff the residual is zero."""
    idx, p = next(iter(unit.coeffs.items()))
    expo, val = next(iter(p.terms.items()))
    q = target.coeffs.get(idx)
    c = (ZERO if q is None else q.terms.get(expo, ZERO)) / val
    return c, target - unit.scale(c)


def two_form_pair_power(domega: PolyForm, q: int) -> PolyForm:
    """(d omega)^q for the constant-coefficient pair form d omega =
    sum_pairs c dx_u ^ dx_v over disjoint coordinate pairs.

    Combinatorial route: q! * sum over q-subsets of the pairs of the product
    of their coefficients on the concatenated (sorted, even-block) index
    tuple.  Cross-checked in the tests against the generic wedge loop.
    """
    pairs = sorted(domega.coeffs.items())
    for idx, p in pairs:
        if not p.is_constant():
            raise ValueError("fast power path needs constant coefficients")
    flat = [t for idx, _ in pairs for t in idx]
    if len(set(flat)) != len(flat):
        raise ValueError("fast power path needs disjoint pairs")
    from itertools import combinations

    vars = domega.vars
    out = {}
    fact = Scalar(factorial(q))
    for subset in combinations(pairs, q):
        coeff = fact
        merged = []
        for idx, p in subset:
            coeff = coeff * p.constant_value()
            merged.extend(idx)
        merged = tuple(sorted(merged))
        out[merged] = out.get(merged, Poly.zero(vars)) + Poly.constant(vars, coeff)
    return PolyForm(vars, 2 * q, out)


@dataclass(frozen=True)
class ContactIdentity:
    ok: bool
    q: int
    constant: Optional[Scalar]
    residual: Optional[Poly]  # nonzero remainder when the identity fails


def sl_contact_identity(n: int) -> ContactIdentity:
    """Expand omega ^ (d omega)^q ^ d(det) exactly, at the top-degree
    exponent q = ((2n)^2 - 2) / 2, and compare it against
    constant * det * volume with a nonzero constant."""
    omega, delta, d_delta = _contact_forms(n)
    vars = omega.vars
    q = (len(vars) - 2) // 2
    power = two_form_pair_power(exterior_d(omega), q)
    top = poly_wedge(poly_wedge(omega, power), d_delta)
    volume = tuple(range(len(vars)))
    c, residual = _scalar_multiple(top, PolyForm(vars, len(vars), {volume: delta}))
    if c and residual.is_zero:
        return ContactIdentity(True, q, c, None)
    return ContactIdentity(False, q, None, residual.coeffs.get(volume, Poly.zero(vars)))


def singular_pairings(n: int) -> dict:
    """P_{ij} = sum_{l=1}^{n} (x_{i,2l-1} x_{j,2l} - x_{i,2l} x_{j,2l-1}),
    one polynomial per pair i <= j (the diagonal ones vanish identically)."""
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


def rotation_fields(n: int) -> dict:
    """A_{ij} = sum_l (x_{jl} d/dx_{il} - x_{il} d/dx_{jl}), i < j."""
    vars = matrix_vars(n)
    out = {}
    for i in range(1, 2 * n + 1):
        for j in range(i + 1, 2 * n + 1):
            comps = [Poly.zero(vars) for _ in vars]
            for l in range(1, 2 * n + 1):
                comps[_vid(n, i, l)] = comps[_vid(n, i, l)] + coordinate(n, j, l)
                comps[_vid(n, j, l)] = comps[_vid(n, j, l)] - coordinate(n, i, l)
            out[(i, j)] = PolyVectorField(vars, comps)
    return out


def evaluate_singular_equations(n: int, point) -> dict:
    """Evaluate every pairing polynomial at an exact matrix point."""
    mat = square_matrix(point, 2 * n, "point")
    flat = [x for row in mat for x in row]
    return {key: p.eval(flat) for key, p in singular_pairings(n).items()}


def is_singular_point(n: int, point) -> bool:
    values = evaluate_singular_equations(n, point)
    return all(not v for v in values.values())


class OrthogonalityError(ValueError):
    pass


def so_invariance_check(n: int, m) -> bool:
    """Pullback of the rotation form under x -> m.x equals the form itself.

    Preconditions, checked: m^T m = identity exactly and det m = 1.
    """
    size = 2 * n
    mat = square_matrix(m, size)
    if mat_mul(transpose(mat), mat) != identity(size):
        raise OrthogonalityError("matrix is not orthogonal")
    if det(mat) != ONE:
        raise OrthogonalityError("matrix must have determinant 1")
    # x_{jl} -> sum_r m_{jr} x_{rl}: build the (2n)^2 linear substitution
    nv = size * size
    sub = [[ZERO] * nv for _ in range(nv)]
    for j in range(1, size + 1):
        for l in range(1, size + 1):
            row = _vid(n, j, l)
            for r in range(1, size + 1):
                if mat[j - 1][r - 1]:
                    sub[row][_vid(n, r, l)] = mat[j - 1][r - 1]
    omega = rotation_pair_form(n)
    return pullback_linear(omega, sub) == omega


def pythagorean_rotation(a: int, b: int):
    """Exact rational rotation from the (a^2-b^2, 2ab, a^2+b^2) triple."""
    a2, b2 = a * a, b * b
    h = Scalar(a2 + b2)
    c = Scalar(a2 - b2) / h
    s = Scalar(2 * a * b) / h
    return ((c, s), (-s, c))


def block_rotation(n: int, blocks):
    """Block-diagonal orthogonal matrix from n 2x2 rotation blocks;
    ValueError unless there are exactly n blocks, each 2 x 2."""
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
    (omega(Z) - det, the scalar c with i(Z) d omega = c * d det)."""
    data = sl_contact_data(n)
    pair_defect = form_on_field(data.omega, data.reeb) - data.delta
    contraction = poly_interior(data.reeb, exterior_d(data.omega))
    c, defect = _scalar_multiple(contraction, data.d_delta)
    return pair_defect, (c if defect.is_zero else None)
