"""Polynomial contact geometry of the special linear group of even rank.

All objects live on the (2n)^2 matrix coordinates x_{ij}: the rotation-pair
1-form, the determinant and its differential, the explicit Reeb-type field
built from minors, the rotation-invariance pullback check, and the singular
set pairing polynomials.  Everything is an exact polynomial identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Optional

from .linalg import as_matrix, det, identity, mat_mul, transpose
from .poly import Poly
from .polyforms import (
    PolyForm,
    PolyVectorField,
    exterior_d,
    form_on_field,
    poly_interior,
    poly_wedge,
    poly_wedge_power,
    pullback_linear,
)
from .scalars import ONE, ZERO, Scalar


def matrix_vars(n: int):
    """Variable names for the (2n) x (2n) matrix coordinates, row major."""
    m = 2 * n
    return tuple(f"x{i}_{j}" for i in range(1, m + 1) for j in range(1, m + 1))


def _vid(n, i, j):
    m = 2 * n
    return (i - 1) * m + (j - 1)


def coordinate(n, i, j) -> Poly:
    return Poly.var_index(matrix_vars(n), _vid(n, i, j))


def _laplace(n: int, rows, cols) -> Poly:
    """det of the symbolic submatrix on the given (nonempty) rows and
    columns, by expansion along its first row."""
    vars = matrix_vars(n)

    def expand(rows, cols):
        if len(rows) == 1:
            return coordinate(n, rows[0], cols[0])
        total = Poly.zero(vars)
        r = rows[0]
        for t, c in enumerate(cols):
            sub = expand(rows[1:], cols[:t] + cols[t + 1 :])
            term = coordinate(n, r, c) * sub
            total = total + (term if t % 2 == 0 else -term)
        return total

    return expand(tuple(rows), tuple(cols))


def det_poly(n: int) -> Poly:
    """det of the symbolic (2n) x (2n) matrix, by expansion along row 1."""
    m = 2 * n
    return _laplace(n, range(1, m + 1), range(1, m + 1))


def minor_poly(n: int, i: int, j: int) -> Poly:
    """Minor of the (i, j) entry (no cofactor sign)."""
    m = 2 * n
    rows = [r for r in range(1, m + 1) if r != i]
    cols = [c for c in range(1, m + 1) if c != j]
    return _laplace(n, rows, cols)


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


def reeb_candidate(n: int) -> PolyVectorField:
    """(1/2n) sum_{j,i} (-1)^{j+1} (M_{j,2i-1} d/dx_{j,2i} + M_{j,2i} d/dx_{j,2i-1})
    with M_{jl} the minors; pairs to det against the rotation form."""
    vars = matrix_vars(n)
    comps = [Poly.zero(vars) for _ in vars]
    scale = ONE / Scalar(2 * n)
    for j in range(1, 2 * n + 1):
        sign = ONE if j % 2 == 1 else -ONE
        for i in range(1, n + 1):
            comps[_vid(n, j, 2 * i)] = comps[_vid(n, j, 2 * i)] + minor_poly(
                n, j, 2 * i - 1
            ) * (sign * scale)
            comps[_vid(n, j, 2 * i - 1)] = comps[_vid(n, j, 2 * i - 1)] + minor_poly(
                n, j, 2 * i
            ) * (sign * scale)
    return PolyVectorField(vars, comps)


@dataclass(frozen=True)
class SLContactData:
    n: int
    omega: PolyForm
    delta: Poly  # the determinant polynomial
    d_delta: PolyForm  # its exterior differential (cofactor 1-form)
    reeb: PolyVectorField


def sl_contact_data(n: int) -> SLContactData:
    if n < 1:
        raise ValueError("n must be >= 1")
    omega = rotation_pair_form(n)
    delta = det_poly(n)
    return SLContactData(n, omega, delta, exterior_d(PolyForm.function(delta)), reeb_candidate(n))


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


def sl_contact_identity(n: int, q: Optional[int] = None, fast: bool = True) -> ContactIdentity:
    """Expand omega ^ (d omega)^q ^ d(det) exactly and compare against
    constant * det * volume.

    The top-degree exponent is q = ((2n)^2 - 2) / 2; passing any other q
    reports a degree failure instead of an answer.
    """
    data = sl_contact_data(n)
    nvars = len(data.omega.vars)
    top_q = (nvars - 2) // 2
    if q is None:
        q = top_q
    if q != top_q:
        return ContactIdentity(False, q, None, None)
    domega = exterior_d(data.omega)
    power = (
        two_form_pair_power(domega, q) if fast else poly_wedge_power(domega, q)
    )
    total = poly_wedge(poly_wedge(data.omega, power), data.d_delta)
    if total.grade != nvars:
        return ContactIdentity(False, q, None, None)
    coeff = total.coeffs.get(tuple(range(nvars)))
    if coeff is None:
        return ContactIdentity(False, q, None, Poly.zero(data.omega.vars))
    # match one monomial of det to read off the candidate constant
    expo, val = next(iter(data.delta.terms.items()))
    cand = coeff.terms.get(expo, ZERO) / val
    residual = coeff - data.delta * cand
    if residual.is_zero:
        return ContactIdentity(True, q, cand, None)
    return ContactIdentity(False, q, None, residual)


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
    mat = as_matrix(point)
    m = 2 * n
    if len(mat) != m or any(len(r) != m for r in mat):
        raise ValueError("point must be a (2n) x (2n) matrix")
    flat = [mat[i][j] for i in range(m) for j in range(m)]
    return {key: p.eval(flat) for key, p in singular_pairings(n).items()}


def is_singular_point(n: int, point) -> bool:
    values = evaluate_singular_equations(n, point)
    return all(not v for v in values.values())


class OrthogonalityError(ValueError):
    pass


def so_invariance_check(n: int, m, enforce: bool = True) -> bool:
    """Pullback of the rotation form under x -> m.x equals the form itself.

    Preconditions (checked when enforce=True): m^T m = identity exactly and
    det m = 1.  Returns the exact equality verdict either way.
    """
    mat = as_matrix(m)
    size = 2 * n
    if len(mat) != size or any(len(r) != size for r in mat):
        raise ValueError("matrix must be (2n) x (2n)")
    if enforce:
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
    """Block-diagonal orthogonal matrix from n 2x2 rotation blocks."""
    size = 2 * n
    out = [[ZERO] * size for _ in range(size)]
    for k, block in enumerate(blocks):
        for r in range(2):
            for c in range(2):
                out[2 * k + r][2 * k + c] = Scalar.of(block[r][c])
    return tuple(tuple(row) for row in out)


def reeb_identities(n: int):
    """Exact pairings of the candidate Reeb field: returns
    (omega(Z) - det, the scalar c with i(Z) d omega = c * d det)."""
    data = sl_contact_data(n)
    pair_defect = form_on_field(data.omega, data.reeb) - data.delta
    contraction = poly_interior(data.reeb, exterior_d(data.omega))
    # solve contraction = c * d_delta by matching one nonzero coefficient
    c = None
    for idx, p in data.d_delta.coeffs.items():
        q = contraction.coeffs.get(idx)
        if q is None:
            c = ZERO
            break
        expo, val = next(iter(p.terms.items()))
        c = q.terms.get(expo, ZERO) / val
        break
    if c is None:
        c = ZERO
    defect = contraction - data.d_delta.scale(c)
    return pair_defect, (c if defect.is_zero else None)
