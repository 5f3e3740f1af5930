"""Packed `Poly` keys against a tuple-keyed reference, the field limit of a
key, and the hash of a constant.

The reference keeps each polynomial as a dict from exponent tuples to
nonzero Scalars and does every operation by its definition, so it shares
no code with the packed keys: a carry between fields, a wrong shift or a
key unpacked in the wrong order shows as a disagreement."""

from fractions import Fraction
from itertools import combinations

import pytest

from cartanlab.poly import MAX_EXPONENT, Poly, exponents
from cartanlab.polyforms import PolyForm, exterior_d, pullback_rows
from cartanlab.randgen import random_rational, rng
from cartanlab.scalars import MINUS_ONE, ONE, ZERO, Scalar

# -- the tuple-keyed reference ------------------------------------------------


def _ref(p):
    return {exponents(key, len(p.vars)): c for key, c in p.terms.items()}


def _ref_add(a, b, s=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, ZERO) + (c if s > 0 else -c)
    return {e: c for e, c in out.items() if c}


def _ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, ZERO) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _ref_one(nv):
    return {(0,) * nv: ONE}


def _ref_pow(a, nv, k):
    out = _ref_one(nv)
    for _ in range(k):
        out = _ref_mul(out, a)
    return out


def _ref_diff(a, i):
    out = {}
    for e, c in a.items():
        if e[i]:
            d = list(e)
            d[i] -= 1
            out[tuple(d)] = c * e[i]
    return out


def _ref_eval(a, values):
    total = ZERO
    for e, c in a.items():
        for v, k in zip(values, e):
            for _ in range(k):
                c = c * v
        total = total + c
    return total


def _ref_subs(a, images, nv):
    total = {}
    for e, c in a.items():
        term = {(0,) * nv: c}
        for i, k in enumerate(e):
            term = _ref_mul(term, _ref_pow(images[i], nv, k))
        total = _ref_add(total, term)
    return total


def _ref_merge(i, j):
    """(sorted i + j, sign) by counting the inversions of the concatenation."""
    if set(i) & set(j):
        return None, 0
    inversions = sum(1 for x in i for y in j if x > y)
    return tuple(sorted(i + j)), (-1) ** inversions


def _ref_wedge(a, b):
    out = {}
    for i, p in a.items():
        for j, q in b.items():
            idx, sign = _ref_merge(i, j)
            if idx is not None:
                out[idx] = _ref_add(out.get(idx, {}), _ref_mul(p, q), sign)
    return {idx: p for idx, p in out.items() if p}


def _ref_d(coeffs, nv):
    """d(f dx_I) = sum over every variable v of (df/dx_v) dx_v ^ dx_I."""
    out = {}
    for idx, p in coeffs.items():
        for v in range(nv):
            out = _ref_form_add(out, _ref_wedge({(v,): _ref_diff(p, v)}, {idx: _ref_one(nv)}))
    return out


def _ref_form_add(a, b):
    out = dict(a)
    for idx, p in b.items():
        out[idx] = _ref_add(out.get(idx, {}), p)
    return {idx: p for idx, p in out.items() if p}


def _ref_pullback(coeffs, rows, nv):
    images = [{tuple(int(t == j) for t in range(nv)): Scalar.of(c) for j, c in row.items()} for row in rows]
    d_images = [{(j,): {(0,) * nv: Scalar.of(c)} for j, c in row.items()} for row in rows]
    out = {}
    for idx, p in coeffs.items():
        pulled = {(): _ref_subs(p, images, nv)}
        for t in idx:
            pulled = _ref_wedge(pulled, d_images[t])
        out = _ref_form_add(out, pulled)
    return out


def _ref_repr(vars, a):
    """Terms by descending exponent tuple, as `Poly.__repr__` prints them."""
    parts = []
    for e in sorted(a, reverse=True):
        mono = "*".join(f"{v}^{k}" if k > 1 else v for v, k in zip(vars, e) if k)
        parts.append(f"({a[e]})" + (f"*{mono}" if mono else ""))
    return " + ".join(parts) or "0"


def _form_ref(f):
    return {idx: _ref(p) for idx, p in f.coeffs.items()}


# -- seeded polynomials -----------------------------------------------------------

UNITS = (ONE, MINUS_ONE, Scalar(1), Scalar(-1), Fraction(-1), 1)


def _coefficient(r, units):
    if units:
        return r.choice(UNITS)
    return Scalar(random_rational(r), r.randint(-2, 2)) or ONE


def _poly(vars, r, units, terms=4, degree=3):
    """A sparse polynomial: each term raises a few variables to small powers."""
    nv = len(vars)
    out = {}
    for _ in range(terms):
        e = [0] * nv
        for _ in range(r.randint(0, min(nv, 3))):
            e[r.randrange(nv)] += r.randint(1, degree)
        out[tuple(e)] = _coefficient(r, units)
    return Poly(vars, out)


@pytest.mark.parametrize("nv", [1, 4, 16, 64])
@pytest.mark.parametrize("units", [False, True], ids=["gaussian", "units"])
def test_packed_arithmetic_matches_the_tuple_reference(nv, units):
    vars = tuple(f"v{k}" for k in range(nv))
    r = rng(3100 + nv + 7 * units)
    for _ in range(8):
        p, q = _poly(vars, r, units), _poly(vars, r, units)
        m = _poly(vars, r, units, terms=1)
        rp, rq, rm = _ref(p), _ref(q), _ref(m)
        assert _ref(p + q) == _ref_add(rp, rq)
        assert _ref(p - q) == _ref_add(rp, rq, -1)
        assert _ref(-p) == _ref_add({}, rp, -1)
        for a, b, ra, rb in ((p, q, rp, rq), (p, m, rp, rm), (m, q, rm, rq), (m, m, rm, rm)):
            assert _ref(a * b) == _ref_mul(ra, rb)
        c = _coefficient(r, units)
        assert _ref(p * c) == _ref(c * p) == _ref_mul(rp, {(0,) * nv: Scalar.of(c)})
        for k in range(4):
            assert _ref(p ** k) == _ref_pow(rp, nv, k)
        i = r.randrange(nv)
        assert _ref(p.diff(i)) == _ref_diff(rp, i)
        point = [Scalar(random_rational(r), r.randint(-1, 1)) for _ in vars]
        assert p.eval(point) == _ref_eval(rp, point)
        images = [_poly(vars, r, units, terms=2, degree=1) for _ in vars]
        assert _ref(p.subs(images)) == _ref_subs(rp, [_ref(x) for x in images], nv)
        for a in (p, q, m, p * q, Poly.zero(vars)):
            assert repr(a) == _ref_repr(vars, _ref(a))


@pytest.mark.parametrize("nv", [4, 16, 64])
@pytest.mark.parametrize("units", [False, True], ids=["gaussian", "units"])
def test_packed_forms_match_the_tuple_reference(nv, units):
    vars = tuple(f"v{k}" for k in range(nv))
    r = rng(3200 + nv + 7 * units)
    for grade in range(3):
        pool = list(combinations(range(nv), grade))
        for _ in range(3):
            picks = r.sample(pool, min(3, len(pool)))
            form = PolyForm(vars, grade, {idx: _poly(vars, r, units, terms=3, degree=2) for idx in picks})
            coeffs = _form_ref(form)
            assert _form_ref(exterior_d(form)) == _ref_d(coeffs, nv)
            rows = [{j: _coefficient(r, units) for j in r.sample(range(nv), r.randint(1, 2))} for _ in vars]
            assert _form_ref(pullback_rows(form, rows)) == _ref_pullback(coeffs, rows, nv)


# -- the field limit ----------------------------------------------------------------


def test_an_exponent_at_the_field_limit_is_kept_and_one_more_step_raises():
    vars = ("x", "y", "z")
    x, y, z = (Poly.var_index(vars, i) for i in range(3))
    top = Poly(vars, {(MAX_EXPONENT, 0, 0): 1})
    assert top == x ** MAX_EXPONENT
    assert _ref(top * y) == {(MAX_EXPONENT, 1, 0): ONE}
    assert _ref(top.diff(0)) == {(MAX_EXPONENT - 1, 0, 0): Scalar(MAX_EXPONENT)}
    assert top.degree_in(0) == MAX_EXPONENT and top.degree_in(1) == 0
    mid = Poly(vars, {(0, MAX_EXPONENT, 0): 1})
    assert _ref(mid * z ** MAX_EXPONENT) == {(0, MAX_EXPONENT, MAX_EXPONENT): ONE}
    # one step past the limit in each factor shape: a one-term shift, a
    # product of two many-term factors, a constant factor that is not a
    # unit, and a power; none may carry into the field of the variable before
    for step in (
        lambda: top * x,
        lambda: x * top,
        lambda: top * (x + y),
        lambda: (top + y) * (x + z),
        lambda: (top * Scalar(0, 2)) * (x * 3),
        lambda: mid * (y + 1),
        lambda: x ** (MAX_EXPONENT + 1),
        lambda: (x ** 16384) ** 2,
        lambda: (top + y) ** 2,
        lambda: top.subs([x * x, y, z]),
    ):
        with pytest.raises(ValueError, match=str(MAX_EXPONENT)):
            step()
    for bad in ((MAX_EXPONENT + 1, 0, 0), (0, 1 << 16, 0), (0, 0, 1 << 15)):
        with pytest.raises(ValueError, match=str(MAX_EXPONENT)):
            Poly(vars, {bad: 1})


# -- equality -----------------------------------------------------------------------


@pytest.mark.parametrize("c", [3, -1, Fraction(-2, 7), Scalar(1, 2), Scalar(0, -1), 0])
def test_a_constant_poly_equals_its_scalar_and_is_unhashable(c):
    # a Poly is mutable (slgroup hands out fresh ones whose dicts a caller
    # may change), so it has no hash for a cache or a set to rely on
    for vars in ((), ("x",), ("x", "y", "z")):
        p = Poly.constant(vars, c)
        assert p == c and c == p and p == Scalar.of(c)
        with pytest.raises(TypeError, match="unhashable"):
            hash(p)


def test_equal_polys_are_equal_whatever_the_order_of_their_terms():
    vars = ("x", "y")
    x, y = (Poly.var_index(vars, i) for i in range(2))
    a = x * x + Scalar(0, 3) * y + 1
    b = 1 + (y * Scalar(0, 3) + x * x)
    assert a == b and b == a
    assert list(a.terms) != list(b.terms)
