"""Sparse exterior-algebra kernel shared by every coefficient ring.

A form is a coefficient dict: strictly increasing index tuple -> nonzero
coefficient.  The routines below use only +, -, * and truthiness of the
coefficients, so the same code serves `forms.DualForm` (Scalar
coefficients on a Lie coalgebra) and `polyforms.PolyForm` (Poly
coefficients on affine space).  What differs between the two, the space,
the index range and the coercion of coefficients, stays with the callers.

`accumulate` is the package's one merge of sparse coefficient dicts
(forms, `poly.Poly` terms, bracket tables, cyclic sums and cochains), and
`add` and `add_scaled` loop over it.  It takes a term's sign s = 1 or -1,
so a difference or an odd-sign term subtracts rather than negating a
copy, and it drops an entry whose sum cancels.
"""

from __future__ import annotations

from bisect import bisect_left

from .scalars import check_int


def merge_sign(a: tuple, b: tuple):
    """Sign of sorting the concatenation of two increasing index tuples.

    Returns (sorted tuple, sign) or (None, 0) when an index repeats.  A
    lone index is placed by bisection, and the sign counts the entries of
    the other tuple that it passes; other shapes are merged.
    """
    if not b:
        return a, 1
    if len(b) == 1:
        y = b[0]
        k = bisect_left(a, y)
        if k < len(a) and a[k] == y:
            return None, 0
        return a[:k] + b + a[k:], -1 if (len(a) - k) & 1 else 1
    if len(a) == 1:
        x = a[0]
        k = bisect_left(b, x)
        if k < len(b) and b[k] == x:
            return None, 0
        return b[:k] + a + b[k:], -1 if k & 1 else 1
    inversions = 0
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None, 0
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            # b[j] jumps over the remaining entries of a
            inversions += len(a) - i
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out), (-1) ** (inversions & 1)


def normalize(coeffs, grade: int, lo: int, hi: int, coerce, error):
    """Checked copy of a coefficient dict.

    Every index tuple must have length `grade`, increase strictly and stay
    in lo <= t < hi; coefficients pass through `coerce` and zeros are
    dropped.  A violation raises `error`.
    """
    clean = {}
    for idx, v in (coeffs or {}).items():
        idx = tuple(idx)
        if len(idx) != grade:
            raise error("index tuple length does not match grade")
        if any(idx[t] >= idx[t + 1] for t in range(len(idx) - 1)):
            raise error("index tuples must be strictly increasing")
        if idx and not (lo <= idx[0] and idx[-1] < hi):
            raise error("form index out of range")
        v = coerce(v)
        if v:
            clean[idx] = v
    return clean


def accumulate(out: dict, key, v, s=1):
    """out[key] += s * v for s = 1 or -1, v nonzero.  A new entry takes v,
    or -v with one negation; an entry whose sum cancels is dropped."""
    w = out.get(key)
    if w is None:
        out[key] = v if s > 0 else -v
    else:
        w = w + v if s > 0 else w - v
        if w:
            out[key] = w
        else:
            del out[key]


def add(a: dict, b: dict, s=1) -> dict:
    """a + s * b as a fresh dict."""
    out = dict(a)
    for key, v in b.items():
        accumulate(out, key, v, s)
    return out


def add_scaled(out: dict, terms: dict, u, s=1):
    """out += s * u * terms in place, one product u * v per term."""
    for key, v in terms.items():
        accumulate(out, key, u * v, s)


def negate(a: dict) -> dict:
    return {idx: -v for idx, v in a.items()}


def scale(a: dict, s) -> dict:
    if not s:
        return {}
    return {idx: v * s for idx, v in a.items()}


def wedge(a: dict, b: dict) -> dict:
    """Exterior product; graded commutative, zero when an index repeats."""
    out = {}
    for ia, va in a.items():
        for ib, vb in b.items():
            idx, sign = merge_sign(ia, ib)
            if idx is None:
                continue
            accumulate(out, idx, va * vb, sign)
    return out


def wedge_power(a: dict, k: int, one) -> dict:
    """a^k, starting from the grade-0 form `one`; k is a non-bool int >= 0."""
    out = {(): one}
    for _ in range(check_int(k)):
        out = wedge(out, a)
    return out


def interior(a: dict, comps, first: int) -> dict:
    """i(X)theta(X_1,..,X_{q-1}) = theta(X, X_1, .., X_{q-1}), where
    comps[t - first] is the component of X along index t."""
    out = {}
    for idx, v in a.items():
        for r, t in enumerate(idx):
            x = comps[t - first]
            if not x:
                continue
            accumulate(out, idx[:r] + idx[r + 1 :], v * x, -1 if r % 2 else 1)
    return out
