"""Sparse exterior-algebra kernel shared by every coefficient ring.

A form is a coefficient dict: strictly increasing index tuple -> nonzero
coefficient.  The routines below use only +, -, * and truthiness of the
coefficients, so the same code serves `forms.DualForm` (Scalar
coefficients on a Lie coalgebra) and `polyforms.PolyForm` (Poly
coefficients on affine space).  What differs between the two, the space,
the index range and the coercion of coefficients, stays with the callers.
"""

from __future__ import annotations


def merge_sign(a: tuple, b: tuple):
    """Sign of sorting the concatenation of two increasing index tuples.

    Returns (sorted tuple, sign) or (None, 0) when an index repeats.
    """
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


def accumulate(out: dict, idx: tuple, v):
    """out[idx] += v, dropping the entry when the sum vanishes."""
    w = out.get(idx)
    w = v if w is None else w + v
    if w:
        out[idx] = w
    else:
        out.pop(idx, None)


def add(a: dict, b: dict) -> dict:
    out = dict(a)
    for idx, v in b.items():
        accumulate(out, idx, v)
    return out


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
            v = va * vb
            accumulate(out, idx, v if sign > 0 else -v)
    return out


def wedge_power(a: dict, k: int, one) -> dict:
    """a^k, starting from the grade-0 form `one`."""
    out = {(): one}
    for _ in range(k):
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
            term = v * x
            accumulate(out, idx[:r] + idx[r + 1 :], -term if r % 2 else term)
    return out
