"""Univariate polynomials as ascending coefficient tuples over a field.

The routines use only field arithmetic and truthiness of the coefficients,
so the same code serves Q(i) (Scalar coefficients, for adjoint spectra)
and Q (Fraction coefficients, for Sturm chains).  Results are trimmed: the
leading coefficient is nonzero and the zero polynomial is the empty tuple.
`mul` skips zero factors, so a sparse polynomial costs one product per
pair of nonzero coefficients.
"""

from __future__ import annotations

from itertools import zip_longest


def trim(p) -> tuple:
    p = tuple(p)
    n = len(p)
    while n and not p[n - 1]:
        n -= 1
    return p[:n]


def degree(p) -> int:
    return len(p) - 1


def evaluate(p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def mul(a, b) -> tuple:
    if not a or not b:
        return ()
    out = [None] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                xy = x * y
                k = i + j
                out[k] = xy if out[k] is None else out[k] + xy
    zero = a[-1] - a[-1]
    return trim(zero if c is None else c for c in out)


def sub(a, b) -> tuple:
    return trim(x - y for x, y in zip_longest(a, b, fillvalue=0))


def divmod(a, b):
    """(quotient, remainder) of a by a nonzero b."""
    b = trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    db, lead = len(b) - 1, b[-1]
    q = [lead - lead] * max(0, len(a) - db)
    while True:
        while a and not a[-1]:
            a.pop()
        if len(a) - 1 < db or not a:
            break
        k = len(a) - 1 - db
        f = a[-1] / lead
        q[k] = f
        for i in range(len(b)):
            a[k + i] = a[k + i] - f * b[i]
        a.pop()
    return trim(q), trim(a)


def derivative(p) -> tuple:
    return trim(p[i] * i for i in range(1, len(p)))


def monic(p) -> tuple:
    p = trim(p)
    if not p:
        return p
    lead = p[-1]
    return tuple(c / lead for c in p)


def gcd(a, b) -> tuple:
    """Monic greatest common divisor."""
    a, b = trim(a), trim(b)
    while b:
        a, b = b, divmod(a, b)[1]
    return monic(a)


def squarefree_decomposition(p):
    """Yun's algorithm: [(factor, multiplicity), ...] with p = prod f_k^k,
    each factor squarefree and monic, constants dropped."""
    p = monic(p)
    if degree(p) < 1:
        return []
    dp = derivative(p)
    a = gcd(p, dp)
    if degree(a) == 0:
        return [(p, 1)]
    b, _ = divmod(p, a)
    c, _ = divmod(dp, a)
    d = sub(c, derivative(b))
    out = []
    i = 1
    while degree(b) > 0:
        ai = gcd(b, d)
        if degree(ai) > 0:
            out.append((monic(ai), i))
        b, _ = divmod(b, ai)
        c, _ = divmod(d, ai)
        d = sub(c, derivative(b))
        i += 1
        if i > len(p) + 2:
            raise AssertionError("squarefree decomposition did not terminate")
    return out
