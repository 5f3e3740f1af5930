"""Exact characteristic polynomials and eigenvalues over Q(i).

Polynomials are ascending coefficient tuples of Scalars (see `upoly`).  Root
extraction
never leaves the exact field: rational roots come from divisor candidates
of the cleared-denominator polynomial, pure imaginary roots from the real
and imaginary parts of p(iy), and quadratic remainders from an exact
square root in Q(i) when one exists.  Whatever cannot be split this way is
returned as an unfactored polynomial, never as a float.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import upoly
from .liealg import LieAlgebra
from .linalg import identity, mat_add, mat_mul, mat_scale, trace
from .scalars import ONE, ZERO, Scalar, gaussian_sqrt
from .structure import require_jacobi

# -- integer factorization for root candidates -------------------------------


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    x, c = 2, 1
    while True:
        y, d = x, 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
        c += 1
        x = c + 1


def factor_integer(n: int) -> dict:
    n = abs(n)
    out = {}
    if n < 2:
        return out
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        for p in (2, 3, 5, 7, 11, 13):
            if m % p == 0:
                stack.extend([p, m // p])
                break
        else:
            d = _pollard_rho(m)
            stack.extend([d, m // d])
    return out


def divisors(n: int):
    out = [1]
    for p, e in factor_integer(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return out


# -- root extraction ----------------------------------------------------------


def _clear_denominators(p):
    """Rational-coefficient poly -> primitive integer coefficient list."""
    fracs = [c.re for c in p]
    denom = 1
    for f in fracs:
        denom = denom * f.denominator // gcd(denom, f.denominator)
    ints = [int(f * denom) for f in fracs]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def _rational_roots_squarefree(p):
    """All rational roots of a squarefree rational-coefficient polynomial."""
    ints = _clear_denominators(p)
    while ints and ints[0] == 0:
        raise AssertionError("zero roots should be stripped before the search")
    if len(ints) <= 1:
        return []
    a0, ad = abs(ints[0]), abs(ints[-1])
    roots = []
    for num in divisors(a0):
        for den in divisors(ad):
            if gcd(num, den) != 1:
                continue
            for sign in (1, -1):
                cand = Scalar(Fraction(sign * num, den))
                if not upoly.evaluate(p, cand):
                    roots.append(cand)
    return roots


def _imaginary_roots_squarefree(p):
    """Roots iy, y rational nonzero, of a squarefree rational polynomial."""
    re_part = []
    im_part = []
    for k, c in enumerate(p):
        f = c.re
        if k % 4 == 0:
            re_part.append((k, f))
        elif k % 4 == 2:
            re_part.append((k, -f))
        elif k % 4 == 1:
            im_part.append((k, f))
        else:
            im_part.append((k, -f))

    def build(pairs):
        if not pairs:
            return ()
        out = [ZERO] * (max(k for k, _ in pairs) + 1)
        for k, f in pairs:
            out[k] = Scalar(f)
        return upoly.trim(out)

    a_poly, b_poly = build(re_part), build(im_part)
    if not a_poly and not b_poly:
        return []
    g = upoly.gcd(a_poly, b_poly) if a_poly and b_poly else upoly.trim(a_poly or b_poly)
    if upoly.degree(g) < 1:
        return []
    while g and not g[0]:
        g = g[1:]  # y = 0 gives the real root case, handled elsewhere
    found = []
    for y in _rational_roots_squarefree(upoly.monic(g)):
        cand = Scalar(0, y.re)
        if cand and not upoly.evaluate(p, cand):
            found.append(cand)
    return found


def _quadratic_roots(p):
    c, b, a = p[0], p[1], p[2]
    disc = b * b - Scalar(4) * a * c
    root = gaussian_sqrt(disc)
    if root is None:
        return None
    half = ONE / Scalar(2)
    inv_a = ONE / a
    return [(-b + root) * half * inv_a, (-b - root) * half * inv_a]


@dataclass(frozen=True)
class SpectrumResult:
    eigenvalues: tuple  # ((Scalar, multiplicity), ...)
    unfactored: tuple  # (ascending coefficient tuple, multiplicity) pairs

    def contains(self, value) -> bool:
        value = Scalar.of(value)
        return any(ev == value for ev, _ in self.eigenvalues)

    def multiset(self):
        out = []
        for ev, m in self.eigenvalues:
            out.extend([ev] * m)
        return out


def scalar_roots(p) -> SpectrumResult:
    """Split off every root of p that lies in Q(i)."""
    p = upoly.monic(Scalar.of(c) for c in p)
    if upoly.degree(p) < 1:
        return SpectrumResult((), ())
    roots = {}
    zero_mult = 0
    while len(p) > 1 and not p[0]:
        zero_mult += 1
        p = p[1:]
    if zero_mult:
        roots[ZERO] = zero_mult
    remainder = []
    rational_coeffs = all(c.is_rational for c in p)
    for factor, mult in upoly.squarefree_decomposition(p):
        candidates = []
        if rational_coeffs and all(c.is_rational for c in factor):
            candidates.extend(_rational_roots_squarefree(factor))
            candidates.extend(_imaginary_roots_squarefree(factor))
        for r in candidates:
            q, rem = upoly.divmod(factor, (-r, ONE))
            if rem:
                raise AssertionError("claimed root does not divide")
            factor = q
            roots[r] = roots.get(r, 0) + mult
        if upoly.degree(factor) == 1:
            r = -factor[0] / factor[1]
            roots[r] = roots.get(r, 0) + mult
        elif upoly.degree(factor) == 2:
            pair = _quadratic_roots(factor)
            if pair is None:
                remainder.append((factor, mult))
            else:
                for r in pair:
                    roots[r] = roots.get(r, 0) + mult
        elif upoly.degree(factor) > 0:
            remainder.append((factor, mult))
    ordered = tuple(
        sorted(roots.items(), key=lambda kv: (kv[0].re, kv[0].im))
    )
    return SpectrumResult(ordered, tuple(remainder))


def charpoly(rows) -> tuple:
    """Monic characteristic polynomial det(xI - A), ascending coefficients,
    by the Faddeev-LeVerrier recursion (exact division by integers)."""
    n = len(rows)
    a = tuple(tuple(Scalar.of(x) for x in row) for row in rows)
    coeffs = [ZERO] * (n + 1)
    coeffs[n] = ONE
    m = a
    for k in range(1, n + 1):
        ck = -(trace(m) / Scalar(k))
        coeffs[n - k] = ck
        if k < n:
            m = mat_mul(a, mat_add(m, mat_scale(identity(n), ck)))
    return tuple(coeffs)


def adjoint_spectrum(g: LieAlgebra, index: int) -> SpectrumResult:
    """Eigenvalues of ad(X_index) as exact roots of its characteristic
    polynomial; non-Q(i) spectrum is reported in factored form."""
    require_jacobi(g)
    if not (1 <= index <= g.dim):
        raise ValueError("basis index out of range")
    return scalar_roots(charpoly(g.adjoint_rows(index)))
