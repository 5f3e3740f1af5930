"""Exact characteristic polynomials and eigenvalues over Q(i).

Polynomials are ascending coefficient tuples of Scalars (see `upoly`).
`charpoly` reduces the matrix to Hessenberg form by exact similarity
transforms and reads det(xI - H) off its leading blocks, in O(n^3) Scalar
operations; tests/test_spectrum.py checks it against a Faddeev-LeVerrier
reference.  Each squarefree factor of a characteristic polynomial gives up
all of its roots in Q(i) by one modular route: roots modulo a prime
q = 1 (mod 4), where i has a square root, Hensel-lifted past a bound on
the Gaussian integers lead*r and kept only if they evaluate to exactly 0
(von zur Gathen & Gerhard, Modern Computer Algebra, ch. 15).  Whatever
has no root in Q(i) is returned as an unfactored polynomial, never as a
float.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt, lcm

from . import upoly
from .liealg import LieAlgebra
from .linalg import square_matrix
from .scalars import ONE, Scalar
from .structure import require_jacobi


def _gaussian_roots(f):
    """Every root in Q(i) of a squarefree polynomial f over Q(i).

    With denominators cleared, f has coefficients a_k in Z[i] and lead
    a_n, so lead*r = x + iy is a Gaussian integer for every root r, and
    |x|, |y| < bound by Cauchy's bound.  Modulo a prime q = 1 (mod 4) with
    t^2 = -1, the embeddings i -> t and i -> -t send x + iy to x + yt and
    x - yt.  The roots of both images are found mod q by exhaustion,
    Newton-lifted (with t) to a modulus m > 2*bound, and each pair gives
    one candidate x + iy in symmetric residues.  Completeness rests on the
    bound; soundness on the exact evaluation that keeps a candidate.
    """
    den = lcm(*(x.denominator for c in f for x in (c.re, c.im)))
    ints = [(int(c.re * den), int(c.im * den)) for c in f]
    lead_re, lead_im = ints[-1]
    lead_norm = lead_re**2 + lead_im**2
    bound = isqrt(lead_norm) + 1 + max(isqrt(a * a + b * b) + 1 for a, b in ints[:-1])

    def images(t):
        return [[a + b * s for a, b in ints] for s in (t, -t)]

    def lift(p, r, m):
        return (r - upoly.evaluate(p, r) * pow(upoly.evaluate(upoly.derivative(p), r), -1, m)) % m

    # q must keep lead a unit and every root of both images simple, so
    # that each root of f has one image mod q and that image lifts uniquely
    q = 1
    while True:
        q += 4
        if lead_norm % q == 0 or any(q % d == 0 for d in range(3, isqrt(q) + 1, 2)):
            continue
        t = next(t for t in range(q) if (t * t + 1) % q == 0)
        pair = images(t)
        roots = [[r for r in range(q) if upoly.evaluate(p, r) % q == 0] for p in pair]
        if all(upoly.evaluate(upoly.derivative(p), r) % q for p, rs in zip(pair, roots) for r in rs):
            break
    # m > 2*bound recovers x and y; m > (2*bound)^2 also leaves a wrong
    # pairing little chance to land in the box, so the exact check below
    # runs about once per root
    m = q
    while m <= 4 * bound * bound:
        m *= m
        t = (t - (t * t + 1) * pow(2 * t, -1, m)) % m
        roots = [[lift(p, r, m) for r in rs] for p, rs in zip(images(t), roots)]

    def symmetric(v):
        v %= m
        return v - m if 2 * v > m else v

    lead = Scalar(lead_re, lead_im)
    lead_t, lead_mt = (lead_re + lead_im * s for s in (t, -t))
    half, half_t = pow(2, -1, m), pow(2 * t, -1, m)
    found = []
    for u in roots[0]:
        for v in roots[1]:
            x = symmetric((lead_t * u + lead_mt * v) * half)
            y = symmetric((lead_t * u - lead_mt * v) * half_t)
            if abs(x) < bound and abs(y) < bound:
                r = Scalar(x, y) / lead
                if not upoly.evaluate(f, r):
                    found.append(r)
    return found


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
    roots = {}
    remainder = []
    for factor, mult in upoly.squarefree_decomposition([Scalar.of(c) for c in p]):
        found = _gaussian_roots(factor)
        for r in found:
            roots[r] = roots.get(r, 0) + mult
        if len(found) < upoly.degree(factor):
            for r in found:
                factor = upoly.divmod(factor, (-r, ONE))[0]
            remainder.append((factor, mult))
    ordered = tuple(
        sorted(roots.items(), key=lambda kv: (kv[0].re, kv[0].im))
    )
    return SpectrumResult(ordered, tuple(remainder))


def charpoly(rows) -> tuple:
    """Monic characteristic polynomial det(xI - A) of a square matrix,
    ascending coefficients, in O(n^3) Scalar operations.

    A is brought to upper Hessenberg form H by exact similarity transforms
    (row i -= u * row m, then column m += u * column i), and det(xI - H) is
    read off the leading blocks of H by Hessenberg's recurrence (Cohen,
    A Course in Computational Algebraic Number Theory, Alg. 2.2.9).
    """
    n = len(rows)
    h = [list(row) for row in square_matrix(rows, n)]
    for m in range(1, n - 1):
        pivot = next((i for i in range(m, n) if h[i][m - 1]), None)
        if pivot is None:
            continue
        if pivot != m:
            h[m], h[pivot] = h[pivot], h[m]
            for row in h:
                row[m], row[pivot] = row[pivot], row[m]
        inv = ONE / h[m][m - 1]
        for i in range(m + 1, n):
            if not h[i][m - 1]:
                continue
            u = h[i][m - 1] * inv
            # rows m and i are already zero left of column m - 1
            for j in range(m - 1, n):
                if h[m][j]:
                    h[i][j] -= u * h[m][j]
            for row in h:
                if row[i]:
                    row[m] += u * row[i]
    # p[k] = det(xI - H_k) for the leading k x k block H_k
    p = [(ONE,)]
    for m in range(n):
        pm = upoly.mul((-h[m][m], ONE), p[m])
        chain = ONE
        for i in range(m, 0, -1):
            chain *= h[i][i - 1]
            if not chain:
                break
            if h[i - 1][m]:
                pm = upoly.sub(pm, upoly.mul((h[i - 1][m] * chain,), p[i - 1]))
        p.append(pm)
    return p[n]


def adjoint_spectrum(g: LieAlgebra, index: int) -> SpectrumResult:
    """Eigenvalues of ad(X_index) as exact roots of its characteristic
    polynomial; non-Q(i) spectrum is reported in factored form."""
    if isinstance(index, bool) or not isinstance(index, int):
        raise TypeError(f"basis index must be an integer, not {index!r}")
    require_jacobi(g)
    if not (1 <= index <= g.dim):
        raise ValueError("basis index out of range")
    return scalar_roots(charpoly(g.adjoint_rows(index)))
