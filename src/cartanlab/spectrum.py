"""Exact characteristic polynomials and eigenvalues over Q(i).

Polynomials are ascending coefficient tuples of Scalars (see `upoly`).
`charpoly` reduces the matrix to Hessenberg form by exact similarity
transforms and reads det(xI - H) off its leading blocks, in O(n^3) Scalar
operations; tests/test_spectrum.py checks it against a Faddeev-LeVerrier
reference.

`scalar_roots` clears denominators once, to Gaussian-integer coefficients
P, and first tries to certify that p is squarefree modulo a prime: for a
prime q = 1 (mod 4) with t^2 = -1 (mod q) and lead(P) a unit under both
images i -> t and i -> -t, a constant gcd(P, P') mod q under both images
proves p squarefree over Q(i).  A common factor of P and P' of positive
degree would have a primitive multiple G in Z[i][x] dividing both (Gauss's
lemma); lead(G) divides lead(P), so G keeps its degree mod q and divides
both images there.  A certified p is its own single squarefree factor, and
its roots are simple mod q under both images, so the root finder lifts
from the same q.  A nontrivial modular gcd proves nothing: then Yun's
algorithm (`upoly.squarefree_decomposition`) splits p as it always has.

Each squarefree factor gives up all of its roots in Q(i) by one modular
route: roots modulo q, Hensel-lifted past a bound on the Gaussian integers
lead*r, and kept only if they vanish exactly (von zur Gathen & Gerhard,
Modern Computer Algebra, ch. 15).  That check runs in Z[i]: a candidate
z = lead*r passes when sum a_k z^k lead^(n-k) = 0, which is P(r) times
lead^n != 0, and a Scalar is built only for a root that passes.  Whatever
has no root in Q(i) is returned as an unfactored polynomial, never as a
float.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import isqrt, lcm
from typing import NamedTuple

from . import upoly
from .liealg import LieAlgebra
from .linalg import square_matrix
from .scalars import ONE, ZERO, Scalar
from .structure import require_jacobi

# Primes tried for the squarefree certificate before Yun's algorithm runs.
# A squarefree p fails at q only when q divides its discriminant under an
# image of i, which for a split p means that two roots meet mod q.  On
# 2400 adjoint spectra of ad(X2) on frobenius_model(p, a), p = 2..4, with
# real and non-real a_k of height 9, every squarefree one was certified
# within the first 9 primes (5..73); 10 keeps a margin.  A try costs one
# Euclid per image on residues, O(n^2) small-int steps, and every try is
# lost on a p that is not squarefree, so the tries stay few: on the
# degree-8 models, ten cost about 6 % of the Fraction-based Yun run that
# follows them.
_CERTIFICATE_TRIES = 10


def _split_primes():
    """Every prime q = 1 (mod 4), ascending, with a t where t^2 = -1 (mod q)."""
    q = 1
    while True:
        q += 4
        if all(q % d for d in range(3, isqrt(q) + 1, 2)):
            yield q, next(t for t in range(q) if (t * t + 1) % q == 0)


def _squarefree_mod(a, q) -> bool:
    """Whether gcd(a, a') is a constant over F_q, for residues a mod q of
    degree >= 1 whose lead is a unit."""
    b = upoly.trim(k * c % q for k, c in enumerate(a))[1:]
    while b:
        r = list(a)
        inv = pow(b[-1], -1, q)
        while len(r) >= len(b):
            f = r.pop() * inv % q
            k = len(r) - len(b) + 1
            for i in range(len(b) - 1):
                r[k + i] = (r[k + i] - f * b[i]) % q
        a, b = b, upoly.trim(r)
    return len(a) == 1


def _squarefree_prime(ints, tries=None):
    """The first (q, t) from `_split_primes`, within the first `tries` of
    them (all, if None), at which lead is a unit and both images of the
    Gaussian-integer coefficients ints are squarefree mod q; else None."""
    lead_re, lead_im = ints[-1]
    # lead is a unit under both images iff q does not divide its norm
    norm = lead_re**2 + lead_im**2
    for q, t in islice(_split_primes(), tries):
        if norm % q and all(_squarefree_mod(p, q) for p in _images(ints, t, q)):
            return q, t
    return None


def _cleared(f) -> list:
    """The coefficients of f times the lcm of their denominators, as
    (re, im) integer pairs."""
    den = lcm(*(x.denominator for c in f for x in (c.re, c.im)))
    return [(int(c.re * den), int(c.im * den)) for c in f]


def _images(ints, t, m):
    """The images of ints under i -> t and i -> -t, reduced mod m."""
    return [[(a + b * s) % m for a, b in ints] for s in (t, -t)]


def _lift(ints, roots, q, t, bound):
    """(m, t, roots) with t and the simple roots mod q of both images
    Newton-lifted to a modulus m > 4*bound^2."""
    m = q
    while m <= 4 * bound * bound:
        m *= m
        t = (t - (t * t + 1) * pow(2 * t, -1, m)) % m
        images = _images(ints, t, m)
        roots = [
            [(r - upoly.evaluate(p, r) * pow(upoly.evaluate(dp, r), -1, m)) % m for r in rs]
            for p, dp, rs in zip(images, map(upoly.derivative, images), roots)
        ]
    return m, t, roots


def _vanishes(ints, x, y) -> bool:
    """Whether sum a_k z^k lead^(n-k) = 0 in Z[i] for z = x + iy, that is
    whether z / lead is a root."""
    lead_re, lead_im = ints[-1]
    acc_re, acc_im = lead_re, lead_im
    pow_re, pow_im = 1, 0
    for a, b in reversed(ints[:-1]):
        pow_re, pow_im = pow_re * lead_re - pow_im * lead_im, pow_re * lead_im + pow_im * lead_re
        acc_re, acc_im = (
            acc_re * x - acc_im * y + a * pow_re - b * pow_im,
            acc_re * y + acc_im * x + a * pow_im + b * pow_re,
        )
    return not (acc_re or acc_im)


def _gaussian_roots(ints, q, t):
    """Every root in Q(i) of a squarefree polynomial with Gaussian-integer
    coefficients ints, given (q, t) from `_squarefree_prime`.

    lead*r = x + iy is a Gaussian integer for every root r, and |x|, |y| <
    bound by Cauchy's bound.  The embeddings i -> t and i -> -t send x + iy
    to x + yt and x - yt.  The roots of both images, all simple mod q, are
    found by exhaustion, Newton-lifted (with t) to a modulus m > 2*bound,
    and each pair gives one candidate x + iy in symmetric residues.
    Completeness rests on the bound; soundness on the exact check in Z[i]
    that keeps a candidate.
    """
    lead_re, lead_im = ints[-1]
    norm = lead_re**2 + lead_im**2
    bound = isqrt(norm) + 1 + max(isqrt(a * a + b * b) + 1 for a, b in ints[:-1])
    roots = [[r for r in range(q) if upoly.evaluate(p, r) % q == 0] for p in _images(ints, t, q)]
    # m > 2*bound recovers x and y; m > (2*bound)^2 also leaves a wrong
    # pairing little chance to land in the box, so the exact check below
    # runs about once per root
    m, t, roots = _lift(ints, roots, q, t, bound)

    def symmetric(v):
        v %= m
        return v - m if 2 * v > m else v

    lead_t, lead_mt = (lead_re + lead_im * s for s in (t, -t))
    half, half_t = pow(2, -1, m), pow(2 * t, -1, m)
    found = []
    for u in roots[0]:
        for v in roots[1]:
            x = symmetric((lead_t * u + lead_mt * v) * half)
            y = symmetric((lead_t * u - lead_mt * v) * half_t)
            if abs(x) < bound and abs(y) < bound and _vanishes(ints, x, y):
                # (x + iy) / lead, with the conjugate of lead over its norm
                found.append(Scalar(Fraction(x * lead_re + y * lead_im, norm),
                                    Fraction(y * lead_re - x * lead_im, norm)))
    return found


class SpectrumResult(NamedTuple):
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
    p = upoly.trim(Scalar.of(c) for c in p)
    if upoly.degree(p) < 1:
        return SpectrumResult((), ())
    ints = _cleared(p)
    prime = _squarefree_prime(ints, _CERTIFICATE_TRIES)
    if prime:
        parts = [(p, 1, ints, prime)]
    else:
        parts = []
        for factor, mult in upoly.squarefree_decomposition(p):
            f_ints = _cleared(factor)
            parts.append((factor, mult, f_ints, _squarefree_prime(f_ints)))
    roots = {}
    remainder = []
    for factor, mult, f_ints, (q, t) in parts:
        found = _gaussian_roots(f_ints, q, t)
        for r in found:
            roots[r] = roots.get(r, 0) + mult
        if len(found) < upoly.degree(factor):
            factor = upoly.monic(factor)
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
        # (x - h_mm) p[m], with the product by x as a shift
        pm = (ZERO,) + p[m]
        if h[m][m]:
            pm = upoly.sub(pm, upoly.mul((h[m][m],), p[m]))
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
