"""Exact real-root counting for rational univariate polynomials.

Sturm chains over Fractions: p0 = p, p1 = p', p_{k+1} = -rem(p_{k-1}, p_k);
the number of distinct real roots in (a, b] is V(a) - V(b), and the count
over the whole line uses the sign limits at +-infinity.  No floats.
"""

from __future__ import annotations

from fractions import Fraction

from . import upoly
from .scalars import Scalar


def _coeffs(p):
    """Accept a Poly in one variable, a Scalar list, or a Fraction list."""
    if hasattr(p, "univariate_coeffs"):
        p = p.univariate_coeffs()
    out = []
    for c in p:
        if isinstance(c, Scalar):
            if c.im != 0:
                raise ValueError("Sturm sequences need real coefficients")
            out.append(c.re)
        else:
            out.append(Fraction(c))
    return upoly.trim(out)


def sturm_chain(p):
    p = _coeffs(p)
    if not p:
        raise ValueError("Sturm chain of the zero polynomial is undefined")
    chain = [p]
    d = upoly.derivative(p)
    if d:
        chain.append(d)
        while len(chain[-1]) > 1:
            r = upoly.divmod(chain[-2], chain[-1])[1]
            if not r:
                break
            chain.append(tuple(-c for c in r))
    return chain


def _variations(signs):
    filtered = [s for s in signs if s != 0]
    return sum(
        1 for a, b in zip(filtered, filtered[1:]) if a * b < 0
    )


def _sign_at(p, x: Fraction):
    v = upoly.evaluate(p, x)
    return (v > 0) - (v < 0)


def _sign_at_inf(p, positive: bool):
    lead = p[-1]
    deg = len(p) - 1
    s = (lead > 0) - (lead < 0)
    if positive or deg % 2 == 0:
        return s
    return -s


def count_real_roots(p) -> int:
    """Number of distinct real roots (multiplicity ignored)."""
    chain = sturm_chain(p)
    if len(chain[0]) == 1:
        return 0
    v_neg = _variations([_sign_at_inf(q, False) for q in chain])
    v_pos = _variations([_sign_at_inf(q, True) for q in chain])
    return v_neg - v_pos


def count_real_roots_in(p, a, b) -> int:
    """Distinct real roots in the half-open interval (a, b]."""
    a, b = Fraction(a), Fraction(b)
    if a >= b:
        raise ValueError("need a < b")
    chain = sturm_chain(p)
    if len(chain[0]) == 1:
        return 0
    va = _variations([_sign_at(q, a) for q in chain])
    vb = _variations([_sign_at(q, b) for q in chain])
    return va - vb


def has_real_root(p) -> bool:
    return count_real_roots(p) > 0
