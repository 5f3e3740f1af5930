"""Sparse multivariate polynomials with Gaussian-rational coefficients.

Terms map exponent tuples to Scalars; the variable list is part of the
value and two polynomials must share it exactly (no implicit alignment).

Every Poly keeps one invariant: each exponent tuple has one non-bool int
>= 0 per variable, and no coefficient is zero.  ``Poly(vars, terms)`` is
the one checked constructor and establishes it for outside input.  The
arithmetic (``+``, ``-``, ``*``, ``diff``, ``subs``, ``**``) and the
named constructors build fresh dicts that already keep it, and wrap them
with ``_trusted`` without checking them again.  Only a merge of two terms
can cancel, and every merge is `exterior.accumulate`, which drops a term
that cancels; a product of nonzero Scalars is nonzero, Q(i) being a field.

Most products in the SL(2n) code have a one-term factor (a coordinate
times a sub-minor, a constant times a form coefficient, a coefficient
times a substituted image).  ``*`` then shifts the other factor's
exponents, which is injective, so it neither merges nor tests for zero.
A unit coefficient costs no Scalar product: 1 copies each coefficient
and -1 negates it.  Of two one-term factors the one with coefficient +-1
is the one that shifts, and ``p * 1`` and ``p * -1`` take the same path.
The SL(2n) checks keep their coefficients +-1 for this reason and apply
each constant once, to a Scalar.  ``**`` is `scalars.power`, the
square-and-multiply of Scalars too, so ``p ** 1`` is ``p``.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from . import exterior
from .scalars import ONE, ZERO, Scalar, check_int, power


class VariableMismatch(ValueError):
    pass


def _unit(c: Scalar) -> int:
    """1 or -1 when the Scalar c is that unit, else 0.  ONE itself, the
    coefficient of every coordinate, is caught by identity; the rest by
    the Fractions' int comparisons, far cheaper than a Scalar ``==``."""
    if c is ONE:
        return 1
    if c.im:
        return 0
    r = c.re
    return 1 if r == 1 else -1 if r == -1 else 0


def _times_term(e1: tuple, c1: Scalar, terms: dict) -> dict:
    """The terms of c1 * x^e1 * (sum of ``terms``).  Shifting by e1 is
    injective and c1 * c2 != 0, so nothing merges or cancels.  A constant
    keeps the exponent tuples themselves, and a unit c1 costs a negation
    or nothing per term, not a Scalar product."""
    out = {tuple(map(add, e1, e2)): c2 for e2, c2 in terms.items()} if any(e1) else dict(terms)
    u = _unit(c1)
    if u == 1:
        return out
    if u == -1:
        return {e: -c for e, c in out.items()}
    return {e: c1 * c for e, c in out.items()}


def _trusted(vars: tuple, terms: dict) -> "Poly":
    """Wrap ``terms`` as a Poly without checking it.

    ``terms`` must be a fresh dict that keeps the Poly invariant over
    ``vars`` (a tuple) and that no other Poly holds.
    """
    p = object.__new__(Poly)
    p.vars = vars
    p.terms = terms
    return p


class Poly:
    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms=None):
        self.vars = tuple(vars)
        nv = len(self.vars)
        clean = {}
        for expo, c in (terms or {}).items():
            expo = tuple(check_int(e) for e in expo)
            if len(expo) != nv:
                raise ValueError("bad exponent tuple")
            c = Scalar.of(c)
            if c:
                exterior.accumulate(clean, expo, c)
        self.terms = clean

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(vars):
        return _trusted(tuple(vars), {})

    @staticmethod
    def constant(vars, c):
        vars, c = tuple(vars), Scalar.of(c)
        return _trusted(vars, {(0,) * len(vars): c} if c else {})

    @staticmethod
    def variable(vars, name):
        vars = tuple(vars)
        return Poly.var_index(vars, vars.index(name))

    @staticmethod
    def var_index(vars, i):
        vars = tuple(vars)
        expo = [0] * len(vars)
        expo[i] = 1
        return _trusted(vars, {tuple(expo): ONE})

    @staticmethod
    def linear(vars, coeffs):
        """sum_j coeffs[j] x_j, ``coeffs`` a dict from variable indices to
        coefficients; zero coefficients are dropped."""
        vars = tuple(vars)
        nv = len(vars)
        terms = {}
        for j, c in coeffs.items():
            if isinstance(j, bool) or not isinstance(j, int) or not 0 <= j < nv:
                raise ValueError(f"no variable index {j!r} among {nv}")
            c = Scalar.of(c)
            if c:
                expo = [0] * nv
                expo[j] = 1
                terms[tuple(expo)] = c
        return _trusted(vars, terms)

    # -- predicates ------------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self):
        return all(all(e == 0 for e in expo) for expo in self.terms)

    def constant_value(self) -> Scalar:
        return self.terms.get((0,) * len(self.vars), ZERO)

    def degree_in(self, i):
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def _check(self, other):
        if self.vars != other.vars:
            raise VariableMismatch(f"{self.vars} vs {other.vars}")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other, s=1):
        if isinstance(other, (int, Fraction, Scalar)):
            other = Poly.constant(self.vars, other)
        self._check(other)
        return _trusted(self.vars, exterior.add(self.terms, other.terms, s))

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        return Poly.constant(self.vars, other) - self

    def __neg__(self):
        return _trusted(self.vars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            s = Scalar.of(other)
            if not s:
                return _trusted(self.vars, {})
            return _trusted(self.vars, _times_term((0,) * len(self.vars), s, self.terms))
        self._check(other)
        a, b = self.terms, other.terms
        # a one-term factor shifts the other; of two, the unit one shifts
        if len(b) == 1 and not (len(a) == 1 and _unit(next(iter(a.values())))):
            a, b = b, a
        if len(a) == 1:
            ((e1, c1),) = a.items()
            return _trusted(self.vars, _times_term(e1, c1, b))
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                exterior.accumulate(out, tuple(map(add, e1, e2)), c1 * c2)
        return _trusted(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        return power(self, k, Poly.constant(self.vars, ONE))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = Poly.constant(self.vars, other)
        return (
            isinstance(other, Poly)
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.vars, tuple(sorted(self.terms.items()))))

    # -- calculus -----------------------------------------------------------

    def diff(self, var):
        i = self.vars.index(var) if isinstance(var, str) else var
        # lowering e_i by one is injective on the terms with e_i > 0, and
        # e * c != 0, so nothing merges or cancels
        out = {}
        for expo, c in self.terms.items():
            e = expo[i]
            if e:
                d = list(expo)
                d[i] = e - 1
                out[tuple(d)] = c if e == 1 else c * Scalar(e)
        return _trusted(self.vars, out)

    def eval(self, values) -> Scalar:
        """values: per-variable Scalars (sequence aligned with self.vars)."""
        values = [Scalar.of(v) for v in values]
        if len(values) != len(self.vars):
            raise VariableMismatch("evaluation point has wrong arity")
        total = ZERO
        for expo, c in self.terms.items():
            term = c
            for v, e in zip(values, expo):
                if e:
                    term = term * v**e
            total = total + term
        return total

    def subs(self, replacements) -> "Poly":
        """Substitute Polys for variables: replacements[i] is a Poly over a
        common target variable list (all must agree)."""
        if len(replacements) != len(self.vars):
            raise VariableMismatch("substitution needs one entry per variable")
        if not replacements:
            raise VariableMismatch("an empty substitution fixes no target variables")
        for r in replacements:
            if not isinstance(r, Poly):
                raise TypeError(f"substitution image must be a Poly, not {r!r}")
            if r.vars != replacements[0].vars:
                raise VariableMismatch("substitution images disagree on variables")
        target = replacements[0].vars
        pow_cache = {}

        def image_power(i, e):
            key = (i, e)
            if key not in pow_cache:
                pow_cache[key] = replacements[i] ** e
            return pow_cache[key]

        total = Poly.zero(target)
        for expo, c in self.terms.items():
            term = Poly.constant(target, c)
            for i, e in enumerate(expo):
                if e:
                    term = term * image_power(i, e)
            total = total + term
        return total

    def univariate_coeffs(self):
        """Ascending coefficient list; requires exactly one variable."""
        if len(self.vars) != 1:
            raise VariableMismatch("not univariate")
        d = self.degree_in(0)
        out = [ZERO] * (d + 1) if d >= 0 else []
        for (e,), c in self.terms.items():
            out[e] = c
        return tuple(out)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for expo in sorted(self.terms, reverse=True):
            c = self.terms[expo]
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.vars, expo)
                if e
            )
            parts.append(f"({c})" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)
