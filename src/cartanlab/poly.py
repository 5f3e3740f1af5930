"""Sparse multivariate polynomials with Gaussian-rational coefficients.

Terms map packed exponent vectors to Scalars; the variable list is part of
the value and two polynomials must share it exactly (no implicit alignment).

An exponent vector (e_0, ..., e_{n-1}) is one int key with a field of
``FIELD`` = 16 bits per variable, e_0 in the highest (packed monomials,
Monagan & Pearce 2007): key = sum_i e_i << 16 (n - 1 - i).  The top bit of
each field is a guard bit, so an exponent is at most ``MAX_EXPONENT`` =
2^15 - 1 = 32767.  A product of monomials is one int addition and a term
lookup hashes one int, not an n-tuple.  Two fields of at most 32767 sum
to less than 2^16, so a sum never carries into the next field; it sets
the guard bit exactly when the exponent leaves the range, and ``*`` (so
also ``**``) refuses such a result with ValueError.  Keys order as their
exponent tuples do, so ``repr`` sorts the keys; `exponents` unpacks a key
for the code that needs the tuple.

Every Poly keeps one invariant: each key packs one int in 0..MAX_EXPONENT
per variable, and no coefficient is zero.  ``Poly(vars, terms)``, which
takes exponent tuples, is the one checked constructor and establishes it
for outside input.  The arithmetic (``+``, ``-``, ``*``, ``diff``,
``subs``, ``**``) and the named constructors build fresh dicts that
already keep it, and wrap them with ``_trusted`` without checking them
again.  Only a merge of two terms can cancel, and every merge is
`exterior.accumulate`, which drops a term that cancels; a product of
nonzero Scalars is nonzero, Q(i) being a field.

Most products in the SL(2n) code have a one-term factor (a coordinate
times a sub-minor, a constant times a form coefficient, a coefficient
times a substituted image).  ``*`` then shifts the other factor's keys,
which is injective, so it neither merges nor tests for zero.  A unit
coefficient costs no Scalar product, on either side: a one-term factor
+-1 copies or negates each coefficient, and a constant c times a
coefficient +-1 is c or -c, the negation computed once.  Of two one-term
factors the one with coefficient +-1 is the one that shifts, and
``p * 1`` and ``p * -1`` take the same path.  A negation maps +-1 to the
shared ``ONE`` and ``MINUS_ONE`` instead of building a Scalar, and so
does a difference for each term of q that ``p - q`` does not merge.  The
SL(2n) checks keep their coefficients +-1 for this reason and apply each
constant once, to a Scalar; `slgroup._scalar_multiple` scales det or
d(det), whose coefficients are +-1, by c' with no product.  ``**`` is
`scalars.power`, the square-and-multiply of Scalars too, so ``p ** 1``
is ``p``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from operator import or_

from . import exterior
from .scalars import MINUS_ONE, ONE, ZERO, Scalar, check_int, power

FIELD = 16  # bits per variable in a packed key, the guard bit included
MAX_EXPONENT = (1 << (FIELD - 1)) - 1
_MASK = (1 << FIELD) - 1


class VariableMismatch(ValueError):
    pass


@cache
def _guard(nv: int) -> int:
    """The guard bits, the top bit of each field, of an nv-variable key."""
    return sum(1 << (FIELD * f + FIELD - 1) for f in range(nv))


def _shift(nv: int, i) -> int:
    """The bit offset of variable i's field; i is checked as a list index
    is, so -1 is the last variable, and one out of range raises
    VariableMismatch."""
    try:
        return FIELD * (nv - 1 - range(nv)[i])
    except IndexError:
        raise VariableMismatch(f"no variable index {i!r} among {nv}") from None


def _index(vars: tuple, name) -> int:
    """The index of the variable called ``name``; VariableMismatch naming
    it when ``vars`` has no such variable."""
    try:
        return vars.index(name)
    except ValueError:
        raise VariableMismatch(f"no variable {name!r} among {vars}") from None


def _pack(expo: tuple) -> int:
    key = 0
    for e in expo:
        if check_int(e) > MAX_EXPONENT:
            raise ValueError(f"exponent {e} exceeds {MAX_EXPONENT}")
        key = key << FIELD | e
    return key


def _fits(terms: dict, guard: int) -> dict:
    """``terms`` itself when no key has a guard bit set: no exponent of a
    sum of keys left the range."""
    if reduce(or_, terms, 0) & guard:
        raise ValueError(f"an exponent of the product exceeds {MAX_EXPONENT}")
    return terms


def exponents(key: int, nv: int) -> tuple:
    """The exponent tuple that ``key`` packs for nv variables."""
    return tuple((key >> FIELD * (nv - 1 - i)) & _MASK for i in range(nv))


def _fields(key: int, nv: int) -> list:
    """(i, e) for each variable i with exponent e > 0 in ``key``, i
    increasing.  The lowest set bit finds the next nonzero field, so a
    term costs its variables, not all nv."""
    out = []
    while key:
        f = ((key & -key).bit_length() - 1) // FIELD
        e = (key >> FIELD * f) & _MASK
        out.append((nv - 1 - f, e))
        key ^= e << FIELD * f
    out.reverse()
    return out


def _unit(c: Scalar) -> int:
    """1 or -1 when the Scalar c is that unit, else 0.  ONE, the
    coefficient of every coordinate, and MINUS_ONE are caught by
    identity; the rest by the Fractions' int comparisons, far cheaper
    than a Scalar ``==``."""
    if c is ONE:
        return 1
    if c is MINUS_ONE:
        return -1
    if c.im:
        return 0
    r = c.re
    return 1 if r == 1 else -1 if r == -1 else 0


def _negated(c: Scalar) -> Scalar:
    u = _unit(c)
    return MINUS_ONE if u == 1 else ONE if u == -1 else -c


def _times_term(e1: int, c1: Scalar, terms: dict, guard: int) -> dict:
    """The terms of c1 * x^e1 * (sum of ``terms``).  Shifting by e1 is
    injective and c1 * c2 != 0, so nothing merges or cancels.  A unit c1
    costs a negation or nothing per term, and a unit coefficient c2 takes
    c1 or -c1, the negation computed once: neither is a Scalar product.
    Without a shift (e1 = 0) the result shares the int keys of ``terms``."""
    u = _unit(c1)
    if u == 1:
        if not e1:
            return dict(terms)
        out = {e1 + e2: c2 for e2, c2 in terms.items()}
    elif u == -1:
        if not e1:
            return {e2: _negated(c2) for e2, c2 in terms.items()}
        out = {e1 + e2: _negated(c2) for e2, c2 in terms.items()}
    else:
        out, minus = {}, None
        for e2, c2 in terms.items():
            v = _unit(c2)
            if v == 1:
                c2 = c1
            elif v == -1:
                if minus is None:
                    minus = -c1
                c2 = minus
            else:
                c2 = c1 * c2
            out[e1 + e2 if e1 else e2] = c2
        if not e1:
            return out
    return _fits(out, guard)


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
            expo = tuple(expo)
            if len(expo) != nv:
                raise ValueError("bad exponent tuple")
            key = _pack(expo)
            c = Scalar.of(c)
            if c:
                exterior.accumulate(clean, key, c)
        self.terms = clean

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(vars):
        return _trusted(tuple(vars), {})

    @staticmethod
    def constant(vars, c):
        vars, c = tuple(vars), Scalar.of(c)
        return _trusted(vars, {0: c} if c else {})

    @staticmethod
    def variable(vars, name):
        vars = tuple(vars)
        return Poly.var_index(vars, _index(vars, name))

    @staticmethod
    def var_index(vars, i):
        vars = tuple(vars)
        return _trusted(vars, {1 << _shift(len(vars), i): ONE})

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
                terms[1 << _shift(nv, j)] = c
        return _trusted(vars, terms)

    # -- predicates ------------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def degree_in(self, i):
        shift = _shift(len(self.vars), i)
        if not self.terms:
            return -1
        return max((key >> shift) & _MASK for key in self.terms)

    def occurring(self) -> list:
        """The indices of the variables of some term, increasing: the
        nonzero fields of the OR of the keys."""
        return [i for i, _ in _fields(reduce(or_, self.terms, 0), len(self.vars))]

    def _check(self, other):
        if self.vars != other.vars:
            raise VariableMismatch(f"{self.vars} vs {other.vars}")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other, s=1):
        if isinstance(other, (int, Fraction, Scalar)):
            other = Poly.constant(self.vars, other)
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            if s < 0 and e not in out:
                out[e] = _negated(c)
            else:
                exterior.accumulate(out, e, c, s)
        return _trusted(self.vars, out)

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        return Poly.constant(self.vars, other) - self

    def __neg__(self):
        return _trusted(self.vars, {e: _negated(c) for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            s = Scalar.of(other)
            if not s:
                return _trusted(self.vars, {})
            return _trusted(self.vars, _times_term(0, s, self.terms, 0))
        self._check(other)
        a, b = self.terms, other.terms
        guard = _guard(len(self.vars))
        # a one-term factor shifts the other; of two, the unit one shifts
        if len(b) == 1 and not (len(a) == 1 and _unit(next(iter(a.values())))):
            a, b = b, a
        if len(a) == 1:
            ((e1, c1),) = a.items()
            return _trusted(self.vars, _times_term(e1, c1, b, guard))
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                exterior.accumulate(out, e1 + e2, c1 * c2)
        return _trusted(self.vars, _fits(out, guard))

    __rmul__ = __mul__

    def __pow__(self, k):
        # check_int refuses a bool, a float or a negative k before it is read
        return power(self, k, None) if check_int(k) else Poly.constant(self.vars, ONE)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = Poly.constant(self.vars, other)
        return (
            isinstance(other, Poly)
            and self.vars == other.vars
            and self.terms == other.terms
        )

    # -- calculus -----------------------------------------------------------

    def diff(self, var):
        i = _index(self.vars, var) if isinstance(var, str) else var
        shift = _shift(len(self.vars), i)
        step = 1 << shift
        # lowering e_i by one is injective on the terms with e_i > 0, and
        # e * c != 0, so nothing merges or cancels
        out = {}
        for key, c in self.terms.items():
            e = (key >> shift) & _MASK
            if e:
                out[key - step] = c if e == 1 else c * Scalar(e)
        return _trusted(self.vars, out)

    def eval(self, values) -> Scalar:
        """values: per-variable Scalars (sequence aligned with self.vars)."""
        values = [Scalar.of(v) for v in values]
        nv = len(self.vars)
        if len(values) != nv:
            raise VariableMismatch("evaluation point has wrong arity")
        total = ZERO
        for key, c in self.terms.items():
            term = c
            for i, e in _fields(key, nv):
                term = term * values[i] ** e
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
        return self._subs(replacements, replacements[0].vars)

    def _subs(self, images, target: tuple) -> "Poly":
        """`subs` without its checks, for callers that build the images:
        images[i], one per variable, are Polys over ``target``."""
        nv = len(self.vars)
        powers = {}
        out = {}
        for key, c in self.terms.items():
            term = None
            for f in _fields(key, nv):
                image = powers.get(f)
                if image is None:
                    image = powers[f] = images[f[0]] ** f[1]
                term = image if term is None else term * image
            if term is None:
                exterior.accumulate(out, 0, c)
                continue
            for k, v in _times_term(0, c, term.terms, 0).items():
                exterior.accumulate(out, k, v)
        return _trusted(target, out)

    def univariate_coeffs(self):
        """Ascending coefficient list; requires exactly one variable."""
        if len(self.vars) != 1:
            raise VariableMismatch("not univariate")
        d = self.degree_in(0)
        out = [ZERO] * (d + 1) if d >= 0 else []
        for e, c in self.terms.items():
            out[e] = c
        return tuple(out)

    def __repr__(self):
        if not self.terms:
            return "0"
        nv = len(self.vars)
        parts = []
        for key in sorted(self.terms, reverse=True):
            c = self.terms[key]
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.vars, exponents(key, nv))
                if e
            )
            parts.append(f"({c})" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)
