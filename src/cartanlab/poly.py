"""Sparse multivariate polynomials with Gaussian-rational coefficients.

Terms map exponent tuples to Scalars; the variable list is part of the
value and two polynomials must share it exactly (no implicit alignment).
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import ONE, ZERO, Scalar


class VariableMismatch(ValueError):
    pass


class Poly:
    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms=None):
        self.vars = tuple(vars)
        nv = len(self.vars)
        clean = {}
        for expo, c in (terms or {}).items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != nv or any(e < 0 for e in expo):
                raise ValueError("bad exponent tuple")
            c = Scalar.of(c)
            if c:
                clean[expo] = clean.get(expo, ZERO) + c
                if not clean[expo]:
                    del clean[expo]
        self.terms = clean

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(vars):
        return Poly(vars)

    @staticmethod
    def constant(vars, c):
        c = Scalar.of(c)
        if not c:
            return Poly(vars)
        return Poly(vars, {(0,) * len(tuple(vars)): c})

    @staticmethod
    def variable(vars, name):
        vars = tuple(vars)
        idx = vars.index(name)
        expo = [0] * len(vars)
        expo[idx] = 1
        return Poly(vars, {tuple(expo): ONE})

    @staticmethod
    def var_index(vars, i):
        vars = tuple(vars)
        expo = [0] * len(vars)
        expo[i] = 1
        return Poly(vars, {tuple(expo): ONE})

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

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, i):
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def _check(self, other):
        if self.vars != other.vars:
            raise VariableMismatch(f"{self.vars} vs {other.vars}")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = Poly.constant(self.vars, other)
        self._check(other)
        out = dict(self.terms)
        for expo, c in other.terms.items():
            w = out.get(expo, ZERO) + c
            if w:
                out[expo] = w
            else:
                out.pop(expo, None)
        return Poly(self.vars, out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = Poly.constant(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Poly(self.vars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            s = Scalar.of(other)
            if not s:
                return Poly(self.vars)
            return Poly(self.vars, {e: c * s for e, c in self.terms.items()})
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                w = out.get(expo, ZERO) + c1 * c2
                if w:
                    out[expo] = w
                else:
                    out.pop(expo, None)
        return Poly(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        out = Poly.constant(self.vars, ONE)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

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
        out = {}
        for expo, c in self.terms.items():
            e = expo[i]
            if e == 0:
                continue
            d = list(expo)
            d[i] = e - 1
            key = tuple(d)
            w = out.get(key, ZERO) + c * Scalar(e)
            if w:
                out[key] = w
        return Poly(self.vars, out)

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
        target = replacements[0].vars
        for r in replacements:
            if r.vars != target:
                raise VariableMismatch("substitution images disagree on variables")
        pow_cache = {}

        def power(i, e):
            key = (i, e)
            if key not in pow_cache:
                pow_cache[key] = replacements[i] ** e
            return pow_cache[key]

        total = Poly.zero(target)
        for expo, c in self.terms.items():
            term = Poly.constant(target, c)
            for i, e in enumerate(expo):
                if e:
                    term = term * power(i, e)
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
