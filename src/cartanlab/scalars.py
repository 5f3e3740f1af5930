"""Gaussian rationals: the exact ground field for everything in this package.

A Scalar is a + b*i with a, b arbitrary-precision rationals.  There is no
floating point anywhere downstream; equality is always exact.  Real algebras
simply keep b = 0.
"""

from __future__ import annotations

from fractions import Fraction


def parse_rational(text) -> Fraction:
    """Exact rational from a string such as "-3/7" (or an integer).

    Every malformed input raises ValueError, a zero denominator included,
    so callers that report bad input need to catch only that.
    """
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rational(x)
    raise TypeError(f"cannot build an exact rational from {x!r}")


class Scalar:
    """Exact Gaussian rational a + b*i.

    Fractions keep denominators positive and in lowest terms, so canonical
    equality and hashing come for free.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def of(x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        if isinstance(x, (int, Fraction, str)):
            return Scalar(x)
        raise TypeError(f"cannot coerce {x!r} to Scalar")

    @staticmethod
    def i() -> "Scalar":
        return Scalar(0, 1)

    @staticmethod
    def from_strings(re: str, im: str = "0") -> "Scalar":
        return Scalar(parse_rational(re), parse_rational(im))

    # -- predicates ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    @property
    def is_rational(self) -> bool:
        return self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = Scalar.of(other)
        return Scalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = Scalar.of(other)
        return Scalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return Scalar.of(other) - self

    def __neg__(self):
        return Scalar(-self.re, -self.im)

    def __mul__(self, other):
        other = Scalar.of(other)
        return Scalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Scalar.of(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero Scalar")
        return Scalar(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        return Scalar.of(other) / self

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("Scalar powers must be nonnegative integers")
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "Scalar":
        return Scalar(self.re, -self.im)

    def norm(self) -> Fraction:
        """re^2 + im^2, a rational."""
        return self.re * self.re + self.im * self.im

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, str)):
            other = Scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    # -- display ---------------------------------------------------------

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        imtxt = "i" if mag == 1 else f"{mag}i"
        return f"{self.re}{sign}{imtxt}"

    def __repr__(self):
        return f"Scalar({str(self)!r})" if self.im else f"Scalar({str(self.re)!r})"


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)


def sc(x) -> Scalar:
    """Shorthand coercion used all over the test-suites and demos."""
    return Scalar.of(x)


def rational_sqrt(q: Fraction):
    """Exact square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn = _isqrt_exact(num)
    rd = _isqrt_exact(den)
    if rn is None or rd is None:
        return None
    return Fraction(rn, rd)


def _isqrt_exact(n: int):
    from math import isqrt

    r = isqrt(n)
    return r if r * r == n else None


def gaussian_sqrt(z: Scalar):
    """Exact square root of a Scalar inside Q(i), or None when none exists.

    Solves w^2 = z: |w|^2 must be the rational square root of norm(z), and
    the real part satisfies 2*c^2 = re(z) + |w|^2.
    """
    if z.is_zero:
        return ZERO
    r = rational_sqrt(z.norm())
    if r is None:
        return None
    c2 = (z.re + r) / 2
    c = rational_sqrt(c2)
    if c is None:
        return None
    if c != 0:
        d = z.im / (2 * c)
        w = Scalar(c, d)
    else:
        d2 = -z.re
        d = rational_sqrt(d2)
        if d is None:
            return None
        w = Scalar(0, d)
    return w if w * w == z else None
