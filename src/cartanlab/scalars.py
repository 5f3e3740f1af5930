"""Gaussian rationals: the exact ground field for everything in this package.

A Scalar is a + b*i with a, b arbitrary-precision rationals.  There is no
floating point anywhere downstream; equality is always exact.  Real algebras
simply keep b = 0.

Every text from outside that becomes a number (command-line values, the
seed variable, catalog parameters, file coefficients, `Scalar(str)`) is
read by `parse_rational`, `parse_integer` or `parse_scalar`, which is
built on them, in the one grammar `_RATIONAL`: "-p/q" or "-p" in ASCII
digits, p and q of at most `MAX_DIGITS` digits each.  Without exponents
or other digit sets a number has no more digits than its text, and the
bound caps the cost of reading it, whatever the interpreter's own limit
on int-string conversion is set to.
"""

from __future__ import annotations

import re
from fractions import Fraction


# the one grammar of an exact number read from outside the program: the
# pattern of "re" and "im" in schemas/algebra_file.schema.json, ASCII
# digits only, so a number has no more digits than its text
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")
# the most digits of either integer part of a number read from outside:
# the interpreter's default int-string limit, which `cli.main` lifts so
# that a result of any size prints
MAX_DIGITS = 4300


def parse_rational(text) -> Fraction:
    """Exact rational from a string "-p/q" or "-p" as `_RATIONAL` spells
    it (or from an int).

    Every malformed input raises ValueError, a zero denominator and a
    part of more than `MAX_DIGITS` digits included, so callers that
    report bad input need to catch only that.  Anything but such a str or
    an int (a bool or a binary float read from JSON, a decimal point, an
    exponent, a space or a "+", say) is malformed.
    """
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not (isinstance(text, str) and _RATIONAL.fullmatch(text)):
        raise ValueError(f"not an exact rational: {text!r}")
    num, _, den = text.partition("/")
    if max(len(num) - (num[0] == "-"), len(den)) > MAX_DIGITS:
        raise ValueError(f"a numerator or denominator of more than {MAX_DIGITS} digits")
    try:
        return Fraction(int(num), int(den or 1))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def parse_integer(text) -> int:
    """An integer read as `parse_rational` reads it, so "4/2" is 2; a
    rational that is not an integer raises ValueError."""
    value = parse_rational(text)
    if value.denominator != 1:
        raise ValueError(f"not an integer: {text!r}")
    return value.numerator


def parse_scalar(text) -> "Scalar":
    """Exact Gaussian rational from the text `str(Scalar)` prints: "-3/7",
    "i", "-i", "-3/7i", "1/2-i", "7/9+4/3i", each part as `parse_rational`
    reads it.  Text that does not end in i goes to `parse_rational`; every
    malformed input raises ValueError."""
    if not (isinstance(text, str) and text.endswith("i")):
        return Scalar(parse_rational(text))
    body = text[:-1]
    # a rational has no sign but its leading minus, so a sign after the
    # first character opens the imaginary part
    cut = max(body.rfind("+"), body.rfind("-"))
    if cut <= 0:
        return Scalar(0, parse_rational(body + "1" if body in ("", "-") else body))
    im = parse_rational(body[cut + 1:] or "1")
    return Scalar(parse_rational(body[:cut]), im if body[cut] == "+" else -im)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rational(x)
    raise TypeError(f"cannot build an exact rational from {x!r}")


def check_int(n, least=0, what="exponent") -> int:
    """n itself when it is a non-bool int >= least, the one rule for powers,
    monomial exponents, file indices, dimensions and grades; int() would
    truncate 1.5, parse "2" and take True, so the type is checked."""
    if isinstance(n, bool) or not isinstance(n, int) or n < least:
        raise ValueError(f"{what} must be an integer >= {least}, not {n!r}")
    return n


def power(x, k, one):
    """x ** k by square-and-multiply, one when k = 0.  It starts from x and
    stops squaring after the highest bit: x ** 1 is x, x ** 3 costs two
    products."""
    k = check_int(k)
    if not k:
        return one
    base, out = x, None
    while True:
        if k & 1:
            out = base if out is None else out * base
        k >>= 1
        if not k:
            return out
        base = base * base


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
    def from_strings(re: str, im: str = "0") -> "Scalar":
        """re + im*i from the two strings of a term of an algebra file or a
        cell of a matrix file, each read by `parse_rational`; the file
        schema types both as strings, so a JSON number is refused."""
        if not (isinstance(re, str) and isinstance(im, str)):
            raise ValueError(f"not an exact rational string: {re!r}, {im!r}")
        return Scalar(parse_rational(re), parse_rational(im))

    # -- predicates ----------------------------------------------------

    # a Fraction's own truthiness, not ``== 0``: the comparison with an
    # int costs a Python-level __eq__ per part
    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    # -- arithmetic ----------------------------------------------------

    # An operand that `Scalar.of` cannot coerce returns NotImplemented, so
    # Python asks the other operand (Scalar(2) * p reaches Poly.__rmul__).
    # The try costs nothing when no exception is raised.

    def __add__(self, other):
        try:
            other = Scalar.of(other)
        except TypeError:
            return NotImplemented
        return Scalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        try:
            other = Scalar.of(other)
        except TypeError:
            return NotImplemented
        return Scalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        try:
            return Scalar.of(other) - self
        except TypeError:
            return NotImplemented

    def __neg__(self):
        return Scalar(-self.re, -self.im)

    def __mul__(self, other):
        try:
            other = Scalar.of(other)
        except TypeError:
            return NotImplemented
        return Scalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        try:
            other = Scalar.of(other)
        except TypeError:
            return NotImplemented
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero Scalar")
        return Scalar(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        try:
            return Scalar.of(other) / self
        except TypeError:
            return NotImplemented

    def __pow__(self, k: int):
        return power(self, k, ONE)

    def norm(self) -> Fraction:
        """re^2 + im^2, a rational."""
        return self.re * self.re + self.im * self.im

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other):
        # no str: Scalar(1) == "1" would hold while the hashes differ
        if isinstance(other, (int, Fraction)):
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
MINUS_ONE = Scalar(-1)
I = Scalar(0, 1)
