import sys
from fractions import Fraction

import pytest

from cartanlab.randgen import random_rational, rng
from cartanlab.scalars import MAX_DIGITS, I, ONE, ZERO, Scalar, parse_integer, parse_rational, parse_scalar


def test_arithmetic_is_exact():
    a = Scalar(Fraction(1, 3), Fraction(2, 7))
    b = Scalar(Fraction(-5, 2), 1)
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * ONE == a
    assert a + ZERO == a
    assert -(-a) == a


def test_denominators_normalized():
    s = Scalar(Fraction(2, -4), Fraction(6, 8))
    assert s.re == Fraction(-1, 2) and s.re.denominator == 2
    assert s.im == Fraction(3, 4)


def test_gaussian_multiplication():
    assert I * I == -1
    z = Scalar(1, 2) * Scalar(3, -1)
    assert z == Scalar(5, 5)


def test_division_and_zero():
    z = Scalar(2, 1)
    assert ONE / z * z == ONE
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    assert not ZERO
    assert z


def test_powers():
    assert Scalar(0, 1) ** 4 == ONE
    assert Scalar(2) ** 10 == 1024
    assert Scalar(2) ** 0 == ONE and Scalar(0) ** 0 == ONE


@pytest.mark.parametrize("k", [-1, 1.5, "2", True, False])
def test_powers_reject_bad_exponents(k):
    # the exponent rule of Poly: a non-bool int >= 0
    with pytest.raises(ValueError, match="integer >= 0"):
        Scalar(2) ** k


def test_parsing_and_coercion():
    assert Scalar.of("3/4") == Scalar(Fraction(3, 4))
    assert Scalar.of(5) == Scalar(5)
    assert Scalar.from_strings("-3/7", "1/2") == Scalar(Fraction(-3, 7), Fraction(1, 2))
    assert str(Scalar.of("-3/7")) == "-3/7"
    assert str(Scalar(0, -1)) == "-i"
    assert str(Scalar(1, 2)) == "1+2i"


def test_parse_scalar_reads_what_str_prints():
    for text, value in (("i", I), ("-i", -I), ("-3/7i", Scalar(0, Fraction(-3, 7))),
                        ("1/2-i", Scalar(Fraction(1, 2), -1)),
                        ("7/9+4/3i", Scalar(Fraction(7, 9), Fraction(4, 3))), ("-3/7", Scalar.of("-3/7"))):
        assert parse_scalar(text) == value and str(value) == text
    r = rng(41)
    for _ in range(500):
        s = Scalar(random_rational(r), random_rational(r))
        assert parse_scalar(str(s)) == s
    for bad in ("ii", "1+-2i", "1/0i", "xi", "1/2+", "", "1.5.2", "+i", "1e-5+2e-1i", "1--i"):
        with pytest.raises(ValueError):
            parse_scalar(bad)


def test_one_grammar_reads_every_exact_number():
    # "-p/q" or "-p" in ASCII digits, the file schema's pattern; an integer
    # is such a rational with denominator 1
    for text, value in (("-3/7", Fraction(-3, 7)), ("007", 7), ("4/2", 2), ("-0", 0), (5, 5)):
        assert parse_rational(text) == value
    assert parse_integer("4/2") == 2 and parse_integer("-6/3") == -2 and parse_integer(7) == 7
    for text in ("0.5", "1e5", "1e100000000", " 1", "1 ", "+1", "1_0", "\uff12", "1/-2", "--1", "",
                 "/2", "1/", "1/2\n", "1/0"):
        for read in (parse_rational, parse_integer, parse_scalar, Scalar):
            with pytest.raises(ValueError):
                read(text)
    for value in (True, 1.5, None):
        for read in (parse_rational, parse_integer, parse_scalar):
            with pytest.raises(ValueError):
                read(value)
    with pytest.raises(ValueError, match="not an integer"):
        parse_integer("1/2")
    # the {"re", "im"} cell of a file is typed as strings: no JSON number
    with pytest.raises(ValueError):
        Scalar.from_strings(1)


def test_a_number_has_at_most_max_digits_per_part_whatever_the_interpreter_limit():
    limit = sys.get_int_max_str_digits()
    try:
        for setting in (limit, 0):
            sys.set_int_max_str_digits(setting)
            top = "9" * MAX_DIGITS
            assert parse_rational(top) == int(top) and parse_rational(f"-1/{top}") == Fraction(-1, int(top))
            for text in ("1" * (MAX_DIGITS + 1), "-" + "1" * (MAX_DIGITS + 1), "1/" + "1" * (MAX_DIGITS + 1),
                         "0" * (MAX_DIGITS + 1)):
                for read in (parse_rational, parse_integer, parse_scalar):
                    with pytest.raises(ValueError, match=f"more than {MAX_DIGITS} digits"):
                        read(text)
    finally:
        sys.set_int_max_str_digits(limit)


def test_hash_consistency():
    assert hash(Scalar(3)) == hash(Fraction(3))
    d = {Scalar(1, 2): "z"}
    assert d[Scalar(Fraction(2, 2), Fraction(4, 2))] == "z"


def test_equality_reads_no_strings():
    # a str is neither parsed nor equal: Scalar(1) == "1" would hold while
    # the two hashes differ
    assert (ONE == "abc") is False
    assert Scalar(1) != "1" and "1" != ONE
    assert {Scalar(1): "one"}.get("1") is None
    assert Scalar(1) == 1 and Scalar(1) == Fraction(2, 2) and Scalar(0, 1) == I
