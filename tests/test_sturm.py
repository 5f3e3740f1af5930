from fractions import Fraction

import pytest

from cartanlab.poly import Poly
from cartanlab.sturm import count_real_roots, sturm_chain

U = ("u",)


def _u():
    return Poly.variable(U, "u")


def test_simple_roots():
    u = _u()
    p = u * u - 1
    assert count_real_roots(p) == 2


def test_no_real_roots():
    u = _u()
    assert count_real_roots(u * u + 1) == 0
    assert count_real_roots(u * u * u * u + Fraction(1, 7)) == 0


def test_multiplicities_ignored():
    u = _u()
    p = (u - 1) ** 3 * (u + 2)
    assert count_real_roots(p) == 2


def test_odd_degree_always_has_root():
    u = _u()
    assert count_real_roots(u ** 3 - u + 5) == 1


def test_constants():
    assert count_real_roots([Fraction(3)]) == 0
    with pytest.raises(ValueError):
        sturm_chain([])


def test_float_coefficients_are_refused():
    # a binary float is not an exact rational: Scalar.of refuses it
    for coeffs in ([0.1, 1], [Fraction(1), 0.5]):
        with pytest.raises(TypeError):
            count_real_roots(coeffs)


def test_rational_coefficients():
    u = _u()
    p = u * u * Fraction(4, 9) - Fraction(1, 9)  # roots +-1/2
    assert count_real_roots(p) == 2
