from fractions import Fraction

from cartanlab import catalog as cat
from cartanlab import upoly
from cartanlab.scalars import I, ONE, ZERO, Scalar
from cartanlab.spectrum import (
    adjoint_spectrum,
    charpoly,
    divisors,
    factor_integer,
    scalar_roots,
)


def _p(*coeffs):
    return tuple(Scalar.of(c) for c in coeffs)


def test_poly_divmod_and_gcd():
    a = _p(-1, 0, 1)  # x^2 - 1
    b = _p(-1, 1)  # x - 1
    q, r = upoly.divmod(a, b)
    assert q == _p(1, 1) and r == ()
    g = upoly.gcd(_p(-1, 0, 1), _p(1, 1))
    assert g == _p(1, 1)


def test_squarefree_decomposition():
    # (x - 1)^2 (x + 2)
    p = upoly.mul(upoly.mul(_p(-1, 1), _p(-1, 1)), _p(2, 1))
    parts = upoly.squarefree_decomposition(p)
    assert ( _p(2, 1), 1) in parts and (_p(-1, 1), 2) in parts


def test_factor_integer_and_divisors():
    assert factor_integer(360) == {2: 3, 3: 2, 5: 1}
    assert sorted(divisors(12)) == [1, 2, 3, 4, 6, 12]
    big = 1000003 * 999983
    assert factor_integer(big) == {1000003: 1, 999983: 1}


def test_charpoly_2x2():
    rows = ((Scalar(1), Scalar(2)), (Scalar(3), Scalar(4)))
    # x^2 - 5x - 2
    assert charpoly(rows) == (Scalar(-2), Scalar(-5), ONE)


def test_scalar_roots_rational_and_multiplicity():
    # (x - 1/2)^2 (x + 3) x
    p = upoly.mul(
        upoly.mul(_p(Fraction(-1, 2), 1), _p(Fraction(-1, 2), 1)), _p(3, 1)
    )
    p = upoly.mul(p, _p(0, 1))
    res = scalar_roots(p)
    assert dict(res.eigenvalues) == {
        Scalar(Fraction(1, 2)): 2,
        Scalar(-3): 1,
        ZERO: 1,
    }
    assert res.unfactored == ()


def test_scalar_roots_imaginary_pairs():
    # (x^2 + 1)(x^2 + 4): roots +-i, +-2i
    p = upoly.mul(_p(1, 0, 1), _p(4, 0, 1))
    res = scalar_roots(p)
    assert dict(res.eigenvalues) == {I: 1, -I: 1, Scalar(0, 2): 1, Scalar(0, -2): 1}


def test_scalar_roots_quadratic_formula_over_gaussian_field():
    # x^2 - 2i: roots +-(1 + i)
    p = (Scalar(0, -2), ZERO, ONE)
    res = scalar_roots(p)
    assert dict(res.eigenvalues) == {Scalar(1, 1): 1, Scalar(-1, -1): 1}


def test_scalar_roots_keeps_irreducible_factor():
    # x^2 - 2 has no roots in the Gaussian rationals
    res = scalar_roots(_p(-2, 0, 1))
    assert res.eigenvalues == ()
    assert len(res.unfactored) == 1
    factor, mult = res.unfactored[0]
    assert mult == 1 and factor == _p(-2, 0, 1)


def test_adjoint_spectrum_model_family():
    g = cat.frobenius_model(2, [2]).algebra
    spec = adjoint_spectrum(g, 2)
    assert spec.contains(2) and spec.contains(-3)
    assert dict(spec.eigenvalues) == {
        Scalar(2): 1,
        Scalar(-3): 1,
        Scalar(-1): 1,
        ZERO: 1,
    }


def test_adjoint_spectrum_trivial_cases():
    ab = cat.abelian(3).algebra
    assert dict(adjoint_spectrum(ab, 2).eigenvalues) == {ZERO: 3}
    h3 = cat.heisenberg(1).algebra
    assert dict(adjoint_spectrum(h3, 1).eigenvalues) == {ZERO: 3}


def test_adjoint_spectrum_rotation():
    so3 = cat.dim3("so3").algebra
    spec = adjoint_spectrum(so3, 1)
    assert dict(spec.eigenvalues) == {ZERO: 1, I: 1, -I: 1}
