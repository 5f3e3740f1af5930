import random
from collections import Counter
from fractions import Fraction

import pytest

from cartanlab import catalog as cat
from cartanlab import spectrum, upoly
from cartanlab.linalg import invert, mat_mul
from cartanlab.scalars import I, ONE, ZERO, Scalar
from cartanlab.spectrum import adjoint_spectrum, charpoly, scalar_roots


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


def test_squarefree_decomposition_guard_fires_on_a_gcd_that_stops_dividing(monkeypatch):
    # the first gcd, (x - 1), is right; every later one is a constant, so
    # the loop would divide by 1 forever without its guard
    calls = []
    gcd = upoly.gcd

    def stalls(a, b):
        calls.append(a)
        if len(calls) > 100:
            raise RuntimeError("the guard let the loop run on")
        return gcd(a, b) if len(calls) == 1 else (ONE,)

    monkeypatch.setattr(upoly, "gcd", stalls)
    with pytest.raises(AssertionError, match="did not terminate"):
        upoly.squarefree_decomposition(upoly.mul(upoly.mul(_p(-1, 1), _p(-1, 1)), _p(2, 1)))


def test_charpoly_2x2():
    rows = ((Scalar(1), Scalar(2)), (Scalar(3), Scalar(4)))
    # x^2 - 5x - 2
    assert charpoly(rows) == (Scalar(-2), Scalar(-5), ONE)


def _faddeev_leverrier(a):
    """Reference det(xI - A): c_{n-k} = -tr(M_k)/k with M_1 = A and
    M_{k+1} = A (M_k + c_{n-k} I), n - 1 matrix products in all."""
    n = len(a)
    coeffs = [ZERO] * n + [ONE]
    m = a
    for k in range(1, n + 1):
        ck = -sum((m[i][i] for i in range(n)), ZERO) / k
        coeffs[n - k] = ck
        if k < n:
            m = mat_mul(a, [[x + ck if i == j else x for j, x in enumerate(row)] for i, row in enumerate(m)])
    return tuple(coeffs)


def _random_matrix(r, n):
    def entry():
        if r.random() < 0.4:
            return ZERO
        im = Fraction(r.randint(-5, 5), r.randint(1, 4)) if r.random() < 0.3 else 0
        return Scalar(Fraction(r.randint(-9, 9), r.randint(1, 6)), im)

    return tuple(tuple(entry() for _ in range(n)) for _ in range(n))


def test_charpoly_matches_faddeev_leverrier_on_random_matrices():
    # sizes 0..10, five each, then 275 more of sizes 0..5: the O(n^4)
    # reference is what makes the large ones slow
    r = random.Random(7)
    for case in range(330):
        a = _random_matrix(r, case % (11 if case < 55 else 6))
        cp = charpoly(a)
        assert len(cp) == len(a) + 1 and cp[-1] == ONE, case
        assert cp == _faddeev_leverrier(a), case


def test_charpoly_matches_faddeev_leverrier_on_special_shapes():
    r = random.Random(8)
    # first column zero below its first two rows: the pivot needs a swap
    swap = [[Scalar(1), Scalar(2), Scalar(0, 1), Scalar(3)],
            [ZERO, Scalar(4), ONE, ZERO],
            [Scalar(5), ZERO, Scalar(-1), Scalar(2)],
            [Scalar(Fraction(1, 3)), ONE, ZERO, Scalar(7)]]
    # block upper triangular: a zero subdiagonal entry ends the chain
    block = [[Scalar(2), ONE, Scalar(3), Scalar(0, -2)],
             [Scalar(-1), Scalar(1, 1), ZERO, Scalar(4)],
             [ZERO, ZERO, Scalar(5), ONE],
             [ZERO, ZERO, Scalar(-3), Scalar(Fraction(1, 2))]]
    # nilpotent: strictly upper triangular, and that conjugated by a
    # random unipotent lower triangular matrix
    nil = [[Scalar(r.randint(-4, 4)) if j > i else ZERO for j in range(6)] for i in range(6)]
    lower = [[ONE if i == j else (Scalar(r.randint(-3, 3), r.randint(-2, 2)) if i > j else ZERO)
              for j in range(6)] for i in range(6)]
    conj = mat_mul(mat_mul(lower, nil), invert(lower))
    for a in (swap, block, nil, conj):
        assert charpoly(a) == _faddeev_leverrier(a)
    assert charpoly(conj) == (ZERO,) * 6 + (ONE,)
    assert charpoly(block) == upoly.mul(charpoly([row[:2] for row in block[:2]]),
                                        charpoly([row[2:] for row in block[2:]]))


def test_charpoly_matches_faddeev_leverrier_on_adjoints():
    entries = cat.standard_entries() + cat.nilpotent_entries()
    r = random.Random(9)
    entries += [cat.frobenius_model(p, [Scalar(Fraction(r.randint(-9, 9), r.randint(1, 5)), r.randint(-3, 3))
                                        for _ in range(p - 1)]) for p in range(2, 6)]
    for entry in entries:
        g = entry.algebra
        for k in range(1, g.dim + 1):
            a = g.adjoint_rows(k)
            assert charpoly(a) == _faddeev_leverrier(a), (entry.id, k)


@pytest.mark.parametrize("rows", [[[1, 2, 3], [4, 5, 6]], [[1, 2], [3, 4], [5, 6]], [[1, 2], [3]]])
def test_charpoly_rejects_non_square_input(rows):
    with pytest.raises(ValueError):
        charpoly(rows)


@pytest.mark.parametrize("index", [1.0, True])
def test_adjoint_spectrum_rejects_non_integer_index(index):
    with pytest.raises(TypeError):
        adjoint_spectrum(cat.heisenberg(1).algebra, index)


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


def _seeded_gaussian_cases():
    """(p, roots, unfactored): products of (x - r_k), r_k in Q(i) of height
    up to 10^6, times a non-monic Gaussian lead and sometimes a cofactor
    with no root in Q(i); every fifth case repeats a root."""
    r = random.Random(6)

    def height():
        return Fraction(r.randint(-10**6, 10**6), r.randint(1, 10**6))

    cofactors = [None, _p(-2, 0, 1), (-I, ZERO, ONE), _p(1, 1, 1)]
    for case in range(200):
        roots = [Scalar(height(), height()) for _ in range(r.randint(1, 4))]
        roots += roots[:1] * (case % 5 == 0)
        p = (Scalar(r.randint(1, 9), r.randint(-9, 9)),)
        for x in roots:
            p = upoly.mul(p, (-x, ONE))
        cofactor = cofactors[case % 4]
        if cofactor:
            p = upoly.mul(p, cofactor)
        yield p, Counter(roots), (((cofactor, 1),) if cofactor else ())


def test_scalar_roots_finds_seeded_gaussian_roots():
    for case, (p, roots, unfactored) in enumerate(_seeded_gaussian_cases()):
        res = scalar_roots(p)
        assert dict(res.eigenvalues) == roots, case
        assert res.unfactored == unfactored, case


def _catalog_charpolys():
    for entry in cat.standard_entries() + cat.nilpotent_entries():
        g = entry.algebra
        for k in range(1, g.dim + 1):
            yield charpoly(g.adjoint_rows(k))


def test_scalar_roots_without_the_certificate_gives_the_same_results(monkeypatch):
    inputs = [p for p, _, _ in _seeded_gaussian_cases()] + list(_catalog_charpolys())
    certified = [scalar_roots(p) for p in inputs]
    yun_runs = []
    decompose = upoly.squarefree_decomposition

    def counted(p):
        yun_runs.append(p)
        return decompose(p)

    monkeypatch.setattr(spectrum, "_CERTIFICATE_TRIES", 0)
    monkeypatch.setattr(upoly, "squarefree_decomposition", counted)
    assert [scalar_roots(p) for p in inputs] == certified
    assert len(yun_runs) == len(inputs)


def test_squared_factors_are_never_certified_and_keep_their_multiplicities():
    half = Fraction(-1, 2)
    x2_xi3 = upoly.mul(_p(0, 0, 1), upoly.mul((-I, ONE), upoly.mul((-I, ONE), (-I, ONE))))
    cases = [
        (charpoly(cat.frobenius_model(2, [half]).algebra.adjoint_rows(2)),
         {ZERO: 1, Scalar(-1): 1, Scalar(half): 2}),
        (charpoly(cat.frobenius_model(2, [0]).algebra.adjoint_rows(2)), {ZERO: 2, Scalar(-1): 2}),
        (x2_xi3, {ZERO: 2, I: 3}),
    ]
    for p, eigenvalues in cases:
        # far more primes than the certificate tries: none can certify
        assert spectrum._squarefree_prime(spectrum._cleared(p), 40) is None
        res = scalar_roots(p)
        assert dict(res.eigenvalues) == eigenvalues and res.unfactored == ()


def test_the_gaussian_integer_check_rejects_a_planted_candidate(monkeypatch):
    # (x - 1)(x - 2i)(x + 3) has p(0) != 0; a lift that also hands back 0
    # under both images makes the candidate z = 0, inside the bound
    p = upoly.mul(upoly.mul(_p(-1, 1), (Scalar(0, -2), ONE)), _p(3, 1))
    expected = scalar_roots(p)
    lift = spectrum._lift
    vanishes = spectrum._vanishes
    checked = []

    def planted(*args):
        m, t, roots = lift(*args)
        return m, t, [rs + [0] for rs in roots]

    def spied(ints, x, y):
        checked.append((x, y))
        return vanishes(ints, x, y)

    monkeypatch.setattr(spectrum, "_lift", planted)
    monkeypatch.setattr(spectrum, "_vanishes", spied)
    assert scalar_roots(p) == expected
    assert (0, 0) in checked
    assert dict(expected.eigenvalues) == {ONE: 1, Scalar(0, 2): 1, Scalar(-3): 1}


def _count_root_work(monkeypatch):
    """Calls of Yun's algorithm, and evaluations of a polynomial at a Scalar."""
    work = {"yun": 0, "scalar_evaluations": 0}
    decompose, evaluate = upoly.squarefree_decomposition, upoly.evaluate

    def counted_decompose(p):
        work["yun"] += 1
        return decompose(p)

    def counted_evaluate(p, x):
        work["scalar_evaluations"] += isinstance(x, Scalar)
        return evaluate(p, x)

    monkeypatch.setattr(upoly, "squarefree_decomposition", counted_decompose)
    monkeypatch.setattr(upoly, "evaluate", counted_evaluate)
    return work


def test_a_certified_spectrum_skips_yun_and_scalar_evaluation(monkeypatch):
    a = [Scalar(Fraction(3, 7), 2), Scalar(Fraction(2, 9)), Scalar(Fraction(-5, 2))]
    p = charpoly(cat.frobenius_model(4, a).algebra.adjoint_rows(2))
    assert upoly.degree(p) == 8
    work = _count_root_work(monkeypatch)
    res = scalar_roots(p)
    assert work == {"yun": 0, "scalar_evaluations": 0}
    assert dict(res.eigenvalues) == Counter([ZERO, Scalar(-1)] + [x for ak in a for x in (ak, -(ONE + ak))])


def test_a_repeated_eigenvalue_runs_yun_once(monkeypatch):
    # a_1 = 0 repeats the eigenvalues 0 and -1
    a = [ZERO, Scalar(Fraction(2, 9)), Scalar(Fraction(-5, 2), 1)]
    p = charpoly(cat.frobenius_model(4, a).algebra.adjoint_rows(2))
    work = _count_root_work(monkeypatch)
    res = scalar_roots(p)
    assert work == {"yun": 1, "scalar_evaluations": 0}
    assert dict(res.eigenvalues) == Counter([ZERO, Scalar(-1)] + [x for ak in a for x in (ak, -(ONE + ak))])


def test_scalar_roots_root_at_the_coefficient_bound():
    # x (x - c): |c| is the largest coefficient, as large as a root can be
    for c in (Scalar(-10**6), Scalar(0, 10**6)):
        res = scalar_roots((ZERO, -c, ONE))
        assert dict(res.eigenvalues) == {ZERO: 1, c: 1}


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


def test_adjoint_spectrum_nonreal_models_are_complete():
    g = cat.frobenius_model(2, [Scalar(1, 1)]).algebra
    spec = adjoint_spectrum(g, 2)
    assert dict(spec.eigenvalues) == {ZERO: 1, Scalar(-1): 1, Scalar(1, 1): 1, Scalar(-2, -1): 1}
    assert spec.unfactored == ()
    a3 = [Scalar(Fraction(3, 7), -2), I]
    a4 = [Scalar(-5, Fraction(1, 3)), Scalar(Fraction(-1, 2), 4), Scalar(2, Fraction(-7, 9))]
    for p, a in ((3, a3), (4, a4)):
        spec = adjoint_spectrum(cat.frobenius_model(p, a).algebra, 2)
        expected = Counter([ZERO, Scalar(-1)] + [x for ak in a for x in (ak, -(ONE + ak))])
        assert dict(spec.eigenvalues) == expected and spec.unfactored == (), p
