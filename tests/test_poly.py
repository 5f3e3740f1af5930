from fractions import Fraction

import pytest

from cartanlab import catalog as cat
from cartanlab.forms import DualForm, interior_product, wedge
from cartanlab.poly import Poly, VariableMismatch, exponents
from cartanlab.polyforms import (
    PolyForm,
    exterior_d,
    form_on_field,
    poly_interior,
    poly_wedge,
    poly_wedge_power,
    pullback_rows,
    vf_bracket,
)
from cartanlab.randgen import random_poly, random_rational, rng
from cartanlab.scalars import Scalar

V = ("x", "y", "z")


def _x(name):
    return Poly.variable(V, name)


def test_poly_arithmetic():
    x, y = _x("x"), _x("y")
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (x + 1) ** 2 == x * x + 2 * x + 1
    assert p - p == Poly.zero(V)
    assert (x * 0).is_zero


def test_poly_variable_mismatch():
    x = _x("x")
    u = Poly.variable(("u",), "u")
    with pytest.raises(VariableMismatch):
        x + u


def test_poly_diff_and_eval():
    x, y, z = (_x(n) for n in V)
    p = x * y * y + z
    assert p.diff("y") == 2 * x * y
    assert p.diff(2) == Poly.constant(V, 1)
    assert p.eval([Scalar(2), Scalar(3), Scalar(-1)]) == Scalar(17)


def test_a_variable_index_out_of_range_is_a_variable_mismatch():
    x, y, z = (_x(n) for n in V)
    p = x * y * y + z
    assert p.diff(-1) == Poly.constant(V, 1) and p.degree_in(-2) == 2
    for bad in (3, -4):
        for call in (lambda: p.diff(bad), lambda: p.degree_in(bad), lambda: Poly.var_index(V, bad),
                     lambda: Poly.zero(V).degree_in(bad)):
            with pytest.raises(VariableMismatch, match="no variable index"):
                call()


def test_an_unknown_variable_name_is_a_variable_mismatch():
    p = _x("x") * _x("y")
    for call in (lambda: Poly.variable(V, "w"), lambda: p.diff("w")):
        with pytest.raises(VariableMismatch, match="no variable 'w' among"):
            call()


def test_poly_subs():
    x, y, z = (_x(n) for n in V)
    p = x * x + y
    image = p.subs([y, x * z, Poly.zero(V)])
    assert image == y * y + x * z
    with pytest.raises(VariableMismatch, match="target variables"):
        Poly((), {(): 3}).subs([])
    with pytest.raises(TypeError, match="must be a Poly"):
        Poly(("x",), {(1,): 1}).subs(["y"])


@pytest.mark.parametrize("expo", [(1.5,), ("2",), (True,), (-1,), (1, 0)])
def test_poly_rejects_bad_exponents(expo):
    # the rule of scalars.check_int: a non-bool int, here also >= 0
    with pytest.raises(ValueError):
        Poly(("x",), {expo: 1})


@pytest.mark.parametrize("k", [1.5, "2", True, False, -1])
def test_poly_power_rejects_bad_exponents(k):
    with pytest.raises(ValueError, match="integer >= 0"):
        _x("x") ** k


@pytest.mark.parametrize("grade", [1.7, True, "1", -1])
def test_poly_form_grade_is_a_nonnegative_int(grade):
    # int() made 1.7, True and "1" grade 1
    with pytest.raises(ValueError, match="grade must be an integer >= 0"):
        PolyForm(V, grade)


def _tuple_terms(p):
    """The terms of p keyed by exponent tuples, as `Poly` takes them."""
    return {exponents(key, len(p.vars)): c for key, c in p.terms.items()}


def _assert_clean(p):
    """The Poly invariant, as the checked constructor would establish it."""
    assert all(p.terms.values()), p.terms
    assert p == Poly(p.vars, _tuple_terms(p))
    assert p.is_zero == (p == Poly.zero(p.vars))


def _forced_cancellations(p, q, x):
    one = Poly.constant(p.vars, 1)
    product = (x + one) * (x - one)
    return [
        p + (-p), p - p, p * q - q * p, product, product - x * x, product - x * x + 1,
        p * 0, 0 * p, p * Scalar(0), Poly.constant(p.vars, 0), p + 0, p - p.terms.get(0, 0),
        p ** 0, (p - p) ** 2, p.subs([Poly.zero(p.vars)] * len(p.vars)),
    ]


def _reference_product(p, q):
    """The plain double loop over both term lists, merged by the checked
    constructor."""
    out = {}
    for e1, c1 in _tuple_terms(p).items():
        for e2, c2 in _tuple_terms(q).items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, Scalar(0)) + c1 * c2
    return Poly(p.vars, out)


def _monomials(vars, r, i):
    """One-term factors: a unit variable, a scaled monomial, a constant and
    a Gaussian coefficient."""
    c = random_rational(r) or Fraction(1, 2)

    def expo():
        return tuple(r.randint(0, 2) for _ in vars)

    return [
        Poly.var_index(vars, i), Poly(vars, {expo(): c}), Poly.constant(vars, c),
        Poly(vars, {expo(): Scalar(c, r.randint(1, 3))}),
    ]


def test_arithmetic_results_keep_the_poly_invariant():
    r = rng(808)
    for nv in range(1, 7):
        vars = tuple(f"v{k}" for k in range(nv))
        for _ in range(6):
            p, q = (random_poly(vars, r, max_degree=3, terms=r.randint(1, 5)) for _ in range(2))
            c = random_rational(r)
            i = r.randrange(nv)
            images = [random_poly(vars, r, terms=2) for _ in vars]
            results = [
                p + q, p - q, -p, p * q, p * c, c * p, p * Scalar(c, 1), p + c, c - p,
                p.diff(i), p.diff(vars[i]).diff(i), p.subs(images), p ** r.randint(1, 3),
            ]
            results += _forced_cancellations(p, q, Poly.var_index(vars, i))
            products = [(p, q), (q, p)]
            for m in _monomials(vars, r, i):
                products += [(m, p), (p, m), (m, q), (q, m), (m, m)]
            for a, b in products:
                results.append(a * b)
                assert results[-1] == _reference_product(a, b), (a, b)
            s = Scalar(c, r.randint(-2, 2))
            power, s_power = Poly.constant(vars, 1), Scalar(1)
            for k in range(7):
                results.append(p ** k)
                assert results[-1] == power and s ** k == s_power, k
                power, s_power = _reference_product(power, p), s_power * s
            for res in results:
                _assert_clean(res)
            assert (p + (-p)).is_zero and (p * q - q * p).is_zero


def test_unit_one_term_products_match_the_double_loop():
    # a one-term factor with coefficient +-1 shifts and copies or negates,
    # one with +-i (or any other) multiplies: both against the double loop
    r = rng(809)
    vars = ("a", "b", "c")
    units = (1, -1, Scalar(0, 1), Scalar(0, -1))
    for c in units + (Fraction(1, 2), Scalar(2, -1)):
        for expo in ((0, 0, 0), (1, 0, 2)):
            m = Poly(vars, {expo: c})
            p = random_poly(vars, r, max_degree=3, terms=4)
            gaussian = p * Scalar(1, 2) + random_poly(vars, r)
            for q in (p, gaussian, Poly.var_index(vars, 1), m):
                for a, b in ((m, q), (q, m)):
                    assert a * b == _reference_product(a, b), (a, b)
                    _assert_clean(a * b)
    # of two one-term factors either may be the unit one
    for c1 in units + (3,):
        for c2 in units + (3,):
            a, b = Poly(vars, {(1, 0, 0): c1}), Poly(vars, {(0, 2, 1): c2})
            assert a * b == b * a == _reference_product(a, b)
    p = random_poly(vars, r, terms=4) * Scalar(1, 1)
    for s in (1, -1, Fraction(-1), Scalar(1), Scalar(-1), Scalar(0, 1), Scalar(0, -1)):
        assert p * s == _reference_product(p, Poly.constant(vars, s))
        _assert_clean(p * s)
        if not isinstance(s, Scalar):
            assert s * p == p * s
    assert (p * 1).terms is not p.terms


def test_poly_linear_constructor():
    assert Poly.linear(V, {0: 2, 2: Scalar(0, 1), 1: 0}) == _x("x") * 2 + _x("z") * Scalar(0, 1)
    assert Poly.linear(V, {}).is_zero
    for bad in (3, -1, True, "0"):
        with pytest.raises(ValueError):
            Poly.linear(V, {bad: 1})


def test_poly_coefficients_in_one_variable():
    u = Poly.variable(("u",), "u")
    p = u * u * 3 - u + 2
    assert p.univariate_coeffs() == (Scalar(2), Scalar(-1), Scalar(3))
    with pytest.raises(VariableMismatch):
        (_x("x")).univariate_coeffs()


def test_exterior_d_basics():
    x, y = _x("x"), _x("y")
    f = x * y
    df = exterior_d(PolyForm.function(f))
    assert df == PolyForm(V, 1, {(0,): y, (1,): x})


def test_d_squared_zero_random():
    r = rng(41)
    for _ in range(15):
        grade = r.randint(0, 3)
        from itertools import combinations

        idx_pool = list(combinations(range(3), grade))
        coeffs = {idx: random_poly(V, r) for idx in idx_pool[: r.randint(1, len(idx_pool))]}
        form = PolyForm(V, grade, coeffs)
        assert exterior_d(exterior_d(form)).is_zero


def _exterior_d_every_variable(a):
    """d by its definition: sum over every variable v of dx_v ^ (d/dx_v of
    each coefficient), zero derivatives included."""
    w = a.vars
    total = PolyForm(w, a.grade + 1)
    for idx, p in a.coeffs.items():
        for v in range(len(w)):
            dx = PolyForm(w, 1, {(v,): Poly.constant(w, 1)})
            total = total + poly_wedge(dx, PolyForm(w, a.grade, {idx: p.diff(v)}))
    return total


def test_exterior_d_reads_only_the_occurring_variables():
    # five variables and three-term coefficients: most coefficients miss
    # some variable, which exterior_d skips and the reference does not
    from itertools import combinations

    w = ("a", "b", "c", "d", "e")
    r = rng(43)
    for grade in range(4):
        pool = list(combinations(range(len(w)), grade))
        for _ in range(10):
            coeffs = {idx: random_poly(w, r) for idx in r.sample(pool, r.randint(1, min(4, len(pool))))}
            form = PolyForm(w, grade, coeffs)
            d = exterior_d(form)
            assert d == _exterior_d_every_variable(form)
            assert d.grade == grade + 1 and exterior_d(d).is_zero


def test_wedge_antiderivation_random():
    r = rng(42)
    for _ in range(10):
        a = PolyForm(V, 1, {(r.randint(0, 2),): random_poly(V, r)})
        b = PolyForm(V, 1, {(r.randint(0, 2),): random_poly(V, r)})
        lhs = exterior_d(poly_wedge(a, b))
        rhs = poly_wedge(exterior_d(a), b) - poly_wedge(a, exterior_d(b))
        assert lhs == rhs


def test_interior_product_rules():
    x, y, z = (_x(n) for n in V)
    vf = (y, Poly.zero(V), Poly.constant(V, 1))
    form = PolyForm(V, 2, {(0, 2): x})
    contracted = poly_interior(vf, form)
    assert contracted == PolyForm(V, 1, {(2,): x * y, (0,): -x})
    assert poly_interior(vf, poly_interior(vf, form)).is_zero
    with pytest.raises(ValueError):
        poly_interior(vf, PolyForm.function(x))


@pytest.mark.parametrize(
    "coeffs, grade, refusal",
    [
        ({(0, 1): 1}, 1, "length does not match grade"),
        ({(1, 0): 1}, 2, "strictly increasing"),
        ({(2, 2): 1}, 2, "strictly increasing"),
        ({(-1,): 1}, 1, "out of range"),
        ({(3,): 1}, 1, "out of range"),
    ],
)
def test_poly_form_refuses_bad_index_tuples(coeffs, grade, refusal):
    with pytest.raises(ValueError, match=refusal):
        PolyForm(V, grade, coeffs)


def test_vf_bracket_coordinate_fields_commute():
    one = Poly.constant(V, 1)
    zero = Poly.zero(V)
    dx = (one, zero, zero)
    dy = (zero, one, zero)
    assert vf_bracket(dx, dy) == (zero, zero, zero)


def test_a_vector_field_is_one_poly_component_per_variable():
    x, y = _x("x"), _x("y")
    form = PolyForm(V, 1, {(0,): y})
    # constant components read as constants over the form's variables
    assert form_on_field(form, (2, 0, 0)) == 2 * y
    u = Poly.variable(("u",), "u")
    for bad in ((x, y), (x, y, x, y)):
        with pytest.raises(ValueError, match="one component per variable"):
            form_on_field(form, bad)
        with pytest.raises(ValueError, match="one component per variable"):
            vf_bracket((x, y, x), bad)
    with pytest.raises(VariableMismatch):
        poly_interior((x, u, x), form)
    with pytest.raises(VariableMismatch):
        vf_bracket((x, y, x), (x, u, x))
    # the bracket reads its variables off the first component
    for bad in ((1, x, y), ()):
        with pytest.raises(ValueError, match="Poly components"):
            vf_bracket(bad, (x, y, x))


def _rows(matrix):
    """The sparse rows `pullback_rows` reads for x_i -> sum_j L[i][j] x_j."""
    return [{j: c for j, c in enumerate(row) if c} for row in matrix]


def test_pullback_linear_composition():
    r = rng(43)
    a = PolyForm(V, 2, {(0, 1): random_poly(V, r), (1, 2): random_poly(V, r)})
    m1 = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    m2 = [[1, 0, 0], [0, 2, 0], [1, 0, 1]]
    once = pullback_rows(pullback_rows(a, _rows(m1)), _rows(m2))
    composed = [[sum(m1[i][k] * m2[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    assert once == pullback_rows(a, _rows(composed))


def _dense_pullback(a, matrix):
    """x_i -> sum_j L[i][j] x_j through the checked constructors: every
    image from all of its row, wedged as constant-coefficient 1-forms."""
    vars, nv = a.vars, len(a.vars)
    images = [Poly(vars, {tuple(int(t == j) for t in range(nv)): matrix[i][j] for j in range(nv)}) for i in range(nv)]
    d_images = [PolyForm(vars, 1, {(j,): matrix[i][j] for j in range(nv)}) for i in range(nv)]
    total = PolyForm(vars, a.grade)
    for idx, p in a.coeffs.items():
        pulled = PolyForm.function(p.subs(images))
        for t in idx:
            pulled = poly_wedge(pulled, d_images[t])
        total = total + pulled
    return total


def test_pullback_linear_matches_a_dense_reference():
    from itertools import combinations

    r = rng(45)
    w = ("p", "q", "s", "t")

    def entry(gaussian):
        if r.random() < 0.3:
            return 0
        return Scalar(random_rational(r), r.randint(-2, 2)) if gaussian else random_rational(r)

    for trial in range(12):
        gaussian = trial % 2 == 1
        m = [[entry(gaussian) for _ in w] for _ in w]
        if trial % 3 == 0:
            m[1] = [0] * 4  # singular: a zero row
        elif trial % 3 == 1:
            m[3] = [Scalar.of(x) + Scalar.of(y) for x, y in zip(m[0], m[2])]  # singular: dependent rows
        for grade in range(4):
            pool = list(combinations(range(4), grade))
            coeffs = {idx: random_poly(w, r, terms=2) for idx in pool[: r.randint(1, len(pool))]}
            if gaussian:
                coeffs = {idx: p * Scalar(1, 1) for idx, p in coeffs.items()}
            a = PolyForm(w, grade, coeffs)
            pulled = pullback_rows(a, _rows(m))
            assert pulled == _dense_pullback(a, m), (trial, grade)
            assert pulled == PolyForm(w, grade, pulled.coeffs)


def test_pullback_commutes_with_d():
    r = rng(44)
    m = [[1, 2, 0], [0, 1, 1], [3, 0, 1]]
    a = PolyForm(V, 1, {(0,): random_poly(V, r), (2,): random_poly(V, r)})
    assert exterior_d(pullback_rows(a, _rows(m))) == pullback_rows(exterior_d(a), _rows(m))


def test_form_on_field():
    x, y = _x("x"), _x("y")
    form = PolyForm(V, 1, {(0,): y, (1,): x})
    vf = (x, y, Poly.zero(V))
    assert form_on_field(form, vf) == 2 * x * y


def test_wedge_power_top():
    omega = PolyForm(
        ("a", "b", "c", "d"),
        2,
        {(0, 1): Poly.constant(("a", "b", "c", "d"), 1), (2, 3): Poly.constant(("a", "b", "c", "d"), 1)},
    )
    top = poly_wedge_power(omega, 2)
    assert top == PolyForm(
        ("a", "b", "c", "d"), 4, {(0, 1, 2, 3): Poly.constant(("a", "b", "c", "d"), 2)}
    )


@pytest.mark.parametrize("k", [-1, True, False, 1.5, "2"])
def test_poly_wedge_power_rejects_bad_exponents(k):
    # -1 gave a grade -1 form holding the constant 1, and True read as 1
    w = ("a", "b", "c", "d")
    omega = PolyForm(w, 2, {(0, 1): Poly.variable(w, "c"), (2, 3): Poly.constant(w, 1)})
    assert poly_wedge_power(omega, 1) == omega
    with pytest.raises(ValueError, match="integer >= 0"):
        poly_wedge_power(omega, k)


@pytest.mark.parametrize(
    "a, b, x",
    [
        ({(0,): 1, (2,): "1/2"}, {(1,): 3, (3,): -1}, (1, 0, 2, 0)),
        ({(0, 1): 2, (2, 3): 1}, {(0, 1): 1, (2, 3): -3}, (0, 1, 0, "-2/3")),
        ({(1,): -2}, {(0, 2, 3): 5, (1, 2, 3): 4}, (1, 1, 1, 1)),
    ],
)
def test_exterior_kernel_agrees_across_rings(a, b, x):
    """Constant-coefficient forms: DualForm (1-based, Scalar) and PolyForm
    (0-based, Poly) give the same wedge and interior product."""
    g = cat.abelian(4).algebra
    w = ("p", "q", "r", "s")

    def dual(c):
        return DualForm(g, len(next(iter(c))), {tuple(t + 1 for t in i): v for i, v in c.items()})

    def poly(c):
        return PolyForm(w, len(next(iter(c))), {i: Poly.constant(w, v) for i, v in c.items()})

    def shifted(f):
        assert not any(key for p in f.coeffs.values() for key in p.terms)
        return {tuple(t + 1 for t in i): p.terms[0] for i, p in f.coeffs.items()}

    dual_ab, poly_ab = wedge(dual(a), dual(b)), poly_wedge(poly(a), poly(b))
    assert not dual_ab.is_zero
    assert shifted(poly_ab) == dual_ab.coeffs
    contracted = interior_product(x, dual_ab)
    assert shifted(poly_interior(x, poly_ab)) == contracted.coeffs
    assert not Poly.zero(w) and Poly.constant(w, 2)


def test_scalar_operands_defer_to_poly_in_both_orders():
    # Scalar's operators return NotImplemented for an operand Scalar.of
    # cannot coerce, so Python falls back on Poly's reflected operators
    vars = ("x", "y")
    p = Poly(vars, {(1, 0): 1, (0, 1): Scalar(0, 2), (0, 0): Fraction(-1, 3)})
    two = Scalar(2)
    const = Poly.constant(vars, two)
    assert two * p == p * two == const * p == 2 * p
    assert two + p == p + two == const + p
    assert two - p == const - p == -(p - two)
    assert (p - two) + two == p
    with pytest.raises(TypeError):
        two / p
    for bad in (1.5, None):
        with pytest.raises(TypeError):
            two + bad
        with pytest.raises(TypeError):
            bad * two
        with pytest.raises(TypeError):
            bad - two
