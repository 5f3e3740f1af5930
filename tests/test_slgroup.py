import inspect
import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

import pytest

from cartanlab import cli, slgroup
from cartanlab.linalg import as_matrix, det, mat_mul, nullspace, sparse_rows
from cartanlab.poly import Poly
from cartanlab.polyforms import (
    PolyForm,
    exterior_d,
    form_on_field,
    poly_interior,
    poly_wedge,
    poly_wedge_power,
    pullback_rows,
)
from cartanlab.scalars import ONE, ZERO, Scalar
from cartanlab.slgroup import (
    OrthogonalityError,
    block_rotation,
    coordinate,
    det_poly,
    evaluate_singular_equations,
    matrix_vars,
    pythagorean_rotation,
    reeb_candidate,
    reeb_identities,
    rotation_pair_form,
    singular_pairings,
    sl_contact_data,
    sl_contact_identity,
    so_invariance_check,
    two_form_pair_power,
)


def _clear_caches():
    for obj in vars(slgroup).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()


@pytest.fixture(autouse=True)
def cold_caches():
    """Each test starts from empty per-n caches and leaves none behind: the
    count guards and the planted-defect tests measure a cold build, and no
    verdict built under a planted defect outlives its patch."""
    _clear_caches()
    yield
    _clear_caches()


def closed_form_constant(n):
    """c(n) = -q! * n * 2^(2n^2), q = 2n^2 - 1: the constant of
    omega ^ (d omega)^q ^ d(det) = c * det * vol on SL(2n)."""
    q = 2 * n * n - 1
    return Scalar(-factorial(q) * n * 2 ** (2 * n * n))


def test_contact_constant_closed_form():
    assert closed_form_constant(3) == Scalar(-279723975452393472000)
    for n in (1, 2):
        res = sl_contact_identity(n)
        assert res.ok and res.constant == closed_form_constant(n)


def test_det_poly_2x2():
    data = sl_contact_data(1)
    vars = matrix_vars(1)
    x11 = Poly.variable(vars, "x1_1")
    x12 = Poly.variable(vars, "x1_2")
    x21 = Poly.variable(vars, "x2_1")
    x22 = Poly.variable(vars, "x2_2")
    assert data.delta == x11 * x22 - x12 * x21


def test_d_omega_display_n1():
    data = sl_contact_data(1)
    domega = exterior_d(data.omega)
    vars = matrix_vars(1)
    two = Poly.constant(vars, 2)
    assert domega.coeffs == {(0, 1): two, (2, 3): two}


def test_reeb_pairings_n1():
    data = sl_contact_data(1)
    assert form_on_field(data.omega, data.reeb) == data.delta
    contraction = poly_interior(data.reeb, exterior_d(data.omega))
    assert contraction == data.d_delta.scale(Scalar(-1))


def test_reeb_identities_helper():
    defect, scale = reeb_identities(1)
    assert defect.is_zero and scale == Scalar(-1)


def test_contact_identity_n1():
    res = sl_contact_identity(1)
    assert res.ok and res.q == 1 and res.constant == Scalar(-4)


def test_contact_identity_wrong_exponent():
    # the exponent is fixed by degree: omega ^ (d omega)^q ^ d(det) has
    # grade 2q + 2, which fills the (2n)^2 coordinates only at q = 2n^2 - 1
    data = sl_contact_data(1)
    domega = exterior_d(data.omega)
    for q in (0, 1):
        total = poly_wedge(poly_wedge(data.omega, two_form_pair_power(domega, q)), data.d_delta)
        assert total.grade == 2 * q + 2
    assert sl_contact_identity(1).q == 1
    with pytest.raises(TypeError):
        sl_contact_identity(1, q=0)  # not a caller's choice


def test_contact_identity_n2_both_routes():
    res = sl_contact_identity(2)
    assert res.ok and res.q == 7
    # frozen constant from the exact expansion: -(2^7 * 7!) * 4
    assert res.constant == Scalar(-2580480)
    # the identity's combinatorial power against the generic wedge loop
    domega = exterior_d(rotation_pair_form(2))
    assert two_form_pair_power(domega, 7) == poly_wedge_power(domega, 7)


def test_two_form_pair_power_matches_generic_wedge():
    for n in (1, 2):
        domega = exterior_d(sl_contact_data(n).omega)
        for q in (1, 2, 3):
            if 2 * q > (2 * n) ** 2:
                continue
            assert two_form_pair_power(domega, q) == poly_wedge_power(domega, q)


def test_two_form_pair_power_refuses_interleaved_or_shared_pairs():
    # (da^dc + db^dd)^2 = 2 da^dc^db^dd = -2 da^db^dc^dd: pairs that
    # interleave do not concatenate to their sorted index with sign +1
    vars = ("a", "b", "c", "d")
    one = Poly.constant(vars, 1)
    interleaved = PolyForm(vars, 2, {(0, 2): one, (1, 3): one})
    assert poly_wedge_power(interleaved, 2) == PolyForm(vars, 4, {(0, 1, 2, 3): Poly.constant(vars, -2)})
    shared = PolyForm(vars, 2, {(0, 1): one, (1, 2): one})
    for form in (interleaved, shared, PolyForm(vars, 1, {(0,): one})):
        with pytest.raises(ValueError):
            two_form_pair_power(form, 2)


def _rotation_fields(n):
    """A_ij = sum_l (x_jl d/dx_il - x_il d/dx_jl), i < j."""
    vars = matrix_vars(n)
    m = 2 * n
    out = {}
    for i, j in combinations(range(1, m + 1), 2):
        comps = [Poly.zero(vars) for _ in vars]
        for l in range(1, m + 1):
            comps[(i - 1) * m + l - 1] = coordinate(n, j, l)
            comps[(j - 1) * m + l - 1] = -coordinate(n, i, l)
        out[(i, j)] = tuple(comps)
    return out


def test_rotation_field_pairing_identity():
    # omega(A_ij) is exactly twice the singular pairing polynomial (each of
    # the two rows touched by A_ij contributes one copy); the cut-out
    # variety is identical
    for n in (1, 2):
        data = sl_contact_data(n)
        pairings = singular_pairings(n)
        for (i, j), field in _rotation_fields(n).items():
            assert form_on_field(data.omega, field) == pairings[(i, j)] * 2


def test_singular_pairings_diagonal_vanish():
    pairings = singular_pairings(1)
    assert pairings[(1, 1)].is_zero and pairings[(2, 2)].is_zero


def test_singular_point_evaluations():
    vals = evaluate_singular_equations(1, ((1, 0), (0, 1)))
    assert vals[(1, 2)] == ONE
    vals = evaluate_singular_equations(1, ((2, 0), (0, Fraction(1, 2))))
    assert vals[(1, 2)] == ONE


def test_so_invariance_pythagorean_rotations():
    triples = ((2, 1), (3, 1), (3, 2), (4, 1), (4, 3))
    for a, b in triples:
        m = pythagorean_rotation(a, b)
        assert so_invariance_check(1, m)
    # identity is trivially invariant
    assert so_invariance_check(1, ((1, 0), (0, 1)))
    # (0, 0) gives the zero triple, which scales to no rotation
    with pytest.raises(ValueError, match="no rotation"):
        pythagorean_rotation(0, 0)


def test_so_invariance_blocks_n2():
    m = block_rotation(2, [pythagorean_rotation(2, 1), pythagorean_rotation(3, 2)])
    assert so_invariance_check(2, m)


def test_so_invariance_rejects_non_orthogonal():
    bad = ((2, 0), (0, Fraction(1, 2)))  # det 1 but not orthogonal
    with pytest.raises(OrthogonalityError):
        so_invariance_check(1, bad)
    # the verdict it refuses to give: x_{jl} -> sum_r m_{jr} x_{rl} on the
    # coordinates (x1_1, x1_2, x2_1, x2_2) moves the rotation form
    half = Fraction(1, 2)
    sub = [{0: 2}, {1: 2}, {2: half}, {3: half}]
    omega = rotation_pair_form(1)
    assert pullback_rows(omega, sub) != omega


def _random_sl2(r):
    # integer words in the elementary matrices keep det = 1 exactly
    m = as_matrix([[1, 0], [0, 1]])
    for _ in range(4):
        a = r.randint(-3, 3)
        upper = r.random() < 0.5
        e = as_matrix([[1, a], [0, 1]]) if upper else as_matrix([[1, 0], [a, 1]])
        m = mat_mul(m, e)
    return m


def test_reeb_pairings_at_unimodular_points():
    data = sl_contact_data(1)
    contraction = poly_interior(data.reeb, exterior_d(data.omega))
    r = random.Random(99)
    for _ in range(20):
        m = _random_sl2(r)
        assert det(m) == ONE
        flat = [m[i][j] for i in range(2) for j in range(2)]
        # the contact pairing normalizes to 1 on the unimodular variety
        assert form_on_field(data.omega, data.reeb).eval(flat) == ONE
        # i(Z) d omega evaluates to a covector proportional to d(det),
        # hence it annihilates the tangent space ker d(det) at the point
        cov = [
            contraction.coeffs.get((v,), Poly.zero(data.omega.vars)).eval(flat)
            for v in range(4)
        ]
        ddet = [
            data.d_delta.coeffs.get((v,), Poly.zero(data.omega.vars)).eval(flat)
            for v in range(4)
        ]
        for tangent in nullspace(sparse_rows([ddet], 4), 4):
            paired = sum((c * t for c, t in zip(cov, tangent)), ZERO)
            assert paired == ZERO


def leibniz_det(n, rows, cols):
    """det of the symbolic submatrix on rows x cols, as the permutation sum
    of sign(s) * prod_k x_{rows[k], cols[s(k)]}."""
    vars = matrix_vars(n)
    total = Poly.zero(vars)
    for perm in permutations(range(len(cols))):
        inversions = sum(1 for a, b in combinations(perm, 2) if a > b)
        term = Poly.constant(vars, (-1) ** inversions)
        for r, k in zip(rows, perm):
            term = term * Poly.variable(vars, f"x{r}_{cols[k]}")
        total = total + term
    return total


def reference_minor(n, i, j):
    full = range(1, 2 * n + 1)
    return leibniz_det(n, [r for r in full if r != i], [c for c in full if c != j])


def test_det_and_minors_match_leibniz_sum():
    for n in (1, 2, 3):
        full = list(range(1, 2 * n + 1))
        assert det_poly(n) == leibniz_det(n, full, full)


def test_reeb_candidate_matches_reference_minors():
    # the field read off d(det) against the minors' formula
    # (1/2n) sum (-1)^{j+1} (M_{j,2i-1} d/dx_{j,2i} + M_{j,2i} d/dx_{j,2i-1})
    for n in (1, 2, 3):
        vars = matrix_vars(n)
        comps = [Poly.zero(vars) for _ in vars]
        for j in range(1, 2 * n + 1):
            scale = Fraction((-1) ** (j + 1), 2 * n)
            for i in range(1, n + 1):
                for target, source in ((2 * i, 2 * i - 1), (2 * i - 1, 2 * i)):
                    k = vars.index(f"x{j}_{target}")
                    comps[k] = comps[k] + reference_minor(n, j, source) * scale
        assert sl_contact_data(n).reeb == tuple(comps)


def _count_products(monkeypatch, run):
    """Poly and Scalar products made by run(): counts, unlike times, are
    deterministic, so a guard on them cannot be flaky."""
    counts = Counter()
    for cls in (Poly, Scalar):
        def counted(a, b, mul=cls.__mul__, key=cls.__name__):
            counts[key] += 1
            return mul(a, b)

        monkeypatch.setattr(cls, "__mul__", counted)
        monkeypatch.setattr(cls, "__rmul__", counted)
    run()
    monkeypatch.undo()
    return counts


def test_sl_kernels_product_counts(monkeypatch):
    # a coordinate times a sub-minor shifts exponents: no coefficient work
    assert _count_products(monkeypatch, lambda: det_poly(3))["Scalar"] == 0
    m = block_rotation(2, [pythagorean_rotation(2, 1), pythagorean_rotation(3, 2)])
    # the 16 linear images are raised to the power 1 for free
    assert _count_products(monkeypatch, lambda: so_invariance_check(2, m))["Poly"] <= 48
    # the Reeb field is read off d(det): det's sub-minor products and one
    # scaling per component, no minor expansion
    assert _count_products(monkeypatch, lambda: sl_contact_data(2))["Poly"] <= 44
    assert _count_products(monkeypatch, lambda: sl_contact_data(3))["Poly"] <= 222
    for n in (1, 2):
        assert sl_contact_data(n).delta == det_poly(n)


def test_reeb_candidate_is_the_scaled_cofactor_field():
    # the construction before the integral field: each component read off
    # d(det) and multiplied by +-1/(2n) on its own
    for n in (1, 2, 3):
        data = sl_contact_data(n)
        vars = matrix_vars(n)
        zero = Poly.zero(vars)
        scale = ONE / Scalar(2 * n)
        comps = [zero] * len(vars)
        for j in range(1, 2 * n + 1):
            for i in range(1, n + 1):
                u, v = vars.index(f"x{j}_{2 * i - 1}"), vars.index(f"x{j}_{2 * i}")
                comps[v] = data.d_delta.coeffs.get((u,), zero) * scale
                comps[u] = data.d_delta.coeffs.get((v,), zero) * -scale
        assert reeb_candidate(n, data.d_delta) == tuple(comps)


def test_sl_checks_scalar_op_counts(monkeypatch):
    # the checks run on sigma and on +-1 coefficients: the one Scalar
    # product left is c = q! 2^q c', c' det is built from c' and -c' with
    # no product, and the sums are the merges of the expansions themselves;
    # negating a coefficient +-1 builds no Scalar, in a difference too, so
    # the one negation left is -c of the one constant c that scales +-1
    # coefficients (c' of c' det, 1/2n of the Reeb defect)
    counts = [0, 0, 0]

    def counted(slot, fn):
        def op(*args):
            counts[slot] += 1
            return fn(*args)

        return op

    mul, add, sub, neg = Scalar.__mul__, Scalar.__add__, Scalar.__sub__, Scalar.__neg__
    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(Scalar, name, counted(0, mul))
    for name in ("__add__", "__radd__"):
        monkeypatch.setattr(Scalar, name, counted(1, add))
    monkeypatch.setattr(Scalar, "__sub__", counted(1, sub))
    monkeypatch.setattr(Scalar, "__neg__", counted(2, neg))
    bounds = {
        (sl_contact_identity, 1): (1, 4, 1),
        (sl_contact_identity, 2): (1, 80, 1),
        (reeb_identities, 1): (0, 6, 1),
        (reeb_identities, 2): (0, 104, 1),
    }
    for (fn, n), bound in bounds.items():
        _clear_caches()
        counts[:] = [0, 0, 0]
        fn(n)
        assert all(x <= y for x, y in zip(counts, bound)), (fn.__name__, n, counts)


def test_block_rotation_takes_exactly_n_two_by_two_blocks():
    q = pythagorean_rotation(2, 1)
    assert block_rotation(1, [q]) == q
    for n, blocks in ((2, [q]), (1, [q, q]), (1, [((1, 0, 0), (0, 1, 0))]), (1, [((1,),)])):
        with pytest.raises(ValueError):
            block_rotation(n, blocks)


def _plant(monkeypatch, name, grade, index):
    """Patch the slgroup binding of a polyforms function so that each
    result of the given grade gains the constant 1 at `index`."""
    fn = getattr(slgroup, name)

    def planted(*args):
        out = fn(*args)
        if out.grade != grade:
            return out
        return out + PolyForm(out.vars, grade, {index: Poly.constant(out.vars, ONE)})

    monkeypatch.setattr(slgroup, name, planted)


def test_the_d_omega_check_refuses_a_wrong_differential(monkeypatch):
    # d omega gains dx_0 ^ dx_2, which pairs no column pair: with the check
    # passed over, sigma would be taken as given and both identities hold
    _plant(monkeypatch, "exterior_d", 2, (0, 2))
    assert sl_contact_identity(1) == slgroup.ContactIdentity(False, 1, None, None)
    assert reeb_identities(1)[1] is None


def test_the_top_form_check_refuses_a_residual(monkeypatch):
    # the top coefficient gains the constant 1, which no multiple of det
    # has; c' is still read off a term of det, so only the residual test
    # can refuse it
    _plant(monkeypatch, "poly_wedge", 4, (0, 1, 2, 3))
    res = sl_contact_identity(1)
    assert not res.ok and res.constant is None
    assert res.residual == Poly.constant(matrix_vars(1), ONE)


def test_the_reeb_check_refuses_a_non_multiple_of_d_det(monkeypatch):
    # i(2n Z) sigma gains the constant 1 at dx_0, which no multiple of
    # d(det) has: its coefficients are homogeneous of degree 2n - 1
    _plant(monkeypatch, "poly_interior", 1, (0,))
    pair_defect, multiple = reeb_identities(1)
    assert pair_defect.is_zero and multiple is None


ROTATION = pythagorean_rotation(2, 1)

# every public slgroup function that takes n, called with that n
N_CALLS = {
    "matrix_vars": matrix_vars,
    "coordinate": lambda n: coordinate(n, 1, 1),
    "det_poly": det_poly,
    "rotation_pair_form": rotation_pair_form,
    "reeb_candidate": lambda n: reeb_candidate(n, sl_contact_data(1).d_delta),
    "sl_contact_data": sl_contact_data,
    "sl_contact_identity": sl_contact_identity,
    "singular_pairings": singular_pairings,
    "evaluate_singular_equations": lambda n: evaluate_singular_equations(n, ((1, 0), (0, 1))),
    "so_invariance_check": lambda n: so_invariance_check(n, ROTATION),
    "block_rotation": lambda n: block_rotation(n, [ROTATION]),
    "reeb_identities": reeb_identities,
}


def test_the_n_table_names_every_public_function_of_n():
    taking_n = {
        name
        for name, fn in vars(slgroup).items()
        if inspect.isfunction(fn) and not name.startswith("_") and fn.__module__ == slgroup.__name__
        and "n" in inspect.signature(fn).parameters
    }
    assert taking_n == N_CALLS.keys()


@pytest.mark.parametrize("name", sorted(N_CALLS))
def test_every_function_of_n_reads_n_by_one_rule(name):
    # n = 1 first, so that a cached n = 1 is there for True or 1.0 to alias
    N_CALLS[name](1)
    for bad in (0, -1, True, False, 1.0, "1", None):
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            N_CALLS[name](bad)


@pytest.mark.parametrize("n", (1, 2))
def test_coordinate_reads_i_and_j_in_one_to_2n(n):
    # 0 used to wrap round to the last row or column
    m = 2 * n
    assert coordinate(n, m, m) == Poly.var_index(matrix_vars(n), m * m - 1)
    for bad in (0, m + 1, True, 1.0):
        for i, j in ((bad, 1), (1, bad)):
            with pytest.raises(ValueError, match="must be"):
                coordinate(n, i, j)


def test_reeb_candidate_refuses_anything_but_a_1_form_over_its_variables():
    # a d(det) of another n used to give a field over mixed variables
    data = sl_contact_data(1)
    for bad in (sl_contact_data(2).d_delta, exterior_d(data.omega), data.delta):
        with pytest.raises(ValueError, match="1-form over"):
            reeb_candidate(1, bad)
    with pytest.raises(ValueError, match="1-form over"):
        reeb_candidate(2, data.d_delta)
    assert reeb_candidate(1, data.d_delta) == data.reeb


def _checks(n):
    """The four checks on n, each with fixed inputs."""
    m = block_rotation(n, [pythagorean_rotation(a, 1) for a in range(2, n + 2)])
    point = [[Fraction(i * i - j, j + 2) for j in range(2 * n)] for i in range(2 * n)]
    return (
        lambda: sl_contact_identity(n),
        lambda: reeb_identities(n),
        lambda: so_invariance_check(n, m),
        lambda: evaluate_singular_equations(n, point),
    )


def _verdicts(n):
    return tuple(check() for check in _checks(n))


@pytest.mark.parametrize("n", (1, 2, 3))
def test_warm_verdicts_equal_cold_verdicts(n):
    cold = []
    for check in _checks(n):
        _clear_caches()
        cold.append(check())
    assert cold[0].ok and cold[1][0].is_zero and cold[1][1] == Scalar(Fraction(-1, n)) and cold[2]
    assert _verdicts(n) == _verdicts(n) == tuple(cold)


def _dicts(obj, seen):
    """Every dict reachable from obj through tuples, lists, dicts, Poly
    terms and PolyForm coefficients, each once."""
    if id(obj) in seen:
        return
    seen[id(obj)] = obj
    if isinstance(obj, Poly):
        _dicts(obj.terms, seen)
    elif isinstance(obj, PolyForm):
        _dicts(obj.coeffs, seen)
    elif isinstance(obj, dict):
        for value in obj.values():
            _dicts(value, seen)
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            _dicts(item, seen)


def _spoil(obj):
    """Empty every dict reachable from obj, then give each a junk entry."""
    seen = {}
    _dicts(obj, seen)
    owners = [(o, o.terms) for o in seen.values() if isinstance(o, Poly)]
    owners += [(o, o.coeffs) for o in seen.values() if isinstance(o, PolyForm)]
    owned = {id(d) for _, d in owners}
    plain = [d for d in seen.values() if isinstance(d, dict) and id(d) not in owned]
    for o, d in owners:
        d.clear()
        if isinstance(o, Poly):
            d[0] = ONE
        else:
            d[tuple(range(o.grade))] = Poly.constant(o.vars, ONE)
    for d in plain:
        d.clear()
        d["junk"] = ONE
    return len(owners) + len(plain)


@pytest.mark.parametrize("n", (1, 2))
def test_no_mutation_of_a_returned_object_reaches_a_cached_verdict(n):
    def everything():
        return (
            sl_contact_data(n),
            singular_pairings(n),
            rotation_pair_form(n),
            det_poly(n),
            _verdicts(n),
        )

    # built on caches that are then dropped, so nothing of it is shared
    expected = everything()
    _clear_caches()
    everything()
    assert _spoil(everything()) > 20
    assert everything() == expected


def _count_det_builds(monkeypatch, run):
    calls = []

    def counted(n, build=slgroup.det_poly):
        calls.append(n)
        return build(n)

    monkeypatch.setattr(slgroup, "det_poly", counted)
    run()
    monkeypatch.undo()
    return len(calls)


def test_det_is_built_once_per_n(monkeypatch):
    assert _count_det_builds(monkeypatch, lambda: sl_contact_identity(2)) == 1
    assert _count_det_builds(monkeypatch, lambda: sl_contact_identity(2)) == 0
    assert _count_det_builds(monkeypatch, lambda: reeb_identities(2)) == 0
    _clear_caches()
    assert _count_det_builds(monkeypatch, lambda: reeb_identities(2)) == 1
    assert _count_det_builds(monkeypatch, lambda: reeb_identities(2)) == 0
    assert _count_det_builds(monkeypatch, lambda: sl_contact_identity(2)) == 0
    # the public builders still build a fresh det on every call
    assert _count_det_builds(monkeypatch, lambda: sl_contact_data(2)) == 1


def test_the_caches_keep_the_two_most_recent_n(monkeypatch):
    for n in (1, 2, 3):
        assert _count_det_builds(monkeypatch, lambda: sl_contact_identity(n)) == 1
    assert _count_det_builds(monkeypatch, lambda: reeb_identities(3)) == 0
    assert _count_det_builds(monkeypatch, lambda: reeb_identities(2)) == 0
    # n = 1 was evicted: rebuilt on its next use, sigma with it
    misses = slgroup._sigma.cache_info().misses
    assert _count_det_builds(monkeypatch, lambda: sl_contact_identity(1)) == 1
    assert slgroup._sigma.cache_info().misses == misses + 1
    assert _count_det_builds(monkeypatch, lambda: sl_contact_identity(1)) == 0


def test_a_one_shot_cli_call_builds_no_det_it_does_not_need(monkeypatch, capsys, tmp_path):
    rotation = block_rotation(4, [ROTATION] * 4)
    matrix = tmp_path / "rotation.json"
    matrix.write_text(json.dumps([[str(x) for x in row] for row in rotation]))
    point = tmp_path / "point.json"
    point.write_text(json.dumps([[str(i + j) for j in range(8)] for i in range(8)]))
    for mode, path in (("--invariance", matrix), ("--singular", point)):
        argv, codes = ["sl", "--n", "4", mode, str(path)], []
        assert _count_det_builds(monkeypatch, lambda: codes.append(cli.main(argv))) == 0
        assert codes == [0], capsys.readouterr().err
