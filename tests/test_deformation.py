import time
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from cartanlab import catalog as cat
from cartanlab import deformation
from cartanlab.deformation import (
    DeformationSpec,
    DegenerateFormError,
    NotCocycleError,
    assemble,
    bilinear_from_endomorphism,
    bullet_power,
    bullet_product,
    central_extension,
    central_quotient,
    check_quadratic_deformation,
    circle_product,
    coboundary_of_bilinear,
    coboundary_of_map,
    deformation_from_classical_basis,
    endomorphism_of,
    normalize_linear_deformation,
)
from cartanlab.forms import DualForm, cartan_class, ce_differential, wedge_power
from cartanlab.liealg import LieAlgebra, bracket_table
from cartanlab.linalg import as_matrix, identity
from cartanlab.poly import Poly
from cartanlab.randgen import random_rational, rng
from cartanlab.scalars import ONE, ZERO, Scalar
from cartanlab.structure import PreconditionError, jacobi_check, lower_central_series

from dense_cochains import (
    COEFFICIENTS,
    apply_comps,
    at,
    combine,
    dense_add,
    dense_bullet_power,
    dense_bullet_product,
    dense_circle_product,
    dense_coboundary,
    dense_coboundary_of_map,
    dense_quadratic_failures,
    dense_view,
    random_bilinear,
    random_table,
)


def test_circle_product_examples():
    h3 = cat.heisenberg(1).algebra
    mu = h3.c
    assert not circle_product(mu, mu)

    phi = bracket_table(3, {(1, 2): {1: 1}})
    assert at(3, circle_product(phi, phi), 1, 2, 3) == (ZERO, ZERO, ZERO)

    assert not circle_product({}, mu)


def test_circle_detects_jacobi():
    bad = LieAlgebra(3, {(1, 2): {3: 1}, (1, 3): {1: 1}})
    assert circle_product(bad.c, bad.c)


def test_bullet_examples():
    h3 = cat.heisenberg(1).algebra
    mu = h3.c
    assert not bullet_product(mu, mu)
    assert not bullet_power(mu, 2)

    muL = cat.filiform_model(5).algebra.c
    val = bullet_product(muL, muL)[(1, 2, 1)]  # mu(mu(e0, e1), e0) = -e3
    assert val == {4: -ONE}
    assert bullet_power(muL, 3) and not bullet_power(muL, 4)

    assert not bullet_product({}, mu)


def test_coboundary_of_inner_map():
    for entry in (cat.dim3("sl2"), cat.heisenberg(2)):
        g = entry.algebra
        ad3 = g.adjoint_rows(g.dim)
        assert not coboundary_of_bilinear(coboundary_of_map(ad3, g), g)


def test_coboundary_diagonal_display():
    h5 = cat.heisenberg(2).algebra
    f = ((1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 3, 0), (0, 0, 0, -3))
    phi2 = bilinear_from_endomorphism(h5, f)
    d = coboundary_of_bilinear(phi2, h5)
    # d phi2(X1, X2, X_l) = -rho_l X_l for l outside the pair
    assert at(5, d, 1, 2, 3) == (ZERO, ZERO, Scalar(-3), ZERO, ZERO)
    assert at(5, d, 1, 2, 4) == (ZERO, ZERO, ZERO, Scalar(3), ZERO)
    assert at(5, d, 3, 4, 1) == (-ONE, ZERO, ZERO, ZERO, ZERO)


def test_coboundary_of_zero():
    h3 = cat.heisenberg(1).algebra
    assert not coboundary_of_bilinear({}, h3)


def test_coboundary_squared_random_maps():
    r = rng(13)
    for entry in (cat.heisenberg(2), cat.dim3("so3"), cat.filiform_model(5)):
        g = entry.algebra
        for _ in range(5):
            rows = [[r.randint(-3, 3) for _ in range(g.dim)] for _ in range(g.dim)]
            assert not coboundary_of_bilinear(coboundary_of_map(rows, g), g)


def test_quadratic_check_positive_cases():
    # phi1 = 0, phi2 from split diagonal f: the rank-1 simple algebra
    sl2 = cat.dim3("sl2")
    res = check_quadratic_deformation(sl2.deformation)
    assert res.ok
    assembled = assemble(sl2.deformation)
    assert assembled.same_constants(sl2.algebra)
    assert assembled.constant(1, 3, 1) == ONE and assembled.constant(2, 3, 2) == -ONE

    # phi1(X1,X2) = X1 with nilpotent f
    solv = cat.dim3("solvable_b")
    assert check_quadratic_deformation(solv.deformation).ok
    assert assemble(solv.deformation).same_constants(solv.algebra)


def test_quadratic_check_negative_case_fails_equation_three():
    h3 = cat.heisenberg(1).algebra
    spec = DeformationSpec(
        h3,
        {(1, 2): {1: 1}},
        bilinear_from_endomorphism(h3, ((1, 0), (0, -1))),
    )
    res = check_quadratic_deformation(spec)
    assert not res.ok
    assert res.failing_equations() == (3,)


def test_deformation_spec_refuses_a_cochain_outside_the_base():
    # the cochains are stored as bracket tables on the base's space, so an
    # index above base.dim is refused when the spec is built
    h3 = cat.heisenberg(1).algebra
    for phi in ({(1, 4): {1: 1}}, {(1, 2): {4: 1}}):
        with pytest.raises(ValueError, match="for dim 3"):
            DeformationSpec(h3, phi, {})
        with pytest.raises(ValueError, match="for dim 3"):
            DeformationSpec(h3, {}, phi)
    spec = DeformationSpec(h3, {(1, 2): {1: 1}}, {})
    assert spec.phi1 == {(1, 2): {1: ONE}} and spec.phi2 == {}


def test_quadratic_check_requires_two_step_base():
    L5 = cat.filiform_model(5).algebra
    spec = DeformationSpec(L5, {}, {})
    from cartanlab.structure import PreconditionError

    with pytest.raises(PreconditionError):
        check_quadratic_deformation(spec)


def test_quadra_ok_implies_assembled_jacobi_grid_search():
    h3 = cat.heisenberg(1).algebra
    values = [Scalar(-1), ZERO, ONE]
    passing = 0
    for a in values:
        for b in values:
            phi1 = {(1, 2): {1: a, 2: b}}
            for fa in values:
                for fb in values:
                    f = ((fa, fb), (ZERO, -fa))
                    spec = DeformationSpec(h3, phi1, bilinear_from_endomorphism(h3, f))
                    if check_quadratic_deformation(spec).ok:
                        passing += 1
                        assert jacobi_check(assemble(spec)).ok
    assert passing > 0


def test_endomorphism_round_trip():
    h5 = cat.heisenberg(2).algebra
    f = ((1, 2, 0, 0), (3, -1, 0, 0), (0, 0, 0, 5), (0, 0, -5, 0))
    phi2 = bilinear_from_endomorphism(h5, f)
    back = endomorphism_of(h5, phi2)
    assert back == tuple(tuple(Scalar.of(x) for x in row) for row in f)
    # a value off the pairs (X_l, X_5), or a central one, has no f
    for values in ({(1, 2): {3: 1}, (1, 5): {2: 4}}, {(1, 5): {2: 4, 5: 1}}):
        with pytest.raises(ValueError, match="endomorphism form"):
            endomorphism_of(h5, bracket_table(5, values))


def test_normalize_linear_deformation():
    h5 = cat.heisenberg(2).algebra
    phi1 = {(1, 2): {1: 1}, (1, 5): {5: 2}, (3, 5): {5: -1}}
    adjusted, f = normalize_linear_deformation(h5, phi1)
    for i in range(1, 5):
        assert at(5, adjusted, i, 5) == (ZERO,) * 5
    # subtracting a coboundary keeps the horizontal part untouched on h
    assert at(5, adjusted, 1, 2)[0] == ONE


def _standard_pairing_normalization(base, phi1):
    """The normalization for the pairing [X_{2k-1}, X_{2k}] = X_n inverted
    by hand: f(X_n) = sum_k lam_{2k} X_{2k-1} - lam_{2k-1} X_{2k}."""
    n = base.dim
    lam = [at(n, phi1, i, n)[n - 1] for i in range(1, n)]
    image = [ZERO] * n
    for k in range(0, n - 1, 2):
        image[k], image[k + 1] = lam[k + 1], -lam[k]
    f = tuple(tuple(image[t] if c == n - 1 else ZERO for c in range(n)) for t in range(n))
    return combine(n, (1, phi1), (-1, coboundary_of_map(f, base))), f


def test_normalize_reads_the_pairing_off_the_base():
    # on the Heisenberg algebras it agrees with the hand-inverted pairing
    r = rng(17)
    for k in range(60):
        h = cat.heisenberg(1 + k % 3).algebra
        n = h.dim
        f = [[_sparse_rational(r) for _ in range(n)] for _ in range(n)]
        phi1 = coboundary_of_map(f, h)
        adjusted, f_out = normalize_linear_deformation(h, phi1)
        assert (adjusted, f_out) == _standard_pairing_normalization(h, phi1)
        assert all(not any(at(n, adjusted, i, n)) for i in range(1, n))
    # another pairing, [X1, X3] = [X2, X4] = X5, with phi1 = df for f(X5) = X1:
    # the hand-inverted standard pairing leaves phi1'(X2, X5) = -X5 here
    base = LieAlgebra(5, {(1, 3): {5: 1}, (2, 4): {5: 1}})
    f = as_matrix([[1 if (i, j) == (0, 4) else 0 for j in range(5)] for i in range(5)])
    adjusted, f_out = normalize_linear_deformation(base, coboundary_of_map(f, base))
    assert not adjusted and f_out == f
    assert _standard_pairing_normalization(base, coboundary_of_map(f, base))[0]


def test_normalize_raises_when_no_coboundary_clears_the_pairs():
    # on abelian(3) every coboundary vanishes, so phi1(X1, X3) = X3 stays
    ab = cat.abelian(3).algebra
    with pytest.raises(PreconditionError, match="normaliz"):
        normalize_linear_deformation(ab, {(1, 3): {3: 1}})


def test_normalize_refuses_a_coboundary_that_does_not_clear_the_pairs(monkeypatch):
    # a coboundary planted as zero leaves phi1(X1, X5) = 2 X5 in place;
    # the pairing system is consistent, so only the post-check can refuse
    h5 = cat.heisenberg(2).algebra
    phi1 = {(1, 2): {1: 1}, (1, 5): {5: 2}, (3, 5): {5: -1}}
    monkeypatch.setattr(deformation, "coboundary_of_map", lambda f, g: {})
    with pytest.raises(PreconditionError, match="does not vanish"):
        normalize_linear_deformation(h5, phi1)


def test_classical_split_refuses_a_sum_that_does_not_reassemble(monkeypatch):
    # assemble planted to drop the last bracket of its sum: the split of
    # sl2 meets every precondition, so only the reassembly check can refuse
    def dropped(spec):
        table = dict(assemble(spec).c)
        table.pop(max(table))
        return LieAlgebra(spec.base.dim, table)

    monkeypatch.setattr(deformation, "assemble", dropped)
    with pytest.raises(PreconditionError, match="does not reassemble"):
        deformation_from_classical_basis(cat.dim3("sl2").algebra)


def test_central_extension_base_cases():
    ab2 = cat.abelian(2).algebra
    h3 = central_extension(ab2, DualForm(ab2, 2, {(1, 2): 1}))
    assert h3.same_constants(cat.heisenberg(1).algebra)

    ab4 = cat.abelian(4).algebra
    theta = DualForm(ab4, 2, {(1, 2): 1, (3, 4): 1})
    h5 = central_extension(ab4, theta)
    assert h5.same_constants(cat.heisenberg(2).algebra)
    assert cartan_class(DualForm.basis(h5, 5)).value == 5


def test_central_extension_errors():
    ab4 = cat.abelian(4).algebra
    with pytest.raises(DegenerateFormError):
        central_extension(ab4, DualForm(ab4, 2, {(1, 2): 1}))
    # a non-closed 2-form on a nonabelian base
    frob = cat.frobenius_model(2, [1]).algebra
    bad = DualForm(frob, 2, {(3, 4): 1})
    assert not ce_differential(bad).is_zero
    with pytest.raises(NotCocycleError):
        central_extension(frob, bad)


def _seeded_two_forms(k, r):
    """Seeded 2-forms on k, closed because k is abelian: dense, sparse,
    with a zero row, and the sum of too few pairs to be symplectic."""
    pairs = [(i, j) for i in range(1, k.dim + 1) for j in range(i + 1, k.dim + 1)]
    out = []
    for _ in range(4):
        out.append({ij: random_rational(r) for ij in pairs})
        out.append({ij: random_rational(r) for ij in pairs if r.random() < 0.4})
        row = r.randint(1, k.dim)
        out.append({ij: random_rational(r) for ij in pairs if row not in ij})
    out.append({(2 * m - 1, 2 * m): ONE for m in range(1, k.dim // 2)})
    return [DualForm(k, 2, c) for c in out]


def test_central_extension_symplectic_verdict_matches_the_top_wedge_power():
    # nondegenerate by skew elimination iff theta^(dim k / 2) != 0
    r = rng(22)
    verdicts = Counter()
    for p in (1, 2, 3):
        k, _ = central_quotient(cat.heisenberg(p).algebra)
        for theta in _seeded_two_forms(k, r):
            symplectic = not wedge_power(theta, p).is_zero
            verdicts[symplectic] += 1
            if symplectic:
                ext = central_extension(k, theta)
                assert cartan_class(DualForm.basis(ext, ext.dim)).value == ext.dim
            else:
                with pytest.raises(DegenerateFormError, match="not symplectic"):
                    central_extension(k, theta)
    assert verdicts[True] and verdicts[False]


def test_central_extension_round_trips():
    for entry in (cat.heisenberg(1), cat.heisenberg(2), cat.mu_c9([1, 2, 3])):
        g = entry.algebra
        k, theta = central_quotient(g)
        assert central_extension(k, theta).same_constants(g)


def test_extension_class_parity_and_nilindex_shift():
    # extension by a symplectic form always has contact class dim(k) + 1
    mu = cat.mu_c9([1, 2, 3]).algebra
    k, theta = central_quotient(mu)
    assert ce_differential(theta).is_zero
    assert not wedge_power(theta, 4).is_zero
    ext = central_extension(k, theta)
    assert cartan_class(DualForm.basis(ext, ext.dim)).value == k.dim + 1
    # nilindex increments for the filiform family
    assert lower_central_series(k).nilindex == 7
    assert lower_central_series(ext).nilindex == 8

    ab4 = cat.abelian(4).algebra
    theta4 = DualForm(ab4, 2, {(1, 2): 1, (3, 4): 1})
    assert cartan_class(DualForm.basis(central_extension(ab4, theta4), 5)).value == 5


def test_deformation_from_classical_basis():
    for kind in ("solvable1", "solvable_b", "sl2"):
        entry = cat.dim3(kind)
        spec = deformation_from_classical_basis(entry.algebra)
        assert check_quadratic_deformation(spec).ok
        assert assemble(spec).same_constants(entry.algebra)


def _perturbed(r, table, n):
    """A copy of the sparse table {(i, j): {k: coeff}} on dimension n with
    one bracket dropped, one coefficient rescaled or zeroed, or one random
    term added at any pair."""
    table = {ij: dict(terms) for ij, terms in table.items()}
    kind = r.randrange(3)
    if kind == 0 and table:
        del table[r.choice(sorted(table))]
    elif kind == 1 and table:
        terms = table[r.choice(sorted(table))]
        k = r.choice(sorted(terms))
        terms[k] = terms[k] * r.choice([0, 2, Fraction(1, 2), -1])
    else:
        i, j = sorted(r.sample(range(1, n + 1), 2))
        table.setdefault((i, j), {})[r.randint(1, n)] = random_rational(r)
    return table


def _odd_standard_algebras():
    return [e.algebra for e in cat.standard_entries() if e.algebra.dim % 2 == 1]


def test_classical_split_round_trips_or_raises_on_perturbed_tables():
    # every split either reassembles the perturbed table or raises
    r = rng(311)
    algebras = _odd_standard_algebras()
    outcomes = Counter()
    for _ in range(300):
        g = r.choice(algebras)
        h = LieAlgebra(g.dim, _perturbed(r, g.c, g.dim))
        try:
            spec = deformation_from_classical_basis(h)
        except PreconditionError:
            outcomes["raised"] += 1
            continue
        assert assemble(spec).same_constants(h)
        outcomes["split"] += 1
    assert outcomes["raised"] > 50 and outcomes["split"] > 50, outcomes


def test_central_quotient_raises_exactly_when_a_bracket_with_the_last_vector_is_nonzero():
    # centrality read off the table against the brackets [X_n, X_i] of
    # coordinate tuples, on the perturbed tables of the round-trip test below
    r = rng(313)
    algebras = _odd_standard_algebras()
    outcomes = Counter()
    for _ in range(300):
        g = r.choice(algebras)
        h = LieAlgebra(g.dim, _perturbed(r, g.c, g.dim))
        n = h.dim
        e = identity(n)
        central = not any(any(h.bracket(e[n - 1], e[i - 1])) for i in range(1, n))
        try:
            central_quotient(h)
        except PreconditionError as exc:
            assert not central and "not central" in str(exc), h.c
            outcomes["raised"] += 1
            continue
        assert central, h.c
        outcomes["quotient"] += 1
    assert outcomes["raised"] > 20 and outcomes["quotient"] > 50, outcomes


def test_endomorphism_form_round_trips_or_raises_on_perturbed_maps():
    # phi_2 has the endomorphism form iff it vanishes off the pairs
    # (X_l, X_n) and keeps their values off the center; endomorphism_of
    # returns an f that rebuilds phi_2 exactly then, and raises otherwise
    r = rng(312)
    outcomes = Counter()
    for _ in range(300):
        h = cat.heisenberg(r.randint(1, 3)).algebra
        n = h.dim
        f = [[_sparse_rational(r) for _ in range(n - 1)] for _ in range(n - 1)]
        phi2 = bracket_table(n, _perturbed(r, bilinear_from_endomorphism(h, f), n))
        in_form = all(j == n and n not in terms for (_, j), terms in phi2.items())
        try:
            back = endomorphism_of(h, phi2)
        except ValueError:
            assert not in_form, phi2
            outcomes["raised"] += 1
            continue
        assert bilinear_from_endomorphism(h, back) == phi2
        outcomes["rebuilt"] += 1
    assert outcomes["raised"] > 50 and outcomes["rebuilt"] > 50, outcomes


def test_central_quotient_and_extension_round_trip_or_raise_on_perturbed_tables():
    # the quotient by the last basis vector and the extension by its 2-form
    # either raise or give the perturbed table back constant by constant
    r = rng(313)
    algebras = _odd_standard_algebras()
    outcomes = Counter()
    for _ in range(300):
        g = r.choice(algebras)
        h = LieAlgebra(g.dim, _perturbed(r, g.c, g.dim))
        try:
            back = central_extension(*central_quotient(h))
        except (PreconditionError, NotCocycleError, DegenerateFormError):
            outcomes["raised"] += 1
            continue
        assert back.same_constants(h)
        outcomes["round trip"] += 1
    assert outcomes["raised"] > 50 and outcomes["round trip"] > 50, outcomes


# -- the diagonal-eigenvalue search -------------------------------------------
#
# For a nonsingular diagonal endomorphism with eigenvalue pairs
# (l_1, -l_1, ..., l_p, -l_p), the quadratic-deformation system forces a
# web of relations on the cochain coefficients: a coefficient A_ij^k may be
# nonzero only when rho_i + rho_j = rho_k, and the second compatibility
# equation prescribes the value of single products of them.  The search
# below certifies, over the whole positive non-increasing integer grid up
# to 6, that these prescriptions always collide: either a required
# component is unreachable, or the same product is forced to two different
# values (the collision sits at the (X1, X2, X_l) components).  So the
# arithmetic-progression eigenvalue relations are necessary conditions on
# an empty set, and realizable diagonal cases all have a singular diagonal
# part, as in every dimension-5 family.


def _diagonal_profile_verdict(lam):
    p = len(lam)
    m = 2 * p
    rho = []
    for l in lam:
        rho.extend([Scalar(l), Scalar(-l)])
    pairing = [[ZERO] * m for _ in range(m)]
    for k in range(p):
        pairing[2 * k][2 * k + 1] = ONE
        pairing[2 * k + 1][2 * k] = -ONE
    allowed = [
        (i, j, k)
        for i in range(m)
        for j in range(i + 1, m)
        for k in range(m)
        if rho[i] + rho[j] == rho[k]
    ]
    names = tuple(f"A_{i}_{j}_{k}" for (i, j, k) in allowed) or ("_none",)
    allowed_set = set(allowed)

    def phi1(i, j):
        sign = 1
        if i > j:
            i, j, sign = j, i, -1
        out = {}
        for k in range(m):
            if (i, j, k) in allowed_set:
                v = Poly.variable(names, f"A_{i}_{j}_{k}")
                out[k] = v if sign > 0 else -v
        return out

    forced = {}
    for a in range(m):
        for b in range(a + 1, m):
            for c in range(b + 1, m):
                comp = [Poly.zero(names) for _ in range(m)]
                for (x, y, z) in ((a, b, c), (b, c, a), (c, a, b)):
                    for mid, pv in phi1(x, y).items():
                        for tgt, qv in phi1(mid, z).items():
                            comp[tgt] = comp[tgt] + pv * qv
                const = [ZERO] * m
                for (x, y, z) in ((a, b, c), (b, c, a), (c, a, b)):
                    if pairing[x][y]:
                        const[z] = const[z] - pairing[x][y] * rho[z]
                for tgt in range(m):
                    poly, cval = comp[tgt], const[tgt]
                    if poly.is_zero and cval != ZERO:
                        return "unreachable"
                    if len(poly.terms) == 1 and cval != ZERO:
                        (expo, coeff), = poly.terms.items()
                        val = (-cval) / coeff
                        if expo in forced and forced[expo] != val:
                            return "conflict"
                        forced[expo] = val
    return "undecided"


def test_nonsingular_diagonal_profiles_are_infeasible():
    for p in (2, 3):
        for lam in combinations_with_replacement(range(1, 7), p):
            lam = tuple(sorted(lam, reverse=True))
            verdict = _diagonal_profile_verdict(lam)
            assert verdict in ("unreachable", "conflict"), (lam, verdict)
    # in particular the arithmetic-progression profiles themselves
    assert _diagonal_profile_verdict((2, 1)) != "undecided"
    assert _diagonal_profile_verdict((3, 2, 1)) == "conflict"


def _sparse_rational(r):
    """Zero about half the time, so the zero-factor shortcuts are exercised."""
    return random_rational(r) if r.random() < 0.5 else 0


def test_apply_comps_matches_dense_formula():
    # the references' apply_comps and LieAlgebra.bracket share liealg.apply_table
    r = rng(212)
    for n in (3, 4, 5, 6):
        g = LieAlgebra(n, {})
        for _ in range(10):
            values = {}
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    if r.random() < 0.4:
                        values[(i, j)] = {t: _sparse_rational(r) for t in range(1, n + 1)}
            h = LieAlgebra(n, values)
            phi = h.c
            x = [_sparse_rational(r) for _ in range(n)]
            y = [_sparse_rational(r) for _ in range(n)]
            for a, b in ((x, y), (y, x), (x, x)):
                a = tuple(Scalar.of(v) for v in a)
                b = tuple(Scalar.of(v) for v in b)
                dense = tuple(
                    sum(
                        ((a[i - 1] * b[j - 1] - a[j - 1] * b[i - 1]) * at(n, phi, i, j)[t]
                         for i in range(1, n + 1) for j in range(i + 1, n + 1)),
                        ZERO,
                    )
                    for t in range(n)
                )
                assert apply_comps(phi, a, b) == dense
                assert h.bracket(a, b) == dense


def _cochain_algebras(r):
    """Catalog algebras (Jacobi holds) and random tables (it mostly fails)
    with rational, Gaussian and +-1 constants."""
    algebras = [
        entry.algebra
        for entry in (cat.heisenberg(2), cat.dim3("sl2", lam=3), cat.filiform_model(6),
                      cat.frobenius_model(3, [1, -2]), cat.mu_c9([1, 2, 3]))
    ]
    return algebras + [random_table(r, n, coeff) for coeff in COEFFICIENTS
                       for n in (3, 4, 5, 6) for _ in range(2)]


def test_sparse_cochains_match_dense_references():
    r = rng(307)
    verdicts = []
    for g in _cochain_algebras(r):
        verdicts.append(jacobi_check(g).ok)
        n, mu = g.dim, g.c
        for coeff in COEFFICIENTS:
            phi, psi = random_bilinear(g, r, coeff=coeff), random_bilinear(g, r, coeff=coeff)
            for a, b in ((phi, psi), (psi, phi), (phi, mu), (mu, phi), (mu, mu), (phi, phi)):
                sparse = dense_view(n, circle_product(a, b))
                # same keys in the same (lexicographic) order, same comps
                assert list(sparse.items()) == list(dense_circle_product(n, a, b).items())
            d = dense_view(n, coboundary_of_bilinear(phi, g))
            assert list(d.items()) == list(dense_coboundary(phi, g).items())
            # d phi = phi o mu + mu o phi
            assert d == dense_add(
                n, dense_circle_product(n, phi, mu), dense_circle_product(n, mu, phi)
            )
    assert verdicts.count(True) >= 5 and verdicts.count(False) >= 4


def test_sparse_bullets_match_dense_references():
    r = rng(309)
    nilpotency = set()
    for t, g in enumerate(_cochain_algebras(r)):
        mu = g.c
        phi = random_bilinear(g, r, coeff=COEFFICIENTS[t % len(COEFFICIENTS)])
        for a, b in ((mu, mu), (phi, mu), (mu, phi), (phi, phi)):
            sparse = bullet_product(a, b)
            assert {key: _dense(g.dim, terms) for key, terms in sparse.items()} == (
                dense_bullet_product(g.dim, a, b)
            )
        for k in (1, 2, 3, 4):
            sparse = bullet_power(mu, k)
            dense = dense_bullet_power(g.dim, mu, k)
            assert {key: _dense(g.dim, terms) for key, terms in sparse.items()} == dense
            nilpotency.add((k, not sparse))
    # both verdicts occur at 2 and 3 steps
    assert {(2, True), (2, False), (3, True), (3, False)} <= nilpotency


def test_sparse_coboundary_of_map_matches_dense_reference():
    r = rng(310)
    for g in _cochain_algebras(r):
        for coeff in COEFFICIENTS:
            f = as_matrix([[coeff(r) if r.random() < 0.5 else 0 for _ in range(g.dim)]
                           for _ in range(g.dim)])
            assert dense_view(g.dim, coboundary_of_map(f, g)) == dense_coboundary_of_map(f, g)


def _dense(n, terms):
    return tuple(terms.get(k, ZERO) for k in range(1, n + 1))


def test_quadratic_check_matches_dense_equations():
    r = rng(308)
    specs = [entry.deformation for entry in (cat.dim3("sl2", lam=2), cat.dim3("solvable_b", b=3))]
    specs += [cat.dim5("diag_ii_a", a=1, b=Fraction(-1, 2), c=2, d=3).deformation]
    for p in (1, 2):
        base = cat.heisenberg(p).algebra
        for density in (0.1, 0.3):
            for coeff in COEFFICIENTS:
                specs.append(DeformationSpec(
                    base, random_bilinear(base, r, density, coeff), random_bilinear(base, r, density, coeff)
                ))
    outcomes = set()
    for spec in specs:
        res = check_quadratic_deformation(spec)
        assert res.failures == dense_quadratic_failures(spec)
        outcomes.add(res.ok)
    assert outcomes == {True, False}


def test_quadratic_check_scales_to_heisenberg_40():
    # the dense triple loops took over a minute here
    base = cat.heisenberg(40).algebra
    rho = [Scalar(k % 7 - 3) for k in range(80)]
    f = [[rho[i] if i == j else ZERO for j in range(80)] for i in range(80)]
    spec = DeformationSpec(base, {}, bilinear_from_endomorphism(base, f))
    start = time.monotonic()
    res = check_quadratic_deformation(spec)
    assert time.monotonic() - start < 5.0
    # d phi2 (X1, X2, X_l) = -rho_l X_l: equation 2 fails first at (1, 2, 3)
    assert res.failing_equations() == (2,)
    (_, key, comps), = res.failures
    assert key == (1, 2, 3) and comps == tuple(-rho[2] if t == 2 else ZERO for t in range(81))
