"""Acceptance battery: every criterion runs at exact (zero) tolerance and
prints one verdict line.  Run with `pytest -s tests/test_acceptance.py` to
see the lines as they pass."""

import time
from fractions import Fraction
from itertools import product

from cartanlab import catalog as cat
from cartanlab.contraction import (
    ContractionSpec,
    contract,
    frobenius_model_parameters,
)
from cartanlab.deformation import (
    DeformationSpec,
    assemble,
    bilinear_from_endomorphism,
    central_extension,
    central_quotient,
    check_quadratic_deformation,
)
from cartanlab.forms import cartan_class, wedge_power_class
from cartanlab.heisenberg_group import (
    U_VAR,
    h3_contact_polynomial,
    h3_is_contact_everywhere,
)
from cartanlab.liealg import LieAlgebra
from cartanlab.poisson import darboux_poisson, darboux_vars
from cartanlab.poly import Poly
from cartanlab.polyforms import exterior_d, form_on_field, poly_interior
from cartanlab.randgen import random_covector, random_poly, random_rational, rng
from cartanlab.scalars import ONE, Scalar
from cartanlab.slgroup import (
    pythagorean_rotation,
    reeb_identities,
    sl_contact_data,
    sl_contact_identity,
    so_invariance_check,
)
from cartanlab.spectrum import adjoint_spectrum
from cartanlab.structure import jacobi_check
from cartanlab.sturm import count_real_roots

from dense_cochains import combine
from test_slgroup import closed_form_constant


def _verdict(number, label, budget_seconds):
    start = time.monotonic()

    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            elapsed = time.monotonic() - start
            status = "PASS" if exc_type is None else "FAIL"
            share = 100 * elapsed / budget_seconds
            print(
                f"ACCEPTANCE {number:02d} {label}: {status} ({elapsed:.2f}s,"
                f" {share:.0f}% of the {budget_seconds:g}s budget)"
            )
            if exc_type is None:
                assert elapsed < budget_seconds, (
                    f"criterion {number} exceeded its {budget_seconds}s budget"
                )
            return False

    return _Ctx()


def test_criterion_01_heisenberg_contact():
    with _verdict(1, "heisenberg contact classes", 1.0):
        for p in range(1, 6):
            entry = cat.heisenberg(p)
            assert cartan_class(entry.distinguished_form).value == 2 * p + 1


def test_criterion_02_class_cross_oracle():
    with _verdict(2, "skew-elimination class == characteristic codimension == wedge-power class", 30.0):
        r = rng(101)
        for entry in cat.standard_entries():
            g = entry.algebra
            for _ in range(50):
                w = random_covector(g, r)
                info = cartan_class(w)  # self-checking
                assert info.value == g.dim - info.characteristic_space.dim
                assert wedge_power_class(w) == (info.power, info.branch == "odd")


def test_criterion_03_nilpotent_parity():
    with _verdict(3, "odd class on nilpotent entries", 30.0):
        r = rng(102)
        for entry in cat.nilpotent_entries():
            g = entry.algebra
            for _ in range(100):
                assert cartan_class(random_covector(g, r)).value % 2 == 1


def _dim3_random_entry(kind, r):
    if kind == "heisenberg":
        return cat.dim3(kind)
    if kind == "solvable1":
        return cat.dim3(kind)
    if kind == "solvable_b":
        b = random_rational(r)
        return cat.dim3(kind, b=b if b else Fraction(1))
    if kind == "sl2":
        lam = random_rational(r)
        return cat.dim3(kind, lam=lam if lam else Fraction(1))
    a = random_rational(r)
    return cat.dim3("so3", a=a if a else Fraction(1))


def test_criterion_04_quadratic_system_implies_jacobi():
    with _verdict(4, "quadratic compatibility over dim-3/dim-5 families", 10.0):
        r = rng(103)
        for kind in cat.DIM3_KINDS:
            for _ in range(25):
                entry = _dim3_random_entry(kind, r)
                res = check_quadratic_deformation(entry.deformation)
                assert res.ok, (kind, res.failures)
                assert jacobi_check(assemble(entry.deformation)).ok
        for variant, letters in cat.DIM5_VARIANTS.items():
            for _ in range(25):
                params = {ch: random_rational(r) for ch in letters}
                entry = cat.dim5(variant, **params)
                res = check_quadratic_deformation(entry.deformation)
                assert res.ok, (variant, params, res.failures)
                assert jacobi_check(assemble(entry.deformation)).ok
        # the deliberate negative: phi1(X1,X2) = X1 against split diagonal f
        h3 = cat.heisenberg(1).algebra
        spec = DeformationSpec(
            h3,
            {(1, 2): {1: 1}},
            bilinear_from_endomorphism(h3, ((1, 0), (0, -1))),
        )
        assert check_quadratic_deformation(spec).failing_equations() == (3,)


def test_criterion_05_central_extension_round_trip():
    with _verdict(5, "central quotient / re-extension round trip", 5.0):
        for entry in (cat.heisenberg(1), cat.heisenberg(2), cat.mu_c9([1, 2, 3])):
            g = entry.algebra
            k, theta = central_quotient(g)
            assert central_extension(k, theta).same_constants(g)


def test_criterion_06_filiform_contact_gate():
    with _verdict(6, "dim-9 filiform contact gate on a 5^3 grid", 60.0):
        grid = [Fraction(v) for v in (-1, 0, 1, 2, 3)]
        for a1 in grid:
            for a2 in grid:
                for a3 in grid:
                    entry = cat.filiform_contact(4, [a1, a2, a3], allow_nonjacobi=True)
                    value = cartan_class(entry.distinguished_form).value
                    conditions = cat.filiform_contact_conditions(4, [a1, a2, a3])
                    expect_contact = all(bool(c) for c in conditions)
                    assert (value == 9) == expect_contact, (a1, a2, a3, value)
                    if not expect_contact:
                        assert value < 9


def test_criterion_07_compatible_endomorphism_dimension():
    with _verdict(7, "pairing-compatible endomorphism dimension", 10.0):
        from cartanlab.structure import bracket_compatible_dimension

        for p in range(1, 5):
            assert bracket_compatible_dimension(p) == p * (2 * p + 1)


def test_criterion_08_frobenius_model_battery():
    with _verdict(8, "frobenius model family battery", 30.0):
        r = rng(104)
        for p in (2, 3, 4):
            base_entry = cat.frobenius_model(p, [0] * (p - 1))
            psis = cat.psi_cocycles(p, base_entry.algebra)
            for _ in range(25):
                a = [random_rational(r) for _ in range(p - 1)]
                entry = cat.frobenius_model(p, a)
                assert jacobi_check(entry.algebra).ok
                assert cartan_class(entry.distinguished_form).value == 2 * p
                total = combine(2 * p, (1, base_entry.algebra.c), *zip(a, psis))
                rebuilt = LieAlgebra(2 * p, total)
                assert rebuilt.same_constants(entry.algebra)
                spectrum = adjoint_spectrum(entry.algebra, 2)
                for ak in a:
                    assert spectrum.contains(ak)
                    assert spectrum.contains(-(1 + Scalar.of(ak)))


def test_criterion_09_contractions():
    with _verdict(9, "contraction landmarks and model fixed point", 60.0):
        sl2 = cat.dim3("sl2").algebra
        res = contract(ContractionSpec(sl2, (1, 1, 2)))
        assert res.converges
        assert res.limit.same_constants(cat.heisenberg(1).algebra)
        for p, params in ((2, (Fraction(1, 2),)), (2, (Fraction(-2),)), (3, (Fraction(1), Fraction(-3, 2)))):
            g = cat.frobenius_model(p, list(params)).algebra
            expected = tuple(Scalar.of(x) for x in params)
            for exps in product((0, 1, 2), repeat=2 * p):
                out = contract(ContractionSpec(g, exps))
                if not out.converges:
                    continue
                found = frobenius_model_parameters(out.limit)
                if found is not None:
                    assert found == expected, (p, exps, found)


def test_criterion_10_sl_contact_identity():
    with _verdict(10, "exact contact identity on the rank-2 unimodular group", 5.0):
        res = sl_contact_identity(1)
        assert res.ok and res.q == 1
        assert res.constant == Scalar(-4)  # == -(2^(2n^2)) * n at n = 1
        data = sl_contact_data(1)
        assert form_on_field(data.omega, data.reeb) == data.delta
        contraction = poly_interior(data.reeb, exterior_d(data.omega))
        assert contraction in (data.d_delta, data.d_delta.scale(Scalar(-1)))
        for a, b in ((2, 1), (3, 1), (3, 2), (4, 1), (4, 3)):
            assert so_invariance_check(1, pythagorean_rotation(a, b))


def test_criterion_10b_sl_rank_4_run():
    with _verdict(10, "rank-4 expansion completes and matches the closed form", 600.0):
        res = sl_contact_identity(2)
        assert res.ok and res.q == 7
        # the exact expansion (both the pair-combinatorial and the generic
        # wedge routes agree) gives the closed form -q! * n * 2^(2n^2)
        assert res.constant == Scalar(-2580480) == closed_form_constant(2)


def test_criterion_10c_sl_rank_6_closed_form():
    with _verdict(10, "rank-6 constant equals the closed form", 10.0):
        res = sl_contact_identity(3)
        assert res.ok and res.q == 17
        assert res.constant == closed_form_constant(3)


def test_criterion_10d_sl_rank_8_closed_form():
    # the largest n that `sl --n` takes: each check has its own budget
    with _verdict(10, "rank-8 constant equals the closed form", 15.0):
        res = sl_contact_identity(4)
        assert res.ok and res.q == 31
        assert res.constant == closed_form_constant(4)
    with _verdict(10, "rank-8 Reeb field pairs to det and -d(det)/n", 15.0):
        pair_defect, multiple = reeb_identities(4)
        assert pair_defect.is_zero and multiple == Scalar(Fraction(-1, 4))


def test_criterion_11_h3_contact_polynomials():
    with _verdict(11, "invariant contact polynomials on the Heisenberg group", 1.0):
        u = Poly.variable(U_VAR, "u")
        one = Poly.constant(U_VAR, 1)
        zero = Poly.zero(U_VAR)
        p = h3_contact_polynomial(0, one, zero, u)
        assert p == 1 - u * u
        assert count_real_roots(p) == 2
        assert p.eval([ONE]) == 0 and p.eval([Scalar(-1)]) == 0
        assert not h3_is_contact_everywhere(0, one, zero, u)
        c = Poly.constant(U_VAR, Fraction(5, 2))
        assert h3_contact_polynomial(0, zero, zero, c) == Poly.constant(
            U_VAR, Fraction(-25, 4)
        )
        assert h3_is_contact_everywhere(0, zero, zero, c)


def test_criterion_12_poisson_axioms():
    with _verdict(12, "canonical Poisson bracket axioms", 10.0):
        r = rng(105)
        for p in (1, 2):
            v = darboux_vars(p)
            for _ in range(50):
                f, g, h = (random_poly(v, r) for _ in range(3))
                assert darboux_poisson(p, f, g) == -darboux_poisson(p, g, f)
                assert (
                    darboux_poisson(p, f * g, h)
                    - f * darboux_poisson(p, g, h)
                    - darboux_poisson(p, f, h) * g
                ).is_zero
                assert (
                    darboux_poisson(p, f, darboux_poisson(p, g, h))
                    + darboux_poisson(p, g, darboux_poisson(p, h, f))
                    + darboux_poisson(p, h, darboux_poisson(p, f, g))
                ).is_zero
