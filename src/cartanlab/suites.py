"""Batch property suites of the command line's `check` subcommand.

Every suite takes (g, entry, seed): the algebra, its catalog entry or None,
and the seed of the run.  It returns (ok, results-dict); results are
JSON-ready (rationals as strings) and deterministic for a fixed seed.
"""

from __future__ import annotations

from .deformation import (
    central_extension,
    central_quotient,
    check_quadratic_deformation,
    assemble,
    deformation_from_classical_basis,
)
from .forms import cartan_class
from .liealg import LieAlgebra
from .randgen import random_covector, rng
from .structure import center, jacobi_check
from .scalars import ZERO


def _vector_str(v) -> list:
    return [str(x) for x in v]


def suite_jacobi(g: LieAlgebra, entry, seed):
    res = jacobi_check(g)
    if res.ok:
        return True, {"ok": True}
    i, j, k, defect = res.witness
    return False, {
        "ok": False,
        "witness": {"triple": [i, j, k], "defect": _vector_str(defect)},
    }


def suite_nilpotent_parity(g: LieAlgebra, entry, seed):
    r = rng(seed)
    samples = 100
    classes = []
    odd = 0
    for _ in range(samples):
        w = random_covector(g, r)
        value = cartan_class(w).value
        classes.append(value)
        odd += value % 2
    ok = odd == samples
    return ok, {
        "ok": ok,
        "samples": samples,
        "odd": odd,
        "classes_seen": sorted(set(classes)),
    }


def suite_center(g: LieAlgebra, entry, seed):
    z = center(g)
    results = {"dimension": z.dim, "basis": [_vector_str(row) for row in z.rows]}
    ok = True
    form = None if entry is None else entry.distinguished_form
    if form is not None and not form.is_zero:
        info = cartan_class(form)
        results["class_of_form"] = info.value
        # central vectors annihilated by the form lie in its characteristic space
        containment = True
        for v in z.rows:
            if form.evaluate(v) == ZERO and not info.characteristic_space.contains(v):
                containment = False
        results["central_in_characteristic_space"] = containment
        ok = ok and containment
        if info.value == g.dim:
            contact_center = z.dim == 1
            results["contact_center_dimension_1"] = contact_center
            ok = ok and contact_center
    results["ok"] = ok
    return ok, results


def suite_quadra(g: LieAlgebra, entry, seed):
    if entry is not None and entry.deformation is not None:
        spec = entry.deformation
    else:
        spec = deformation_from_classical_basis(g)
    res = check_quadratic_deformation(spec)
    assembled_ok = None
    if res.ok:
        assembled_ok = jacobi_check(assemble(spec)).ok
    results = {
        "ok": res.ok and bool(assembled_ok),
        "failing_equations": list(res.failing_equations()),
        "failures": [
            {"equation": eq, "triple": list(triple), "defect": _vector_str(defect)}
            for eq, triple, defect in res.failures
        ],
        "assembled_jacobi": assembled_ok,
    }
    return results["ok"], results


def suite_extension_roundtrip(g: LieAlgebra, entry, seed):
    k, theta = central_quotient(g)
    rebuilt = central_extension(k, theta)
    ok = rebuilt.same_constants(g)
    return ok, {"ok": ok, "base_dimension": k.dim}


SUITES = {
    "jacobi": suite_jacobi,
    "nilpotent-parity": suite_nilpotent_parity,
    "center": suite_center,
    "quadra": suite_quadra,
    "extension-roundtrip": suite_extension_roundtrip,
}


def run_suite(name: str, g: LieAlgebra, entry, seed):
    """(ok, results) of the suite called name."""
    return SUITES[name](g, entry, seed)
