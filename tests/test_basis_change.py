"""Basis-change invariance as a metamorphic oracle.

In the basis Y_j = sum_i P_ij X_i the bracket table of g changes, but the
algebra does not: the Jacobi verdict, dim Z(g) and the Cartan class of a
covector w, with its branch and power, are the same for the pair
(g', w') with w'(Y_j) = w(sum_i P_ij X_i), and so is the nilindex of the
lower central series, whose terms the dense reference rebuilds.  When P
fixes X_2 (Y_2 = X_2), ad(Y_2) is ad(X_2) in another basis, so the adjoint
spectrum of X_2 is the same too.  The catalog's tables and forms
are sparse; under a dense Gaussian P they fill in, so the zero skips of
the signed cyclic-sum kernel, `skew_reduce`, `ce_differential` and the
elimination meet dense input with late pivots and cancellations.
"""

from cartanlab import catalog as cat
from cartanlab.forms import DualForm, cartan_class
from cartanlab.liealg import change_basis
from cartanlab.linalg import det
from cartanlab.randgen import random_covector, rng
from cartanlab.scalars import I, ONE, ZERO
from cartanlab.spectrum import adjoint_spectrum
from cartanlab.structure import center, jacobi_check, lower_central_series

from dense_cochains import dense_lower_central_series, gaussian_basis


def _rebased_form(w, h, p):
    """w'(Y_j) = sum_i P_ij w(X_i), as a covector on the rebased algebra h."""
    n = h.dim
    comps = [w.coeffs.get((i,), ZERO) for i in range(1, n + 1)]
    return DualForm.covector(h, [sum((p[i][j] * comps[i] for i in range(n)), ZERO) for j in range(n)])


def _invariants(w):
    info = cartan_class(w)
    return info.value, info.branch, info.power


def test_invariants_survive_a_dense_gaussian_change_of_basis():
    r = rng(2213)
    standard = cat.standard_entries()
    entries = standard + cat.nilpotent_entries()
    assert len(entries) == 45
    for index, entry in enumerate(entries):
        g = entry.algebra
        p = gaussian_basis(g.dim, r)
        h = change_basis(g, p)
        assert jacobi_check(h).ok and jacobi_check(g).ok, entry.id
        assert center(h).dim == center(g).dim, entry.id
        if index < len(standard):
            # each term of the lower central series of h against the dense
            # reference, and the nilindex, the same as g's
            series = lower_central_series(h)
            terms = list(series.terms)
            assert dense_lower_central_series(h, len(terms) + 1) == terms + terms[-1:], entry.id
            assert series.nilindex == lower_central_series(g).nilindex, entry.id
        for w in (entry.distinguished_form, random_covector(g, r)):
            assert _invariants(_rebased_form(w, h, p)) == _invariants(w), entry.id


def test_an_open_table_stays_open_under_a_dense_gaussian_change_of_basis():
    r = rng(2214)
    for a in ((1, 2, 4), (2, -1, 5)):
        g = cat.mu_c9_table(*a)
        h = change_basis(g, gaussian_basis(g.dim, r))
        assert not jacobi_check(g).ok and not jacobi_check(h).ok


def _basis_fixing_x2(n, r):
    """A dense invertible Gaussian P whose column 2 is e_2, so Y_2 = X_2."""
    while True:
        p = gaussian_basis(n, r)
        for i, row in enumerate(p):
            row[1] = ONE if i == 1 else ZERO
        if det(p):
            return p


def _spectrum_key(result):
    return sorted(result.multiset(), key=lambda z: (z.re, z.im)), result.unfactored


def test_frobenius_spectra_survive_a_dense_gaussian_change_of_basis():
    r = rng(2215)
    entries = [e for e in cat.standard_entries() if e.id.startswith("frobenius")]
    assert len(entries) == 4
    entries += [
        cat.frobenius_model(2, [I]),
        cat.frobenius_model(3, [1 - I, -2]),
        cat.frobenius_model(4, [2, I, 1 + 2 * I]),
    ]
    for entry in entries:
        g = entry.algebra
        h = change_basis(g, _basis_fixing_x2(g.dim, r))
        assert _spectrum_key(adjoint_spectrum(h, 2)) == _spectrum_key(adjoint_spectrum(g, 2)), entry.id
