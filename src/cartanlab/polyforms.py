"""Differential forms and vector fields with polynomial coefficients on
affine space.  Coefficients are exact, so d o d = 0 holds on the nose and
every identity below is a polynomial identity, not a numerical one.

``PolyForm(vars, grade, coeffs)`` is the one checked constructor.  The
arithmetic (``+``, ``-``, ``scale``, wedge, d, interior product, pullback)
builds its coefficient dicts with the `exterior` kernel, which keeps them
sparse and sorted, and wraps them with ``_trusted_form`` without a second
pass, as `poly` does for its terms.
"""

from __future__ import annotations

from functools import partial

from . import exterior
from .poly import Poly, VariableMismatch
from .scalars import ONE, Scalar, check_int


def _trusted_form(vars: tuple, grade: int, coeffs: dict) -> "PolyForm":
    """Wrap ``coeffs`` as a PolyForm without checking it: a fresh dict of
    increasing index tuples of length ``grade`` to nonzero Polys over
    ``vars``, held by no other form."""
    f = object.__new__(PolyForm)
    f.vars = vars
    f.grade = grade
    f.coeffs = coeffs
    return f


def _as_poly(vars: tuple, p) -> Poly:
    """A coefficient as a Poly over exactly these variables."""
    if not isinstance(p, Poly):
        p = Poly.constant(vars, p)
    if p.vars != vars:
        raise VariableMismatch("coefficient over different variables")
    return p


class PolyForm:
    """Sparse exterior form: strictly increasing variable-index tuples -> Poly."""

    __slots__ = ("vars", "grade", "coeffs")

    def __init__(self, vars, grade, coeffs=None):
        self.vars = tuple(vars)
        self.grade = check_int(grade, 0, "grade")
        self.coeffs = exterior.normalize(
            coeffs, self.grade, 0, len(self.vars), partial(_as_poly, self.vars), ValueError
        )

    @staticmethod
    def function(poly: Poly):
        return PolyForm(poly.vars, 0, {(): poly})

    @property
    def is_zero(self):
        return not self.coeffs

    def _check(self, other):
        if self.vars != other.vars:
            raise VariableMismatch("mismatched variable sets")

    def __add__(self, other, s=1):
        self._check(other)
        if self.grade != other.grade:
            raise ValueError("mismatched grades")
        return _trusted_form(self.vars, self.grade, exterior.add(self.coeffs, other.coeffs, s))

    def __sub__(self, other):
        return self.__add__(other, -1)

    def scale(self, s):
        if not isinstance(s, Poly):
            s = Scalar.of(s)
        return _trusted_form(self.vars, self.grade, exterior.scale(self.coeffs, s))

    def __eq__(self, other):
        return (
            isinstance(other, PolyForm)
            and self.vars == other.vars
            and self.grade == other.grade
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        if self.is_zero:
            return "0"
        parts = []
        for idx in sorted(self.coeffs):
            mono = "^".join(f"d{self.vars[t]}" for t in idx) if idx else "1"
            parts.append(f"({self.coeffs[idx]}) {mono}")
        return " + ".join(parts)


def poly_wedge(a: PolyForm, b: PolyForm) -> PolyForm:
    a._check(b)
    return _trusted_form(a.vars, a.grade + b.grade, exterior.wedge(a.coeffs, b.coeffs))


def poly_wedge_power(a: PolyForm, k: int) -> PolyForm:
    one = Poly.constant(a.vars, ONE)
    return _trusted_form(a.vars, a.grade * k, exterior.wedge_power(a.coeffs, k, one))


def exterior_d(a: PolyForm) -> PolyForm:
    """d(f dx_I) = sum_v (df/dx_v) dx_v ^ dx_I, with the insertion sign."""
    out = {}
    for idx, p in a.coeffs.items():
        # only a variable that occurs in p differentiates it to nonzero
        for v in p.occurring():
            merged, sign = exterior.merge_sign((v,), idx)
            if merged is not None:
                exterior.accumulate(out, merged, p.diff(v), sign)
    return _trusted_form(a.vars, a.grade + 1, out)


class PolyVectorField:
    """sum_v comps[v] d/dx_v with polynomial components."""

    __slots__ = ("vars", "comps")

    def __init__(self, vars, comps):
        self.vars = tuple(vars)
        self.comps = tuple(_as_poly(self.vars, p) for p in comps)
        if len(self.comps) != len(self.vars):
            raise ValueError("one component per variable required")

    def apply_to(self, f: Poly) -> Poly:
        """Derivation action on functions."""
        if f.vars != self.vars:
            raise VariableMismatch("function over different variables")
        total = Poly.zero(self.vars)
        for v, comp in enumerate(self.comps):
            if not comp.is_zero:
                total = total + comp * f.diff(v)
        return total

    def __eq__(self, other):
        return (
            isinstance(other, PolyVectorField)
            and self.vars == other.vars
            and self.comps == other.comps
        )


def poly_interior(v: PolyVectorField, a: PolyForm) -> PolyForm:
    if v.vars != a.vars:
        raise VariableMismatch("mismatched variable sets")
    if a.grade == 0:
        raise ValueError("no interior product of a grade-0 form")
    return _trusted_form(a.vars, a.grade - 1, exterior.interior(a.coeffs, v.comps, 0))


def vf_bracket(v: PolyVectorField, w: PolyVectorField) -> PolyVectorField:
    """[V, W]^b = V(W^b) - W(V^b), the commutator of derivations."""
    if v.vars != w.vars:
        raise VariableMismatch("mismatched variable sets")
    comps = [v.apply_to(wb) - w.apply_to(vb) for vb, wb in zip(v.comps, w.comps)]
    return PolyVectorField(v.vars, comps)


def pullback_rows(a: PolyForm, rows) -> PolyForm:
    """Pullback under the linear substitution x_i -> sum_j L[i][j] x_j, in
    the coefficients and in the differentials, with L given as sparse
    rows: rows[i] maps each j with L[i][j] != 0 to that coefficient.  x_i
    goes to the linear Poly of row i and dx_i to the constant 1-form of
    row i, whose Scalar coefficients multiply the Poly coefficients
    directly.  The images are built here, so each coefficient substitutes
    them through ``Poly._subs`` without checking them again."""
    vars = a.vars
    if len(rows) != len(vars):
        raise ValueError(f"substitution needs {len(vars)} rows, got {len(rows)}")
    images = [Poly.linear(vars, row) for row in rows]
    d_images = [{(j,): Scalar.of(c) for j, c in row.items() if c} for row in rows]
    out = {}
    for idx, p in a.coeffs.items():
        image = p._subs(images, vars)
        if not image:
            continue
        pulled = {(): image}
        for t in idx:
            pulled = exterior.wedge(pulled, d_images[t])
        for k, v in pulled.items():
            exterior.accumulate(out, k, v)
    return _trusted_form(vars, a.grade, out)


def form_on_field(a: PolyForm, v: PolyVectorField) -> Poly:
    """Pairing of a 1-form with a vector field."""
    if a.grade != 1:
        raise ValueError("pairing needs a 1-form")
    if a.vars != v.vars:
        raise VariableMismatch("mismatched variable sets")
    return exterior.interior(a.coeffs, v.comps, 0).get((), Poly.zero(a.vars))
