"""Differential forms and vector fields with polynomial coefficients on
affine space.  Coefficients are exact, so d o d = 0 holds on the nose and
every identity below is a polynomial identity, not a numerical one.

``PolyForm(vars, grade, coeffs)`` is the one checked constructor.  The
arithmetic (``+``, ``-``, ``scale``, wedge, d, interior product, pullback)
builds its coefficient dicts with the `exterior` kernel, which keeps them
sparse and sorted, and wraps them with ``_trusted_form`` without a second
pass, as `poly` does for its terms.

A vector field sum_b v_b d/dx_b is the tuple of its components, one
Poly per variable, each read through ``as_poly``.
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


def as_poly(vars: tuple, p) -> Poly:
    """A coefficient or component as a Poly over exactly these variables:
    a Poly over them, or a constant."""
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
            coeffs, self.grade, 0, len(self.vars), partial(as_poly, self.vars), ValueError
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


def _field(vars: tuple, v) -> tuple:
    """The components of the vector field ``v`` = sum_b v[b] d/dx_b as
    Polys over ``vars``, one per variable."""
    comps = tuple(as_poly(vars, p) for p in v)
    if len(comps) != len(vars):
        raise ValueError("one component per variable required")
    return comps


def poly_interior(v, a: PolyForm) -> PolyForm:
    if a.grade == 0:
        raise ValueError("no interior product of a grade-0 form")
    return _trusted_form(a.vars, a.grade - 1, exterior.interior(a.coeffs, _field(a.vars, v), 0))


def vf_bracket(v, w) -> tuple:
    """[V, W]^b = V(W^b) - W(V^b), the commutator of derivations, where V
    acts on f as df(V).  The variables are those of V's first component."""
    if not (v and isinstance(v[0], Poly)):
        raise ValueError("a vector field needs Poly components")
    vars = v[0].vars
    v, w = _field(vars, v), _field(vars, w)

    def act(field, f):
        return form_on_field(exterior_d(PolyForm.function(f)), field)

    return tuple(act(v, wb) - act(w, vb) for vb, wb in zip(v, w))


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


def form_on_field(a: PolyForm, v) -> Poly:
    """Pairing of a 1-form with a vector field."""
    if a.grade != 1:
        raise ValueError("pairing needs a 1-form")
    return exterior.interior(a.coeffs, _field(a.vars, v), 0).get((), Poly.zero(a.vars))
