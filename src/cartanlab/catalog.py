"""Constructors for every explicit algebra and family in the library.

All entries are exact; each carries a distinguished covector and the class
it is expected to have while the entry's parameter constraints hold.

Each catalog concept has one implementation:

* The dimension-3 and dimension-5 contact algebras are bracket tables in a
  classical contact basis, split into mu_0 + phi_1 + phi_2 over the
  Heisenberg algebra by `deformation.deformation_from_classical_basis`.
  Only so(3) keeps a hand-written spec: its center enters with
  coefficient -1, so the spec lives in a swapped basis.
* `_quarantine` is the one Jacobi gate of the tables displayed verbatim
  (dim5, filiform_contact, mu_c9).  It always runs `jacobi_check`, whose
  verdict the immutable algebra keeps, and raises `NonJacobiDisplayError`
  unless the caller allows non-Jacobi tables.
* `_FAMILIES` is the one owner of the id grammar name[:key=value,...]:
  each name's constructor and the parser of each of its parameters, whose
  numbers are read by `scalars.parse_integer` and `scalars.parse_scalar`
  as every number from outside is.  `resolve` reads every id through those
  parsers and `_id` prints every entry's id from the same table (Gaussian
  values as `str(Scalar)` prints them), so every entry's id resolves back
  to that entry.  Each entry has one id: a dim3 kind is named only as
  dim3:kind=..., and the base frobenius model only as
  frobenius:p=...,a=[0,...].  A constructor rejects a parameter its table
  does not read.

Conventions fixed here once:

* d omega(X,Y) = -omega([X,Y]) everywhere.  The so(3) entry stores the
  brackets [X1,X2] = -X3, [X2,X3] = -X1, [X1,X3] = X2, which is the real
  form making the cyclic coframe equations d w1 = w2^w3, d w2 = w3^w1,
  d w3 = w1^w2 literally true under this differential.
* The frobenius model family is built from its one table,
  `contraction.frobenius_table` ([X1,X2] = X1, [X2,X_{2k+1}] = a_k X_{2k+1},
  ...), whose structure constants are negated against the coframe
  presentation with d w_{2k+1} = a_k w2 ^ w_{2k+1}; this is the sign under
  which the adjoint action of the principal element X2 carries the family
  invariants a_k and -(1+a_k) directly in its spectrum (X -> -X on every
  basis vector is the isomorphism between the two choices).
* The filiform cocycles psi_{k,s} use binom(j-k-1, k-i) with sign
  (-1)^(k-i); the hard-coded dim-9 table `mu_c9_table` is an independent
  transcription and the two constructions must agree exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb
from typing import NamedTuple, Optional

from . import exterior
from .contraction import frobenius_table
from .deformation import (
    DeformationSpec,
    bilinear_from_endomorphism,
    deformation_from_classical_basis,
)
from .forms import DualForm
from .liealg import LieAlgebra, bracket_table
from .scalars import ONE, ZERO, Scalar, parse_integer, parse_scalar
from .structure import PreconditionError, heisenberg_table, jacobi_check, jacobi_defects


class NonJacobiDisplayError(ValueError):
    """A stored bracket table violates Jacobi and is quarantined."""


class CatalogEntry(NamedTuple):
    id: str
    params: dict
    algebra: LieAlgebra
    distinguished_form: DualForm
    expected_class: int
    constraints_hold: bool = True
    deformation: Optional[DeformationSpec] = None


def _entry(id, params, algebra, dist_indices, expected, **kw):
    """dist_indices: {index: coeff} for the distinguished covector."""
    form = DualForm(algebra, 1, {(i,): v for i, v in dist_indices.items()})
    return CatalogEntry(id, params, algebra, form, expected, **kw)


def _quarantine(g: LieAlgebra, allow_nonjacobi: bool, what: str):
    """Raise NonJacobiDisplayError if g violates Jacobi, unless allowed."""
    res = jacobi_check(g)
    if not res.ok and not allow_nonjacobi:
        i, j, k, _ = res.witness
        raise NonJacobiDisplayError(f"{what} violates Jacobi at ({i},{j},{k})")


def _own_params(what: str, params: dict, names) -> dict:
    """params as Scalars, after checking that `what` reads every one."""
    unread = sorted(set(params) - set(names))
    if unread:
        raise ValueError(f"{what} takes no parameter {', '.join(unread)}")
    return {k: Scalar.of(v) for k, v in params.items()}


def _scalars(values, count: int, message: str) -> list:
    a = [Scalar.of(x) for x in values]
    if len(a) != count:
        raise PreconditionError(message)
    return a


# -- Heisenberg and abelian ---------------------------------------------------


def heisenberg(p: int) -> CatalogEntry:
    """h_{2p+1}: [X_{2k-1}, X_{2k}] = X_{2p+1}; the contact model."""
    table = heisenberg_table(p)
    n = 2 * p + 1
    return _entry(_id("heisenberg", {"p": p}), {"p": p}, LieAlgebra(n, table), {n: ONE}, n)


def abelian(n: int) -> CatalogEntry:
    """The abelian algebra; every nonzero covector is closed."""
    return _entry(_id("abelian", {"n": n}), {"n": n}, LieAlgebra(n, {}), {1: ONE}, 1)


# -- dimension 3 ---------------------------------------------------------------

# kind -> its parameters with their defaults, each required to be nonzero
DIM3_KINDS = {
    "heisenberg": {},
    "solvable1": {},
    "solvable_b": {"b": 2},
    "sl2": {"lam": 1},
    "so3": {"a": 1},
}


def dim3(kind: str, **params) -> CatalogEntry:
    """The contact algebras in dimension 3, each with its deformation data."""
    if kind not in DIM3_KINDS:
        raise ValueError(f"unknown dim3 kind {kind!r}")
    p = {k: Scalar.of(v) for k, v in DIM3_KINDS[kind].items()}
    p.update(_own_params(f"dim3 kind {kind}", params, p))
    for key, v in p.items():
        if not v:
            raise PreconditionError(f"{kind} needs {key} != 0")
    if kind == "so3":
        return _so3(p["a"])
    if kind == "heisenberg":
        table = heisenberg_table(1)
    elif kind == "solvable1":  # the linear deformation phi1(X1,X2) = X1
        table = {(1, 2): {3: ONE, 1: ONE}}
    elif kind == "solvable_b":  # quadratic, with nilpotent f = [[0,b],[0,0]]
        table = {(1, 2): {3: ONE, 1: ONE}, (2, 3): {1: p["b"]}}
    else:  # sl2: quadratic, with split diagonal f; rank-1 simple
        lam = p["lam"]
        table = {(1, 2): {3: ONE}, (1, 3): {1: lam}, (2, 3): {2: -lam}}
    g = LieAlgebra(3, table)
    return _entry(
        _id("dim3", {"kind": kind, **p}),
        p,
        g,
        {3: ONE},
        3,
        deformation=deformation_from_classical_basis(g),
    )


def _so3(a: Scalar) -> CatalogEntry:
    """The compact real form.  Its brackets are stored negated so the
    cyclic coframe equations hold under d w(X,Y) = -w([X,Y]); the
    deformation spec realizes the rotation f in the swapped basis
    (X1 <-> X2)."""
    g = LieAlgebra(3, {(1, 2): {3: -ONE}, (2, 3): {1: -ONE}, (1, 3): {2: ONE}})
    h3 = LieAlgebra(3, heisenberg_table(1))
    spec = DeformationSpec(
        h3,
        {},
        bilinear_from_endomorphism(h3, ((ZERO, a), (-a, ZERO))),
    )
    return _entry(
        _id("dim3", {"kind": "so3", "a": a}),
        {"a": a},
        g,
        {1: ONE, 2: Scalar(2), 3: -ONE},
        3,
        deformation=spec,
    )


# -- dimension 5 ---------------------------------------------------------------

# variant -> the parameter letters its table reads; an absent one is zero
DIM5_VARIANTS = {
    "diag_ii_a": "abcd",
    "diag_ii_b": "bcd",
    "diag_ii_c": "abcd",
    "nondiag_case1": "cdef",
    "nondiag_case2": "acd",
    "nondiag_case4": "abcd",
}


def _dim5_table(variant, p):
    a, b, c, d, e, f = (p.get(ch, ZERO) for ch in "abcdef")
    if variant == "diag_ii_a":
        s = a * c + b * d
        return {
            (1, 2): {5: ONE, 1: a, 2: b},
            (1, 3): {3: c},
            (1, 4): {4: -c},
            (2, 3): {3: d},
            (2, 4): {4: -d},
            (3, 4): {5: ONE},
            (3, 5): {3: s},
            (4, 5): {4: -s},
        }
    if variant == "diag_ii_b":
        return {
            (1, 2): {5: ONE, 2: b},
            (1, 3): {3: c},
            (1, 4): {4: b - c},
            (2, 3): {3: d},
            (2, 4): {4: -d},
            (3, 4): {2: b, 5: ONE},
            (3, 5): {3: b * d},
            (4, 5): {4: -(b * d)},
        }
    if variant == "diag_ii_c":
        s = a * c + b * d
        return {
            (1, 2): {5: ONE, 1: a, 2: b},
            (1, 3): {3: c},
            (1, 4): {4: b - c},
            (2, 3): {3: d},
            (2, 4): {4: -a - d},
            (3, 4): {1: a, 2: b, 5: ONE},
            (3, 5): {3: s},
            (4, 5): {4: -s},
        }
    if variant == "nondiag_case1":
        s = c * e + d * f
        return {
            (1, 2): {5: ONE},
            (3, 4): {3: e, 4: f, 5: ONE},
            (1, 3): {2: c},
            (1, 4): {2: d},
            (2, 3): {1: -c},
            (2, 4): {1: -d},
            (1, 5): {2: -s},
            (2, 5): {1: s},
        }
    if variant == "nondiag_case2":
        two_ac = Scalar(2) * a * c
        return {
            (1, 2): {3: Scalar(2) * a, 5: ONE},
            (3, 4): {3: Scalar(2) * a, 5: ONE},
            (1, 3): {2: c},
            (1, 4): {1: a, 2: d},
            (2, 3): {1: -c},
            (2, 4): {1: -d, 2: a},
            (1, 5): {2: -two_ac},
            (2, 5): {1: two_ac},
        }
    s = Scalar(2) * (a * c - b * d)  # nondiag_case4
    return {
        (1, 2): {3: Scalar(2) * a, 4: Scalar(-2) * b, 5: ONE},
        (3, 4): {3: Scalar(2) * a, 4: Scalar(-2) * b, 5: ONE},
        (1, 3): {1: b, 2: c},
        (1, 4): {1: a, 2: d},
        (2, 3): {1: -c, 2: b},
        (2, 4): {1: -d, 2: a},
        (1, 5): {2: -s},
        (2, 5): {1: s},
    }


def dim5(variant: str, allow_nonjacobi: bool = False, **params) -> CatalogEntry:
    """Quadratic deformations of h5, stored verbatim from their bracket
    tables; jacobi_check gatekeeps every instantiation."""
    if variant not in DIM5_VARIANTS:
        raise ValueError(f"unknown dim5 variant {variant!r}")
    p = _own_params(f"dim5 variant {variant}", params, DIM5_VARIANTS[variant])
    g = LieAlgebra(5, _dim5_table(variant, p))
    params = {"variant": variant, **p}
    cid = _id("dim5", params)
    _quarantine(g, allow_nonjacobi, cid)
    return _entry(
        cid,
        params,
        g,
        {5: ONE},
        5,
        deformation=deformation_from_classical_basis(g),
    )


# -- filiform families -----------------------------------------------------------


def _filiform_labels(n):
    return tuple(f"e{i}" for i in range(n))


def filiform_model(n: int) -> CatalogEntry:
    """L_n: [e0, e_i] = e_{i+1} for i = 1..n-2 (graded filiform model); a
    generic covector has class 1 or 3."""
    if n < 3:
        raise PreconditionError("filiform model needs dimension >= 3")
    brackets = {(1, i + 1): {i + 2: ONE} for i in range(1, n - 1)}
    g = LieAlgebra(n, brackets, basis=_filiform_labels(n))
    return _entry(
        _id("filiform", {"n": n}),
        {"n": n},
        g,
        {n: ONE},
        3,
    )


def filiform_cocycle(p: int, k: int, base: LieAlgebra):
    """psi_{k, 2k+2} on the space of L_{2p+1}:

        psi(e_i, e_j) = (-1)^(k-i) * binom(j-k-1, k-i) * e_{2k+2 + i+j-2k-1}

    for 1 <= i < j <= 2p, values beyond e_{2p} truncated to zero.
    """
    n = 2 * p + 1
    s = 2 * k + 2
    if base.dim != n:
        raise PreconditionError("base algebra has the wrong dimension")
    values = {}
    for i in range(1, 2 * p + 1):
        for j in range(i + 1, 2 * p + 1):
            lo, hi = k - i, j - k - 1
            if lo < 0 or lo > hi:
                continue
            coeff = comb(hi, lo) if (k - i) % 2 == 0 else -comb(hi, lo)
            target = s + i + j - 2 * k - 1
            if target > 2 * p or coeff == 0:
                continue
            # basis positions are shifted by one: e_m sits at index m+1
            values[(i + 1, j + 1)] = {target + 1: Scalar(coeff)}
    return bracket_table(n, values)


def filiform_contact_conditions(p: int, coeffs) -> list:
    """The p-1 contact obstructions A_i for mu_L + sum a_k psi_{k,2k+2};
    the class is 2p+1 exactly when all of them are nonzero."""
    a = _scalars(coeffs, p - 1, "need p-1 cocycle coefficients")
    out = []
    for i in range(1, p):
        total = ZERO
        for k in range(i):
            term = a[p - 1 - i + k] * Scalar(comb(2 * i - k - 2, k))
            total = total + (term if k % 2 == 0 else -term)
        out.append(total)
    return out


def _filiform_entry(name, params, g, allow_nonjacobi) -> CatalogEntry:
    """The quarantined entry of a filiform contact table on dim 2p+1, whose
    constraints hold iff every contact condition A_i is nonzero."""
    cid = _id(name, params)
    _quarantine(g, allow_nonjacobi, cid)
    n = g.dim
    return _entry(
        cid,
        params,
        g,
        {n: ONE},
        n,
        constraints_hold=all(filiform_contact_conditions(n // 2, params["a"])),
    )


def filiform_contact(p: int, a, allow_nonjacobi: bool = False) -> CatalogEntry:
    """mu_L + a_{1,4} psi_{1,4} + ... + a_{p-1,2p} psi_{p-1,2p} on dim 2p+1."""
    if p < 2:
        raise PreconditionError("filiform contact families need p >= 2")
    a = _scalars(a, p - 1, "need p-1 cocycle coefficients")
    n = 2 * p + 1
    base = filiform_model(n).algebra
    total = {key: dict(terms) for key, terms in base.c.items()}
    for k in range(1, p):
        if a[k - 1]:
            for key, terms in filiform_cocycle(p, k, base).items():
                exterior.add_scaled(total.setdefault(key, {}), terms, a[k - 1])
    return _filiform_entry(
        "filiform_contact",
        {"p": p, "a": tuple(a)},
        LieAlgebra(n, total, basis=_filiform_labels(n)),
        allow_nonjacobi,
    )


def mu_c9_table(a14, a26, a38) -> LieAlgebra:
    """Hard-coded dim-9 filiform contact table (independent golden copy;
    must agree with filiform_contact(4, ...) constant-by-constant)."""
    a14, a26, a38 = Scalar.of(a14), Scalar.of(a26), Scalar.of(a38)
    brackets = {(1, i + 1): {i + 2: ONE} for i in range(1, 8)}
    brackets[(2, 3)] = {5: a14}
    brackets[(2, 4)] = {6: a14}
    brackets[(2, 5)] = {7: a14 - a26}
    brackets[(2, 6)] = {8: a14 - Scalar(2) * a26}
    brackets[(2, 7)] = {9: a14 - Scalar(3) * a26 + a38}
    brackets[(3, 4)] = {7: a26}
    brackets[(3, 5)] = {8: a26}
    brackets[(3, 6)] = {9: a26 - a38}
    brackets[(4, 5)] = {9: a38}
    return LieAlgebra(9, brackets, basis=_filiform_labels(9))


def filiform_contact_closure(p: int, coeffs) -> list:
    """Jacobi obstructions of the displayed table: the cyclic sums on
    triples (e_i, e_j, e_k), i,j,k >= 1, which are quadratic in the
    coefficients.  Empty for p <= 3; for p = 4 the single obstruction is
    3*a2^2 - a2*a3 - 2*a1*a3.  The table is a Lie bracket iff all vanish.
    """
    a = _scalars(coeffs, p - 1, "need p-1 cocycle coefficients")
    g = filiform_contact(p, a, allow_nonjacobi=True).algebra
    return [comp for *_, defect in jacobi_defects(g, first=2) for comp in defect if comp]


def mu_c9(a, allow_nonjacobi: bool = False) -> CatalogEntry:
    """Catalog id mu_c9:a=[a14,a26,a38]; golden-table construction."""
    a = _scalars(a, 3, "mu_c9 takes exactly three coefficients")
    return _filiform_entry(
        "mu_c9",
        {"a": tuple(a)},
        mu_c9_table(*a),
        allow_nonjacobi,
    )


# -- frobenius model family --------------------------------------------------------


def frobenius_model(p: int, a) -> CatalogEntry:
    """The diagonal model of exact-symplectic algebras on dim 2p; the
    adjoint spectrum of the principal element X2 is {-1, 0} plus the pairs
    {a_k, -(1+a_k)}.  a = [0] * (p - 1) gives the base member."""
    if p < 2:
        raise PreconditionError("the model family needs p >= 2")
    a = _scalars(a, p - 1, "need p-1 parameters")
    params = {"p": p, "a": tuple(a)}
    return _entry(
        _id("frobenius", params),
        params,
        LieAlgebra(2 * p, frobenius_table(p, a)),
        {1: ONE},
        2 * p,
    )


def psi_cocycles(p: int, base: LieAlgebra) -> list:
    """The commuting diagonal 2-cocycles psi_k of the base member:
    psi_k(X2, X_{2k+1}) = X_{2k+1}, psi_k(X2, X_{2k+2}) = -X_{2k+2}."""
    if base.dim != 2 * p:
        raise PreconditionError("base algebra has the wrong dimension")
    out = []
    for k in range(1, p):
        out.append(
            bracket_table(
                base.dim,
                {
                    (2, 2 * k + 1): {2 * k + 1: ONE},
                    (2, 2 * k + 2): {2 * k + 2: -ONE},
                },
            )
        )
    return out


# -- registry and id grammar ---------------------------------------------------------


def _array(text: str) -> list:
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"not an array [v1,v2,...]: {text!r}")
    return [parse_scalar(v.strip()) for v in text[1:-1].split(",")]


def _name(text: str) -> str:
    if not text.isidentifier():
        raise ValueError(f"not a name: {text!r}")
    return text


# name -> (constructor, the parser of each id parameter).  A scalar
# parameter (parse_scalar) has a default in its constructor; every other
# one is required.  Ids print their parameters in this order.
_FAMILIES = {
    "heisenberg": (heisenberg, {"p": parse_integer}),
    "abelian": (abelian, {"n": parse_integer}),
    "dim3": (dim3, {"kind": _name, **{k: parse_scalar for d in DIM3_KINDS.values() for k in d}}),
    "dim5": (dim5, {"variant": _name, **dict.fromkeys("".join(DIM5_VARIANTS.values()), parse_scalar)}),
    "filiform": (filiform_model, {"n": parse_integer}),
    "filiform_contact": (filiform_contact, {"p": parse_integer, "a": _array}),
    "mu_c9": (mu_c9, {"a": _array}),
    "frobenius": (frobenius_model, {"p": parse_integer, "a": _array}),
}
# the families whose tables `_quarantine` gates
_QUARANTINED = ("dim5", "filiform_contact", "mu_c9")
# a comma that separates two parameters, not two array values
_ITEM_SEPARATOR = re.compile(r",(?![^\[]*\])")


def _id(name: str, params: dict) -> str:
    """name:key=value,... with the keys in table order, arrays as [v1,v2]."""
    text = {k: f"[{','.join(map(str, v))}]" if isinstance(v, tuple) else str(v)
            for k, v in params.items()}
    return f"{name}:" + ",".join(f"{k}={text[k]}" for k in _FAMILIES[name][1] if k in text)


def resolve(catalog_id: str, allow_nonjacobi: bool = False) -> CatalogEntry:
    """The entry of a catalog id name[:key=value,...], e.g. frobenius:p=3,a=[1,-2]."""
    name, _, rest = catalog_id.strip().partition(":")
    if name not in _FAMILIES:
        raise KeyError(f"unknown catalog family {name!r}")
    build, parsers = _FAMILIES[name]
    kw = {}
    for item in filter(str.strip, _ITEM_SEPARATOR.split(rest)):
        key, _, value = (part.strip() for part in item.partition("="))
        if key not in parsers:
            raise ValueError(f"bad parameter {key}={value} for {name}: no such parameter")
        if key in kw:
            raise ValueError(f"bad parameter {key}={value} for {name}: {key} is given twice")
        try:
            kw[key] = parsers[key](value)
        except ValueError as exc:
            raise ValueError(f"bad parameter {key}={value} for {name}: {exc}") from None
    missing = [key for key, parse in parsers.items() if parse is not parse_scalar and key not in kw]
    if missing:
        raise KeyError(f"{name} needs the parameter {missing[0]}")
    if name in _QUARANTINED:
        kw["allow_nonjacobi"] = allow_nonjacobi
    return build(**kw)


def standard_entries() -> list:
    """The canonical finite suite the property batteries run over."""
    entries = [heisenberg(p) for p in range(1, 6)]
    entries.append(abelian(4))
    entries += [dim3(kind) for kind in DIM3_KINDS]
    entries.append(dim3("sl2", lam=Fraction(3)))
    entries += [
        dim5("diag_ii_a", a=0, b=0, c=1, d=1),
        dim5("diag_ii_a", a=1, b=Fraction(-1, 2), c=2, d=3),
        dim5("diag_ii_b", b=1, c=2, d=Fraction(1, 3)),
        dim5("diag_ii_c", a=1, b=2, c=Fraction(-3, 2), d=1),
        dim5("nondiag_case1", c=1, d=0, e=0, f=0),
        dim5("nondiag_case1", c=2, d=1, e=Fraction(1, 2), f=-1),
        dim5("nondiag_case2", a=1, c=-1, d=2),
        dim5("nondiag_case4", a=1, b=1, c=Fraction(2, 3), d=-2),
    ]
    entries += [filiform_model(n) for n in range(4, 10)]
    entries.append(filiform_contact(2, [1]))
    entries.append(filiform_contact(3, [1, 2]))
    # p = 4 coefficients must satisfy the quadratic closure constraint
    entries.append(filiform_contact(4, [1, 2, 3]))
    entries.append(mu_c9([1, 2, 3]))
    entries += [
        frobenius_model(2, [Fraction(1, 2)]),
        frobenius_model(3, [1, -2]),
        frobenius_model(4, [2, Fraction(-1, 3), 1]),
        frobenius_model(3, [0, 0]),
    ]
    return entries


def nilpotent_entries() -> list:
    """h_3..h_11, L_5..L_9 and the dim-9 contact filiform table."""
    out = [heisenberg(p) for p in range(1, 6)]
    out += [filiform_model(n) for n in range(5, 10)]
    out.append(mu_c9([1, 2, 3]))
    return out
