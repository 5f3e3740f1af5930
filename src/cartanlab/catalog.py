"""Constructors for every explicit algebra and family in the library.

All entries are exact; each carries a distinguished covector and the class
it is expected to have while the entry's parameter constraints hold.

Conventions fixed here once:

* d omega(X,Y) = -omega([X,Y]) everywhere.  The so(3) entry stores the
  brackets [X1,X2] = -X3, [X2,X3] = -X1, [X1,X3] = X2, which is the real
  form making the cyclic coframe equations d w1 = w2^w3, d w2 = w3^w1,
  d w3 = w1^w2 literally true under this differential.
* The frobenius model family is kept in the basis

      [X1,X2] = X1,  [X_{2k+1},X_{2k+2}] = X1,
      [X2,X_{2k+1}] = a_k X_{2k+1},  [X2,X_{2k+2}] = -(1+a_k) X_{2k+2},

  i.e. all structure constants negated against the coframe presentation
  with d w_{2k+1} = a_k w2 ^ w_{2k+1}; this is the sign under which the
  adjoint action of the principal element X2 carries the family invariants
  a_k and -(1+a_k) directly in its spectrum (X ->  -X on every basis vector
  is the isomorphism between the two choices).
* The filiform cocycles psi_{k,s} use binom(j-k-1, k-i) with sign
  (-1)^(k-i); the hard-coded dim-9 table `mu_c9_table` is an independent
  transcription and the two constructions must agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional

from .deformation import BilinearMap, DeformationSpec, bilinear_from_endomorphism
from .forms import DualForm
from .liealg import LieAlgebra
from .scalars import ONE, ZERO, Scalar, parse_rational
from .structure import PreconditionError, jacobi_check, jacobi_defects


class NonJacobiDisplayError(ValueError):
    """A stored bracket table violates Jacobi and is quarantined."""


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    params: dict
    algebra: LieAlgebra
    distinguished_form: DualForm
    expected_class: int
    constraints_hold: bool = True
    provenance: str = ""
    deformation: Optional[DeformationSpec] = None


def _entry(id, params, algebra, dist_indices, expected, **kw):
    """dist_indices: {index: coeff} for the distinguished covector."""
    form = DualForm(algebra, 1, {(i,): v for i, v in dist_indices.items()})
    return CatalogEntry(id, params, algebra, form, expected, **kw)


# -- Heisenberg and abelian ---------------------------------------------------


def heisenberg(p: int) -> CatalogEntry:
    """h_{2p+1}: [X_{2k-1}, X_{2k}] = X_{2p+1}; the contact model."""
    if p < 1:
        raise PreconditionError("p must be >= 1")
    n = 2 * p + 1
    brackets = {(2 * k - 1, 2 * k): {n: ONE} for k in range(1, p + 1)}
    g = LieAlgebra(n, brackets)
    return _entry(
        f"heisenberg:p={p}",
        {"p": p},
        g,
        {n: ONE},
        n,
        provenance="Heisenberg algebra, the odd-dimensional contact model",
    )


def abelian(n: int) -> CatalogEntry:
    g = LieAlgebra(n, {})
    return _entry(
        f"abelian:n={n}",
        {"n": n},
        g,
        {1: ONE},
        1,
        provenance="abelian algebra; every nonzero covector is closed",
    )


# -- dimension 3 ---------------------------------------------------------------

DIM3_KINDS = ("heisenberg", "solvable1", "solvable_b", "sl2", "so3")


def dim3(kind: str, **params) -> CatalogEntry:
    """The contact algebras in dimension 3, each with its deformation data."""
    if kind == "heisenberg":
        base = heisenberg(1)
        spec = DeformationSpec(
            base.algebra, BilinearMap.zero(base.algebra), BilinearMap.zero(base.algebra)
        )
        return CatalogEntry(
            "dim3:kind=heisenberg",
            {},
            base.algebra,
            base.distinguished_form,
            3,
            provenance=base.provenance,
            deformation=spec,
        )
    h3 = heisenberg(1).algebra
    if kind == "solvable1":
        g = LieAlgebra(3, {(1, 2): {3: ONE, 1: ONE}})
        spec = DeformationSpec(
            h3,
            BilinearMap.from_brackets(h3, {(1, 2): {1: ONE}}),
            BilinearMap.zero(h3),
        )
        return _entry(
            "dim3:kind=solvable1",
            {},
            g,
            {3: ONE},
            3,
            provenance="linear deformation with phi1(X1,X2) = X1",
            deformation=spec,
        )
    if kind == "solvable_b":
        b = Scalar.of(params.get("b", 2))
        if not b:
            raise PreconditionError("solvable_b needs b != 0")
        g = LieAlgebra(3, {(1, 2): {3: ONE, 1: ONE}, (2, 3): {1: b}})
        spec = DeformationSpec(
            h3,
            BilinearMap.from_brackets(h3, {(1, 2): {1: ONE}}),
            bilinear_from_endomorphism(h3, ((ZERO, b), (ZERO, ZERO))),
        )
        return _entry(
            "dim3:kind=solvable_b",
            {"b": b},
            g,
            {3: ONE},
            3,
            provenance="quadratic deformation with nilpotent f = [[0,b],[0,0]]",
            deformation=spec,
        )
    if kind == "sl2":
        lam = Scalar.of(params.get("lam", 1))
        if not lam:
            raise PreconditionError("sl2 needs lam != 0")
        g = LieAlgebra(3, {(1, 2): {3: ONE}, (1, 3): {1: lam}, (2, 3): {2: -lam}})
        spec = DeformationSpec(
            h3,
            BilinearMap.zero(h3),
            bilinear_from_endomorphism(h3, ((lam, ZERO), (ZERO, -lam))),
        )
        return _entry(
            "dim3:kind=sl2",
            {"lam": lam},
            g,
            {3: ONE},
            3,
            provenance="quadratic deformation with split diagonal f; rank-1 simple",
            deformation=spec,
        )
    if kind == "so3":
        a = Scalar.of(params.get("a", 1))
        if not a:
            raise PreconditionError("so3 needs a != 0")
        g = LieAlgebra(3, {(1, 2): {3: -ONE}, (2, 3): {1: -ONE}, (1, 3): {2: ONE}})
        spec = DeformationSpec(
            h3,
            BilinearMap.zero(h3),
            bilinear_from_endomorphism(h3, ((ZERO, a), (-a, ZERO))),
        )
        return _entry(
            "dim3:kind=so3",
            {"a": a},
            g,
            {1: ONE, 2: Scalar(2), 3: -ONE},
            3,
            provenance=(
                "compact real form; brackets are stored negated so the cyclic"
                " coframe equations hold under d w(X,Y) = -w([X,Y]); the"
                " deformation spec realizes the rotation f in the swapped"
                " basis (X1 <-> X2)"
            ),
            deformation=spec,
        )
    raise ValueError(f"unknown dim3 kind {kind!r}")


# -- dimension 5 ---------------------------------------------------------------

DIM5_VARIANTS = (
    "diag_ii_a",
    "diag_ii_b",
    "diag_ii_c",
    "nondiag_case1",
    "nondiag_case2",
    "nondiag_case4",
)


def _dim5_table(variant, p):
    a = p.get("a", ZERO)
    b = p.get("b", ZERO)
    c = p.get("c", ZERO)
    d = p.get("d", ZERO)
    e = p.get("e", ZERO)
    f = p.get("f", ZERO)
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
    if variant == "nondiag_case4":
        s = Scalar(2) * (a * c - b * d)
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
    raise ValueError(f"unknown dim5 variant {variant!r}")


def dim5(variant: str, allow_nonjacobi: bool = False, **params) -> CatalogEntry:
    """Quadratic deformations of h5, stored verbatim from their bracket
    tables; jacobi_check gatekeeps every instantiation."""
    p = {k: Scalar.of(v) for k, v in params.items()}
    table = _dim5_table(variant, p)
    g = LieAlgebra(5, table)
    res = jacobi_check(g)
    if not res.ok and not allow_nonjacobi:
        i, j, k, _ = res.witness
        raise NonJacobiDisplayError(
            f"dim5 variant {variant} violates Jacobi at ({i},{j},{k}) for these parameters"
        )
    h5 = heisenberg(2).algebra
    phi1_values = {}
    phi2_f = [[ZERO] * 4 for _ in range(4)]
    for (i, j), terms in table.items():
        if j <= 4:
            low = {k: v for k, v in terms.items() if k <= 4}
            if low:
                phi1_values[(i, j)] = low
        elif j == 5:
            for k, v in terms.items():
                if k <= 4:
                    phi2_f[k - 1][i - 1] = v
    spec = DeformationSpec(
        h5,
        BilinearMap.from_brackets(h5, phi1_values),
        bilinear_from_endomorphism(h5, phi2_f),
    )
    param_txt = ",".join(f"{k}={v}" for k, v in sorted(p.items()))
    return _entry(
        f"dim5:variant={variant}" + (f",{param_txt}" if param_txt else ""),
        {"variant": variant, **p},
        g,
        {5: ONE},
        5,
        provenance=f"dimension-5 quadratic deformation family {variant}",
        deformation=spec,
    )


# -- filiform families -----------------------------------------------------------


def _filiform_labels(n):
    return tuple(f"e{i}" for i in range(n))


def filiform_model(n: int) -> CatalogEntry:
    """L_n: [e0, e_i] = e_{i+1} for i = 1..n-2 (graded filiform model)."""
    if n < 3:
        raise PreconditionError("filiform model needs dimension >= 3")
    brackets = {(1, i + 1): {i + 2: ONE} for i in range(1, n - 1)}
    g = LieAlgebra(n, brackets, basis=_filiform_labels(n))
    return _entry(
        f"filiform:n={n}",
        {"n": n},
        g,
        {n: ONE},
        3,
        provenance="graded filiform model L_n; generic covector class lies in {1,3}",
    )


def filiform_cocycle(p: int, k: int, base: Optional[LieAlgebra] = None) -> BilinearMap:
    """psi_{k, 2k+2} on the space of L_{2p+1}:

        psi(e_i, e_j) = (-1)^(k-i) * binom(j-k-1, k-i) * e_{2k+2 + i+j-2k-1}

    for 1 <= i < j <= 2p, values beyond e_{2p} truncated to zero.
    """
    n = 2 * p + 1
    s = 2 * k + 2
    if base is None:
        base = filiform_model(n).algebra
    elif base.dim != n:
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
    return BilinearMap.from_brackets(base, values)


def filiform_contact_conditions(p: int, coeffs) -> list:
    """The p-1 contact obstructions A_i for mu_L + sum a_k psi_{k,2k+2};
    the class is 2p+1 exactly when all of them are nonzero."""
    a = [Scalar.of(x) for x in coeffs]
    if len(a) != p - 1:
        raise PreconditionError("need p-1 cocycle coefficients")
    out = []
    for i in range(1, p):
        total = ZERO
        for k in range(i):
            term = a[p - 1 - i + k] * Scalar(comb(2 * i - k - 2, k))
            total = total + (term if k % 2 == 0 else -term)
        out.append(total)
    return out


def filiform_contact(p: int, coeffs, allow_nonjacobi: bool = False) -> CatalogEntry:
    """mu_L + a_{1,4} psi_{1,4} + ... + a_{p-1,2p} psi_{p-1,2p} on dim 2p+1."""
    if p < 2:
        raise PreconditionError("filiform contact families need p >= 2")
    a = [Scalar.of(x) for x in coeffs]
    if len(a) != p - 1:
        raise PreconditionError("need p-1 cocycle coefficients")
    n = 2 * p + 1
    base = filiform_model(n).algebra
    total = BilinearMap.of_algebra(base)
    for k in range(1, p):
        if a[k - 1]:
            total = total + filiform_cocycle(p, k, base).scale(a[k - 1])
    brackets = {}
    for (i, j), comps in total.values.items():
        brackets[(i, j)] = {t + 1: comps[t] for t in range(n) if comps[t]}
    g = LieAlgebra(n, brackets, basis=_filiform_labels(n))
    res = jacobi_check(g)
    if not res.ok and not allow_nonjacobi:
        raise NonJacobiDisplayError("filiform contact table violates Jacobi")
    conds = filiform_contact_conditions(p, a)
    holds = all(bool(x) for x in conds)
    coeff_txt = ",".join(str(x) for x in a)
    return _entry(
        f"filiform_contact:p={p},a=[{coeff_txt}]",
        {"p": p, "a": tuple(a)},
        g,
        {n: ONE},
        n,
        constraints_hold=holds,
        provenance="filiform contact family; contact iff every condition A_i != 0",
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
    a = [Scalar.of(x) for x in coeffs]
    if len(a) != p - 1:
        raise PreconditionError("need p-1 cocycle coefficients")
    g = filiform_contact(p, a, allow_nonjacobi=True).algebra
    return [comp for *_, defect in jacobi_defects(g, first=2) for comp in defect.comps if comp]


def mu_c9(a, allow_nonjacobi: bool = False) -> CatalogEntry:
    """Catalog id mu_c9:a=[a14,a26,a38]; golden-table construction."""
    a = [Scalar.of(x) for x in a]
    if len(a) != 3:
        raise PreconditionError("mu_c9 takes exactly three coefficients")
    g = mu_c9_table(*a)
    if not allow_nonjacobi:
        res = jacobi_check(g)
        if not res.ok:
            raise NonJacobiDisplayError(
                "the dim-9 table violates Jacobi at these coefficients"
                " (the quadratic closure constraint fails); pass"
                " allow_nonjacobi=True to study the exterior system anyway"
            )
    conds = filiform_contact_conditions(4, a)
    holds = all(bool(x) for x in conds)
    coeff_txt = ",".join(str(x) for x in a)
    return _entry(
        f"mu_c9:a=[{coeff_txt}]",
        {"a": tuple(a)},
        g,
        {9: ONE},
        9,
        constraints_hold=holds,
        provenance="hard-coded dim-9 filiform contact table (golden copy)",
    )


# -- frobenius model family --------------------------------------------------------


def frobenius_base(p: int) -> CatalogEntry:
    """The parameter-zero member: [X1,X2]=X1, [X_{2k+1},X_{2k+2}]=X1,
    [X2,X_{2k+2}] = -X_{2k+2}."""
    return frobenius_model(p, [ZERO] * (p - 1), _id=f"frobenius_base:p={p}")


def frobenius_model(p: int, a, _id=None) -> CatalogEntry:
    if p < 2:
        raise PreconditionError("the model family needs p >= 2")
    a = [Scalar.of(x) for x in a]
    if len(a) != p - 1:
        raise PreconditionError("need p-1 parameters")
    n = 2 * p
    brackets = {(1, 2): {1: ONE}}
    for k in range(1, p):
        brackets[(2 * k + 1, 2 * k + 2)] = {1: ONE}
        if a[k - 1]:
            brackets.setdefault((2, 2 * k + 1), {})[2 * k + 1] = a[k - 1]
        brackets.setdefault((2, 2 * k + 2), {})[2 * k + 2] = -(ONE + a[k - 1])
    g = LieAlgebra(n, brackets)
    coeff_txt = ",".join(str(x) for x in a)
    return _entry(
        _id or f"frobenius:p={p},a=[{coeff_txt}]",
        {"p": p, "a": tuple(a)},
        g,
        {1: ONE},
        n,
        provenance=(
            "diagonal model of exact-symplectic algebras; adjoint spectrum of the"
            " principal element X2 is {-1, 0} plus the pairs {a_k, -(1+a_k)}"
        ),
    )


def psi_cocycles(p: int, base: Optional[LieAlgebra] = None) -> list:
    """The commuting diagonal 2-cocycles psi_k of the base member:
    psi_k(X2, X_{2k+1}) = X_{2k+1}, psi_k(X2, X_{2k+2}) = -X_{2k+2}."""
    if base is None:
        base = frobenius_base(p).algebra
    elif base.dim != 2 * p:
        raise PreconditionError("base algebra has the wrong dimension")
    out = []
    for k in range(1, p):
        out.append(
            BilinearMap.from_brackets(
                base,
                {
                    (2, 2 * k + 1): {2 * k + 1: ONE},
                    (2, 2 * k + 2): {2 * k + 2: -ONE},
                },
            )
        )
    return out


# -- registry and id grammar ---------------------------------------------------------


def _parse_value(tok: str):
    tok = tok.strip()
    if tok.startswith("[") and tok.endswith("]"):
        inner = tok[1:-1].strip()
        return [] if not inner else [_parse_value(t) for t in inner.split(";")]
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return parse_rational(tok)
    except ValueError:
        if "/" in tok:
            raise  # a malformed rational such as "1/0", not a bare word
        return tok  # bare word, e.g. a dim3 kind or dim5 variant name


def parse_catalog_id(text: str):
    """Grammar: name[:key=val,...]; array values as [v1,v2,...]."""
    text = text.strip()
    if ":" not in text:
        return text, {}
    name, rest = text.split(":", 1)
    # protect commas inside [...] before splitting on commas
    depth = 0
    protected = []
    for ch in rest:
        if ch == "[":
            depth += 1
            protected.append(ch)
        elif ch == "]":
            depth -= 1
            protected.append(ch)
        elif ch == "," and depth > 0:
            protected.append(";")
        else:
            protected.append(ch)
    kwargs = {}
    for item in "".join(protected).split(","):
        if not item.strip():
            continue
        if "=" not in item:
            raise ValueError(f"bad catalog parameter {item!r}")
        key, val = item.split("=", 1)
        kwargs[key.strip()] = _parse_value(val)
    return name, kwargs


def resolve(catalog_id: str, allow_nonjacobi: bool = False) -> CatalogEntry:
    name, kw = parse_catalog_id(catalog_id)
    if name == "heisenberg":
        return heisenberg(int(kw["p"]))
    if name == "abelian":
        return abelian(int(kw["n"]))
    if name == "dim3":
        kind = str(kw.pop("kind"))
        return dim3(kind, **kw)
    if name in ("sl2", "so3"):
        return dim3(name, **kw)
    if name == "dim5":
        variant = str(kw.pop("variant"))
        return dim5(variant, allow_nonjacobi=allow_nonjacobi, **kw)
    if name == "filiform":
        return filiform_model(int(kw["n"]))
    if name == "filiform_contact":
        return filiform_contact(int(kw["p"]), kw["a"], allow_nonjacobi=allow_nonjacobi)
    if name == "mu_c9":
        return mu_c9(kw["a"], allow_nonjacobi=allow_nonjacobi)
    if name == "frobenius":
        return frobenius_model(int(kw["p"]), kw["a"])
    if name == "frobenius_base":
        return frobenius_base(int(kw["p"]))
    raise KeyError(f"unknown catalog family {name!r}")


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
        frobenius_base(3),
    ]
    return entries


def nilpotent_entries() -> list:
    """h_3..h_11, L_5..L_9 and the dim-9 contact filiform table."""
    out = [heisenberg(p) for p in range(1, 6)]
    out += [filiform_model(n) for n in range(5, 10)]
    out.append(mu_c9([1, 2, 3]))
    return out
