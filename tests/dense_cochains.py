"""Dense references for the sparse cochain routes, and seeded test data.

The references are the loops the library used before
`structure.cyclic_sums` and the sparse left composition of `deformation`:
every triple i < j < k (or every basis vector), and every product a dense
`apply_comps` on basis-vector coordinate tuples.  The deformation and
structure tests compare the sparse routes with them, reading the sparse
tables through the dense `at`; the references are slow on purpose and
belong to no library code path.  A cochain is its sparse table and does
not carry its dimension, so the dense readers take it.  The seeded
tables they run on draw their coefficients from one of `COEFFICIENTS`:
rationals, Gaussian rationals, or units +-1, whose products cancel often
and whose signs the kernels must carry exactly.  The forms tests draw seeded forms from `random_form`, and
the basis-change tests their dense Gaussian bases from `gaussian_basis`.
"""

from itertools import combinations

from cartanlab import exterior
from cartanlab.forms import DualForm
from cartanlab.liealg import LieAlgebra, Subspace, apply_table, bracket_table, coordinates, table_entry
from cartanlab.linalg import det, identity, mat_vec
from cartanlab.randgen import random_rational
from cartanlab.scalars import ONE, ZERO, Scalar


def gaussian_rational(r):
    """A Gaussian rational with a nonzero imaginary part."""
    return Scalar(random_rational(r), random_rational(r) or 1)


def unit(r):
    return r.choice((ONE, -ONE))


COEFFICIENTS = (random_rational, gaussian_rational, unit)


def random_table(r, n, coeff=random_rational):
    """Sparse random bracket table; almost never satisfies Jacobi."""
    brackets = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if r.random() < 0.5:
                targets = r.sample(range(1, n + 1), r.randint(1, 2))
                brackets[(i, j)] = {k: coeff(r) for k in targets}
    return LieAlgebra(n, brackets)


def random_bilinear(g, r, density=0.4, coeff=random_rational):
    """Random 2-cochain on g's space, a bracket table with sparse random values."""
    n = g.dim
    values = {}
    for i, j in combinations(range(1, n + 1), 2):
        if r.random() < density:
            targets = r.sample(range(1, n + 1), r.randint(1, 2))
            values[(i, j)] = {k: coeff(r) for k in targets}
    return bracket_table(n, values)


def combine(n, *scaled):
    """The sum of u * table over the (u, table) pairs of 2-cochains, as a
    bracket table in dimension n, merged by `exterior.add_scaled`."""
    out = {}
    for u, table in scaled:
        for key, terms in table.items():
            exterior.add_scaled(out.setdefault(key, {}), terms, Scalar.of(u))
    return bracket_table(n, out)


def random_form(g, grade, r):
    """A grade-`grade` form on g with up to three random rational coefficients."""
    tuples = list(combinations(range(1, g.dim + 1), grade))
    r.shuffle(tuples)
    return DualForm(g, grade, {idx: random_rational(r) for idx in tuples[:3]})


def at(n, table, *key):
    """Coordinate tuple of a cochain entry in dimension n: a 2-cochain at
    (i, j), or a fully skew 3-cochain, stored on i < j < k, at (i, j, k)."""
    if len(key) == 3:
        # a cyclic rotation, an even permutation, puts the largest index
        # last; the entry is then skew in its first two slots
        while key[2] < max(key[:2]):
            key = key[1:] + key[:1]
    return coordinates(n, table_entry(table, *key))


def apply_comps(phi, x, y):
    """phi(x, y) on coordinate tuples, by the bilinear extension
    `liealg.apply_table` that `LieAlgebra.bracket` uses too."""
    return coordinates(len(x), apply_table(phi, x, y))


def vector_sum(*vectors):
    """The coordinatewise sum of coordinate tuples of one length."""
    return tuple(sum(parts, ZERO) for parts in zip(*vectors))


def _neg(v):
    return tuple(-x for x in v)


def dense_circle_product(n, phi, psi):
    """{(i, j, k): comps} of phi o psi on every triple, lexicographic order."""
    e = identity(n)
    values = {}
    for i, j, k in combinations(range(1, n + 1), 3):
        acc = vector_sum(
            apply_comps(phi, at(n, psi, i, j), e[k - 1]),
            apply_comps(phi, at(n, psi, j, k), e[i - 1]),
            apply_comps(phi, at(n, psi, k, i), e[j - 1]),
        )
        if any(acc):
            values[(i, j, k)] = acc
    return values


def dense_coboundary(phi, g):
    """(d phi)(X,Y,Z) = sum_cyc phi([X,Y],Z) - sum_cyc [X, phi(Y,Z)]."""
    n, mu = g.dim, g.c
    e = identity(n)
    values = {}
    for i, j, k in combinations(range(1, n + 1), 3):
        acc = vector_sum(
            apply_comps(phi, at(n, mu, i, j), e[k - 1]),
            apply_comps(phi, at(n, mu, j, k), e[i - 1]),
            apply_comps(phi, at(n, mu, k, i), e[j - 1]),
            _neg(apply_comps(mu, e[i - 1], at(n, phi, j, k))),
            _neg(apply_comps(mu, e[j - 1], at(n, phi, k, i))),
            _neg(apply_comps(mu, e[k - 1], at(n, phi, i, j))),
        )
        if any(acc):
            values[(i, j, k)] = acc
    return values


def dense_view(n, table):
    """{key: coordinate tuple} of a sparse 2- or 3-cochain, read through
    `at` in stored key order."""
    return {key: at(n, table, *key) for key in table}


def dense_bullet_product(n, psi1, psi2):
    """{(i, j, k): comps} of psi1(psi2(X_i, X_j), X_k), i < j, zeros dropped."""
    e = identity(n)
    values = {}
    for i, j in psi2:
        for k in range(1, n + 1):
            acc = apply_comps(psi1, at(n, psi2, i, j), e[k - 1])
            if any(acc):
                values[(i, j, k)] = acc
    return values


def dense_bullet_power(n, mu, k):
    """{index tuple: comps} of mu(mu(...mu(X, Y)...), Z) with arity k + 1."""
    e = identity(n)
    table = dense_view(n, mu)
    for _ in range(k - 1):
        nxt = {}
        for key, comps in table.items():
            for l in range(1, n + 1):
                acc = apply_comps(mu, comps, e[l - 1])
                if any(acc):
                    nxt[key + (l,)] = acc
        table = nxt
        if not table:
            break
    return table


def dense_coboundary_of_map(f, g):
    """{(i, j): comps} of (df)(X_i, X_j) = f([X_i, X_j]) - [f(X_i), X_j] - [X_i, f(X_j)]
    from `LieAlgebra.bracket` on coordinate tuples, zeros dropped."""
    n = g.dim
    e = identity(n)
    images = [tuple(row[m] for row in f) for m in range(n)]  # f(X_m): column m
    values = {}
    for i, j in combinations(range(1, n + 1), 2):
        v = vector_sum(
            mat_vec(f, coordinates(n, g.pair(i, j))),
            _neg(g.bracket(images[i - 1], e[j - 1])),
            _neg(g.bracket(e[i - 1], images[j - 1])),
        )
        if any(v):
            values[(i, j)] = v
    return values


def dense_lower_central_series(g, length):
    """The first `length` terms of the lower central series of g from the
    dense adjoint matrices: C^{k+1} is the span of the
    ad(X_i) v = mat_vec(g.adjoint_rows(i), v) over the rows v of C^k, and
    C^0 = g, the rows of the identity."""
    ads = [g.adjoint_rows(i) for i in range(1, g.dim + 1)]
    rows, terms = identity(g.dim), []
    for _ in range(length):
        terms.append(Subspace(g, [mat_vec(ad, v) for v in rows for ad in ads]))
        rows = terms[-1].rows
    return terms


def dense_add(n, *tables):
    """Sum of {(i, j, k): comps} tables on an n-dimensional space, zero
    entries dropped, keys sorted."""
    out = {}
    for key in sorted(set().union(*tables)):
        acc = vector_sum(*(t.get(key, (ZERO,) * n) for t in tables))
        if any(acc):
            out[key] = acc
    return out


def dense_quadratic_failures(spec):
    """The four compatibility equations, each judged on dense tables:
    ((equation, first failing triple, defect comps), ...)."""
    base, phi1, phi2 = spec.base, spec.phi1, spec.phi2
    n = base.dim
    equations = (
        (1, [dense_coboundary(phi1, base)]),
        (2, [dense_circle_product(n, phi1, phi1), dense_coboundary(phi2, base)]),
        (3, [dense_circle_product(n, phi1, phi2), dense_circle_product(n, phi2, phi1)]),
        (4, [dense_circle_product(n, phi2, phi2)]),
    )
    failures = []
    for eq, tables in equations:
        total = dense_add(base.dim, *tables)
        if total:
            key = next(iter(total))
            failures.append((eq, key, total[key]))
    return tuple(failures)


def gaussian_basis(n, r):
    """A dense invertible n x n matrix with entries a + b*i, a in [-2, 2]
    and b in {-1, 1} on about 30 % of the entries, else 0."""
    while True:
        p = [
            [Scalar(r.randint(-2, 2), r.choice((-1, 1)) if r.random() < 0.3 else 0) for _ in range(n)]
            for _ in range(n)
        ]
        if det(p):
            return p
