"""The four workloads: seeded inputs, the ops run on them, and the known
answer each op's verdict is checked against.

An op is one call a user would make.  ``run`` is the timed part; ``judge``
turns its result into a canonical verdict and says whether the verdict
matches an answer that does not come from the code under test.  No timed
op fails on the code as it stands: an input that hits a known, still-open
defect is not a timed op but a probe (a workload's ``probes``), run once after
the timed loop and reported on its own.

Inputs come from ``stream(seed, name, index)``.  Each timed pass draws from
its own stream, so no pass repeats another's inputs; the contraction grid
deliberately reuses one fixed algebra instance per p.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from collections import namedtuple
from fractions import Fraction
from itertools import product

from cartanlab import (
    algebra_io,
    catalog,
    cli,
    contraction,
    forms,
    heisenberg_group,
    poisson,
    slgroup,
    spectrum,
    sturm,
)
from cartanlab.poly import Poly
from cartanlab.randgen import random_poly
from cartanlab.scalars import Scalar

Op = namedtuple("Op", "kind run judge")

DEFECT_CLI_ZERO_DIVISION = "cli leaks ZeroDivisionError from a 1/0 catalog parameter"
DEFECT_SPECTRUM_NONREAL = "adjoint_spectrum skips root search on non-real coefficients"

# omega ^ (d omega)^q ^ d(det) = c * det * vol, recorded for n = 1, 2, 3
SL_CONSTANTS = {1: -4, 2: -2580480, 3: -279723975452393472000}
# i(Z) d omega = c * d(det) for the Reeb candidate Z, recorded for n = 1, 2
REEB_SCALES = {1: Fraction(-1), 2: Fraction(-1, 2)}


def stream(seed: int, name: str, index: int = 0) -> random.Random:
    return random.Random(f"{seed}/{name}/{index}")


def rational(r) -> Fraction:
    return Fraction(r.randint(-9, 9), r.randint(1, 9))


def nonzero_rational(r) -> Fraction:
    return Fraction(r.choice((-1, 1)) * r.randint(1, 9), r.randint(1, 9))


def generic(r) -> Fraction:
    """A frobenius_model parameter other than 0 and -1."""
    while True:
        a = nonzero_rational(r)
        if a != -1:
            return a


def gaussian(r) -> Scalar:
    return Scalar(rational(r), rational(r))


def nonreal(r) -> Scalar:
    return Scalar(rational(r), nonzero_rational(r))


def interleave(*lists):
    """Merge lists so that every prefix holds each list in proportion."""
    keyed = [((i + 0.5) / len(xs), j, x) for j, xs in enumerate(lists) for i, x in enumerate(xs)]
    return [x for _, _, x in sorted(keyed, key=lambda t: t[:2])]


# -- independent answers --------------------------------------------------------


def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gaussian_rank(rows) -> int:
    """Rank over Q(i) of rows of Gaussian rationals given as (re, im) pairs.

    Rows are scaled to Gaussian integers and eliminated without division,
    each new row divided by the gcd of its parts to keep integers small.
    """
    int_rows = []
    for row in rows:
        den = math.lcm(*(x.denominator for pair in row for x in pair))
        int_rows.append([(int(a * den), int(b * den)) for a, b in row])
    rows, rank, zero = int_rows, 0, (0, 0)
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] != zero), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top, p = rows[rank], rows[rank][c]
        for i in range(rank + 1, len(rows)):
            a = rows[i][c]
            if a != zero:
                new = []
                for x, y in zip(rows[i], top):
                    px, ay = _gmul(p, x), _gmul(a, y)
                    new.append((px[0] - ay[0], px[1] - ay[1]))
                g = math.gcd(*(v for pair in new for v in pair))
                rows[i] = [(u // g, v // g) for u, v in new] if g > 1 else new
        rank += 1
    return rank


def oracle_class(g, comps) -> int:
    """Cartan class of the covector ``comps`` as rank [w ; dw(X_i, X_j)],
    with dw(X, Y) = -w([X, Y]) read straight off the bracket table."""
    n = g.dim
    w = [(Fraction(c.re), Fraction(c.im)) for c in comps]
    zero = (Fraction(0), Fraction(0))
    dw = [[zero] * n for _ in range(n)]
    for (i, j), terms in g.c.items():
        re = im = Fraction(0)
        for k, v in terms.items():
            t = _gmul((v.re, v.im), w[k - 1])
            re, im = re + t[0], im + t[1]
        dw[i - 1][j - 1] = (-re, -im)
        dw[j - 1][i - 1] = (re, im)
    return _gaussian_rank([w] + dw)


def mu_c9_closure(a1, a2, a3):
    """The dim-9 filiform table satisfies Jacobi iff this vanishes."""
    return 3 * a2 * a2 - a2 * a3 - 2 * a1 * a3


def contraction_prediction(g, exps):
    """(converges, limit constants) of the diagonal rescaling t^exps."""
    kept = {}
    for (i, j), terms in g.c.items():
        for k, v in terms.items():
            e = exps[i - 1] + exps[j - 1] - exps[k - 1]
            if e < 0:
                return False, None
            if e == 0:
                kept[(i, j, k)] = v
    return True, kept


def singular_values(n, point):
    """P_ij = sum_l x_{i,2l-1} x_{j,2l} - x_{i,2l} x_{j,2l-1} at the point."""
    x = point
    return {
        (i, j): sum(
            x[i - 1][2 * l - 2] * x[j - 1][2 * l - 1] - x[i - 1][2 * l - 1] * x[j - 1][2 * l - 2]
            for l in range(1, n + 1)
        )
        for i in range(1, 2 * n + 1)
        for j in range(i, 2 * n + 1)
    }


# -- op builders ----------------------------------------------------------------


def _form_verdict(info):
    rows = tuple(tuple(str(x) for x in row) for row in info.characteristic_space.rows)
    return (info.value, info.branch, info.power, rows)


def class_op(kind, g, comps, expected, odd=False):
    """cartan_class of a covector; the class must equal ``expected`` (and be
    odd on nilpotent algebras)."""

    def run():
        return forms.cartan_class(forms.DualForm.covector(g, comps))

    def judge(info):
        v = _form_verdict(info)
        return v, info.value == expected and (not odd or info.value % 2 == 1)

    return Op(kind, run, judge)


def class_ops(kind, entry, r, scalar, odd=False):
    """A fresh covector checked by the rank oracle, and a fresh multiple of
    the distinguished form checked against the catalog's expected class."""
    g = entry.algebra
    comps = [Scalar.of(scalar(r)) for _ in range(g.dim)]
    while not any(comps):
        comps = [Scalar.of(scalar(r)) for _ in range(g.dim)]
    ops = [class_op(kind, g, comps, oracle_class(g, comps), odd)]
    if entry.constraints_hold:
        s = scalar(r)
        while not s:
            s = scalar(r)
        dist = entry.distinguished_form.coeffs
        comps = [dist.get((i,), Scalar(0)) * s for i in range(1, g.dim + 1)]
        ops.append(class_op(kind + "-distinguished", g, comps, entry.expected_class, odd))
    return ops


def spectrum_op(kind, p, a, complete=True):
    """Eigenvalues of ad(X2) on frobenius_model(p, a): {0, -1} plus a_k and
    -(1 + a_k) for every k.  With ``complete`` all must be split off;
    without, the split-off ones must be among them and the unfactored
    factors must multiply out to the rest."""
    expected = sorted([Scalar(0), Scalar(-1)] + [x for ak in a for x in (ak, -(1 + ak))], key=_skey)

    def run():
        return spectrum.adjoint_spectrum(catalog.frobenius_model(p, a).algebra, 2)

    def judge(res):
        got = sorted(res.multiset(), key=_skey)
        verdict = (tuple(map(str, got)), tuple(tuple(map(str, f)) for f, _ in res.unfactored))
        if complete:
            return verdict, not res.unfactored and got == expected
        rest = list(expected)
        for ev in got:
            if ev not in rest:
                return verdict, False
            rest.remove(ev)
        factors = [f for f, m in res.unfactored for _ in range(m)]
        return verdict, _monic_product(factors) == _monic_product([(-x, Scalar(1)) for x in rest])

    return Op(kind, run, judge)


def _monic_product(polys):
    """Product of ascending-coefficient polynomials over Q(i), made monic,
    as (re, im) pairs."""
    acc = [(Fraction(1), Fraction(0))]
    for f in polys:
        out = [(Fraction(0), Fraction(0))] * (len(acc) + len(f) - 1)
        for i, x in enumerate(acc):
            for j, c in enumerate(f):
                xy = _gmul(x, (c.re, c.im))
                out[i + j] = (out[i + j][0] + xy[0], out[i + j][1] + xy[1])
        acc = out
    lead = acc[-1]
    norm = lead[0] * lead[0] + lead[1] * lead[1]
    inv = (lead[0] / norm, -lead[1] / norm)
    return [_gmul(x, inv) for x in acc]


def _skey(s):
    return (s.re, s.im)


def cli_call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def cli_op(kind, argv, exit_code, check=None):
    """An in-process CLI request: the exit code must match, and ``check``,
    when given, must accept the JSON report."""

    def judge(result):
        code, text = result
        ok = code == exit_code and (check is None or check(json.loads(text)["results"]))
        return result, ok

    return Op(kind, lambda: cli_call(argv), judge)


def contract_op(kind, g, exps, params=None):
    """A diagonal contraction; when the limit keeps every constant it is the
    instance itself, whose model parameters must come back as ``params``."""
    converges, kept = contraction_prediction(g, exps)
    whole = converges and len(kept) == sum(len(t) for t in g.c.values())

    def run():
        res = contraction.contract(contraction.ContractionSpec(g, exps))
        found = contraction.frobenius_model_parameters(res.limit) if whole else None
        return res, found

    def judge(result):
        res, found = result
        consts = res.limit.constants() if res.converges else None
        verdict = (
            res.converges,
            None if consts is None else tuple(sorted((k, str(v)) for k, v in consts.items())),
            None if found is None else tuple(map(str, found)),
        )
        ok = res.converges == converges and consts == kept
        if whole:
            ok = ok and found == tuple(Scalar.of(x) for x in params)
        return verdict, ok

    return Op(kind, run, judge)


def fixed_op(kind, run, expected):
    return Op(kind, run, lambda v: (v, v == expected))


# -- workloads --------------------------------------------------------------------


class ClassScan:
    """cartan_class with rational covectors over every catalog entry."""

    scalar = staticmethod(rational)

    def setup(self, seed, workdir):
        nilpotent = catalog.nilpotent_entries()
        self.entries = [(e, False) for e in catalog.standard_entries()] + [(e, True) for e in nilpotent]
        self.seed = seed

    def pass_ops(self, k):
        r = stream(self.seed, "timed", k)
        ops = []
        for entry, nil in self.entries:
            ops += class_ops("class", entry, r, self.scalar, odd=nil)
        return ops

    def probes(self):
        """(known defect, op) pairs whose op fails while the defect is open."""
        return []


class ClassGaussian(ClassScan):
    """The same code over Q(i): Gaussian covectors, Gaussian-parameter
    algebras, and adjoint spectra of Gaussian frobenius models."""

    scalar = staticmethod(gaussian)

    def setup(self, seed, workdir):
        super().setup(seed, workdir)
        r = stream(seed, "algebras")
        G = lambda: nonreal(r)  # noqa: E731
        self.gaussian_entries = [
            catalog.dim3("sl2", lam=G()),
            catalog.dim3("solvable_b", b=G()),
            catalog.dim5("diag_ii_a", a=G(), b=G(), c=G(), d=G()),
            catalog.dim5("diag_ii_b", b=G(), c=G(), d=G()),
            catalog.dim5("diag_ii_c", a=G(), b=G(), c=G(), d=G()),
            catalog.dim5("nondiag_case1", c=G(), d=G(), e=G(), f=G()),
            catalog.dim5("nondiag_case2", a=G(), c=G(), d=G()),
            catalog.dim5("nondiag_case4", a=G(), b=G(), c=G(), d=G()),
            catalog.filiform_contact(2, [G()]),
            catalog.filiform_contact(3, [G(), G()]),
        ] + [catalog.frobenius_model(p, [G() for _ in range(p - 1)]) for p in (2, 3, 4)]

    def pass_ops(self, k):
        ops = super().pass_ops(k)
        r = stream(self.seed, "timed-gaussian", k)
        for entry in self.gaussian_entries:
            ops += class_ops("class-gaussian-algebra", entry, r, gaussian)
        spectra = []
        for p in (2, 3, 4):
            spectra.append(spectrum_op("spectrum-real", p, [Scalar(rational(r)) for _ in range(p - 1)]))
            a = [nonreal(r) for _ in range(p - 1)]
            spectra.append(spectrum_op("spectrum-nonreal", p, a, complete=False))
        return interleave(ops, spectra)

    def probes(self):
        r = stream(self.seed, "probes")
        models = [(2, [Scalar(1, 1)])] + [(p, [nonreal(r) for _ in range(p - 1)]) for p in (2, 3, 4)]
        return [(DEFECT_SPECTRUM_NONREAL, spectrum_op("probe-spectrum-nonreal", p, a)) for p, a in models]


DIM5_PARAMS = {
    "diag_ii_a": "abcd",
    "diag_ii_b": "bcd",
    "diag_ii_c": "abcd",
    "nondiag_case1": "cdef",
    "nondiag_case2": "acd",
    "nondiag_case4": "abcd",
}
FILIFORM_GRID = (-1, 0, 1, 2, 3)


class FamilyGate:
    """CLI requests on fresh catalog ids and algebra files, interleaved with
    the scripted contraction scan over 3^(2p) exponent grids."""

    # Pass shape, chosen so that the median latency falls inside the p = 3
    # grid's ops and p90 inside the filiform class requests, not on the
    # boundary between two kinds of op.
    grid_per_pass = {2: 9, 3: 45}
    filiform_per_pass = 8

    def setup(self, seed, workdir):
        self.seed, self.workdir = seed, workdir
        r = stream(seed, "grid")
        self.grid = {}
        for p in (2, 3):
            # a_k = -1 would drop the constant -(1 + a_k) and make the grid
            # cheaper for some seeds than for others
            params = [generic(r) for _ in range(p - 1)]
            g = catalog.frobenius_model(p, params).algebra
            self.grid[p] = (g, params, list(product((0, 1, 2), repeat=2 * p)))

    def _file(self, k, name, text):
        path = f"{self.workdir}/pass{k}-{name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def _closing_mu_c9(self, r, contact=False):
        """Coefficients on which the dim-9 table is a Lie algebra; with
        ``contact``, also ones on which every gate condition A_i != 0."""
        while True:
            a2, a3 = nonzero_rational(r), nonzero_rational(r)
            a = [(3 * a2 * a2 - a2 * a3) / (2 * a3), a2, a3]
            if not contact or all(catalog.filiform_contact_conditions(4, a)):
                return a

    def _open_mu_c9(self, r):
        while True:
            a = [nonzero_rational(r) for _ in range(3)]
            if mu_c9_closure(*a):
                return a

    def cli_ops(self, k):
        r = stream(self.seed, "timed-cli", k)
        q = lambda: nonzero_rational(r)  # noqa: E731
        txt = lambda a: "[" + ",".join(map(str, a)) + "]"  # noqa: E731
        ops = []
        quadra_ok = lambda res: res["quadra"]["ok"] is True  # noqa: E731
        dim3_ids = ["dim3:kind=heisenberg", "dim3:kind=solvable1", f"dim3:kind=solvable_b,b={q()}",
                    f"dim3:kind=sl2,lam={q()}", f"dim3:kind=so3,a={q()}"]
        for cid in dim3_ids:
            ops.append(cli_op("cli-quadra", ["check", "--catalog", cid, "--suite", "quadra"], 0, quadra_ok))
        for variant, names in DIM5_PARAMS.items():
            cid = f"dim5:variant={variant}," + ",".join(f"{ch}={rational(r)}" for ch in names)
            ops.append(cli_op("cli-quadra", ["check", "--catalog", cid, "--suite", "quadra"], 0, quadra_ok))

        closing, open_ = self._closing_mu_c9(r), self._open_mu_c9(r)
        ops.append(cli_op("cli-jacobi", ["check", "--catalog", f"mu_c9:a={txt(closing)}", "--suite", "jacobi"], 0))
        ops.append(cli_op("cli-jacobi", ["--allow-nonjacobi", "check", "--catalog", f"mu_c9:a={txt(open_)}",
                                         "--suite", "jacobi"], 3))
        closing_file = self._file(k, "closing", algebra_io.dump_algebra(catalog.mu_c9_table(*self._closing_mu_c9(r))))
        open_file = self._file(k, "open", algebra_io.dump_algebra(catalog.mu_c9_table(*self._open_mu_c9(r))))
        ops.append(cli_op("cli-jacobi-file", ["check", "--algebra", closing_file, "--suite", "jacobi"], 0))
        ops.append(cli_op("cli-jacobi-file", ["check", "--algebra", open_file, "--suite", "jacobi"], 3))

        form = ",".join(["0"] * 8 + ["1"])
        for _ in range(self.filiform_per_pass):
            a = [r.choice(FILIFORM_GRID) for _ in range(3)]
            contact = all(catalog.filiform_contact_conditions(4, a))
            check = (lambda res: res["class"] == 9) if contact else (lambda res: res["class"] < 9)
            ops.append(cli_op("cli-class-filiform", ["--allow-nonjacobi", "class", "--catalog",
                                                     f"filiform_contact:p=4,a={txt(a)}", "--form", form], 0, check))

        p = r.randint(1, 5)
        ops.append(cli_op("cli-roundtrip", ["check", "--catalog", f"heisenberg:p={p}", "--suite",
                                            "extension-roundtrip"], 0))
        # the central quotient is symplectic, so the round trip exists, iff the
        # dim-9 form is contact
        contact = txt(self._closing_mu_c9(r, contact=True))
        ops.append(cli_op("cli-roundtrip", ["check", "--catalog", f"mu_c9:a={contact}",
                                            "--suite", "extension-roundtrip"], 0))
        ops.append(cli_op("cli-center", ["check", "--catalog", f"heisenberg:p={r.randint(1, 5)}", "--suite", "center"],
                          0, lambda res: res["center"]["dimension"] == 1))

        model_a = q()
        e1 = r.randint(0, 2)
        e3 = r.randint(0, e1)
        whole = (e1, 0, e3, e1 - e3)  # keeps every constant: the limit is the model itself
        # e1 > e3 + e4 sends [X3, X4] = X1 to t^(-e1): divergence
        ops.append(cli_op("cli-contract", ["contract", "--catalog", f"frobenius:p=2,a=[{model_a}]", "--exponents",
                                           ",".join(map(str, whole))], 0,
                          lambda res: res["converges"] and res["model_family"] == [str(model_a)]))
        ops.append(cli_op("cli-contract", ["contract", "--catalog", f"frobenius:p=2,a=[{q()}]", "--exponents",
                                           f"{r.randint(1, 2)},0,0,0"], 0,
                          lambda res: not res["converges"] and res["witness"]["exponent"] < 0))

        n = r.randint(1, 5)
        ops.append(cli_op("cli-malformed", ["class", "--catalog", f"nosuch:p={n}", "--form", "1"], 1))
        ops.append(cli_op("cli-malformed", ["class", "--catalog", f"heisenberg:p={n}", "--form",
                                            ",".join(["1"] * (2 * n))], 2))
        bad = self._file(k, "broken", '{"dim": 3, "brackets": [')
        ops.append(cli_op("cli-malformed", ["check", "--algebra", bad, "--suite", "jacobi"], 1))
        ops.append(cli_op("cli-malformed", ["check", "--catalog", f"mu_c9:a={txt(self._open_mu_c9(r))}",
                                            "--suite", "jacobi"], 2))
        return ops

    def probes(self):
        r = stream(self.seed, "probes")
        return [
            (DEFECT_CLI_ZERO_DIVISION,
             cli_op("probe-cli-zero-division", ["class", "--catalog", f"frobenius:p=3,a=[{nonzero_rational(r)},{n}/0]",
                                                "--form", "1,0,0,0,0,0"], 1))
            for n in (1, r.randint(2, 5))
        ]

    def grid_ops(self, k):
        ops = []
        for p, per_pass in self.grid_per_pass.items():
            g, params, grid = self.grid[p]
            for t in range(k * per_pass, (k + 1) * per_pass):
                ops.append(contract_op(f"contract-grid-p{p}", g, grid[t % len(grid)], params))
        return ops

    def pass_ops(self, k):
        return interleave(self.cli_ops(k), self.grid_ops(k))


class PolyContact:
    """Polynomial contact geometry: SL(2n) identities, rotation invariance,
    singular equations, H3 verdicts by Sturm counts and Poisson axioms."""

    def setup(self, seed, workdir):
        self.seed = seed

    def probes(self):
        return []

    def pass_ops(self, k):
        r = stream(self.seed, "timed", k)
        ops = []
        if k == 0:
            # the n = 3 expansion takes seconds: once per run, always first
            ops.append(self.sl_op(3))
        ops += [self.sl_op(1), self.sl_op(2), self.reeb_op(1), self.reeb_op(2)]
        # four cheap rotations put the median latency inside one kind of op
        for _ in range(4):
            ops.append(self.rotation_op(1, [self.pythagorean(r)]))
        ops.append(self.rotation_op(2, [self.pythagorean(r), self.pythagorean(r)]))
        for n in (1, 2):
            ops.append(self.singular_op(n, r))
        for _ in range(2):
            ops.append(self.h3_op(r))
            ops.append(self.sturm_op(r))
        for p in (1, 2):
            ops.append(self.poisson_op(p, r))
        return ops

    @staticmethod
    def sl_op(n):
        def run():
            res = slgroup.sl_contact_identity(n)
            return res.ok, res.q, None if res.constant is None else str(res.constant)

        return fixed_op(f"sl-identity-n{n}", run, (True, 2 * n * n - 1, str(SL_CONSTANTS[n])))

    @staticmethod
    def reeb_op(n):
        def run():
            defect, scale = slgroup.reeb_identities(n)
            return defect.is_zero, None if scale is None else str(scale)

        return fixed_op(f"reeb-n{n}", run, (True, str(REEB_SCALES[n])))

    @staticmethod
    def pythagorean(r):
        a = r.randint(2, 9)
        return slgroup.pythagorean_rotation(a, r.randint(1, a - 1))

    @staticmethod
    def rotation_op(n, blocks):
        m = blocks[0] if n == 1 else slgroup.block_rotation(n, blocks)
        return fixed_op(f"so-invariance-n{n}", lambda: slgroup.so_invariance_check(n, m), True)

    @staticmethod
    def singular_op(n, r):
        point = [[rational(r) for _ in range(2 * n)] for _ in range(2 * n)]
        expected = singular_values(n, point)

        def judge(values):
            verdict = tuple(sorted((key, str(v)) for key, v in values.items()))
            return verdict, values.keys() == expected.keys() and all(values[key] == v for key, v in expected.items())

        return Op(f"singular-n{n}", lambda: slgroup.evaluate_singular_equations(n, point), judge)

    @staticmethod
    def h3_op(r):
        """b1 = s(u^3/3 + m u), b2 = d, b3 = c: the contact polynomial is
        -c s (u^2 + m) - c^2, with a real root iff -m - c/s >= 0."""
        s, m, c, d, alpha = (nonzero_rational(r) for _ in range(5))
        u = heisenberg_group.U_VAR
        b1 = Poly(u, {(3,): s / 3, (1,): s * m})
        b2, b3 = Poly.constant(u, d), Poly.constant(u, c)
        expected = -m - c / s < 0
        return fixed_op("h3-contact", lambda: heisenberg_group.h3_is_contact_everywhere(alpha, b1, b2, b3), expected)

    @staticmethod
    def sturm_op(r):
        """(u - r_1)...(u - r_k)(u^2 + s) with s > 0 has exactly k real roots."""
        count, roots = r.randint(1, 4), set()
        while len(roots) < count:
            roots.add(rational(r))
        coeffs = [Fraction(abs(nonzero_rational(r))), Fraction(0), Fraction(1)]
        for root in roots:
            shifted = [Fraction(0)] + coeffs
            coeffs = [a - root * b for a, b in zip(shifted, coeffs + [Fraction(0)])]
        return fixed_op("sturm-count", lambda: sturm.count_real_roots(coeffs), len(roots))

    @staticmethod
    def poisson_op(p, r):
        v = poisson.darboux_vars(p)
        f, g, h = (random_poly(v, r) for _ in range(3))

        def run():
            br = lambda a, b: poisson.darboux_poisson(p, a, b)  # noqa: E731
            skew = (br(f, g) + br(g, f)).is_zero
            leibniz = (br(f * g, h) - f * br(g, h) - br(f, h) * g).is_zero
            jacobi = (br(f, br(g, h)) + br(g, br(h, f)) + br(h, br(f, g))).is_zero
            return skew, leibniz, jacobi

        return fixed_op(f"poisson-p{p}", run, (True, True, True))


WORKLOADS = {
    "class-scan": ClassScan,
    "class-gaussian": ClassGaussian,
    "family-gate": FamilyGate,
    "poly-contact": PolyContact,
}
