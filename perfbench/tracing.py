"""Traced runs: wrap public cartanlab functions from outside the package.

Each listed function is rebound, in every ``cartanlab.*`` namespace that
holds it, to a wrapper that records a span (name, start, end, parent span,
op id).  Scalar and Poly arithmetic only gets counters: a span per
multiplication would cost more than the multiplication.  Spans live in flat
arrays and are written out once, after the timed loop.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array

# module -> functions timed as spans; "Class.method" patches the class.
TIMED = {
    "linalg": ("rref", "det"),
    "forms": ("cartan_class", "ce_differential", "wedge", "characteristic_space"),
    "structure": ("jacobi_check",),
    "liealg": ("LieAlgebra.bracket",),
    "deformation": ("check_quadratic_deformation", "assemble"),
    "contraction": ("contract",),
    "catalog": ("resolve",),
    "cli": ("main",),
    "algebra_io": ("load_algebra",),
    "suites": ("run_suite",),
    "spectrum": ("adjoint_spectrum", "charpoly", "scalar_roots"),
    "polyforms": ("poly_wedge", "exterior_d"),
    "slgroup": (
        "sl_contact_identity",
        "reeb_candidate",
        "det_poly",
        "two_form_pair_power",
        "so_invariance_check",
    ),
    "sturm": ("count_real_roots",),
    "heisenberg_group": ("h3_is_contact_everywhere",),
    "poisson": ("darboux_poisson",),
}

CLI_EXITS = ("0", "1", "2", "3", "uncaught")


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


def self_times(parent, start, end):
    """(durations, self times): a span's self time is its duration minus
    the durations of its direct children, which nest inside it."""
    dur = [e - s for s, e in zip(start, end)]
    own = list(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= dur[i]
    return dur, own


class Tracer:
    """Span store plus the counters read at the wrapped boundaries."""

    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        # scalar mul, scalar mul with a non-real operand, add, div, poly mul
        self.arith = [0, 0, 0, 0, 0]
        self.reset()

    def reset(self):
        """Drop every span and count; the installed wrappers stay."""
        for arr in (self.name_id, self.parent, self.op, self.start, self.end):
            del arr[:]
        self.arith[:] = [0] * len(self.arith)
        self.op_id = -1
        self.rref_cells = 0
        self.jacobi_repeats = 0
        self.jacobi_seen = {}
        self.contract_converged = 0
        self.cli_exits = dict.fromkeys(CLI_EXITS, 0)

    def new_pass(self):
        """Repeats of jacobi_check are counted within one timed pass."""
        self.jacobi_seen.clear()

    # -- wrappers -----------------------------------------------------------

    def timed(self, name, fn, observe=None):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, op = self.name_id, self.parent, self.op
        start, end, stack = self.start, self.end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if observe is not None:
                observe(args, kwargs)
            ix = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0.0)
            stack.append(ix)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[ix] = clock()
                stack.pop()

        return wrapper

    def _observe_rref(self, args, kwargs):
        rows = args[0] if args else kwargs["rows"]
        if rows:
            self.rref_cells += len(rows) * len(rows[0])

    def _observe_jacobi(self, args, kwargs):
        g = args[0] if args else kwargs["g"]
        if id(g) in self.jacobi_seen:
            self.jacobi_repeats += 1
        else:
            # holding the object keeps its id from being reused in this pass
            self.jacobi_seen[id(g)] = g

    def _wrap_contract(self, fn):
        def contract(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.contract_converged += bool(result.converges)
            return result

        return contract

    def _wrap_cli_main(self, fn):
        def main(*args, **kwargs):
            try:
                code = fn(*args, **kwargs)
            except SystemExit as exc:
                self.cli_exits[str(exc.code)] = self.cli_exits.get(str(exc.code), 0) + 1
                raise
            except Exception:
                self.cli_exits["uncaught"] += 1
                raise
            self.cli_exits[str(code)] = self.cli_exits.get(str(code), 0) + 1
            return code

        return main

    # -- installation ---------------------------------------------------------

    def install(self):
        """Rebind every listed function; call once, after importing cartanlab."""
        observers = {"linalg.rref": self._observe_rref, "structure.jacobi_check": self._observe_jacobi}
        inner = {"contraction.contract": self._wrap_contract, "cli.main": self._wrap_cli_main}
        for module, attrs in TIMED.items():
            mod = importlib.import_module(f"cartanlab.{module}")
            for attr in attrs:
                name = span_name(module, attr)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = getattr(mod, cls_name)
                    original = owner.__dict__[meth]
                    setattr(owner, meth, self.timed(name, original, observers.get(name)))
                    continue
                original = getattr(mod, attr)
                fn = inner[name](original) if name in inner else original
                _rebind(original, self.timed(name, fn, observers.get(name)))
        self._count_arithmetic()
        # a root span around each op: its self time is the op's time outside
        # the listed functions, which leaves judging and looping as harness time
        self.call_op = self.timed("op", lambda run: run())

    def _count_arithmetic(self):
        from cartanlab.poly import Poly
        from cartanlab.scalars import Scalar

        arith = self.arith
        mul, add, sub, div = Scalar.__mul__, Scalar.__add__, Scalar.__sub__, Scalar.__truediv__
        pmul = Poly.__mul__

        def s_mul(a, b):
            arith[0] += 1
            if a.im or getattr(b, "im", 0):
                arith[1] += 1
            return mul(a, b)

        def s_add(a, b):
            arith[2] += 1
            return add(a, b)

        def s_sub(a, b):
            arith[2] += 1
            return sub(a, b)

        def s_div(a, b):
            arith[3] += 1
            return div(a, b)

        def p_mul(a, b):
            arith[4] += 1
            return pmul(a, b)

        Scalar.__mul__ = Scalar.__rmul__ = s_mul
        Scalar.__add__ = Scalar.__radd__ = s_add
        Scalar.__sub__ = s_sub
        Scalar.__truediv__ = s_div
        Poly.__mul__ = Poly.__rmul__ = p_mul

    # -- results ----------------------------------------------------------------

    def layer_metrics(self, wall_s: float) -> dict:
        """Per-layer metrics plus the accounting of the traced wall time."""
        dur, own = self_times(self.parent, self.start, self.end)
        calls = [0] * len(self.names)
        incl = [0.0] * len(self.names)
        excl = [0.0] * len(self.names)
        covered = 0.0
        for i, nid in enumerate(self.name_id):
            calls[nid] += 1
            incl[nid] += dur[i]
            excl[nid] += own[i]
            if self.parent[i] < 0:
                covered += dur[i]
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = (calls[nid], "count")
            out[f"{name}.s"] = (incl[nid], "s")
            out[f"{name}.self_s"] = (excl[nid], "s")
        muls, nonreal, adds, divs, pmuls = self.arith
        out["scalars.mul.calls"] = (muls, "count")
        out["scalars.mul.complex_share"] = (nonreal / muls if muls else 0.0, "ratio")
        out["scalars.add.calls"] = (adds, "count")
        out["scalars.div.calls"] = (divs, "count")
        out["poly.mul.calls"] = (pmuls, "count")
        out["linalg.rref.cells"] = (self.rref_cells, "count")
        jc = calls[self.names.index("structure.jacobi_check")]
        out["structure.jacobi_check.repeat_ratio"] = (self.jacobi_repeats / jc if jc else 0.0, "ratio")
        cc = calls[self.names.index("contraction.contract")]
        out["contraction.contract.converge_ratio"] = (self.contract_converged / cc if cc else 0.0, "ratio")
        for code in CLI_EXITS:
            out[f"cli.exit.{code}"] = (self.cli_exits[code], "count")
        layers_self = sum(excl)
        out["trace.wall_s"] = (wall_s, "s")
        out["trace.layers_self_s"] = (layers_self, "s")
        out["trace.harness_s"] = (wall_s - covered, "s")
        return out

    def write(self, path):
        """One line per span: name, start, end, parent index, op id."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    f"{names[self.name_id[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}"
                    f"\t{self.parent[i]}\t{self.op[i]}\n"
                )


def _rebind(original, wrapper):
    for name, mod in list(sys.modules.items()):
        if name != "cartanlab" and not name.startswith("cartanlab."):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
