"""Command-line front end.

Subcommands
-----------
class      Cartan class of a covector on an algebra, with its branch, its
           characteristic space and `wedge_power`, the maximal q with
           (dw)^q != 0; q is read off the skew elimination of dw
           (`forms.skew_reduce`), not computed by wedge powers.
check      batch property suites: jacobi | nilpotent-parity | center |
           quadra | extension-roundtrip.
contract   diagonal contraction by an exponent vector, optionally after a
           change of basis.
sl         the polynomial contact data on the even special linear group,
           in exactly one mode: top-form identity, Reeb pairings, rotation
           invariance, or singular equations at a point.  --n is capped at
           4 (SL(8)): the exact expansions grow too fast beyond it.  At
           n = 4 the identity takes ~3.2 s CPU and 0.10 GB peak RSS and the
           Reeb pairings ~4.0 s and 0.11 GB (2-CPU machine, Python 3.11),
           about a quarter of the 15 s budget of each in acceptance
           criterion 10d.

class, check and contract read the algebra from exactly one of
--algebra FILE and --catalog ID.  Catalog ids use the grammar
name[:key=val,...] with arrays as [v1,v2], e.g.  heisenberg:p=2,
frobenius:p=3,a=[1,-2],  mu_c9:a=[1,2,3],  dim5:variant=diag_ii_a,a=1,b=0,c=1,d=1.
Numbers are exact strings in the one grammar of `scalars`: rationals
"-p/q" or "-p" in ASCII digits, and Gaussian rationals as str(Scalar)
prints them ("i", "1/2-i") in catalog parameters, --form coefficients and
matrix files.  An integer (--n, --seed, CARTANLAB_SEED, --exponents, an
integer catalog parameter) is such a rational with denominator 1, so
"4/2" is 2.  No decimal point, exponent, leading "+", space or non-ASCII
digit is read, so no text makes a number with more digits than it has;
no floats are parsed or printed anywhere.

Exit codes: 0 pass, 1 I/O or parse error, 2 precondition violation or
bad command line, 3 property failure.  `main` alone turns an error into
an exit code.  Each command returns through one report envelope, which
goes to --out first and then to stdout, so a failed write prints no
report.  Reports are byte-deterministic for fixed inputs and seed;
CARTANLAB_SEED overrides the default seed.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys

from . import catalog as cat
from .algebra_io import (
    AlgebraFileError,
    algebra_to_dict,
    canonical_json,
    dump_algebra,
    load_algebra,
    load_matrix,
    parse_covector,
    parse_exponents,
)
from .contraction import ContractionSpec, contract, frobenius_model_parameters
from .forms import DualForm, cartan_class
from .liealg import change_basis
from .randgen import DEFAULT_SEED
from .scalars import parse_integer
from .slgroup import (
    evaluate_singular_equations,
    reeb_identities,
    sl_contact_identity,
    so_invariance_check,
)
from .structure import PreconditionError
from .suites import SUITES, run_suite

EXIT_PASS = 0
EXIT_IO = 1
EXIT_PRECONDITION = 2
EXIT_PROPERTY = 3

SL_MAX_N = 4  # the largest --n of `sl`; see the module docstring


class _Failure(Exception):
    """An error whose exit code is chosen where it is raised."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _seed(args) -> int:
    """--seed, else CARTANLAB_SEED, else the default seed; `main` reads it
    before any command runs."""
    given = (("--seed", getattr(args, "seed", None)), ("CARTANLAB_SEED", os.environ.get("CARTANLAB_SEED")))
    for what, text in given:
        if text is not None:
            try:
                return parse_integer(text)
            except ValueError:
                raise _Failure(EXIT_PRECONDITION, f"{what} must be an integer, got {text!r}")
    return DEFAULT_SEED


def _load_subject(args):
    """(algebra, catalog entry or None, digest source string)."""
    if args.catalog:
        try:
            entry = cat.resolve(
                args.catalog,
                allow_nonjacobi=getattr(args, "allow_nonjacobi", False),
            )
        except cat.NonJacobiDisplayError as exc:
            raise _Failure(
                EXIT_PRECONDITION, f"{exc} (rerun with --allow-nonjacobi to study it anyway)"
            )
        except (KeyError, ValueError) as exc:
            raise _Failure(EXIT_IO, f"cannot resolve catalog id {args.catalog!r}: {exc}")
        return entry.algebra, entry, args.catalog + "\n" + dump_algebra(entry.algebra)
    if args.algebra:
        try:
            g = load_algebra(args.algebra)
        except (OSError, AlgebraFileError) as exc:
            raise _Failure(EXIT_IO, f"cannot load algebra file: {exc}")
        return g, None, dump_algebra(g)
    raise _Failure(EXIT_IO, "need --algebra FILE or --catalog ID")


def _matrix(path, what):
    """(rows of the matrix file at path, their text for the digest)."""
    try:
        rows = load_matrix(path)
    except (OSError, AlgebraFileError) as exc:
        raise _Failure(EXIT_IO, f"cannot load {what}: {exc}")
    return rows, json.dumps([[str(x) for x in row] for row in rows])


def _report(args, digest_parts, results, ok=True) -> int:
    """Write the report envelope to --out, then to stdout; its exit code."""
    h = hashlib.sha256()
    for part in digest_parts:
        h.update(part.encode("utf-8"))
        h.update(b"\x00")
    text = canonical_json(
        {
            "command": args.command,
            "argv": args.argv_echo,
            "inputs_digest": h.hexdigest(),
            "seed": args.seed,
            "results": results,
            "suite": {"pass": int(ok), "fail": int(not ok)},
        }
    )
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return EXIT_PASS if ok else EXIT_PROPERTY


def cmd_class(args):
    g, _, source = _load_subject(args)
    coeffs = parse_covector(args.form)
    if len(coeffs) != g.dim:
        raise PreconditionError(
            f"form has {len(coeffs)} coefficients but the algebra has dimension {g.dim}"
        )
    info = cartan_class(DualForm.covector(g, coeffs))
    space = info.characteristic_space
    results = {
        "class": info.value,
        "branch": info.branch,
        "wedge_power": info.power,
        "characteristic_space": {
            "dimension": space.dim,
            "basis": [[str(x) for x in row] for row in space.rows],
        },
    }
    return _report(args, (source, args.form), results)


def cmd_check(args):
    g, entry, source = _load_subject(args)
    ok, results = run_suite(args.suite, g, entry, args.seed)
    return _report(args, (source, args.suite), {args.suite: results}, ok)


def cmd_contract(args):
    g, _, source = _load_subject(args)
    exponents = parse_exponents(args.exponents)
    if len(exponents) != g.dim:
        raise PreconditionError(f"{len(exponents)} exponents for dimension {g.dim}")
    basis_txt = ""
    if args.basis:
        p_rows, basis_txt = _matrix(args.basis, "basis matrix")
        g = change_basis(g, p_rows)
    result = contract(ContractionSpec(g, exponents))
    results = {"converges": result.converges}
    if result.converges:
        results["limit"] = algebra_to_dict(result.limit)
        params = frobenius_model_parameters(result.limit)
        results["model_family"] = None if params is None else [str(x) for x in params]
    else:
        i, j, k, e = result.witness
        results["witness"] = {"triple": [i, j, k], "exponent": e}
    # divergence is a legitimate outcome, not a failed property
    return _report(args, (source, args.exponents, basis_txt), results)


def cmd_sl(args):
    n = parse_integer(args.n)
    if not 1 <= n <= SL_MAX_N:
        raise PreconditionError(f"--n must be between 1 and {SL_MAX_N}")
    matrix_txt = ""
    if args.identity:
        res = sl_contact_identity(n)
        ok = res.ok
        constant = None if res.constant is None else str(res.constant)
        results = {"contact_identity": {"ok": ok, "q": res.q, "constant": constant}}
    elif args.reeb:
        pair_defect, scale = reeb_identities(n)
        ok = pair_defect.is_zero and scale is not None
        multiple = None if scale is None else str(scale)
        results = {
            "reeb": {"omega_of_reeb_equals_det": pair_defect.is_zero, "contraction_multiple_of_ddet": multiple}
        }
    elif args.invariance is not None:
        m, matrix_txt = _matrix(args.invariance, "matrix")
        ok = so_invariance_check(n, m)
        results = {"invariance": {"invariant": ok}}
    else:
        point, matrix_txt = _matrix(args.singular, "point")
        values = evaluate_singular_equations(n, point)
        nonzero = {f"{i},{j}": str(v) for (i, j), v in sorted(values.items()) if v}
        ok = True
        results = {"singular": {"singular_point": not nonzero, "nonzero_pairings": nonzero}}
    return _report(args, (str(n), matrix_txt), results, ok)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every call."""
    # SUPPRESS defaults let these flags sit before or after the subcommand
    # without the subparser namespace clobbering an already-parsed value
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed",
        default=argparse.SUPPRESS,
        help="PRNG seed (default: CARTANLAB_SEED or 1729)",
    )
    common.add_argument(
        "--out", default=argparse.SUPPRESS, help="also write the JSON report to this file"
    )
    common.add_argument(
        "--allow-nonjacobi",
        action="store_true",
        default=argparse.SUPPRESS,
        help="resolve catalog tables even when they violate Jacobi (quarantined displays)",
    )
    # not required: giving neither exits 1 from _load_subject
    subject = argparse.ArgumentParser(add_help=False)
    one_of = subject.add_mutually_exclusive_group()
    one_of.add_argument("--algebra", help="algebra JSON file")
    one_of.add_argument("--catalog", help="catalog id, e.g. heisenberg:p=2")
    parser = argparse.ArgumentParser(
        prog="cartanlab",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_class = sub.add_parser("class", help="Cartan class of a covector", parents=[common, subject])
    p_class.add_argument("--form", required=True, help='covector "c1,...,cn" (exact Gaussian rationals)')
    p_class.set_defaults(func=cmd_class)

    p_check = sub.add_parser("check", help="run a property suite", parents=[common, subject])
    p_check.add_argument("--suite", required=True, choices=SUITES, help="the property suite to run")
    p_check.set_defaults(func=cmd_check)

    p_contract = sub.add_parser("contract", help="diagonal contraction", parents=[common, subject])
    p_contract.add_argument("--exponents", required=True, help='"e1,...,en" integers')
    p_contract.add_argument("--basis", help="change-of-basis matrix JSON file applied first")
    p_contract.set_defaults(func=cmd_contract)

    p_sl = sub.add_parser("sl", help="polynomial contact data on the even special linear group", parents=[common])
    p_sl.add_argument("--n", required=True)
    mode = p_sl.add_mutually_exclusive_group(required=True)
    mode.add_argument("--identity", action="store_true", help="top-form identity and its constant")
    mode.add_argument("--reeb", action="store_true", help="exact Reeb-field pairings")
    mode.add_argument("--invariance", help="rotation matrix JSON file for the pullback check")
    mode.add_argument("--singular", help="matrix point JSON file for the singular equations")
    p_sl.set_defaults(func=cmd_sl)
    return parser


def _attach_list_values(argv) -> list:
    """Spell "--form -1,0,1" as "--form=-1,0,1", and "--form -i,1" as
    "--form=-i,1" (likewise --exponents): argparse reads a separate value
    that starts with a minus as an option."""
    out = []
    for tok in argv:
        if out and out[-1] in ("--form", "--exponents") and tok[:1] == "-" and (
            tok[1:2].isdigit() or tok[1:2] == "i"
        ):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    """Run one command; the only place where an error becomes an exit code.

    argparse exits 2 on a bad command line before any command runs.  The
    interpreter's limit on int-string conversion is lifted while the
    command runs, so a result of any size prints, and restored after it;
    `scalars.parse_rational` bounds the numbers read from outside.
    """
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_attach_list_values(argv))
    args.argv_echo = list(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args.seed = _seed(args)
        return args.func(args)
    except (_Failure, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, _Failure):
            return exc.code
        if isinstance(exc, (OSError, AlgebraFileError)):
            return EXIT_IO
        # every precondition error of the package is a ValueError
        return EXIT_PRECONDITION
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
