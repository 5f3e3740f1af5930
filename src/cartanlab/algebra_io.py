"""Loss-free JSON interchange for structure-constant algebras.

Rationals serialize as strings ("-3/7"), never floats; the canonical form
(sorted bracket pairs, sorted targets, two-space indent) is a fixed point
of parse -> serialize, so files can be diffed byte for byte.  Every
coefficient, matrix cell, covector coefficient and exponent, and every
JSON integer, is read in the one number grammar of `scalars`.
"""

from __future__ import annotations

import json

from .liealg import LieAlgebra
from .scalars import Scalar, check_int, parse_integer, parse_scalar


class AlgebraFileError(ValueError):
    pass


def algebra_to_dict(g: LieAlgebra) -> dict:
    brackets = []
    for (i, j) in sorted(g.c):
        terms = [
            {"k": k, "re": str(v.re), "im": str(v.im)}
            for k, v in sorted(g.c[(i, j)].items())
        ]
        brackets.append({"i": i, "j": j, "terms": terms})
    return {"dim": g.dim, "basis": list(g.basis), "brackets": brackets}


def _fields(obj, allowed, where) -> dict:
    """obj, checked to be a JSON object with no key outside `allowed`: the
    schema sets additionalProperties false, so a misspelled key such as
    "imag" is refused rather than read as absent."""
    if not isinstance(obj, dict):
        raise TypeError(f"{where} must be an object, not {obj!r}")
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise AlgebraFileError(f"unknown key {unknown[0]!r} in {where}")
    return obj


def algebra_from_dict(data: dict) -> LieAlgebra:
    try:
        data = _fields(data, {"dim", "basis", "brackets"}, "the algebra file")
        basis = data.get("basis")
        if "basis" in data and not (
            isinstance(basis, list) and all(isinstance(b, str) for b in basis)
        ):
            raise AlgebraFileError(f"basis must be a list of strings, not {basis!r}")
        brackets = {}
        for entry in data["brackets"]:
            entry = _fields(entry, {"i", "j", "terms"}, "a bracket")
            i, j = check_int(entry["i"], 1, "index"), check_int(entry["j"], 1, "index")
            terms = {}
            for term in entry["terms"]:
                term = _fields(term, {"k", "re", "im"}, f"a term of bracket pair ({i},{j})")
                k = check_int(term["k"], 1, "index")
                if k in terms:
                    raise AlgebraFileError(f"duplicate target {k} in bracket pair ({i},{j})")
                terms[k] = Scalar.from_strings(term["re"], term.get("im", "0"))
            if (i, j) in brackets:
                raise AlgebraFileError(f"duplicate bracket pair ({i},{j})")
            brackets[(i, j)] = terms
        return LieAlgebra(data["dim"], brackets, basis=basis)
    except AlgebraFileError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise AlgebraFileError(f"malformed algebra file: {exc}") from exc


def canonical_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def dump_algebra(g: LieAlgebra) -> str:
    return canonical_json(algebra_to_dict(g))


def load_algebra_text(text: str) -> LieAlgebra:
    try:
        data = json.loads(text, parse_int=parse_integer)
    except ValueError as exc:
        raise AlgebraFileError(f"not valid JSON: {exc}") from exc
    return algebra_from_dict(data)


def load_algebra(path: str) -> LieAlgebra:
    with open(path, "r", encoding="utf-8") as fh:
        return load_algebra_text(fh.read())


def load_matrix_text(text: str):
    """Matrix of exact Gaussian rationals from JSON: [["1","i"],["0","1"]]
    (cells read by `scalars.parse_scalar`) or
    [[{"re": "1", "im": "0"}, ...], ...]."""
    try:
        data = json.loads(text, parse_int=parse_integer)
    except ValueError as exc:
        raise AlgebraFileError(f"not valid JSON: {exc}") from exc
    rows = []
    try:
        for raw in data:
            row = []
            for cell in raw:
                if isinstance(cell, dict):
                    cell = _fields(cell, {"re", "im"}, "a matrix entry")
                    row.append(Scalar.from_strings(cell["re"], cell.get("im", "0")))
                elif isinstance(cell, (str, int)):
                    row.append(parse_scalar(cell))
                else:
                    raise AlgebraFileError(f"bad matrix entry {cell!r}")
            rows.append(tuple(row))
    except (KeyError, TypeError, ValueError) as exc:
        raise AlgebraFileError(f"malformed matrix file: {exc}") from exc
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise AlgebraFileError("matrix rows must be nonempty and rectangular")
    return tuple(rows)


def load_matrix(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return load_matrix_text(fh.read())


def parse_covector(text: str):
    """Comma-separated Gaussian rationals, e.g. "1,0,-2/3,1/2-i"."""
    parts = [p.strip() for p in text.split(",")]
    try:
        return [parse_scalar(p) for p in parts]
    except ValueError as exc:
        raise AlgebraFileError(f"bad covector coefficient: {exc}") from exc


def parse_exponents(text: str):
    """Comma-separated integers, each read by `scalars.parse_integer`, so
    "4/2" is 2, e.g. "1,0,-1"."""
    parts = [p.strip() for p in text.split(",")]
    try:
        return tuple(parse_integer(p) for p in parts)
    except ValueError as exc:
        raise AlgebraFileError(f"exponents must be integers: {exc}") from exc
