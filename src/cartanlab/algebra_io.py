"""Loss-free JSON interchange for structure-constant algebras.

Rationals serialize as strings ("-3/7"), never floats; the canonical form
(sorted bracket pairs, sorted targets, two-space indent) is a fixed point
of parse -> serialize, so files can be diffed byte for byte.
"""

from __future__ import annotations

import json

from .liealg import LieAlgebra
from .scalars import Scalar, parse_rational


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


def algebra_from_dict(data: dict) -> LieAlgebra:
    try:
        dim = int(data["dim"])
        basis = data.get("basis")
        brackets = {}
        for entry in data.get("brackets", []):
            i, j = int(entry["i"]), int(entry["j"])
            if not (1 <= i < j <= dim):
                raise AlgebraFileError(f"bracket pair ({i},{j}) out of order or range")
            terms = {}
            for term in entry["terms"]:
                k = int(term["k"])
                if not (1 <= k <= dim):
                    raise AlgebraFileError(f"bracket target {k} out of range")
                terms[k] = Scalar(parse_rational(term["re"]), parse_rational(term.get("im", "0")))
            if (i, j) in brackets:
                raise AlgebraFileError(f"duplicate bracket pair ({i},{j})")
            brackets[(i, j)] = terms
        return LieAlgebra(dim, brackets, basis=basis)
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
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise AlgebraFileError(f"not valid JSON: {exc}") from exc
    return algebra_from_dict(data)


def load_algebra(path: str) -> LieAlgebra:
    with open(path, "r", encoding="utf-8") as fh:
        return load_algebra_text(fh.read())


def save_algebra(g: LieAlgebra, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_algebra(g))


def load_matrix_text(text: str):
    """Matrix of exact rationals from JSON: [["1","0"],["0","1"]] or
    [[{"re": "1", "im": "0"}, ...], ...]."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise AlgebraFileError(f"not valid JSON: {exc}") from exc
    rows = []
    try:
        for raw in data:
            row = []
            for cell in raw:
                if isinstance(cell, dict):
                    row.append(
                        Scalar(parse_rational(cell["re"]), parse_rational(cell.get("im", "0")))
                    )
                elif isinstance(cell, (str, int)):
                    row.append(Scalar(parse_rational(cell)))
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
    """Comma-separated rationals, e.g. "1,0,-2/3"."""
    parts = [p.strip() for p in text.split(",")]
    try:
        return [parse_rational(p) for p in parts]
    except ValueError as exc:
        raise AlgebraFileError(f"bad covector coefficient: {exc}") from exc


def parse_exponents(text: str):
    parts = [p.strip() for p in text.split(",")]
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise AlgebraFileError(f"exponents must be integers: {exc}") from exc
