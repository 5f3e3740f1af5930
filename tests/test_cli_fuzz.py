"""Seeded in-process fuzz of the command line: every subcommand and suite
on catalog ids (well-formed, malformed and wrongly shaped), algebra files
and matrix files.  The exit code must stay in the 0/1/2/3 contract and no
exception may escape `main` (argparse's own usage exit, code 2, counts as
an exit code)."""

import json
import re
import sys
import time
from itertools import combinations, count

import pytest

from cartanlab.cli import main
from cartanlab.randgen import random_rational, rng
from cartanlab.suites import SUITES

FAMILIES = ("heisenberg", "abelian", "dim3", "sl2", "so3", "dim5", "filiform",
            "filiform_contact", "mu_c9", "frobenius", "frobenius_base")
WORDS = ("heisenberg", "solvable1", "solvable_b", "sl2", "so3", "diag_ii_a",
         "diag_ii_c", "nondiag_case1", "nondiag_case2", "nosuch")
KEYS = ("p", "n", "a", "b", "c", "d", "lam", "kind", "variant", "q", "allow_nonjacobi")
# the parameters a well-formed dim3 or dim5 id gives each kind or variant
OWN_PARAMS = {"solvable_b": "b", "sl2": ("lam",), "so3": "a", "diag_ii_a": "abcd",
              "diag_ii_c": "abcd", "nondiag_case1": "cdef", "nondiag_case2": "acd"}

# largest dimension drawn per subcommand or suite: these finish in well
# under a second each, while dimension caps for the slow ones stay open
TOP_DIM = {"class": 13, "contract": 25, "jacobi": 25, "quadra": 25,
           "extension-roundtrip": 25, "center": 11, "nilpotent-parity": 7}


def _junk(r):
    """A parameter value of the wrong shape or syntax."""
    return r.choice(["[1]", "[[1]]", "[]", "x", "", "1/0", "2.5", "-", "[1,[2]]", "3/2"])


def _rat(r):
    return str(random_rational(r))


def _array(r, length):
    return "[" + ",".join(_rat(r) for _ in range(length)) + "]"


def _catalog_id(r, top):
    """(catalog id of dimension at most top, often with one part broken,
    the dimension it names when well formed)."""
    fam = r.choice(FAMILIES)
    p = r.randint(1, max(1, (top - 1) // 2))
    n = r.randint(1, top)
    half = max(2, top // 2)
    kind = r.choice(WORDS)
    dim = {"heisenberg": 2 * p + 1, "abelian": n, "dim3": 3, "sl2": 3, "so3": 3, "dim5": 5,
           "filiform": n, "filiform_contact": 2 * p + 1, "mu_c9": 9, "frobenius": 2 * half,
           "frobenius_base": 2 * max(2, n // 2)}[fam]
    params = {
        "heisenberg": {"p": str(p)},
        "abelian": {"n": str(n)},
        "dim3": {"kind": kind, **{k: _rat(r) for k in OWN_PARAMS.get(kind, "")}},
        "sl2": {"lam": _rat(r)},
        "so3": {"a": _rat(r)},
        "dim5": {"variant": kind, **{k: _rat(r) for k in OWN_PARAMS.get(kind, "")}},
        "filiform": {"n": str(n)},
        "filiform_contact": {"p": str(p), "a": _array(r, p - 1 + r.randint(-1, 1))},
        "mu_c9": {"a": _array(r, r.randint(2, 4))},
        "frobenius": {"p": str(half), "a": _array(r, half - 1)},
        "frobenius_base": {"p": str(max(2, n // 2))},
    }[fam]
    if fam == "mu_c9" and top < 9:
        fam, params = "nosuch", {}
    roll = r.random()
    if roll < 0.25 and params:
        params[r.choice(sorted(params))] = _junk(r)
    elif roll < 0.35:
        params[r.choice(KEYS)] = _junk(r) if r.random() < 0.5 else "1"
    elif roll < 0.45 and params:
        del params[r.choice(sorted(params))]
    elif roll < 0.5:
        fam = r.choice(["nosuch", "", "heisenberg:", ":p=1"])
    text = ",".join(f"{k}={v}" for k, v in params.items())
    return fam + (":" + text if text else ""), dim


def _algebra_file(r, dim):
    pairs = list(combinations(range(1, dim + 1), 2))
    brackets = [
        {"i": i, "j": j, "terms": [{"k": r.randint(1, dim), "re": _rat(r)}]}
        for i, j in r.sample(pairs, min(len(pairs), r.randint(0, 2 * dim)))
    ]
    data = {"dim": dim, "brackets": brackets}
    roll = r.random()
    if roll < 0.1:
        data["dim"] = r.choice([0, -1, "x", [3]])
    elif roll < 0.2 and brackets:
        brackets[0]["terms"][0]["re"] = r.choice(["1/0", "x", None, [1]])
    elif roll < 0.25 and brackets:
        brackets[0]["j"] = r.choice([brackets[0]["i"], dim + 1])
    elif roll < 0.3:
        data = r.choice([[1], "x", 5, None])
    text = json.dumps(data)
    return text[: r.randint(0, len(text))] if r.random() < 0.05 else text


def _matrix_file(r, size):
    rows = [[_rat(r) for _ in range(size)] for _ in range(size)]
    roll = r.random()
    if roll < 0.3:
        rows = [["1" if a == b else "0" for b in range(size)] for a in range(size)]
    elif roll < 0.4 and rows:
        rows[0][0] = r.choice(["1/0", "x", None, [1], {"re": "1", "im": "1"}])
    elif roll < 0.5:
        rows = r.choice([[], [[]], "x", [1], [["1"], ["1", "0"]]])
    return json.dumps(rows)


def _argv(r, write):
    """(subcommand or suite, argv)."""
    command = r.choice(["class", "check", "contract", "sl"])
    if command == "sl":
        n = r.choice([-1, 0, 1, 2, 5, 6])  # 3 and 4 are valid but take seconds
        argv = ["sl", "--n", str(n)]
        mode = r.choice(["--identity", "--reeb", "--invariance", "--singular", None])
        if mode in ("--identity", "--reeb"):
            argv.append(mode)
        elif mode:
            size = 2 * n if n > 0 and r.random() < 0.7 else r.randint(1, 5)
            argv += [mode, write(_matrix_file(r, size))]
        return command, argv
    suite = r.choice(sorted(SUITES) + ["nosuch"]) if command == "check" else None
    top = TOP_DIM.get(suite or command, 5)
    if r.random() < 0.7:
        text, dim = _catalog_id(r, top)
        argv = [command, "--catalog", text]
    else:
        dim = r.randint(1, top)
        argv = [command, "--algebra", write(_algebra_file(r, dim))]
    length = dim if r.random() < 0.7 else r.randint(1, top)

    def list_option(name, values):
        # both spellings, "--opt=v1,v2" and "--opt v1,v2" (v1 may start with a minus)
        text = ",".join(values)
        return [f"{name}={text}"] if length % 2 else [name, text]

    if command == "class":
        coeffs = [_rat(r) for _ in range(length)]
        if r.random() < 0.15:
            coeffs[r.randrange(length)] = r.choice(["x", "1/0", "", "[1]"])
        argv += list_option("--form", coeffs)
    elif command == "check":
        argv += ["--suite", suite]
    else:
        argv += list_option("--exponents", [str(r.randint(-1, 3)) for _ in range(length)])
        if r.random() < 0.3:
            argv += ["--basis", write(_matrix_file(r, r.randint(1, 6)))]
    if r.random() < 0.2:
        argv.insert(0, "--allow-nonjacobi")
    return suite or command, argv


FIXED = [
    (["class", "--catalog", "heisenberg:p=[1]", "--form", "1"], 1),
    (["check", "--catalog", "heisenberg:p=[1]", "--suite", "jacobi"], 1),
    (["contract", "--catalog", "heisenberg:p=[1]", "--exponents", "1"], 1),
    (["class", "--catalog", "mu_c9:a=1", "--form", "1"], 1),
    (["class", "--catalog", "frobenius:p=2,a=[[1]]", "--form", "1"], 1),
    (["check", "--catalog", "abelian:n=1", "--suite", "extension-roundtrip"], 2),
    (["sl", "--n", "5", "--identity"], 2),
    # a list value with a leading minus, as a separate argument and attached
    (["class", "--catalog", "heisenberg:p=1", "--form", "-1,0,1"], 0),
    (["class", "--catalog", "heisenberg:p=1", "--form=-1,0,1"], 0),
    (["contract", "--catalog", "heisenberg:p=1", "--exponents", "-1,0,1"], 0),
    (["contract", "--catalog", "heisenberg:p=1", "--exponents=-1,0,1"], 0),
    # each family takes only the parameters its table reads
    (["class", "--catalog", "dim3:kind=so3,lam=7", "--form", "1,0,0"], 1),
    (["check", "--catalog", "dim3:kind=heisenberg,b=3", "--suite", "quadra"], 1),
    (["check", "--catalog", "dim5:variant=diag_ii_b,a=5,b=1,c=2,d=3", "--suite", "quadra"], 1),
    (["class", "--catalog", "filiform_contact:p=3,a=[1,2]", "--form", "0,0,0,0,0,0,1"], 0),
    # no pair bracket [X_{2k-1}, X_{2k}] carries the center: no deformation
    # of the Heisenberg algebra
    (["check", "--catalog", "abelian:n=3", "--suite", "quadra"], 2),
    (["check", "--catalog", "abelian:n=5", "--suite", "quadra"], 2),
    # argparse rejects conflicting arguments: one subject, one sl mode
    (["class", "--catalog", "heisenberg:p=1", "--algebra", "missing.json", "--form", "0,0,1"], 2),
    (["sl", "--n", "1", "--identity", "--reeb"], 2),
    # an integer parameter may be written as any rational with denominator 1;
    # an array value left empty is a bad parameter
    (["class", "--catalog", "heisenberg:p=4/2", "--form", "0,0,0,0,1"], 0),
    (["class", "--catalog", "frobenius:p=2,a=[1,]", "--form", "1,0,0,0"], 1),
    # a Gaussian parameter reads as str(Scalar) prints it, as in the entry's id
    (["class", "--catalog", "dim3:kind=sl2,lam=1+2i", "--form", "0,0,1"], 0),
    # and so does each coefficient of a covector
    (["class", "--catalog", "frobenius:p=2,a=[i]", "--form", "1,i,0,0"], 0),
    # a parameter given twice, and an algebra file (REPEATED_TARGET) giving
    # one target twice in a bracket pair
    (["class", "--catalog", "heisenberg:p=1,p=2", "--form", "0,0,1"], 1),
    (["check", "--algebra", "{repeated_target}", "--suite", "jacobi"], 1),
    # a list value whose leading minus comes before an i, separate and
    # attached (appended last, so the ids of the cases above stay put)
    (["class", "--catalog", "frobenius:p=2,a=[i]", "--form", "-i,1,0,0"], 0),
    (["class", "--catalog", "frobenius:p=2,a=[i]", "--form=-i,1,0,0"], 0),
    # one number grammar, "-p/q" or "-p" in ASCII digits, for every text:
    # a 10-character exponent spelling of a 10^8-digit number is refused at
    # once in a covector, a catalog array and a matrix cell
    (["class", "--algebra", "{h3}", "--form", "1e100000000,0,1"], 1),
    (["class", "--catalog", "frobenius:p=2,a=[1e100000000]", "--form", "1,0,0,0"], 1),
    (["sl", "--n", "1", "--singular", "{huge_cell}"], 1),
    # no digit separator or non-ASCII digit, and no decimal point in either
    # matrix-cell form
    (["contract", "--algebra", "{h3}", "--exponents", "1_0,0,0"], 1),
    (["sl", "--n", "\uff12", "--identity"], 2),
    (["sl", "--n", "1", "--invariance", "{decimal_cell}"], 1),
    (["sl", "--n", "1", "--invariance", "{decimal_re}"], 1),
    # an exponent, like an integer catalog parameter, may be any rational
    # with denominator 1
    (["contract", "--catalog", "heisenberg:p=1", "--exponents", "4/2,0,1"], 0),
]
REPEATED_TARGET = {"dim": 3, "brackets": [
    {"i": 1, "j": 2, "terms": [{"k": 3, "re": "1"}, {"k": 3, "re": "5"}]}]}
# the input files that FIXED names by placeholder
FILES = {
    "{repeated_target}": REPEATED_TARGET,
    "{h3}": {"dim": 3, "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "re": "1"}]}]},
    "{huge_cell}": [["1e100000000", "0"], ["0", "1"]],
    "{decimal_cell}": [["0.5", "0"], ["0", "1"]],
    "{decimal_re}": [[{"re": "0.5"}, "0"], ["0", "1"]],
}


def _exit_code(argv):
    """The code main returns, or argparse's exit code for a bad command line."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv,code", FIXED)
def test_cli_fixed_malformed_inputs(argv, code, capsys, tmp_path):
    paths = {}
    for i, (name, content) in enumerate(FILES.items()):
        paths[name] = tmp_path / f"input{i}.json"
        paths[name].write_text(json.dumps(content), encoding="utf-8")
    argv = [str(paths[a]) if a in paths else a for a in argv]
    start = time.perf_counter()
    assert _exit_code(argv) == code
    if code == 1:
        # malformed input is refused before anything is built from it
        assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if "--catalog" in argv and code == 1:
        assert "cannot resolve catalog id" in err
    if "frobenius:p=2,a=[1,]" in argv:
        assert "bad parameter" in err
    if code == 0:
        # the report echoes the command line as given
        assert json.loads(out)["argv"] == argv


def test_numbers_past_the_int_string_limit(capsys, tmp_path):
    # reading is bounded by scalars.MAX_DIGITS in its own words, and main
    # lifts the interpreter's limit while a command runs, so any result
    # prints, and restores it after
    huge_dim = tmp_path / "huge_dim.json"
    huge_dim.write_text('{"dim": ' + "1" * 4301 + ', "brackets": []}', encoding="utf-8")
    refused = [
        ["class", "--catalog", "heisenberg:p=1", "--form", "0,0," + "1" * 4301],
        ["class", "--catalog", "heisenberg:p=1", "--form", "0,0," + "1" * 100_000],
        ["check", "--algebra", str(huge_dim), "--suite", "jacobi"],
    ]
    limit = sys.get_int_max_str_digits()
    try:
        for setting in (limit, 0, 640):
            sys.set_int_max_str_digits(setting)
            for argv in refused:
                start = time.perf_counter()
                assert _exit_code(argv) == 1
                assert time.perf_counter() - start < 1.0
                assert sys.get_int_max_str_digits() == setting
                err = capsys.readouterr().err
                assert "more than 4300 digits" in err and "set_int_max_str_digits" not in err
    finally:
        sys.set_int_max_str_digits(limit)
    # results of more than 4300 digits from inputs of 3000 (leading digits
    # of powers of 7: repdigits share factors and give short results)
    form = ",".join(str(7 ** (3550 + n))[:3000] for n in range(5))
    assert _exit_code(["class", "--catalog", "filiform:n=5", "--form", form]) == 0
    out = capsys.readouterr().out
    assert max(len(s) for s in re.findall(r'"([0-9/-]+)"', out)) > 4300
    a, c = "7" * 3000, "3" * 3000
    argv = ["check", "--catalog", f"dim5:variant=diag_ii_a,a={a},b=0,c={c},d=1", "--suite", "jacobi"]
    assert _exit_code(argv) == 0
    assert sys.get_int_max_str_digits() == limit


def test_cli_seeded_fuzz_keeps_exit_contract(capsys, tmp_path):
    r = rng(2024)
    numbers = count()

    def write(text):
        path = tmp_path / f"input{next(numbers)}.json"
        path.write_text(text, encoding="utf-8")
        return str(path)

    seen = set()
    for _ in range(600):
        label, argv = _argv(r, write)
        try:
            code = _exit_code(argv)
        except Exception as exc:  # report the input, not only the traceback
            pytest.fail(f"{type(exc).__name__} escaped main for {argv}: {exc}")
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err, argv
        seen.add((label, code))
    # every subcommand and suite is exercised, and every exit code occurs
    assert {label for label, _ in seen} >= {"class", "contract", "sl", *SUITES}
    assert {c for _, c in seen} == {0, 1, 2, 3}
