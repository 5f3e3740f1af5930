import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cartanlab import catalog as cat
from cartanlab import suites
from cartanlab.algebra_io import (
    AlgebraFileError,
    algebra_from_dict,
    dump_algebra,
    load_algebra_text,
    load_matrix_text,
    parse_covector,
    parse_exponents,
)
from cartanlab.cli import main
from cartanlab.deformation import (
    DeformationSpec,
    assemble,
    bilinear_from_endomorphism,
    check_quadratic_deformation,
)
from cartanlab.liealg import Subspace
from cartanlab.scalars import ZERO, Scalar


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_class_form_reads_gaussian_coefficients(capsys):
    code, out, _ = run_cli(["class", "--catalog", "frobenius:p=2,a=[i]", "--form", "1,i,0,0"], capsys)
    assert code == 0 and json.loads(out)["results"]["class"] == 4
    for bad in ("1,1/0,0,0", "1,x,0,0", "1,i i,0,0"):
        code, out, err = run_cli(["class", "--catalog", "frobenius:p=2,a=[i]", "--form", bad], capsys)
        assert (code, out) == (1, ""), bad
        assert "bad covector coefficient" in err


def test_algebra_round_trip_fixed_point():
    g = cat.frobenius_model(3, [1, -2]).algebra
    text = dump_algebra(g)
    once = load_algebra_text(text)
    assert dump_algebra(once) == text
    assert once.same_constants(g)


def test_algebra_file_errors():
    with pytest.raises(AlgebraFileError):
        load_algebra_text("not json")
    with pytest.raises(AlgebraFileError):
        algebra_from_dict({"dim": 2, "brackets": [{"i": 2, "j": 1, "terms": []}]})
    with pytest.raises(AlgebraFileError):
        algebra_from_dict(
            {"dim": 2, "brackets": [{"i": 1, "j": 2, "terms": [{"k": 5, "re": "1"}]}]}
        )


def test_algebra_file_refuses_a_repeated_pair_or_target():
    # a repeated pair or target would silently keep only the last value
    term = {"k": 3, "re": "1"}
    repeated_pair = {"dim": 3, "brackets": [{"i": 1, "j": 2, "terms": [term]},
                                            {"i": 1, "j": 2, "terms": [term]}]}
    repeated_target = {"dim": 3, "brackets": [
        {"i": 1, "j": 2, "terms": [{"k": 3, "re": "1"}, {"k": 3, "re": "5"}]}]}
    for data, message in ((repeated_pair, "duplicate bracket pair (1,2)"),
                          (repeated_target, "duplicate target 3 in bracket pair (1,2)")):
        with pytest.raises(AlgebraFileError, match=re.escape(message)):
            algebra_from_dict(data)
    # distinct targets in one pair stay one bracket
    g = algebra_from_dict({"dim": 3, "brackets": [
        {"i": 1, "j": 2, "terms": [{"k": 3, "re": "1"}, {"k": 1, "re": "5"}]}]})
    assert g.pair(1, 2) == {3: Scalar(1), 1: Scalar(5)}


def test_algebra_file_refuses_what_the_schema_rejects():
    # the schema wants a basis of strings and no key beyond its own at the
    # top, bracket or term level; each of these loaded before, one of them
    # as the wrong algebra (the misspelled "imag" read as an absent "im")
    term = {"k": 3, "re": "1"}
    cases = (
        ({"dim": 3, "basis": "XYZ", "brackets": []}, "basis must be a list of strings"),
        ({"dim": 3, "basis": [1, None, True], "brackets": []}, "basis must be a list of strings"),
        ({"dim": 3, "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "re": "1", "imag": "2"}]}]},
         "unknown key 'imag'"),
        ({"dim": 3, "brackets": [{"i": 1, "j": 2, "terms": [term], "k": 3}]}, "unknown key 'k'"),
        ({"dim": 3, "bracket": [{"i": 1, "j": 2, "terms": [term]}]}, "unknown key 'bracket'"),
    )
    for data, message in cases:
        with pytest.raises(AlgebraFileError, match=re.escape(message)):
            algebra_from_dict(data)
    with pytest.raises(AlgebraFileError, match="unknown key 'imag'"):
        load_matrix_text('[[{"re": "1", "imag": "2"}]]')
    # the keys the schema names still load
    g = algebra_from_dict({"dim": 3, "basis": ["a", "b", "c"], "brackets": [
        {"i": 1, "j": 2, "terms": [{"k": 3, "re": "1", "im": "2"}]}]})
    assert g.basis == ("a", "b", "c") and g.pair(1, 2) == {3: Scalar(1, 2)}


def test_parse_helpers():
    from fractions import Fraction

    assert parse_covector("1,0,-2/3") == [Fraction(1), Fraction(0), Fraction(-2, 3)]
    assert parse_exponents("1, 1, 2") == (1, 1, 2)
    assert parse_covector("i,-1/2+3i") == [Scalar(0, 1), Scalar(Fraction(-1, 2), 3)]
    for bad in ("1,oops", "1,1/0", "1,", "2ii"):
        with pytest.raises(AlgebraFileError):
            parse_covector(bad)
    rows = load_matrix_text('[["1+i", 0], [{"re": "2", "im": "-1"}, "-i"]]')
    assert rows == ((Scalar(1, 1), ZERO), (Scalar(2, -1), Scalar(0, -1)))
    for bad in ('[["1/0"]]', '[["x"]]', '[[1.5]]'):
        with pytest.raises(AlgebraFileError):
            load_matrix_text(bad)
    with pytest.raises(AlgebraFileError):
        parse_exponents("1,1/2")


def test_cli_class_catalog(capsys):
    code, out, _ = run_cli(["class", "--catalog", "heisenberg:p=1", "--form", "0,0,1"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["results"]["class"] == 3
    assert report["results"]["branch"] == "odd"
    assert report["suite"] == {"pass": 1, "fail": 0}


# (catalog id, form) -> class report results as the wedge-power route gave
# them; the skew elimination must leave each one as it was
_CLASS_REPORTS = {
    ("heisenberg:p=3", "0,0,0,0,0,0,1"): (7, "odd", 3, []),
    ("frobenius:p=2,a=[3]", "1,0,0,0"): (4, "even", 2, []),
    ("frobenius:p=2,a=[3]", "0,1,0,1"): (2, "even", 1, [["1", "0", "0", "0"], ["0", "0", "1", "0"]]),
    ("abelian:n=3", "1,0,2"): (1, "odd", 0, [["1", "0", "-1/2"], ["0", "1", "0"]]),
}


def test_cli_class_report_is_pinned(capsys):
    for (cid, form), (value, branch, power, basis) in _CLASS_REPORTS.items():
        code, out, _ = run_cli(["class", "--catalog", cid, "--form", form], capsys)
        assert code == 0
        assert json.loads(out)["results"] == {
            "class": value,
            "branch": branch,
            "wedge_power": power,
            "characteristic_space": {"dimension": len(basis), "basis": basis},
        }, cid


def test_cli_class_zero_form_precondition(capsys):
    code, out, err = run_cli(
        ["class", "--catalog", "heisenberg:p=1", "--form", "0,0,0"], capsys
    )
    assert code == 2
    assert "zero form" in err


def test_cli_class_bad_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    code, _, err = run_cli(["class", "--algebra", str(bad), "--form", "1"], capsys)
    assert code == 1


def test_cli_byte_determinism(capsys):
    args = ["check", "--catalog", "heisenberg:p=2", "--suite", "nilpotent-parity"]
    code1, out1, _ = run_cli(args, capsys)
    code2, out2, _ = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["seed"] == 1729


def test_cli_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("CARTANLAB_SEED", "7")
    code, out, _ = run_cli(
        ["check", "--catalog", "heisenberg:p=1", "--suite", "nilpotent-parity"], capsys
    )
    assert code == 0
    assert json.loads(out)["seed"] == 7


def test_cli_check_jacobi_failure_exit_code(capsys, tmp_path):
    bad = {
        "dim": 3,
        "basis": ["X1", "X2", "X3"],
        "brackets": [
            {"i": 1, "j": 2, "terms": [{"k": 3, "re": "1", "im": "0"}]},
            {"i": 1, "j": 3, "terms": [{"k": 1, "re": "1", "im": "0"}]},
        ],
    }
    path = tmp_path / "bad_algebra.json"
    path.write_text(json.dumps(bad))
    code, out, _ = run_cli(["check", "--algebra", str(path), "--suite", "jacobi"], capsys)
    assert code == 3
    report = json.loads(out)
    assert report["results"]["jacobi"]["witness"]["triple"] == [1, 2, 3]


def test_cli_check_quadra_and_roundtrip(capsys):
    code, out, _ = run_cli(
        ["check", "--catalog", "dim5:variant=diag_ii_b,b=1,c=2,d=1/3", "--suite", "quadra"],
        capsys,
    )
    assert code == 0 and json.loads(out)["results"]["quadra"]["ok"]

    code, out, _ = run_cli(
        ["check", "--catalog", "mu_c9:a=[1,2,3]", "--suite", "extension-roundtrip"],
        capsys,
    )
    assert code == 0 and json.loads(out)["results"]["extension-roundtrip"]["ok"]


def test_cli_check_quadra_reports_failing_equations(capsys, tmp_path):
    # the forced failure of demo 02: phi_1(X1,X2) = X1 against a split diagonal f
    h3 = cat.heisenberg(1).algebra
    spec = DeformationSpec(
        h3,
        {(1, 2): {1: 1}},
        bilinear_from_endomorphism(h3, ((1, 0), (0, -1))),
    )
    failures = check_quadratic_deformation(spec).failures
    path = tmp_path / "forced.json"
    path.write_text(dump_algebra(assemble(spec)))
    code, out, _ = run_cli(["check", "--algebra", str(path), "--suite", "quadra"], capsys)
    assert code == 3
    results = json.loads(out)["results"]["quadra"]
    assert results["failing_equations"] == [3]
    assert results["failures"] == [
        {"equation": eq, "triple": list(triple), "defect": [str(x) for x in defect]}
        for eq, triple, defect in failures
    ]
    (witness,) = results["failures"]
    assert witness["equation"] == 3 and any(x != "0" for x in witness["defect"])


def test_cli_check_center_suite(capsys):
    code, out, _ = run_cli(
        ["check", "--catalog", "heisenberg:p=3", "--suite", "center"], capsys
    )
    assert code == 0
    res = json.loads(out)["results"]["center"]
    assert res["dimension"] == 1 and res["contact_center_dimension_1"]


def test_cli_center_suite_reports_a_central_vector_outside_the_characteristic_space(capsys, monkeypatch):
    # e^1 on the abelian algebra: e_2, e_3, e_4 are central, annihilated by
    # the form and in its characteristic space
    argv = ["check", "--catalog", "abelian:n=4", "--suite", "center"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and json.loads(out)["results"]["center"]["central_in_characteristic_space"] is True
    # a characteristic space that lost them fails the suite
    real = suites.cartan_class

    def empty_space(form):
        return real(form)._replace(characteristic_space=Subspace(form.algebra))

    monkeypatch.setattr(suites, "cartan_class", empty_space)
    code, out, _ = run_cli(argv, capsys)
    res = json.loads(out)["results"]["center"]
    assert code == 3 and res["central_in_characteristic_space"] is False and res["ok"] is False


def test_cli_out_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["--out", str(target), "sl", "--n", "1", "--identity"], capsys
    )
    assert code == 0
    assert target.read_text() == out


def test_cli_out_to_a_directory_exits_1_with_no_report(tmp_path):
    # the report goes to --out before stdout, so a failed write prints none
    proc = subprocess.run(
        [sys.executable, "-m", "cartanlab.cli", "--out", str(tmp_path), "sl", "--n", "1", "--identity"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_cli_unknown_suite(capsys):
    # argparse refuses the suite name before any command runs
    with pytest.raises(SystemExit) as exc:
        main(["check", "--catalog", "heisenberg:p=1", "--suite", "bogus"])
    assert exc.value.code == 2 and "invalid choice" in capsys.readouterr().err


def test_cli_contract_limit_and_divergence(capsys):
    code, out, _ = run_cli(
        ["contract", "--catalog", "dim3:kind=sl2", "--exponents", "1,1,2"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["results"]["converges"]
    limit = algebra_from_dict(report["results"]["limit"])
    assert limit.same_constants(cat.heisenberg(1).algebra)

    code, out, _ = run_cli(
        ["contract", "--catalog", "heisenberg:p=1", "--exponents", "0,0,1"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert not report["results"]["converges"]
    assert report["results"]["witness"]["triple"] == [1, 2, 3]


def test_cli_contract_model_family_detection(capsys):
    code, out, _ = run_cli(
        ["contract", "--catalog", "frobenius:p=2,a=[5]", "--exponents", "0,0,0,0"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["results"]["model_family"] == ["5"]


def test_cli_contract_with_basis_change(capsys, tmp_path):
    basis = tmp_path / "swap.json"
    basis.write_text(json.dumps([["0", "1", "0"], ["1", "0", "0"], ["0", "0", "1"]]))
    code, out, _ = run_cli(
        [
            "contract",
            "--catalog",
            "dim3:kind=sl2",
            "--exponents",
            "1,1,2",
            "--basis",
            str(basis),
        ],
        capsys,
    )
    assert code == 0
    limit = algebra_from_dict(json.loads(out)["results"]["limit"])
    # swapped basis flips the sign of the surviving bracket
    assert limit.constant(1, 2, 3) == -1


def test_cli_contract_dimension_mismatch(capsys):
    code, _, err = run_cli(
        ["contract", "--catalog", "heisenberg:p=1", "--exponents", "1,1"], capsys
    )
    assert code == 2


def test_cli_sl_identity_and_reports(capsys):
    code, out, _ = run_cli(["sl", "--n", "1", "--identity"], capsys)
    assert code == 0
    res = json.loads(out)["results"]["contact_identity"]
    assert res == {"ok": True, "q": 1, "constant": "-4"}

    code, out, _ = run_cli(["sl", "--n", "1", "--reeb"], capsys)
    assert code == 0
    res = json.loads(out)["results"]["reeb"]
    assert res["omega_of_reeb_equals_det"] is True
    assert res["contraction_multiple_of_ddet"] == "-1"


def test_cli_sl_invariance_and_singular(capsys, tmp_path):
    rot = tmp_path / "rot.json"
    rot.write_text(json.dumps([["3/5", "4/5"], ["-4/5", "3/5"]]))
    code, out, _ = run_cli(["sl", "--n", "1", "--invariance", str(rot)], capsys)
    assert code == 0 and json.loads(out)["results"]["invariance"]["invariant"]

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([["2", "0"], ["0", "1/2"]]))
    code, _, err = run_cli(["sl", "--n", "1", "--invariance", str(bad)], capsys)
    assert code == 2

    point = tmp_path / "point.json"
    point.write_text(json.dumps([["1", "0"], ["0", "1"]]))
    code, out, _ = run_cli(["sl", "--n", "1", "--singular", str(point)], capsys)
    assert code == 0
    res = json.loads(out)["results"]["singular"]
    assert res["singular_point"] is False
    assert res["nonzero_pairings"] == {"1,2": "1"}


def test_cli_quarantined_catalog_id(capsys):
    code, _, err = run_cli(
        ["check", "--catalog", "mu_c9:a=[0,2,1]", "--suite", "jacobi"], capsys
    )
    assert code == 2 and "allow-nonjacobi" in err
    code, out, _ = run_cli(
        ["--allow-nonjacobi", "check", "--catalog", "mu_c9:a=[0,2,1]", "--suite", "jacobi"],
        capsys,
    )
    assert code == 3  # honest failure report with witness
    assert json.loads(out)["results"]["jacobi"]["witness"]["triple"] == [2, 3, 4]


def test_cli_report_schema_keys(capsys):
    code, out, _ = run_cli(["sl", "--n", "1", "--identity"], capsys)
    report = json.loads(out)
    assert set(report) == {"command", "argv", "inputs_digest", "seed", "results", "suite"}
    assert report["argv"] == ["sl", "--n", "1", "--identity"]
    assert len(report["inputs_digest"]) == 64


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cartanlab.cli", "class", "--catalog", "heisenberg:p=2", "--form", "0,0,0,0,1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["class"] == 5


def test_start_up_loads_no_introspection_modules():
    # `dataclasses` alone pulls in inspect, ast and dis, ~12 ms and ~0.9 MB
    # of every CLI start; `-S` keeps site's own imports out of the count
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "import sys, cartanlab, cartanlab.cli; print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60
    )
    assert proc.returncode == 0 and proc.stdout == "[]\n", (proc.stdout, proc.stderr)


@pytest.mark.parametrize(
    "argv",
    [
        ["class", "--catalog", "frobenius:p=3,a=[1,1/0]", "--form", "1,0,0,0,0,0"],
        ["class", "--catalog", "heisenberg:p=1", "--form", "1/0,0,1"],
        ["class", "--algebra", "{algebra}", "--form", "0,0,1"],
        ["sl", "--n", "1", "--invariance", "{matrix}"],
    ],
    ids=["catalog-id", "covector", "algebra-file", "matrix-file"],
)
def test_cli_zero_denominator_is_a_parse_error(argv, tmp_path):
    algebra = tmp_path / "algebra.json"
    algebra.write_text(
        json.dumps({"dim": 3, "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "re": "1/0"}]}]})
    )
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps([["1/0", "0"], ["0", "1"]]))
    argv = [a.format(algebra=algebra, matrix=matrix) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "cartanlab.cli", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "zero denominator" in proc.stderr


@pytest.mark.parametrize(
    "argv,content",
    [
        (["class", "--algebra", "{path}", "--form", "0,0,1"],
         {"dim": 3, "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "re": 0.1}]}]}),
        (["class", "--algebra", "{path}", "--form", "0,0,1"],
         {"dim": 3, "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "re": True}]}]}),
        (["sl", "--n", "1", "--invariance", "{path}"], [[{"re": 0.5}, "0"], ["0", "1"]]),
        (["class", "--algebra", "{path}", "--form", "0,0,1"],
         {"dim": 3, "brackets": [{"i": 1, "j": 2.9, "terms": [{"k": 3, "re": "1"}]}]}),
        (["class", "--algebra", "{path}", "--form", "0,0,1"],
         {"dim": 3, "brackets": [{"i": True, "j": 2, "terms": [{"k": 3, "re": "1"}]}]}),
        (["class", "--algebra", "{path}", "--form", "0,0,1"],
         {"dim": 3, "brackets": [{"i": 1, "j": 2, "terms": [{"k": "3", "re": "1"}]}]}),
    ],
    ids=["algebra-float", "algebra-bool", "matrix-float", "index-float", "index-bool", "index-string"],
)
def test_cli_json_numbers_other_than_integers_are_malformed(argv, content, tmp_path):
    # coefficients are exact and indices are integers: a JSON float or bool
    # never becomes a rational, nor a float, bool or string an index
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    proc = subprocess.run(
        [sys.executable, "-m", "cartanlab.cli", *(a.format(path=path) for a in argv)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "malformed" in proc.stderr
