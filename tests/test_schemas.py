"""The JSON schemas under schemas/ describe what the package writes.  A
validator for the draft-07 keywords those schemas use, standard library
only, checks algebra files and one report of each command against them."""

import json
import re
from pathlib import Path

import pytest

from cartanlab import catalog as cat
from cartanlab.algebra_io import AlgebraFileError, algebra_from_dict, algebra_to_dict, load_matrix_text
from cartanlab.cli import main
from cartanlab.scalars import Scalar

SCHEMAS = Path(__file__).resolve().parent.parent / "schemas"
ANNOTATIONS = {"$schema", "$id", "title", "description"}
KEYWORDS = {"type", "enum", "pattern", "minimum", "required", "properties",
            "additionalProperties", "items"}
TYPES = {"object": dict, "array": list, "string": str, "integer": int}


def _schema(name):
    return json.loads((SCHEMAS / f"{name}.schema.json").read_text(encoding="utf-8"))


def _ecma_pattern(pattern):
    """A schema pattern for Python's `re`: ECMA-262 reads an unescaped $
    (no multiline flag) as the end of the input, where Python's $ also
    matches before a final newline, so it becomes \\Z."""
    return re.sub(r"(?<!\\)\$", r"\\Z", pattern)


def violations(value, schema, path="$"):
    """Every place where value breaks schema, as "path: reason" strings.
    A keyword the validator does not read fails loudly, so a schema that
    grows one cannot pass unchecked."""
    unread = set(schema) - KEYWORDS - ANNOTATIONS
    assert not unread, f"the validator does not read {sorted(unread)} at {path}"
    kind = schema.get("type")
    if kind and (not isinstance(value, TYPES[kind]) or isinstance(value, bool)):
        return [f"{path}: {value!r} is not of type {kind}"]
    out = []
    if "enum" in schema and value not in schema["enum"]:
        out.append(f"{path}: {value!r} is not one of {schema['enum']}")
    if "pattern" in schema and not re.search(_ecma_pattern(schema["pattern"]), value):
        out.append(f"{path}: {value!r} does not match {schema['pattern']}")
    if "minimum" in schema and value < schema["minimum"]:
        out.append(f"{path}: {value!r} is below {schema['minimum']}")
    if isinstance(value, dict):
        declared = schema.get("properties", {})
        out += [f"{path}: {key!r} is missing" for key in schema.get("required", ()) if key not in value]
        for key, item in value.items():
            if key in declared:
                out += violations(item, declared[key], f"{path}.{key}")
            elif schema.get("additionalProperties") is False:
                out.append(f"{path}: {key!r} is not a declared property")
    if isinstance(value, list) and "items" in schema:
        for k, item in enumerate(value):
            out += violations(item, schema["items"], f"{path}[{k}]")
    return out


def test_the_validator_reports_each_kind_of_violation():
    schema = _schema("algebra_file")
    good = algebra_to_dict(cat.heisenberg(1).algebra)
    assert violations(good, schema) == []
    bad = json.loads(json.dumps(good))
    bad["extra"] = 1
    del bad["brackets"][0]["terms"][0]["k"]
    bad["brackets"][0]["terms"][0]["re"] = "1.5"
    bad["dim"] = True
    found = violations(bad, schema)
    assert len(found) == 4, found
    assert any("'extra' is not a declared property" in v for v in found)
    assert any("'k' is missing" in v for v in found)
    assert any("'1.5' does not match" in v for v in found)
    assert any("$.dim: True is not of type integer" in v for v in found)


def test_algebra_files_follow_their_schema():
    schema = _schema("algebra_file")
    entries = cat.standard_entries() + [cat.frobenius_model(2, [Scalar(1, -2)])]
    for entry in entries:
        assert violations(algebra_to_dict(entry.algebra), schema) == [], entry.id


def _mutated_algebra_files():
    """(label, algebra file) pairs that each break the schema in one place."""
    good = {"dim": 3, "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "re": "1", "im": "0"}]}]}
    yield "no brackets", {"dim": 3}
    for key in ("re", "im"):
        for value in ("0.5", " 1/2 ", "1e2", "1_000", "+1", 1, "1/2\n"):
            bad = json.loads(json.dumps(good))
            bad["brackets"][0]["terms"][0][key] = value
            yield f"{key} {value!r}", bad


MUTATED = list(_mutated_algebra_files())


@pytest.mark.parametrize("label,data", MUTATED, ids=[label for label, _ in MUTATED])
def test_the_loader_refuses_what_the_schema_rejects(label, data):
    # the loader holds the schema's required keys, coefficient pattern and
    # string type; a {"re", "im"} cell of a matrix file holds the same rule
    assert violations(data, _schema("algebra_file")), label
    with pytest.raises(AlgebraFileError):
        algebra_from_dict(data)
    if "brackets" in data:
        cell = {key: value for key, value in data["brackets"][0]["terms"][0].items() if key != "k"}
        with pytest.raises(AlgebraFileError):
            load_matrix_text(json.dumps([[cell]]))


def test_the_loader_reads_the_coefficients_the_schema_allows():
    terms = [{"k": 3, "re": "-3/7", "im": "2"}, {"k": 1, "re": "0"}, {"k": 2, "re": "12/8", "im": "-1"}]
    data = {"dim": 3, "brackets": [{"i": 1, "j": 2, "terms": terms}]}
    assert violations(data, _schema("algebra_file")) == []
    assert algebra_from_dict(data).pair(1, 2) == {3: Scalar("-3/7", 2), 2: Scalar("3/2", -1)}
    assert load_matrix_text('[[{"re": "-3/7", "im": "2"}, {"re": "5"}]]') == ((Scalar("-3/7", 2), Scalar(5)),)


def test_one_report_of_each_command_follows_the_report_schema(capsys):
    report_schema, algebra_schema = _schema("report"), _schema("algebra_file")
    requests = [
        ["class", "--catalog", "frobenius:p=2,a=[i]", "--form", "1,i,0,0"],
        ["check", "--catalog", "heisenberg:p=2", "--suite", "center"],
        ["contract", "--catalog", "heisenberg:p=1", "--exponents", "1,1,2"],
        ["sl", "--n", "1", "--identity"],
    ]
    for argv in requests:
        assert main(argv) == 0, argv
        report = json.loads(capsys.readouterr().out)
        assert violations(report, report_schema) == [], argv
        assert report["command"] == argv[0]
        if argv[0] == "contract":
            # a contraction limit is written as an algebra file
            assert violations(report["results"]["limit"], algebra_schema) == []
