"""JSON document formats: round-trips, presets, error reporting."""

import json

import pytest

from alghom.algebra import validate_algebra, validate_extension
from alghom.corpus import CORPUS, build
from alghom.fileio import (
    ParseError, algebra_from_obj, algebra_to_obj, dump_document,
    extension_from_obj, extension_to_obj, load_document,
)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_extension_roundtrip(name, tmp_path):
    ext = build(name)
    path = tmp_path / "ext.json"
    dump_document(ext, str(path))
    kind, back = load_document(str(path))
    assert kind == "extension"
    assert validate_extension(back) is None
    assert back.A.mult == ext.A.mult
    assert back.B.mult == ext.B.mult
    assert back.i.matrix == ext.i.matrix
    assert back.j.matrix == ext.j.matrix


def test_algebra_roundtrip():
    from alghom.algebra import preset
    A = preset("truncated_poly", m=4)
    obj = algebra_to_obj(A)
    # everything serializable and rationals are strings
    json.dumps(obj)
    back = algebra_from_obj(obj)
    assert back.mult == A.mult
    assert back.basis_names == A.basis_names


def test_preset_descriptor():
    alg = algebra_from_obj({"preset": "matrix", "k": 2})
    assert alg.dim == 4
    assert validate_algebra(alg) == []


def test_nested_preset_descriptor():
    alg = algebra_from_obj({"preset": "direct_sum",
                            "a": {"preset": "field"},
                            "b": {"preset": "matrix", "k": 2}})
    assert alg.dim == 5


def test_rational_strings_parsed_exactly():
    obj = {"dim": 1, "basis": ["x"], "mult": [[0, 0, {"0": "2/3"}]]}
    alg = algebra_from_obj(obj)
    from alghom.linalg import Q
    assert alg.mult[(0, 0)][0] == Q(2, 3)


@pytest.mark.parametrize("bad", [
    {"dim": "x", "mult": []},
    {"dim": 1, "mult": [[0, 0, {"5": "1"}]]},           # index out of range
    {"dim": 1, "mult": [[0, 0, {"0": 0.5}]]},            # float rational
    {"dim": 1, "mult": [[0, 0, {"0": "1"}], [0, 0, {"0": "2"}]]},  # dup
    {"preset": "no_such_preset"},
    [1, 2, 3],
    {"dim": 2, "mult": [[True, 0, {"1": "1"}]]},          # bool index
    {"dim": 2, "mult": [[0, False, {"1": "1"}]]},
    # target keys that algebra_to_obj never writes
    {"dim": 11, "mult": [[0, 0, {"1_0": "1"}]]},
    {"dim": 2, "mult": [[0, 0, {" 1": "1"}]]},
    {"dim": 2, "mult": [[0, 0, {"+1": "1"}]]},
    {"dim": 2, "mult": [[0, 0, {"\u0661": "1"}]]},        # Arabic-Indic 1
    {"dim": 2, "mult": [[0, 0, {"1": "1", "01": "2"}]]},   # one target twice
    # rationals with an underscore or a non-ASCII digit
    {"dim": 2, "mult": [[0, 0, {"1": "1_000"}]]},
    {"dim": 2, "mult": [[0, 0, {"1": "\u0661/2"}]]},
])
def test_malformed_algebra_objects(bad):
    with pytest.raises(ParseError):
        algebra_from_obj(bad)


def test_every_formatted_rational_parses_back():
    from alghom.linalg import Q, format_q, parse_q
    for x in [Q(0), Q(7), Q(-7), Q(2, 3), Q(-10 ** 30, 7)]:
        assert parse_q(format_q(x)) == x
    obj = {"dim": 11, "mult": [[10, 0, {"10": "-3/4", "0": 5}]]}
    assert algebra_to_obj(algebra_from_obj(obj))["mult"] == [
        [10, 0, {"0": "5", "10": "-3/4"}]]


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ this is not json")
    with pytest.raises(ParseError) as exc:
        load_document(str(path))
    assert "line" in str(exc.value)


def test_extension_missing_field():
    obj = extension_to_obj(build("split_product"))
    del obj["j"]
    with pytest.raises(ParseError):
        extension_from_obj(obj)


def test_extension_wrong_matrix_shape():
    obj = extension_to_obj(build("split_product"))
    obj["i"] = [["1"]]
    with pytest.raises(ParseError):
        extension_from_obj(obj)
