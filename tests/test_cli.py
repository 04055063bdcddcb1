"""Command-line interface: exit codes, output formats, report parity."""

import json
import os
import subprocess
import sys
import time

import pytest

import alghom
from alghom import cli, complexes, excision
from alghom.algebra import UnitWitness, preset
from alghom.cli import main
from alghom.complexes import LiftFailure
from alghom.corpus import _coordinate_ideal, build
from alghom.excision import check_bar_invariance, excision_report
from alghom.fileio import dump_document, load_document
from alghom.linalg import Q

from support import excision_cli_digests

CLI_DIGESTS = os.path.join(os.path.dirname(__file__), "data",
                           "cli_digests.json")


@pytest.fixture
def m2_file(tmp_path):
    path = tmp_path / "m2.json"
    path.write_text(json.dumps({"preset": "matrix", "k": 2}))
    return str(path)


@pytest.fixture
def e1_file(tmp_path):
    path = tmp_path / "e1.json"
    dump_document(build("split_product"), str(path))
    return str(path)


@pytest.fixture
def e2_file(tmp_path):
    path = tmp_path / "e2.json"
    dump_document(build("nilpotent_corner"), str(path))
    return str(path)


# A = span{e0, e1} with e1 e1 = e0 + e1 and e1 e0 = e0 is not associative:
# (e1 e1) e1 = e0 + e1 but e1 (e1 e1) = 2 e0 + e1.  B and D are fine and
# i, j are multiplicative, so only the associativity check catches it.
NON_ASSOCIATIVE_A = {"dim": 2, "mult": [[1, 1, {"1": "1", "0": "1"}],
                                        [1, 0, {"0": "1"}]]}


@pytest.fixture
def non_associative_ext_file(tmp_path):
    path = tmp_path / "nonassoc_ext.json"
    path.write_text(json.dumps({
        "B": {"dim": 1, "mult": []},
        "A": NON_ASSOCIATIVE_A,
        "D": {"dim": 1, "mult": [[0, 0, {"0": "1"}]]},
        "i": [["1"], ["0"]], "j": [["0", "1"]]}))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_preset(capsys, m2_file):
    code, out, _ = run(capsys, "validate", m2_file)
    assert code == 0
    assert "valid algebra" in out


def test_validate_corrupted_algebra(capsys, tmp_path):
    path = tmp_path / "bad_alg.json"
    # x*x = 1 with 1 not idempotent-consistent: associativity fails
    path.write_text(json.dumps({
        "dim": 2, "basis": ["u", "x"],
        "mult": [[1, 1, {"0": "1"}], [0, 1, {"1": "1"}]]}))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert "triple" in out


def test_validate_malformed_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ nope")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "line" in err


def test_homology_text(capsys, m2_file):
    code, out, _ = run(capsys, "homology", m2_file)
    assert code == 0
    assert "H₀ = 1" in out and "H₁ = 0" in out


def test_homology_cyclic_json(capsys, tmp_path):
    path = tmp_path / "field.json"
    path.write_text(json.dumps({"preset": "field"}))
    code, out, _ = run(capsys, "homology", str(path), "--theory", "cyclic",
                       "--max-degree", "4", "--format", "json")
    assert code == 0
    assert json.loads(out)["dims"] == [1, 0, 1, 0, 1]


def test_homology_dual_superscripts(capsys, m2_file):
    code, out, _ = run(capsys, "homology", m2_file, "--dual")
    assert code == 0
    assert "H⁰ = 1" in out


def test_homology_bar_zero_mult(capsys, tmp_path):
    path = tmp_path / "z.json"
    path.write_text(json.dumps({"preset": "zero_mult", "d": 1}))
    code, out, _ = run(capsys, "homology", str(path), "--theory", "bar",
                       "--format", "json")
    assert json.loads(out)["dims"] == [1, 1, 1, 1]


def test_trace(capsys, m2_file):
    code, out, _ = run(capsys, "trace", m2_file)
    assert code == 0
    assert "dimension 1" in out


def test_degree_cap_exit(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"preset": "zero_mult", "d": 16}))
    code, _, err = run(capsys, "homology", str(path))
    assert code == 3
    assert "cap" in err


def test_excision_e1(capsys, e1_file):
    code, out, _ = run(capsys, "excision", e1_file)
    assert code == 0
    assert "verdict: excision-exact" in out
    assert out.count(": exact") >= 6


def test_excision_e2_warns(capsys, e2_file):
    code, out, _ = run(capsys, "excision", e2_file)
    assert code == 0
    assert "UNMET" in out
    assert "warning" in out
    assert "verdict: out-of-hypothesis-inexact" in out


def test_excision_b_equals_a(capsys, tmp_path):
    path = tmp_path / "full.json"
    dump_document(build("full_ideal"), str(path))
    code, out, _ = run(capsys, "excision", str(path))
    assert code == 0
    assert "verdict: excision-exact" in out


def test_excision_json_roundtrip(capsys, e1_file):
    """The CLI's JSON output re-parses to exactly the internal report."""
    code, out, _ = run(capsys, "excision", e1_file, "--format", "json")
    assert code == 0
    report = excision_report(build("split_product"), 3)
    assert json.loads(out) == json.loads(json.dumps(report))


def test_report_determinism(capsys, e1_file):
    _, out1, _ = run(capsys, "excision", e1_file, "--format", "json")
    _, out2, _ = run(capsys, "excision", e1_file, "--format", "json")
    assert out1 == out2


def test_validate_rejects_non_associative_extension(capsys,
                                                    non_associative_ext_file):
    code, out, _ = run(capsys, "validate", non_associative_ext_file)
    assert code == 1
    assert "A associative" in out
    assert len(out.strip().splitlines()) == 1


def test_excision_rejects_non_associative_extension(capsys,
                                                    non_associative_ext_file):
    code, out, err = run(capsys, "excision", non_associative_ext_file)
    assert code == 1
    assert out == ""
    assert "A associative" in err
    assert len(err.strip().splitlines()) == 1


def test_bar_invariance_rejects_non_associative_extension(
        non_associative_ext_file):
    _, ext = load_document(non_associative_ext_file)
    with pytest.raises(ValueError, match="A associative"):
        check_bar_invariance(excision_report(ext, 1))


@pytest.mark.parametrize("command", ["validate", "excision"])
def test_invalid_extension_message_renders_rationals(
        capsys, non_associative_ext_file, command):
    code, out, err = run(capsys, command, non_associative_ext_file)
    assert code == 1
    message = out + err
    assert '"0": "2"' in message
    assert "Fraction(" not in message


def test_homology_rejects_non_associative_algebra(capsys, tmp_path):
    path = tmp_path / "nonassoc.json"
    path.write_text(json.dumps(NON_ASSOCIATIVE_A))
    code, out, err = run(capsys, "homology", str(path))
    assert code == 1
    assert out == ""
    assert "associativ" in err
    assert len(err.strip().splitlines()) == 1


def test_trace_rejects_non_associative_algebra(capsys, tmp_path):
    path = tmp_path / "nonassoc.json"
    path.write_text(json.dumps(NON_ASSOCIATIVE_A))
    code, out, err = run(capsys, "trace", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: not an associative algebra")
    assert len(err.strip().splitlines()) == 1


# (theory, the check_complex call that fails, the complex it names)
BROKEN_BUILDS = [("hochschild", 1, "simplicial complex"),
                 ("bar", 1, "bar complex"),
                 ("cyclic", 1, "simplicial complex")]


@pytest.mark.parametrize("theory, failing_call, what", BROKEN_BUILDS)
def test_built_non_complex_exits_one(capsys, monkeypatch, m2_file, theory,
                                     failing_call, what):
    """A complex that fails check_complex exits 1 with one line naming
    the layer, the complex and the degree, never a traceback."""
    calls = []

    def broken(K):
        calls.append(K)
        if len(calls) == failing_call:
            return (1, {"entry": (0, 3), "value": Q(-1, 2)})
        return None
    monkeypatch.setattr(complexes, "check_complex", broken)
    code, out, err = run(capsys, "homology", m2_file, "--theory", theory)
    assert code == 1
    assert out == ""
    assert err.strip().splitlines() == [
        "internal invariant failed in layer complexes: NotAComplex: %s is "
        "not a complex at degree 1: d_1 d_2 has entry -1/2 at (0, 3)" % what]


@pytest.mark.parametrize("command", ["homology", "excision"])
def test_negative_max_degree_is_usage_error(capsys, m2_file, e1_file, command):
    path = m2_file if command == "homology" else e1_file
    with pytest.raises(SystemExit) as exc:
        main([command, path, "--max-degree", "-3"])
    assert exc.value.code == 2
    assert "--max-degree" in capsys.readouterr().err


def test_internal_invariant_failure_exits_one(capsys, monkeypatch, e1_file):
    def broken(*args, **kwargs):
        raise LiftFailure("cycle of L in degree 2\nhas no preimage")
    monkeypatch.setattr(cli, "excision_report", broken)
    code, out, err = run(capsys, "excision", e1_file)
    assert code == 1
    assert out == ""
    assert err.strip().splitlines() == [
        "internal invariant failed in layer complexes: LiftFailure: "
        "cycle of L in degree 2 has no preimage"]


def test_contraction_failure_exits_one(capsys, monkeypatch, e1_file):
    """A unit whose homotopy does not contract the bar complex is a bug:
    here A = Q x Q's unit (1, 1) loses its second term, and the bar
    layer's check names the degree on one line."""
    real = excision.unit_witness

    def dropped(alg):
        w = real(alg)
        return UnitWitness(w.side, w.element[:1] + [0] * (alg.dim - 1))

    monkeypatch.setattr(excision, "unit_witness", dropped)
    code, out, err = run(capsys, "excision", e1_file)
    assert code == 1
    assert out == ""
    assert err.strip().splitlines() == [
        "internal invariant failed in layer hochschild: ContractionFailure: "
        "bar complex is not contracted by its two-sided unit at degree 0: "
        "d_0 s_0 has entry 0 at (1, 1)"]


# (descriptor, the parameter its error must name)
BAD_PRESETS = [
    pytest.param({"preset": "matrix"}, "k", id="missing-k"),
    pytest.param({"preset": "direct_sum", "a": {"preset": "field"}}, "b",
                 id="missing-b"),
    pytest.param({"preset": "direct_sum", "a": 3, "b": {"preset": "field"}},
                 "a", id="a-not-an-algebra"),
    pytest.param({"preset": "matrix", "k": 2.7}, "k", id="k-not-an-integer"),
    pytest.param({"preset": "zero_mult", "d": 1, "q": 1}, "q", id="unknown-q"),
    pytest.param({"dim": True, "mult": []}, "dim", id="dim-boolean"),
]


@pytest.mark.parametrize("command", ["homology", "excision"])
@pytest.mark.parametrize("bad, param", BAD_PRESETS)
def test_bad_preset_descriptor_is_parse_error(capsys, tmp_path, command,
                                              bad, param):
    """A bad algebra descriptor, alone or as the B of an extension,
    exits 2 with one line naming the parameter, never a traceback."""
    doc = bad
    if command == "excision":
        doc = {"B": bad, "A": {"preset": "field"}, "D": {"preset": "field"},
               "i": [["1"]], "j": [["1"]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("parse error: ")
    assert len(err.strip().splitlines()) == 1
    # the reason follows the echoed descriptor
    reason = err.rsplit("}: ", 1)[-1]
    assert ("'%s'" % param if bad.get("preset") else param) in reason


@pytest.mark.parametrize("command", ["validate", "homology", "trace",
                                     "excision"])
@pytest.mark.parametrize("mult", [None, 7, {"0": []}],
                         ids=["null", "number", "object"])
@pytest.mark.parametrize("where", ["algebra", "extension-B"])
def test_non_list_mult_is_parse_error(capsys, tmp_path, command, mult, where):
    """A "mult" that is not a list exits 2 with one line naming mult,
    alone or as the B of an extension, never a traceback."""
    bad = {"dim": 0 if where == "extension-B" else 1, "mult": mult}
    doc = bad
    if where == "extension-B":
        doc = {"B": bad, "A": {"preset": "field"}, "D": {"preset": "field"},
               "i": [[]], "j": [["1"]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("parse error: mult must be a list")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["validate", "homology", "trace",
                                     "excision"])
def test_non_utf8_file_is_parse_error(capsys, tmp_path, command):
    """A file that is not UTF-8 text exits 2 with one line naming it."""
    path = tmp_path / "latin1.json"
    path.write_bytes('{"dim": 1, "basis": ["\u00e9"], "mult": []}'
                     .encode("latin-1"))
    code, out, err = run(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("parse error: %s: not UTF-8 text" % path)
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("mult", [
    [[True, 0, {"1": "1"}]], [[0, 0, {"1_0": "1"}]],
    [[0, 0, {"1": "1", "01": "2"}]], [[0, 0, {"1": "1_000"}]]],
    ids=["bool-index", "underscore-key", "two-spellings", "underscore-q"])
def test_lenient_index_or_rational_is_parse_error(capsys, tmp_path, mult):
    """Indices and rationals that algebra_to_obj would never write exit
    2 with one line, instead of being read as some other algebra."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 11, "mult": mult}))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("parse error: mult")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("text", [
    '{"dim": 1, "mult": [[0, 0, {"0": %s}]]}' % ("7" * 5000),
    "[" * 100000 + "]" * 100000], ids=["long-integer", "deep-nesting"])
def test_unreadable_json_is_parse_error(capsys, tmp_path, text):
    """JSON that json.load rejects without a JSONDecodeError (an integer
    past the int-string limit, nesting past the recursion limit) exits
    2 with one line naming the file."""
    path = tmp_path / "unreadable.json"
    path.write_text(text)
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("parse error: %s: " % path)
    assert len(err.strip().splitlines()) == 1


def preset_chain(depth: int) -> str:
    """A field nested depth deep as the left summand of direct_sum, with
    zero_mult(0) right summands: the conversion recurses once a level."""
    right = '{"preset": "zero_mult", "d": 0}'
    return ('{"preset": "direct_sum", "a": ' * depth + '{"preset": "field"}'
            + (', "b": %s}' % right) * depth)


def assert_one_parse_error(path, code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("parse error: %s: " % path)
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("depth", [986, 5000])
def test_deep_preset_chain_is_parse_error(capsys, tmp_path, depth):
    """A preset chain that json.load or the preset conversion cannot
    recurse through exits 2 with one line naming the file."""
    path = tmp_path / "chain.json"
    path.write_text(preset_chain(depth))
    assert_one_parse_error(path, *run(capsys, "validate", str(path)))


def test_preset_chains_are_read_or_refused_in_one_line(capsys, tmp_path):
    """Just inside json.load's recursion limit the conversion, which
    needs a few more frames, runs out first.  Walking down from 1,000
    levels to the first chain that is read, every chain on the way is
    refused with one parse error line, never a traceback."""
    path = tmp_path / "chain.json"
    for depth in range(1000, 0, -1):
        path.write_text(preset_chain(depth))
        code, out, err = run(capsys, "validate", str(path))
        if code == 0:
            assert out == "valid algebra: dim 1\n"
            break
        assert_one_parse_error(path, code, out, err)
    assert depth > 500


def test_degree_cap_refusal_text(capsys, tmp_path):
    """A count of few digits is printed in full."""
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"preset": "zero_mult", "d": 16}))
    code, _, err = run(capsys, "homology", str(path))
    assert code == 3
    assert err == ("degree cap exceeded: degree 5 over a 16-dimensional "
                   "algebra needs 16777216 basis tensors (cap 1000000); "
                   "pass force to override\n")


def test_degree_cap_at_a_huge_degree(capsys, tmp_path):
    """The cap refuses a degree whose tensor count has thousands of
    digits at once, and prints the count as d^k."""
    path = tmp_path / "two.json"
    path.write_text(json.dumps({"preset": "direct_sum", "a": {"preset": "field"},
                                "b": {"preset": "field"}}))
    start = time.perf_counter()
    code, out, err = run(capsys, "homology", str(path), "--max-degree", "20000")
    assert time.perf_counter() - start < 1
    assert code == 3
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "cap" in err and "needs 2^20003 basis tensors" in err


def test_degree_cap_of_an_algebra_with_no_products(capsys, tmp_path):
    """Associativity is checked only where a side can be nonzero, and
    only the j with a nonzero product are visited, so an algebra with no
    products reaches the cap at once: not after the 27 million basis
    triples of d = 300, nor the 10^10 pairs (i, j) of d = 100,000."""
    for d, tensors in [(300, 729000000000000), (100000, 10 ** 30)]:
        path = tmp_path / ("z%d.json" % d)
        path.write_text(json.dumps({"preset": "zero_mult", "d": d}))
        start = time.perf_counter()
        code, out, err = run(capsys, "homology", str(path))
        assert time.perf_counter() - start < 2
        assert (code, out) == (3, "")
        assert err == ("degree cap exceeded: degree 5 over a %d-dimensional "
                       "algebra needs %d basis tensors (cap 1000000); pass "
                       "force to override\n" % (d, tensors))


def test_an_extension_over_the_cap_is_refused_quickly(capsys, tmp_path):
    """A valid extension of zero_mult(300) by its first 299 coordinates
    is refused by the degree cap after validation and the unit search
    of B, whose equations are read off the nonzero products: not after
    the 299^3 index triples of the unit equations."""
    ext = _coordinate_ideal(preset("zero_mult", d=300), range(299))
    path = tmp_path / "z300.json"
    dump_document(ext, str(path))
    start = time.perf_counter()
    code, out, err = run(capsys, "excision", str(path))
    assert time.perf_counter() - start < 5
    assert (code, out) == (3, "")
    assert err == ("degree cap exceeded: degree 5 over a 300-dimensional "
                   "algebra needs 729000000000000 basis tensors (cap "
                   "1000000); pass force to override\n")


def test_excision_output_matches_recorded_digests(tmp_path):
    """The exit code, stdout and stderr of `alghom excision F
    --max-degree D --format json|text` for the nine corpus files and
    D = 0..3, run through main in process, hash to the digests recorded
    in tests/data/cli_digests.json before the read-off's coordinate maps
    were built by _restrict: the text rendering, the indented JSON and
    the exit codes stay byte-identical, not only the report dict."""
    with open(CLI_DIGESTS) as fh:
        recorded = json.load(fh)
    assert excision_cli_digests(tmp_path) == recorded


def test_cli_as_a_process_exits_with_its_codes(tmp_path, m2_file):
    """python -m alghom.cli runs entry(), whose exit status is main's
    code: 0 validates a preset, 1 refuses a non-associative algebra, 2 a
    malformed file and 3 a degree over the cap, each refusal on one
    stderr line with no traceback."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(alghom.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    nonassoc, malformed, big = (tmp_path / name for name in
                                ("nonassoc.json", "bad.json", "big.json"))
    nonassoc.write_text(json.dumps(NON_ASSOCIATIVE_A))
    malformed.write_text("{not json")
    big.write_text(json.dumps({"preset": "zero_mult", "d": 16}))
    cases = [(["validate", m2_file], 0, ""),
             (["homology", str(nonassoc)], 1, "error: not an associative"),
             (["validate", str(malformed)], 2, "parse error: "),
             (["homology", str(big)], 3, "degree cap exceeded: ")]
    for argv, code, starts in cases:
        proc = subprocess.run([sys.executable, "-m", "alghom.cli"] + argv,
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == code, (argv, proc.stderr)
        if code == 0:
            assert (proc.stdout, proc.stderr) == ("valid algebra: dim 4\n", "")
            continue
        assert proc.stdout == "" and "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith(starts)
