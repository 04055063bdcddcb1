"""Excision pipeline over the extension corpus.

The headline claims: with a one-sided unit in B all six candidate
sequences are exact; without one the snake sequences still hold while
the candidates may fail; homology-side and cohomology-side exactness
always agree.
"""

import functools
import json

import pytest

from alghom import excision
from alghom.algebra import validate_extension
from alghom.complexes import check_ses
from alghom.corpus import CORPUS, FAILURE_CORPUS, UNITAL_CORPUS, build
from alghom.excision import (
    THEORIES, SurrogateNotMet, amenable_scenario_check, build_theory,
    check_bar_invariance, check_hlgy_cohlgy_equivalence, excision_report,
)
from alghom.hochschild import adapted_extension
from alghom.linalg import Matrix

from support import rebased


@functools.lru_cache(maxsize=None)
def report(name):
    return excision_report(build(name), 3)


def equivalence(name):
    return check_hlgy_cohlgy_equivalence(report(name))


@pytest.mark.parametrize("name", sorted(UNITAL_CORPUS))
def test_excision_holds_with_one_sided_unit(name):
    r = report(name)
    assert r["hypothesis"]["met"]
    assert r["hypothesis"]["bar_homology_vanishes"]
    assert r["verdict"] == "excision-exact"
    for seq in r["sequences"]:
        assert seq["exact"], seq["name"]
        for node in seq["nodes"]:
            if node["in_window"]:
                assert node["defect"] == 0
                assert node["composition_zero"]


@pytest.mark.parametrize("name", sorted(UNITAL_CORPUS))
def test_comparison_quasi_iso_under_hypothesis(name):
    r = report(name)
    for key, verdicts in r["comparison"].items():
        assert all(verdicts), key


@pytest.mark.parametrize("name", sorted(UNITAL_CORPUS))
def test_bar_invariance_under_hypothesis(name):
    r = report(name)
    assert r["bar_invariance"]["equal"]
    assert r["bar_invariance"]["HR_A"] == [0, 0, 0, 0]
    assert r["bar_invariance"]["HR_D"] == [0, 0, 0, 0]


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_snake_sequences_unconditional(name):
    for seq in report(name)["snake_sequences"]:
        assert seq["exact"], seq["name"]


@pytest.mark.parametrize("theory", THEORIES)
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_read_off_ses_is_valid(name, theory):
    """The snake SES Ker -> C(A) -> C(D) and its dual are valid by the
    read-off's construction; long_exact_sequence relies on it."""
    td = build_theory(adapted_extension(build(name)), 1, theory)
    assert check_ses(td.ses) is None
    assert check_ses(td.dual_ses()) is None


@pytest.mark.parametrize("name", sorted(FAILURE_CORPUS))
def test_excision_fails_without_unit(name):
    r = report(name)
    assert not r["hypothesis"]["met"]
    assert not r["hypothesis"]["bar_homology_vanishes"]
    assert r["verdict"] == "out-of-hypothesis-inexact"
    assert not all(s["exact"] for s in r["sequences"])
    assert not all(r["comparison"]["simplicial_quasi_iso"])


def test_nilpotent_corner_details():
    """The worked failure case: B = span{e12} with zero product inside
    the upper-triangular 2x2 matrices."""
    r = report("nilpotent_corner")
    assert r["hypothesis"]["unit"]["side"] == "none"
    assert r["hypothesis"]["bar_homology_B"] == [1, 1, 1, 1]
    # comparison fails at degree 0: H_0(B) = Q but the kernel
    # subcomplex has H_0 = 0 (e12 is a commutator in A)
    assert r["comparison"]["simplicial_quasi_iso"][0] is False
    simp = next(s for s in r["sequences"] if s["name"] == "simplicial homology")
    node = next(n for n in simp["nodes"]
                if n["group"] == "B" and n["degree"] == 0)
    assert node["defect"] == 1


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_homology_cohomology_equivalence(name):
    eq = equivalence(name)
    assert eq["equivalent"]
    assert eq["betti_duality_ok"]
    expected = ("equivalent-and-exact" if name in UNITAL_CORPUS
                else "equivalent-and-inexact")
    assert eq["verdict"] == expected


def test_bar_invariance_out_of_hypothesis_informational():
    out = check_bar_invariance(build("nilpotent_corner"), 3)
    assert out["in_hypothesis"] is False
    assert out["pass"] is None


def test_bar_invariance_unital_ambient():
    out = check_bar_invariance(build("split_product"), 3)
    assert out["pass"] is True
    assert out["A_unital_vanishing"] is True


def test_amenable_scenario_matrix_block():
    out = amenable_scenario_check(build("matrix_block"), 3)
    assert out["pass"] is True
    assert out["trace_dims"] == {"D_tr": 1, "A_tr": 2, "B_tr": 1,
                                 "H1_D": 0, "H1_A": 0}
    assert out["high_degrees_equal"]
    assert out["five_term_exact"]
    assert out["cyclic_B_pattern_ok"]


def test_amenable_scenario_commutative():
    out = amenable_scenario_check(build("two_of_three"), 3)
    assert out["pass"] is True


def test_amenable_scenario_rejects_nilpotent_ideal():
    with pytest.raises(SurrogateNotMet):
        amenable_scenario_check(build("nilpotent_corner"), 3)


def test_report_json_compatible_and_deterministic():
    import json
    r1 = excision_report(build("split_product"), 3)
    r2 = excision_report(build("split_product"), 3)
    assert json.dumps(r1) == json.dumps(r2)


def test_surrogate_note_present():
    assert "surrogate" in report("split_product")["surrogate_note"]


def test_report_rejects_negative_degree():
    with pytest.raises(ValueError):
        excision_report(build("split_product"), -1)


def _report_with(inexact=(), betti=True):
    """The fields of an excision report that the equivalence view reads:
    the six candidate sequences, exact unless named in inexact."""
    return {"sequences": [{"name": "%s %s" % (theory, side),
                           "exact": (theory, side) not in inexact}
                          for theory in THEORIES
                          for side in ("homology", "cohomology")],
            "betti_duality_ok": betti}


def test_equivalence_view_exact():
    eq = check_hlgy_cohlgy_equivalence(_report_with())
    assert eq["verdict"] == "equivalent-and-exact"
    assert eq["equivalent"] and eq["betti_duality_ok"]
    assert list(eq["theories"]) == list(THEORIES)


def test_equivalence_view_inexact():
    both = [(theory, side) for theory in ("simplicial", "cyclic")
            for side in ("homology", "cohomology")]
    eq = check_hlgy_cohlgy_equivalence(_report_with(both, betti=False))
    assert eq["verdict"] == "equivalent-and-inexact"
    assert eq["equivalent"]
    assert eq["betti_duality_ok"] is False
    assert eq["theories"]["cyclic"] == {
        "homology_exact": False, "cohomology_exact": False,
        "equivalent": True}


def test_equivalence_view_not_equivalent():
    eq = check_hlgy_cohlgy_equivalence(
        _report_with([("bar", "cohomology")]))
    assert eq["verdict"] == "not-equivalent"
    assert not eq["equivalent"]
    assert eq["theories"]["bar"] == {
        "homology_exact": True, "cohomology_exact": False,
        "equivalent": False}
    assert eq["theories"]["simplicial"]["equivalent"]


def _count_builds(monkeypatch, builder="bar_complex"):
    """Record the algebra of every call of a complex builder made by
    excision."""
    calls = []
    real = getattr(excision, builder)

    def counted(alg, *args, **kwargs):
        calls.append(alg)
        return real(alg, *args, **kwargs)

    monkeypatch.setattr(excision, builder, counted)
    return calls


def _mults(algebras):
    return [alg.mult for alg in algebras]


def test_report_builds_each_bar_complex_once(monkeypatch):
    calls = _count_builds(monkeypatch)
    ext = build("nilpotent_corner")
    r = excision_report(ext, 2)
    assert _mults(calls) == _mults([adapted_extension(ext).A])
    assert r["hypothesis"]["bar_homology_B"] == [1, 1, 1]


def test_bar_invariance_builds_each_bar_complex_once(monkeypatch):
    calls = _count_builds(monkeypatch)
    ext = build("split_product")
    out = check_bar_invariance(ext, 2)
    assert _mults(calls) == _mults([adapted_extension(ext).A])
    assert out["HR_A"] == out["HR_dual_A"] == [0, 0, 0]


def test_report_builds_one_cyclic_complex(monkeypatch):
    calls = _count_builds(monkeypatch, "cyclic_complex")
    ext = build("nilpotent_corner")
    excision_report(ext, 1)
    assert _mults(calls) == _mults([adapted_extension(ext).A])


def _without_unit_element(report):
    out = json.loads(json.dumps(report))
    del out["hypothesis"]["unit"]["element"]
    return out


@pytest.mark.parametrize("name", ["right_unital_corner",
                                  "nilpotent_augmentation"])
def test_report_is_basis_independent(name):
    """An ideal that is not spanned by basis vectors of A: the report
    is the same except for the unit element, and the adapted basis
    still puts the ideal first."""
    ext, moved = build(name), rebased(build(name))
    assert all(len(col) > 1 for col in moved.i.matrix.column_dicts())
    assert (_without_unit_element(excision_report(moved, 2))
            == _without_unit_element(excision_report(ext, 2)))
    adapted = adapted_extension(moved)
    a, b = ext.A.dim, ext.B.dim
    assert adapted.i.matrix == Matrix(a, b, {(k, k): 1 for k in range(b)})
    assert adapted.j.matrix == Matrix(a - b, a, {(k, b + k): 1
                                                 for k in range(a - b)})
    assert validate_extension(adapted) is None
