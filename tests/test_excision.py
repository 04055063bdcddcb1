"""Excision pipeline over the extension corpus.

The headline claims: with a one-sided unit in B all six candidate
sequences are exact; without one the snake sequences still hold while
the candidates may fail; homology-side and cohomology-side exactness
always agree.
"""

import functools

import pytest

from alghom.corpus import CORPUS, FAILURE_CORPUS, UNITAL_CORPUS, build
from alghom.excision import (
    SurrogateNotMet, amenable_scenario_check, check_bar_invariance,
    check_hlgy_cohlgy_equivalence, excision_report,
    traceless_scenario_check,
)


@functools.lru_cache(maxsize=None)
def report(name):
    return excision_report(build(name), 3)


@functools.lru_cache(maxsize=None)
def equivalence(name):
    return check_hlgy_cohlgy_equivalence(build(name), 3)


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


def test_amenable_quotient_variant():
    out = amenable_scenario_check(build("split_product"), 3,
                                  variant="quotient")
    assert out["variant"] == "quotient"
    assert out["high_degrees_equal"]
    assert out["pass"] is None


def test_traceless_scenario_never_met_on_presets():
    """No nonzero finite-dimensional rational algebra is unital with a
    zero trace space and vanishing homology; the check documents this."""
    for name in sorted(CORPUS):
        ext = build(name)
        if ext.B.dim == 0:
            continue
        with pytest.raises(SurrogateNotMet):
            traceless_scenario_check(ext, 3)


def test_traceless_scenario_vacuous_for_zero_ideal():
    out = traceless_scenario_check(build("zero_ideal"), 3)
    assert out["pass"] is True


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
