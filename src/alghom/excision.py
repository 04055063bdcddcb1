"""Excision diagnostics for an algebra extension 0 -> B -> A -> D -> 0.

The report separates three layers that must not be conflated:

  1. unconditional snake-lemma sequences built from the kernel
     subcomplex Ker(j (x) ... (x) j) -- exact for every valid extension;
  2. candidate excision sequences in which the homology of B replaces
     the homology of the kernel subcomplex through the comparison map --
     exact precisely when the comparison map is a quasi-isomorphism;
  3. the hypothesis verdicts (one-sided unit of B, vanishing of the bar
     homology of B) that guarantee layer 2.

Each theory builds one complex, C(A) (CC(A) for cyclic) of A in its
adapted basis, and reads Ker, C(B), C(D) and their maps off it; the
report reads its bar data off the bar theory.
check_hlgy_cohlgy_equivalence is a view of a report and builds nothing;
check_bar_invariance and amenable_scenario_check are standalone checks.

A finite-dimensional surrogate note is attached to every report: the
"bounded approximate identity" hypothesis is modeled as an exact
one-sided unit, and "amenable" as a unital algebra with vanishing
higher simplicial homology.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .algebra import Extension, unit_witness, validate_extension
from .complexes import (
    ChainComplex, ChainMap, LongSequence, ShortExactSequenceOfComplexes,
    assemble_sequence, cohomology_dims, connecting_homomorphism, dualize,
    dualize_map, homology_at, homology_dims, induced_map_on_homology,
    long_exact_sequence, check_quasi_isomorphism,
)
from .hochschild import (
    adapted_extension, bar_complex, cyclic_complex,
    cyclic_kernel_subcomplex, hochschild_complex, kernel_subcomplex,
    trace_space,
)
from .linalg import Matrix, format_q, rank, solve_many

SURROGATE_NOTE = (
    "finite-dimensional surrogates in effect: bounded approximate identity "
    "-> exact one-sided unit; amenable -> two-sided unit with vanishing "
    "higher simplicial homology; all exactness verdicts are exact over Q")


THEORIES = ("simplicial", "bar", "cyclic")


class SurrogateNotMet(Exception):
    """A scenario check's finite-dimensional precondition fails."""


def _require_valid(ext: Extension):
    bad = validate_extension(ext)
    if bad is not None:
        raise ValueError("invalid extension: %s"
                         % json.dumps(bad, default=format_q))


@dataclass
class TheoryData:
    """One homology theory's complexes and maps for an extension.  CA
    is the complex of the adapted A (hochschild.adapted_extension); the
    other complexes and the maps are coordinate pieces of it."""

    name: str
    CA: ChainComplex
    CB: ChainComplex
    CD: ChainComplex
    sub: ChainComplex          # kernel subcomplex inside CA
    incl: ChainMap             # sub -> CA
    comp: ChainMap             # CB -> sub (the comparison map)
    map_ba: ChainMap           # CB -> CA
    map_ad: ChainMap           # CA -> CD (degreewise surjective)

    @property
    def ses(self) -> ShortExactSequenceOfComplexes:
        """Ker -> C(A) -> C(D), valid by the read-off's construction."""
        return ShortExactSequenceOfComplexes(
            self.sub, self.CA, self.CD, self.incl, self.map_ad)

    def dual_ses(self) -> ShortExactSequenceOfComplexes:
        return ShortExactSequenceOfComplexes(
            dualize(self.CD), dualize(self.CA), dualize(self.sub),
            dualize_map(self.map_ad), dualize_map(self.incl))


def build_theory(ext: Extension, n_report: int, theory: str,
                 force: bool = False) -> TheoryData:
    """One of the three theories ('simplicial', 'bar', 'cyclic') for an
    adapted extension (hochschild.adapted_extension): builds C(A), or
    CC(A) for cyclic, and reads everything else off it by index."""
    if theory == "cyclic":
        cyclic_A = cyclic_complex(ext.A, n_report, force)
        return TheoryData(theory, cyclic_A[0],
                          *cyclic_kernel_subcomplex(ext, cyclic_A))
    if theory not in ("simplicial", "bar"):
        raise ValueError("unknown theory %r" % theory)
    build = hochschild_complex if theory == "simplicial" else bar_complex
    CA = build(ext.A, n_report, force)
    return TheoryData(theory, CA, *kernel_subcomplex(ext, CA))


def _factor_through(through: Matrix, target_map: Matrix):
    """Solve through @ X = target_map.  Returns (X or None, convention):
    'inverse' when through is invertible, 'factored' when merely
    solvable, 'unfactorable' otherwise."""
    X = solve_many(through, target_map)
    if through.rows == through.cols and rank(through) == through.rows:
        return X, "inverse"
    return X, ("factored" if X is not None else "unfactorable")


def candidate_homology_sequence(td: TheoryData, n_report: int) -> tuple:
    """Candidate excision sequence
    ... -> H_n(B) -> H_n(A) -> H_n(D) -> H_{n-1}(B) -> ... -> H_0(D) -> 0
    with the connecting map routed through the comparison map.

    Returns (LongSequence, conventions) where conventions records, per
    degree, how the candidate connecting map was obtained."""
    entries = []
    maps = []
    conventions = {}
    for n in range(n_report, -1, -1):
        entries.append(("B", n, homology_at(td.CB, n).dim))
        maps.append(induced_map_on_homology(td.map_ba, n))
        entries.append(("A", n, homology_at(td.CA, n).dim))
        maps.append(induced_map_on_homology(td.map_ad, n))
        entries.append(("D", n, homology_at(td.CD, n).dim))
        if n > 0:
            zeta = connecting_homomorphism(td.ses, n)
            through = induced_map_on_homology(td.comp, n - 1)
            X, convention = _factor_through(through, zeta)
            conventions[n] = convention
            maps.append(X)
    seq = assemble_sequence(entries, maps, genuine_top=False,
                            genuine_bottom=True,
                            window=(0, n_report - 1))
    return seq, conventions


def candidate_cohomology_sequence(td: TheoryData, n_report: int) -> tuple:
    """Candidate excision sequence
    0 -> H^0(D) -> H^0(A) -> H^0(B) -> H^1(D) -> ...
    on the dualized complexes."""
    dses = td.dual_ses()
    dual_ad = dses.inj           # dual(CD) -> dual(CA)
    dual_ba = dualize_map(td.map_ba)
    dual_comp = dualize_map(td.comp)   # dual(sub) -> dual(CB)
    N = td.CA.top_degree
    entries = []
    maps = []
    conventions = {}
    for n in range(0, n_report + 1):
        entries.append(("D", n, homology_at(dses.K, N - n).dim))
        maps.append(induced_map_on_homology(dual_ad, N - n))
        entries.append(("A", n, homology_at(dses.P, N - n).dim))
        maps.append(induced_map_on_homology(dual_ba, N - n))
        entries.append(("B", n, homology_at(dual_ba.target, N - n).dim))
        if n < n_report:
            xi = connecting_homomorphism(dses, N - n)
            through = induced_map_on_homology(dual_comp, N - n)
            # want X with X o through = xi; transpose to reuse the solver
            Xt, convention = _factor_through(through.transpose(), xi.transpose())
            conventions[n] = convention
            maps.append(Xt.transpose() if Xt is not None else None)
    seq = assemble_sequence(entries, maps, genuine_top=True,
                            genuine_bottom=False,
                            window=(0, n_report - 1))
    return seq, conventions


# -- report assembly -------------------------------------------------


def _sequence_record(name: str, seq: LongSequence, conventions=None) -> dict:
    nodes = []
    for nd in seq.nodes:
        nodes.append({
            "degree": nd.degree,
            "group": nd.label,
            "dim": nd.dim,
            "defect": nd.defect,
            "in_window": not nd.boundary,
            "composition_zero": nd.composition_zero,
        })
    rec = {"name": name, "nodes": nodes, "exact": seq.interior_exact}
    if conventions is not None:
        rec["connecting_convention"] = {str(k): v for k, v in sorted(conventions.items())}
    return rec


def _snake_records(td: TheoryData, n_report: int) -> list:
    N = td.CA.top_degree
    hom = long_exact_sequence(td.ses, 0, n_report, labels=("Ker", "A", "D"))
    coh = long_exact_sequence(td.dual_ses(), N - n_report, N,
                              labels=("D*", "A*", "Ker*"))
    # report cohomological degrees, not internal reversed ones
    for nd in coh.nodes:
        nd.degree = N - nd.degree
    return [
        _sequence_record("%s homology (kernel subcomplex)" % td.name, hom),
        _sequence_record("%s cohomology (kernel subcomplex)" % td.name, coh),
    ]


def _betti_duality_ok(td: TheoryData, n_report: int) -> bool:
    for K in (td.CB, td.CA, td.CD, td.sub):
        if homology_dims(K, n_report) != cohomology_dims(K, n_report):
            return False
    return True


def excision_report(ext: Extension, n_report: int = 3, force: bool = False) -> dict:
    """Full excision diagnostic: hypothesis verdicts, the six candidate
    long sequences with per-node defects, the unconditional snake
    sequences, comparison-map verdicts and bar invariance.

    When the hypothesis (a one-sided unit of B) is met, zero interior
    defects in all six candidates is an assertable conclusion, not an
    assumption; a nonzero defect then means the implementation is wrong
    and the verdict says so."""
    _require_valid(ext)
    adapted = adapted_extension(ext)

    sequences = []
    snake_sequences = []
    comparison = {}
    betti_ok = True
    for theory in THEORIES:
        td = build_theory(adapted, n_report, theory, force)
        hom, hconv = candidate_homology_sequence(td, n_report)
        coh, cconv = candidate_cohomology_sequence(td, n_report)
        sequences.append(_sequence_record("%s homology" % theory, hom, hconv))
        sequences.append(_sequence_record("%s cohomology" % theory, coh, cconv))
        snake_sequences.extend(_snake_records(td, n_report))
        comparison["%s_quasi_iso" % theory] = check_quasi_isomorphism(
            td.comp, n_report)
        betti_ok = betti_ok and _betti_duality_ok(td, n_report)
        if theory == "bar":
            # the vanishing of the bar homology of B is H-unitality
            bar_b = homology_dims(td.CB, n_report)
            hr_a = homology_dims(td.CA, n_report)
            hr_d = homology_dims(td.CD, n_report)

    unit = unit_witness(ext.B)
    hypothesis_met = unit.found
    hypothesis = {
        "unit": {"side": unit.side,
                 "element": [format_q(x) for x in unit.element]
                            if unit.element is not None else None},
        "bar_homology_B": bar_b,
        "met": hypothesis_met,
        "bar_homology_vanishes": all(d == 0 for d in bar_b),
    }
    bar_invariance = {
        "HR_A": hr_a,
        "HR_D": hr_d,
        "equal": hr_a == hr_d,
        "in_hypothesis": hypothesis_met,
    }

    snake_exact = all(rec["exact"] for rec in snake_sequences)
    candidates_exact = all(rec["exact"] for rec in sequences)
    if hypothesis_met:
        verdict = "excision-exact" if (candidates_exact and snake_exact
                                       and betti_ok) else "theorem-violated"
    else:
        verdict = ("out-of-hypothesis-exact" if candidates_exact
                   else "out-of-hypothesis-inexact")
        if not snake_exact or not betti_ok:
            verdict = "theorem-violated"

    return {
        "extension": {
            "dims": {"B": ext.B.dim, "A": ext.A.dim, "D": ext.D.dim},
            "n_report": n_report,
        },
        "hypothesis": hypothesis,
        "sequences": sequences,
        "snake_sequences": snake_sequences,
        "comparison": comparison,
        "bar_invariance": bar_invariance,
        "betti_duality_ok": betti_ok,
        "surrogate_note": SURROGATE_NOTE,
        "verdict": verdict,
    }


# -- equivalence and scenario checks ---------------------------------


def check_hlgy_cohlgy_equivalence(report: dict) -> dict:
    """Homology-side exactness iff cohomology-side exactness, per
    theory, over the safe window; plus the Betti-duality cross check
    that drives the equivalence.  A view of an excision_report result:
    it reads the candidate sequences' verdicts and computes nothing."""
    exact = {rec["name"]: rec["exact"] for rec in report["sequences"]}
    theories = {}
    for theory in THEORIES:
        hom = exact["%s homology" % theory]
        coh = exact["%s cohomology" % theory]
        theories[theory] = {"homology_exact": hom, "cohomology_exact": coh,
                            "equivalent": hom == coh}
    equivalent = all(t["equivalent"] for t in theories.values())
    verdict = "equivalent-and-exact"
    if not all(t["homology_exact"] for t in theories.values()):
        verdict = "equivalent-and-inexact"
    if not equivalent:
        verdict = "not-equivalent"
    return {"theories": theories, "equivalent": equivalent,
            "betti_duality_ok": report["betti_duality_ok"],
            "verdict": verdict}


def check_bar_invariance(ext: Extension, n_report: int = 3,
                         force: bool = False) -> dict:
    """dim HR_n(A) = dim HR_n(D) under the hypothesis; reported
    informationally when the hypothesis is unmet."""
    _require_valid(ext)
    td = build_theory(adapted_extension(ext), n_report, "bar", force)
    hr_a, dual_a = (homology_dims(td.CA, n_report),
                    cohomology_dims(td.CA, n_report))
    hr_d, dual_d = (homology_dims(td.CD, n_report),
                    cohomology_dims(td.CD, n_report))
    unit = unit_witness(ext.B)
    out = {
        "in_hypothesis": unit.found,
        "HR_A": hr_a, "HR_D": hr_d,
        "HR_dual_A": dual_a, "HR_dual_D": dual_d,
        "equal": hr_a == hr_d and dual_a == dual_d,
    }
    unit_a = unit_witness(ext.A)
    if unit_a.found:
        out["A_unital_vanishing"] = all(d == 0 for d in hr_a + dual_a)
    out["pass"] = out["equal"] if unit.found else None
    return out


def amenable_scenario_check(ext: Extension, n_report: int = 3,
                            force: bool = False) -> dict:
    """Consequences of an 'amenable' ideal in the finite-dimensional
    surrogate sense (B has a two-sided unit and H_n(B) = 0 for n >= 1):
    dim H^n(A) = dim H^n(D) for n >= 2, the five-term trace sequence
    0 -> D^tr -> A^tr -> B^tr -> H^1(D) -> H^1(A) -> 0 is exact, and
    the cyclic six-term pattern holds."""
    _require_valid(ext)
    adapted = adapted_extension(ext)
    td = build_theory(adapted, n_report, "simplicial", force)
    unit = unit_witness(ext.B)
    hb = homology_dims(td.CB, n_report)
    if ext.B.dim > 0 and (unit.side != "two-sided"
                          or any(d != 0 for d in hb[1:])):
        raise SurrogateNotMet(
            "ideal is not amenable in the surrogate sense "
            "(two-sided unit + vanishing higher homology); unit=%s, H=%r"
            % (unit.side, hb))

    seq, _ = candidate_cohomology_sequence(td, n_report)
    coh_a = cohomology_dims(td.CA, n_report)
    coh_d = cohomology_dims(td.CD, n_report)
    coh_b = cohomology_dims(td.CB, n_report)
    high_equal = all(coh_a[n] == coh_d[n] for n in range(2, n_report + 1))

    tr_b = trace_space(ext.B).dim
    tr_a = trace_space(ext.A).dim
    tr_d = trace_space(ext.D).dim
    # the five-term sequence is the head of the cohomology candidate,
    # truncated by H^1(B) = 0
    five_nodes = [nd for nd in seq.nodes if nd.degree <= 1]
    five_exact = (coh_b[1] == 0 if n_report >= 1 else True)
    for nd in five_nodes:
        if nd.degree == 1 and nd.label == "B":
            continue
        if nd.defect is None:
            if not (nd.degree == 1 and nd.label == "A"):
                five_exact = False
            continue
        if nd.defect != 0 or not nd.composition_zero:
            five_exact = False
    # surjectivity onto H^1(A): the defect at node (A, 1) covers it when
    # H^1(B) = 0 (its outgoing map then has full kernel)
    trace_dims = {"D_tr": tr_d, "A_tr": tr_a, "B_tr": tr_b,
                  "H1_D": coh_d[1] if n_report >= 1 else None,
                  "H1_A": coh_a[1] if n_report >= 1 else None}

    # cyclic pattern: HC^even(B) has the trace dimension, HC^odd(B) = 0,
    # and the cyclic cohomology candidate is exact in the window
    tdc = build_theory(adapted, n_report, "cyclic", force)
    cseq, _ = candidate_cohomology_sequence(tdc, n_report)
    hc_b = cohomology_dims(tdc.CB, n_report)
    pattern_ok = all(
        (hc_b[n] == tr_b if n % 2 == 0 else hc_b[n] == 0)
        for n in range(n_report + 1))
    cyc_rec = _sequence_record("cyclic cohomology", cseq)

    ok = high_equal and five_exact and pattern_ok and cyc_rec["exact"]
    return {
        "surrogate": "two-sided unit + vanishing higher simplicial homology",
        "H_dual_A": coh_a, "H_dual_D": coh_d, "H_dual_B": coh_b,
        "high_degrees_equal": high_equal,
        "trace_dims": trace_dims,
        "five_term_exact": five_exact,
        "cyclic_B_pattern_ok": pattern_ok,
        "cyclic_candidate_exact": cyc_rec["exact"],
        "pass": ok,
    }
