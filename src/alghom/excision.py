"""Excision diagnostics for an algebra extension 0 -> B -> A -> D -> 0.

The report separates three layers that must not be conflated:

  1. unconditional snake-lemma sequences built from the kernel
     subcomplex Ker(j (x) ... (x) j) -- exact for every valid extension;
  2. candidate excision sequences in which the homology of B replaces
     the homology of the kernel subcomplex through the comparison map --
     exact precisely when the comparison map is a quasi-isomorphism;
  3. the hypothesis verdicts (one-sided unit of B, vanishing of the bar
     homology of B) that guarantee layer 2.

Each theory has one complex of A in its adapted basis, C(A) for
simplicial, bar C(A) for bar, and reads Ker, C(B), C(D) and their maps
off it.  The cyclic theory does not build: its CC(A) is Connes' complex
relabelled from the simplicial C(A) (hochschild.connes_complex).  Each
theory induces its homology maps once: the candidate sequences reuse
the snake sequences' maps and connecting maps, with H(B) reached
through the comparison map, whose induced maps also give the
quasi-isomorphism verdicts.  excision_report reads each theory into its
four sequence records, and drops it before the next one builds; every
other number of the report is read off those records.
check_hlgy_cohlgy_equivalence, check_bar_invariance and
amenable_scenario_check are views of a report and build nothing.

A finite-dimensional surrogate note is attached to every report: the
"bounded approximate identity" hypothesis is modeled as an exact
one-sided unit, and "amenable" as a unital algebra with vanishing
higher simplicial homology.
"""

from __future__ import annotations

import json

from .algebra import Extension, UnitWitness, unit_witness, validate_extension
from .complexes import (
    LongSequence, assemble_sequence, check_quasi_isomorphism, dualize_map,
    induced_map_on_homology, long_exact_sequence,
)
from .hochschild import (
    TheoryData, adapted_extension, bar_complex, certify_acyclic,
    check_degree_cap, connes_complex, cyclic_kernel_subcomplex,
    hochschild_complex, kernel_subcomplex,
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


def build_theory(ext: Extension, n_report: int, theory: str,
                 force: bool = False, unit_B: UnitWitness | None = None
                 ) -> TheoryData:
    """One of the three theories ('simplicial', 'bar', 'cyclic') for an
    adapted extension (hochschild.adapted_extension): builds C(A), the
    bar complex for bar, and reads the rest off it, or off CC(A).

    The bar C(A) is certified acyclic with A's unit before the read-off
    hands that record to Ker and C(D), and C(B) with unit_B, B's unit
    witness (found here when not given).  C(B)'s coordinates are the
    flat indices of B's own bar complex, as B slots are the indices
    below dim B, so B's unit acts on them as on that complex."""
    if theory not in THEORIES:
        raise ValueError("unknown theory %r" % theory)
    build = bar_complex if theory == "bar" else hochschild_complex
    CA = build(ext.A, n_report, force)
    if theory == "cyclic":
        return cyclic_kernel_subcomplex(ext, connes_complex(CA))
    if theory == "simplicial":
        return kernel_subcomplex(ext, CA)
    certify_acyclic(CA, unit_witness(ext.A))
    td = kernel_subcomplex(ext, CA)
    certify_acyclic(td.CB, unit_witness(ext.B) if unit_B is None else unit_B)
    return td


def _factor_through(through: Matrix, target_map: Matrix):
    """Solve through @ X = target_map.  Returns (X or None, convention):
    'inverse' when through is invertible, 'factored' when merely
    solvable, 'unfactorable' otherwise."""
    X = solve_many(through, target_map)
    if through.rows == through.cols and rank(through) == through.rows:
        return X, "inverse"
    return X, ("factored" if X is not None else "unfactorable")


def candidate_homology_sequence(snake: LongSequence, h_comp) -> tuple:
    """Candidate excision sequence
    ... -> H_n(B) -> H_n(A) -> H_n(D) -> H_{n-1}(B) -> ... -> H_0(D) -> 0:
    the snake sequence of Ker -> C(A) -> C(D) over degrees 0..n_report
    with H(Ker) replaced by H(B) through h_comp[n], the matrix of
    H_n(comp).  H_n(B -> A) is H_n(incl) @ H_n(comp), and the connecting
    map is the snake's routed through H_{n-1}(comp).

    Returns (LongSequence, conventions) where conventions records, per
    degree, how the candidate connecting map was obtained."""
    n_report = len(h_comp) - 1
    entries, maps, conventions = [], [], {}
    for k, n in enumerate(range(n_report, -1, -1)):
        incl, ad, *zeta = snake.maps[3 * k:3 * k + 3]
        a, d = snake.nodes[3 * k + 1:3 * k + 3]
        entries += [("B", n, h_comp[n].cols), ("A", n, a.dim), ("D", n, d.dim)]
        maps += [incl @ h_comp[n], ad]
        if zeta:
            X, conventions[n] = _factor_through(h_comp[n - 1], zeta[0])
            maps.append(X)
    seq = assemble_sequence(entries, maps, genuine_top=False,
                            genuine_bottom=True,
                            window=(0, n_report - 1))
    return seq, conventions


def candidate_cohomology_sequence(snake: LongSequence, h_dual_comp) -> tuple:
    """Candidate excision sequence
    0 -> H^0(D) -> H^0(A) -> H^0(B) -> H^1(D) -> ...
    on the dualized complexes: the dual snake sequence D* -> A* -> Ker*
    from cohomological degree 0 up to n_report, with H(Ker*) replaced by
    H(B*) through h_dual_comp[n], the matrix of H^n(dual comp)."""
    n_report = len(h_dual_comp) - 1
    entries, maps, conventions = [], [], {}
    for n, through in enumerate(h_dual_comp):
        ad, incl, *xi = snake.maps[3 * n:3 * n + 3]
        d, a = snake.nodes[3 * n:3 * n + 2]
        entries += [("D", n, d.dim), ("A", n, a.dim), ("B", n, through.rows)]
        maps += [ad, through @ incl]
        if xi:
            # want X with X o through = xi; transpose to reuse the solver
            Xt, conventions[n] = _factor_through(through.transpose(),
                                                 xi[0].transpose())
            maps.append(Xt.transpose() if Xt is not None else None)
    seq = assemble_sequence(entries, maps, genuine_top=True,
                            genuine_bottom=False,
                            window=(0, n_report - 1))
    return seq, conventions


# -- report assembly -------------------------------------------------


def _sequence_record(name: str, seq: LongSequence, conventions=None) -> dict:
    rec = {"name": name, "nodes": [dict(vars(nd)) for nd in seq.nodes],
           "exact": seq.interior_exact}
    if conventions is not None:
        rec["connecting_convention"] = {str(k): v for k, v in sorted(conventions.items())}
    return rec


def _theory_records(name: str, td: TheoryData, n_report: int) -> tuple:
    """The two candidate sequences of theory name, the snake sequences of
    Ker -> C(A) -> C(D) and of its dual they are read off, and the
    comparison verdicts; H(comp) and H(dual comp) induced once a degree."""
    N = td.CA.top_degree
    hom = long_exact_sequence(td.ses, 0, n_report, labels=("Ker", "A", "D"))
    coh = long_exact_sequence(td.dual_ses(), N - n_report, N,
                              labels=("D*", "A*", "Ker*"))
    # report cohomological degrees, not internal reversed ones
    for nd in coh.nodes:
        nd.degree = N - nd.degree
    dual_comp = dualize_map(td.comp)
    h_comp = [induced_map_on_homology(td.comp, n)
              for n in range(n_report + 1)]
    h_dual_comp = [induced_map_on_homology(dual_comp, N - n)
                   for n in range(n_report + 1)]
    candidates = [
        _sequence_record("%s homology" % name,
                         *candidate_homology_sequence(hom, h_comp)),
        _sequence_record("%s cohomology" % name,
                         *candidate_cohomology_sequence(coh, h_dual_comp)),
    ]
    snakes = [
        _sequence_record("%s homology (kernel subcomplex)" % name, hom),
        _sequence_record("%s cohomology (kernel subcomplex)" % name, coh),
    ]
    return candidates, snakes, check_quasi_isomorphism(h_comp)


def _betti_duality_ok(candidates, snakes) -> bool:
    """dim H_n = dim H^n for n = 0..n_report of C(B), C(A), C(D) and
    Ker, read off one theory's candidate and snake records."""
    (hom, coh), (hom_ker, coh_ker) = candidates, snakes
    return (all(_node_dims(hom, g) == _node_dims(coh, g) for g in "BAD")
            and _node_dims(hom_ker, "Ker") == _node_dims(coh_ker, "Ker*"))


def excision_report(ext: Extension, n_report: int = 3, force: bool = False) -> dict:
    """Full excision diagnostic: hypothesis verdicts, the six candidate
    long sequences with per-node defects, the unconditional snake
    sequences, comparison-map verdicts and bar invariance.

    When the hypothesis (a one-sided unit of B) is met, zero interior
    defects in all six candidates is an assertable conclusion, not an
    assumption; a nonzero defect then means the implementation is wrong
    and the verdict says so."""
    _require_valid(ext)
    # over the cap, refuse before any work that grows with dim A
    check_degree_cap(ext.A.dim, n_report, force)
    adapted = adapted_extension(ext)
    # B's one unit witness: the hypothesis and C(B)'s homotopy share it
    unit = unit_witness(adapted.B)
    # theories in the order simplicial, cyclic, bar, each dropped once
    # read; the simplicial C(A) lives until CC(A) is relabelled from it
    theory = build_theory(adapted, n_report, "simplicial", force)
    read = {"simplicial": _theory_records("simplicial", theory, n_report)}
    C_A = theory.CA
    del theory
    cyclic_A = connes_complex(C_A)
    del C_A
    read["cyclic"] = _theory_records(
        "cyclic", cyclic_kernel_subcomplex(adapted, cyclic_A), n_report)
    del cyclic_A
    read["bar"] = _theory_records(
        "bar", build_theory(adapted, n_report, "bar", force, unit), n_report)
    sequences = [rec for t in THEORIES for rec in read[t][0]]
    snake_sequences = [rec for t in THEORIES for rec in read[t][1]]
    comparison = {"%s_quasi_iso" % t: read[t][2] for t in THEORIES}
    betti_ok = all(_betti_duality_ok(*read[t][:2]) for t in THEORIES)
    # the vanishing of the bar homology of B is H-unitality
    bar = _record(sequences, "bar homology")
    bar_b, hr_a, hr_d = (_node_dims(bar, group) for group in "BAD")

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


def _record(records, name: str) -> dict:
    """The record called name ('simplicial homology', ...)."""
    return next(r for r in records if r["name"] == name)


def _node_dims(record: dict, group: str) -> list:
    """dims of a sequence record's group nodes by degree 0..n_report."""
    return [nd["dim"] for nd in sorted(record["nodes"], key=lambda nd: nd["degree"])
            if nd["group"] == group]


def check_bar_invariance(report: dict) -> dict:
    """dim HR_n(A) = dim HR_n(D), and likewise in cohomology, under the
    hypothesis; reported informationally when the hypothesis is unmet.
    A view of an excision_report result: it computes nothing."""
    bar = report["bar_invariance"]
    coh = _record(report["sequences"], "bar cohomology")
    dual_a, dual_d = _node_dims(coh, "A"), _node_dims(coh, "D")
    equal = bar["equal"] and dual_a == dual_d
    return {
        "in_hypothesis": bar["in_hypothesis"],
        "HR_A": bar["HR_A"], "HR_D": bar["HR_D"],
        "HR_dual_A": dual_a, "HR_dual_D": dual_d,
        "equal": equal,
        "pass": equal if bar["in_hypothesis"] else None,
    }


def amenable_scenario_check(report: dict) -> dict:
    """Consequences of an 'amenable' ideal in the finite-dimensional
    surrogate sense (B has a two-sided unit and H_n(B) = 0 for n >= 1):
    dim H^n(A) = dim H^n(D) for n >= 2, the five-term trace sequence
    0 -> D^tr -> A^tr -> B^tr -> H^1(D) -> H^1(A) -> 0 is exact, and
    the cyclic six-term pattern holds.  A view of an excision_report
    result: the trace space of an algebra is its H^0, and everything
    else is read off the candidate sequences."""
    n_report = report["extension"]["n_report"]
    side = report["hypothesis"]["unit"]["side"]
    hb = _node_dims(_record(report["sequences"], "simplicial homology"), "B")
    if report["extension"]["dims"]["B"] > 0 and (
            side != "two-sided" or any(d != 0 for d in hb[1:])):
        raise SurrogateNotMet(
            "ideal is not amenable in the surrogate sense "
            "(two-sided unit + vanishing higher homology); unit=%s, H=%r"
            % (side, hb))

    seq = _record(report["sequences"], "simplicial cohomology")
    coh_a, coh_d, coh_b = (_node_dims(seq, group) for group in "ADB")
    high_equal = all(coh_a[n] == coh_d[n] for n in range(2, n_report + 1))

    # the five-term sequence is the head of the cohomology candidate,
    # truncated by H^1(B) = 0; its node (A, 1) has no outgoing map
    five_exact = (n_report < 1 or coh_b[1] == 0) and all(
        nd["defect"] == 0 and nd["composition_zero"]
        or nd["defect"] is None and (nd["degree"], nd["group"]) == (1, "A")
        for nd in seq["nodes"]
        if nd["degree"] <= 1 and (nd["degree"], nd["group"]) != (1, "B"))
    # surjectivity onto H^1(A): the defect at node (A, 1) covers it when
    # H^1(B) = 0 (its outgoing map then has full kernel)
    trace_dims = {"D_tr": coh_d[0], "A_tr": coh_a[0], "B_tr": coh_b[0],
                  "H1_D": coh_d[1] if n_report >= 1 else None,
                  "H1_A": coh_a[1] if n_report >= 1 else None}

    # cyclic pattern: HC^even(B) has the trace dimension, HC^odd(B) = 0,
    # and the cyclic cohomology candidate is exact in the window
    cyclic = _record(report["sequences"], "cyclic cohomology")
    hc_b = _node_dims(cyclic, "B")
    pattern_ok = all(d == (0 if n % 2 else coh_b[0]) for n, d in enumerate(hc_b))

    ok = high_equal and five_exact and pattern_ok and cyclic["exact"]
    return {
        "surrogate": "two-sided unit + vanishing higher simplicial homology",
        "H_dual_A": coh_a, "H_dual_D": coh_d, "H_dual_B": coh_b,
        "high_degrees_equal": high_equal,
        "trace_dims": trace_dims,
        "five_term_exact": five_exact,
        "cyclic_B_pattern_ok": pattern_ok,
        "cyclic_candidate_exact": cyclic["exact"],
        "pass": ok,
    }
