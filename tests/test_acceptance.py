"""Acceptance gate: nine criteria, one pass/fail line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines; each
criterion is independently computed here (no goldens recycled from the
other test modules) and asserted with its own runtime bound.
"""

import time

import pytest

from alghom.algebra import preset, unit_witness
from alghom.complexes import cohomology_dims, homology_dims
from alghom.corpus import CORPUS, UNITAL_CORPUS, build
from alghom.excision import (
    amenable_scenario_check, check_hlgy_cohlgy_equivalence, excision_report,
)
from alghom.hochschild import (
    adapted_extension, bar_complex, cyclic_complex, hochschild_complex,
    kernel_subcomplex,
)

from support import prop_window_check, snake_check, verify_kernel_span


def conclude(num: int, ok: bool, detail: str):
    print("criterion %d: %s — %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d failed: %s" % (num, detail)


def test_criterion_1_cyclic_homology_of_field():
    t0 = time.time()
    CC, _ = cyclic_complex(preset("field"), 4)
    dims = homology_dims(CC, 4)
    elapsed = time.time() - t0
    conclude(1, dims == [1, 0, 1, 0, 1] and elapsed < 1.0,
             "HC(field) dims %r in %.2fs" % (dims, elapsed))


def test_criterion_2_bar_homology_detects_h_unitality():
    t0 = time.time()
    zero = homology_dims(bar_complex(preset("zero_mult", d=1), 3), 3)
    unital = {}
    for A in (preset("field"), preset("matrix", k=2),
              preset("truncated_poly", m=4), preset("upper_triangular", k=2)):
        unital[repr(A)] = homology_dims(bar_complex(A, 3), 3)
    elapsed = time.time() - t0
    ok = (zero == [1, 1, 1, 1]
          and all(d == [0, 0, 0, 0] for d in unital.values())
          and elapsed < 5.0)
    conclude(2, ok, "HR(zero_mult(1)) = %r, HR(unital presets) all zero: %s, "
             "%.1fs" % (zero, all(d == [0, 0, 0, 0] for d in unital.values()),
                        elapsed))


def test_criterion_3_excision_theorem_at_desk_scale():
    worst = 0.0
    failures = []
    for name in sorted(UNITAL_CORPUS):
        t0 = time.time()
        r = excision_report(build(name), 3)
        elapsed = time.time() - t0
        worst = max(worst, elapsed)
        seq_ok = all(
            node["defect"] == 0 and node["composition_zero"]
            for seq in r["sequences"] for node in seq["nodes"]
            if node["in_window"] and node["degree"] in (1, 2))
        bar_ok = (r["bar_invariance"]["HR_A"] == [0, 0, 0, 0]
                  and r["bar_invariance"]["HR_D"] == [0, 0, 0, 0])
        if not (seq_ok and bar_ok and elapsed <= 120):
            failures.append(name)
    ok = len(UNITAL_CORPUS) >= 6 and not failures
    conclude(3, ok, "%d unital-B extensions, six sequences exact at degrees "
             "1..2 each, HR(A) = HR(D) = 0, worst runtime %.1fs"
             % (len(UNITAL_CORPUS), worst))


def test_criterion_4_excision_failure_reproduced():
    t0 = time.time()
    ext = build("nilpotent_corner")
    r = excision_report(ext, 3)
    elapsed = time.time() - t0
    simp = next(s for s in r["sequences"] if s["name"] == "simplicial homology")
    node = next(n for n in simp["nodes"]
                if n["group"] == "B" and n["degree"] == 0)
    ok = (r["hypothesis"]["unit"]["side"] == "none"
          and r["hypothesis"]["bar_homology_B"] == [1, 1, 1, 1]
          and r["comparison"]["simplicial_quasi_iso"][0] is False
          and node["defect"] == 1
          and elapsed < 10.0)
    conclude(4, ok, "no unit, HR(B) = %r, comparison fails at degree 0, "
             "defect %r at H_0(B), %.1fs"
             % (r["hypothesis"]["bar_homology_B"], node["defect"], elapsed))


def test_criterion_5_homology_cohomology_equivalence():
    agree = 0
    betti = True
    for name in sorted(CORPUS):
        eq = check_hlgy_cohlgy_equivalence(excision_report(build(name), 3))
        if eq["equivalent"]:
            agree += 1
        betti = betti and eq["betti_duality_ok"]
    ok = agree == len(CORPUS) and betti
    conclude(5, ok, "homology/cohomology exactness agreement %d/%d, Betti "
             "duality on every complex: %s" % (agree, len(CORPUS), betti))


def test_criterion_6_snake_lemma_property_suite():
    t0 = time.time()
    bad = [seed for seed in range(200)
           if not snake_check(seed, degrees=4, max_dim=6)]
    elapsed = time.time() - t0
    conclude(6, not bad and elapsed < 60,
             "200 random SES, %d defects, connecting recheck stable, %.1fs"
             % (len(bad), elapsed))


def test_criterion_7_window_implications():
    violations = nonvacuous = 0
    for seed in range(100):
        v, n = prop_window_check(seed)
        violations += v
        nonvacuous += n
    conclude(7, violations == 0 and nonvacuous > 0,
             "100 random injective chain maps, %d window-implication "
             "counterexamples (%d nonvacuous instances)"
             % (violations, nonvacuous))


def test_criterion_8_kernel_span_verification():
    failures = []
    for name in sorted(CORPUS):
        ext = build(name)
        for n in range(1, 4):
            if verify_kernel_span(ext, n) is not None:
                failures.append((name, n))
        adapted = adapted_extension(ext)
        sub = kernel_subcomplex(adapted, hochschild_complex(adapted.A, 3)).sub
        a, b = ext.A.dim, ext.B.dim
        for n in range(sub.top_degree + 1):
            if sub.dims[n] != a ** (n + 1) - (a - b) ** (n + 1):
                failures.append((name, "dim", n))
    conclude(8, not failures,
             "kernel span verified and dimension formula a^n - (a-b)^n "
             "matched for all %d corpus extensions, n <= 3; failures: %r"
             % (len(CORPUS), failures))


def test_criterion_9_amenable_pattern():
    t0 = time.time()
    out = amenable_scenario_check(excision_report(build("matrix_block"), 3))
    elapsed = time.time() - t0
    dims = (out["trace_dims"]["D_tr"], out["trace_dims"]["A_tr"],
            out["trace_dims"]["B_tr"], out["trace_dims"]["H1_D"],
            out["trace_dims"]["H1_A"])
    ok = (out["high_degrees_equal"] and out["five_term_exact"]
          and dims == (1, 2, 1, 0, 0) and elapsed < 180)
    conclude(9, ok, "H^n(A) = H^n(D) for n = 2,3: %s; five-term trace "
             "sequence dims %r exact: %s; %.1fs"
             % (out["high_degrees_equal"], dims, out["five_term_exact"],
                elapsed))
