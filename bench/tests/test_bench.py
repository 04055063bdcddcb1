"""Tests of the benchmark itself (not of alghom).

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import copy
import os
import random
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402

run.import_alghom()

import rebase  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from alghom import corpus  # noqa: E402
from alghom.algebra import validate_extension  # noqa: E402
from alghom.excision import excision_report  # noqa: E402
from alghom.linalg import Matrix, Subspace  # noqa: E402

REFERENCE = workloads.load_reference()


def _jobs(workload, names, tmp_path, reference=REFERENCE, seed=0):
    jobs, _ = workloads.SETUPS[workload](seed, str(tmp_path), reference)
    return [job for job in jobs if job.name in names]


def _alghom_names():
    """Every attribute of every alghom module and patched class."""
    owners = [mod for name, mod in sys.modules.items()
              if name == "alghom" or name.startswith("alghom.")]
    return {(id(owner), attr): value for owner in owners + [Matrix, Subspace]
            for attr, value in list(vars(owner).items())}


def test_patched_names_are_restored(tmp_path):
    before = _alghom_names()
    jobs = _jobs("homology-presets", {"matrix/hochschild", "matrix/trace"},
                 tmp_path)
    with tracing.Recorder() as rec:
        patched = {k for k, v in _alghom_names().items() if before.get(k) is not v}
        run.run_pass(jobs, rec)
    assert len(patched) > len(tracing.LAYERS)
    assert rec.counts["linalg.eliminate.calls"] > 0
    after = _alghom_names()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    with pytest.raises(RuntimeError):
        with tracing.Recorder():
            raise RuntimeError("job failed mid-trace")
    after = _alghom_names()
    assert all(after[k] is before[k] for k in before)


def test_traced_counts_repeat_exactly(tmp_path):
    picks = {"excision-corpus": {"split_product", "nilpotent_augmentation"},
             "excision-rebased": {"nilpotent_augmentation"},
             "homology-presets": {"matrix/cyclic", "zero_mult/bar",
                                  "truncated_poly/trace"}}
    for workload, names in picks.items():
        runs = []
        for _ in range(2):
            passes, metrics, spans = run.measure_traced(
                _jobs(workload, names, tmp_path, seed=7), 0)
            assert all(e is None for p in passes for e in p[1])
            assert spans
            runs.append(metrics)
        for name in tracing.COUNT_METRICS:
            assert runs[0][name][0] == runs[1][name][0], (workload, name)
        assert runs[0]["linalg.eliminate.calls"][0] > 0
        for m in runs:
            layers = sum(m["%s.self_s" % layer][0] for layer in tracing.LAYERS)
            outside = m["trace.outside_s"][0]
            assert layers + outside == pytest.approx(m["trace.wall_s"][0])
            assert 0 <= outside < 0.05 * m["trace.wall_s"][0]


def test_tampered_reference_fails_the_job(tmp_path):
    names = {"matrix/bar", "matrix/trace"}
    _, errors = run.run_pass(_jobs("homology-presets", names, tmp_path))
    assert errors == [None, None]

    tampered = copy.deepcopy(REFERENCE)
    tampered["homology"]["matrix"]["bar"]["cohomology"][1] = 1
    tampered["homology"]["matrix"]["trace"] = 2
    _, errors = run.run_pass(_jobs("homology-presets", names, tmp_path, tampered))
    assert all(e is not None for e in errors)

    tampered = copy.deepcopy(REFERENCE)
    tampered["excision"]["split_product"]["3"]["verdict"] = "theorem-violated"
    _, errors = run.run_pass(_jobs("excision-corpus", {"split_product"},
                                   tmp_path, tampered))
    assert errors[0] is not None and "verdict" in errors[0]


def test_closed_forms_match_reference():
    for name, params, n_top in workloads.PRESETS:
        for theory in workloads.THEORIES:
            assert (workloads.closed_form(name, params, theory, n_top)
                    == REFERENCE["homology"][name][theory]["homology"])


@pytest.mark.parametrize("seed", [0, 1])
def test_rebased_extensions_keep_their_answers(seed):
    for name in workloads.REBASED:
        ext = corpus.build(name)
        rng = random.Random("%d:%s" % (seed, name))
        mult, ideal, draws = rebase.rebase(ext, rng)
        rebuilt = rebase.build_rebased(ext.A.dim, mult, ideal,
                                       ext.B.basis_names)
        assert validate_extension(rebuilt) is None
        assert sum(len(v) for v in rebuilt.A.mult.values()) == ext.A.dim ** 3
        assert (rebuilt.B.dim, rebuilt.D.dim) == (ext.B.dim, ext.D.dim)
        assert (workloads.summarize(excision_report(rebuilt, 1))
                == workloads.summarize(excision_report(ext, 1)))


def test_setup_is_timed_in_a_fresh_process():
    assert 0 < run.setup_seconds("homology-presets", 0) < run.CHILD_TIMEOUT_S


def test_unimodular_inverse():
    S, S_inv = rebase.unimodular(random.Random(3), 4)
    product = [[sum(S[i][k] * S_inv[k][j] for k in range(4)) for j in range(4)]
               for i in range(4)]
    assert product == [[int(i == j) for j in range(4)] for i in range(4)]
