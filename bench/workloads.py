"""The benchmark's workloads: their inputs, their timed jobs and the
checks every answer must pass.  WORKLOADS.md says why each was chosen.

A workload's setup builds its inputs through alghom's public
constructors and returns a list of Jobs.  A Job's make() builds fresh
input objects before every run of the job (alghom caches eliminations on
Matrix._cache and homology on ChainComplex._homology, and a CLI user pays
for both on every run), run() is the timed call, and check() compares the
answer with the reference recorded from the seed commit, and for
homology-presets also with closed forms.  A wrong answer fails the job.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

from alghom import cli, complexes, corpus, excision, fileio, hochschild
from alghom.algebra import preset, validate_extension

from rebase import build_rebased, rebase

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")

# excision-rebased: the five dim-3 corpus extensions, at report degree 2
REBASED = ("two_of_three", "left_unital_corner", "right_unital_corner",
           "nilpotent_corner", "nilpotent_augmentation")
REBASED_DEGREE = 2

# homology-presets: (preset, parameters, top reported degree)
PRESETS = (("truncated_poly", {"m": 3}, 5),
           ("upper_triangular", {"k": 2}, 5),
           ("zero_mult", {"d": 3}, 5),
           ("matrix", {"k": 2}, 3))
THEORIES = ("hochschild", "bar", "cyclic")


@dataclass
class Job:
    name: str
    make: Callable[[], tuple]                # fresh inputs, untimed
    run: Callable[..., object]               # the timed call
    check: Callable[[object], str | None]    # None when the answer is right


def corpus_degree(dim_a: int) -> int:
    """The CLI default 3, or 2 when dim A >= 4 (matrix_block at 3 takes
    about 50 s on a 2-core machine with Fraction arithmetic)."""
    return 3 if dim_a <= 3 else 2


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


# -- answers ---------------------------------------------------------


def summarize(report: dict) -> dict:
    """The basis-independent fields of an excision report: everything
    except the unit element, which is not unique (e11 + c*e12 is a left
    unit of left_unital_corner for every c)."""

    def sequence(rec):
        return {
            "exact": rec["exact"],
            "convention": rec.get("connecting_convention"),
            "nodes": [[nd["degree"], nd["group"], nd["dim"], nd["defect"],
                       nd["in_window"], nd["composition_zero"]]
                      for nd in rec["nodes"]],
        }

    hyp = report["hypothesis"]
    return {
        "dims": dict(report["extension"]["dims"]),
        "n_report": report["extension"]["n_report"],
        "verdict": report["verdict"],
        "unit_side": hyp["unit"]["side"],
        "bar_homology_B": list(hyp["bar_homology_B"]),
        "hypothesis_met": hyp["met"],
        "bar_homology_vanishes": hyp["bar_homology_vanishes"],
        "sequences": {r["name"]: sequence(r) for r in report["sequences"]},
        "snake_sequences": {r["name"]: sequence(r)
                            for r in report["snake_sequences"]},
        "comparison": {k: list(v) for k, v in report["comparison"].items()},
        "bar_invariance": {k: list(v) if isinstance(v, (list, tuple)) else v
                           for k, v in report["bar_invariance"].items()},
        "betti_duality_ok": report["betti_duality_ok"],
    }


def _compare(expected: dict, got: dict):
    bad = sorted(k for k in set(expected) | set(got)
                 if expected.get(k) != got.get(k))
    return "differs from reference in %s" % ", ".join(bad) if bad else None


# -- excision-corpus -------------------------------------------------


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _check_cli(expected, result):
    code, text = result
    if code != 0:
        return "exit code %d" % code
    return _compare(expected, summarize(json.loads(text)))


def setup_excision_corpus(seed: int, workdir: str, reference: dict):
    """Every corpus extension written once to JSON; each job is the
    user's `alghom excision FILE --format json` run in-process."""
    os.makedirs(workdir, exist_ok=True)
    jobs, info = [], []
    for name in corpus.CORPUS:
        ext = corpus.build(name)
        n = corpus_degree(ext.A.dim)
        path = os.path.join(workdir, name + ".json")
        fileio.dump_document(ext, path)
        argv = ["excision", path, "--format", "json", "--max-degree", str(n)]
        jobs.append(Job(name, lambda argv=argv: (argv,), _run_cli,
                        partial(_check_cli, reference["excision"][name][str(n)])))
        info.append("input %s dims B=%d A=%d D=%d degree %d"
                    % (name, ext.B.dim, ext.A.dim, ext.D.dim, n))
    random.Random(seed).shuffle(jobs)
    return jobs, info


# -- excision-rebased ------------------------------------------------


def _nnz(alg) -> int:
    return sum(len(v) for v in alg.mult.values())


def _run_report(ext):
    return excision.excision_report(ext, REBASED_DEGREE)


def _check_report(expected, report):
    return _compare(expected, summarize(report))


def setup_excision_rebased(seed: int, workdir: str, reference: dict):
    """The five dim-3 corpus extensions with A rebased by a seeded
    unimodular matrix; answers are checked against the unrebased
    reference (excision data is basis-independent)."""
    jobs, info = [], []
    for name in REBASED:
        ext = corpus.build(name)
        mult, ideal, draws = rebase(ext, random.Random("%d:%s" % (seed, name)))
        make = partial(build_rebased, ext.A.dim, mult, ideal,
                       list(ext.B.basis_names))
        built = make()
        bad = validate_extension(built)
        if bad is not None:
            raise AssertionError("rebased %s is invalid: %r" % (name, bad))
        tensors = sum(alg.dim ** (k + 1) for alg in (built.A, built.B, built.D)
                      for k in range(REBASED_DEGREE + 3))
        info.append("input %s seed %d draws %d nnz A=%d B=%d D=%d tensors %d"
                    % (name, seed, draws, _nnz(built.A), _nnz(built.B),
                       _nnz(built.D), tensors))
        expected = reference["excision"][name][str(REBASED_DEGREE)]
        jobs.append(Job(name, lambda make=make: (make(),), _run_report,
                        partial(_check_report, expected)))
    random.Random(seed).shuffle(jobs)
    return jobs, info


# -- homology-presets ------------------------------------------------


def _necklace_dim(d: int, n: int) -> int:
    """dim of the invariants of the signed cyclic operator t_n on
    (Q^d)^(n+1): (1/m) sum_j ((-1)^n)^j d^gcd(j, m) with m = n + 1."""
    m = n + 1
    return sum((-1) ** (n * j) * d ** math.gcd(j, m) for j in range(m)) // m


def closed_form(name: str, params: dict, theory: str, n_top: int):
    """Homology dims in degrees 0..n_top known without elimination."""
    degs = range(n_top + 1)
    if name == "zero_mult":
        # all differentials vanish, so homology is the chain space itself
        d = params["d"]
        if theory == "cyclic":
            return [_necklace_dim(d, n) for n in degs]
        return [d ** (n + 1) for n in degs]
    if theory == "bar":
        return [0] * (n_top + 1)            # unital algebras are H-unital
    # HH(M_k) = HH(Q) by Morita invariance, HH(T_k) = HH(Q^k), and
    # HH_n(Q[x]/x^m) = m - 1 for n >= 1; HC is HH_0 in even degrees
    h0 = {"truncated_poly": params.get("m"), "upper_triangular": params.get("k"),
          "matrix": 1}[name]
    if theory == "cyclic":
        return [h0 if n % 2 == 0 else 0 for n in degs]
    higher = params["m"] - 1 if name == "truncated_poly" else 0
    return [h0] + [higher] * n_top


def _run_homology(theory: str, n_top: int, A):
    if theory == "cyclic":
        K = hochschild.cyclic_complex(A, n_top)[0]
    elif theory == "bar":
        K = hochschild.bar_complex(A, n_top)
    else:
        K = hochschild.hochschild_complex(A, n_top)
    return complexes.homology_dims(K, n_top), complexes.cohomology_dims(K, n_top)


def _check_homology(expected: dict, closed: list, result):
    hom, coh = result
    if hom != coh:
        return "homology %r != cohomology %r" % (hom, coh)
    if hom != closed:
        return "homology %r != closed form %r" % (hom, closed)
    if [hom, coh] != [expected["homology"], expected["cohomology"]]:
        return "differs from reference"
    return None


def _fresh_preset(name: str, params: dict):
    return (preset(name, **params),)


def _run_trace(A):
    return hochschild.trace_space(A).dim


def _check_trace(expected: int, closed: int, dim):
    if dim != closed or dim != expected:
        return "trace dim %r, closed form %d, reference %d" % (dim, closed, expected)
    return None


def setup_homology_presets(seed: int, workdir: str, reference: dict):
    """Per preset and theory: build the complex once, then homology and
    cohomology dims; plus the trace space once per preset."""
    jobs, info = [], []
    for name, params, n_top in PRESETS:
        make = partial(_fresh_preset, name, params)
        ref = reference["homology"][name]
        for theory in THEORIES:
            jobs.append(Job("%s/%s" % (name, theory), make,
                            partial(_run_homology, theory, n_top),
                            partial(_check_homology, ref[theory],
                                    closed_form(name, params, theory, n_top))))
        # the trace space is H^0, the dual of HH_0
        jobs.append(Job("%s/trace" % name, make, _run_trace,
                        partial(_check_trace, ref["trace"],
                                closed_form(name, params, "hochschild", 0)[0])))
        dim = make()[0].dim
        info.append("input %s%r dim %d degree %d tensors %d"
                    % (name, params, dim, n_top,
                       sum(dim ** (k + 1) for k in range(n_top + 3))))
    random.Random(seed).shuffle(jobs)
    return jobs, info


SETUPS = {
    "excision-corpus": setup_excision_corpus,
    "excision-rebased": setup_excision_rebased,
    "homology-presets": setup_homology_presets,
}
