"""Per-layer spans recorded from outside alghom.

A Recorder wraps the public functions of each alghom module (the layers
below).  Each wrapped name is patched in every alghom.* module that
imported it, methods on their class, and everything is restored on exit.
A span is [layer, name, start, end, parent index]; spans stay in memory
and are summarized after the run.  Self time is a span's duration minus
the time its child spans cover, so the self times of all layers sum to
the time covered by root spans, and the rest of a traced job's time is
reported as outside the wrapped functions.

Counters are taken when a call enters a layer from outside it (a call
nested in a call of the same layer, such as solve -> solve_many, is not
counted again).  Recording happens only while Recorder.active is true,
so input construction and answer checks between jobs leave no spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

from alghom.complexes import ChainComplex


def _rank_cached(M) -> bool:
    return any(k in M._cache for k in ("rank", "rref", "rref_t"))


def _elim(cached):
    """Pre-call counter for an elimination entry point on (M, ...);
    cached(M) says whether M already holds what the call needs, and is
    None for solves, which always eliminate afresh."""

    def pre(counts, outer, M, *rest, **kw):
        if not outer:
            return
        extra = rest[0] if rest else None     # solve's b, solve_many's B
        if extra is None:
            extra_cols, extra_nnz = 0, 0
        elif hasattr(extra, "entries"):
            extra_cols, extra_nnz = extra.cols, len(extra.entries)
        else:
            extra_cols, extra_nnz = 1, sum(1 for v in extra if v)
        counts["linalg.eliminate.cells"] += M.rows * (M.cols + extra_cols)
        counts["linalg.eliminate.nnz_in"] += len(M.entries) + extra_nnz
        counts["linalg.eliminate.hits"] += cached is not None and cached(M)
    return pre


def _exactness_pre(counts, outer, f, g):
    if outer:
        counts["linalg.eliminate.cells"] += f.rows * f.cols + g.rows * g.cols
        counts["linalg.eliminate.nnz_in"] += len(f.entries) + len(g.entries)
        counts["linalg.eliminate.hits"] += _rank_cached(f) and _rank_cached(g)


def _homology_pre(counts, outer, K, n):
    # every homology_at call, nested or not, is a lookup in K._homology
    counts["complexes.homology.lookups"] += 1
    counts["complexes.homology.hits"] += n in K._homology


def _matmul_post(counts, result):
    counts["linalg.matmul.nnz_out"] += len(result.entries)


def _build_post(counts, result):
    if isinstance(result, ChainComplex):
        counts["hochschild.build.tensors"] += sum(result.dims)


# layer -> (module, [(qualified name, pre hook, post hook)])
LAYERS = {
    "linalg.eliminate": ("alghom.linalg", [
        ("rank", _elim(_rank_cached), None),
        ("kernel_basis", _elim(lambda M: "rref" in M._cache), None),
        ("image_basis", _elim(lambda M: "rref_t" in M._cache), None),
        ("cokernel", _elim(lambda M: "rref_t" in M._cache), None),
        ("solve", _elim(None), None),
        ("solve_many", _elim(None), None),
        ("exactness_defect", _exactness_pre, None)]),
    "linalg.coords": ("alghom.linalg", [("Subspace.coords", None, None)]),
    "linalg.matmul": ("alghom.linalg", [
        ("Matrix.__matmul__", None, _matmul_post)]),
    "hochschild.build": ("alghom.hochschild", [
        ("hochschild_complex", None, _build_post),
        ("bar_complex", None, _build_post),
        ("trace_space", None, None)]),
    "hochschild.quotient": ("alghom.hochschild", [
        ("cyclic_complex", None, None), ("cyclic_quotient", None, None)]),
    "hochschild.kernel": ("alghom.hochschild", [
        ("kernel_subcomplex", None, None),
        ("cyclic_kernel_subcomplex", None, None)]),
    "complexes.check": ("alghom.complexes", [
        ("check_complex", None, None), ("check_ses", None, None),
        ("check_chain_map", None, None)]),
    "complexes.homology": ("alghom.complexes", [
        ("homology_at", _homology_pre, None),
        ("homology_dims", None, None), ("cohomology_dims", None, None)]),
    "complexes.dual": ("alghom.complexes", [
        ("dualize", None, None), ("dualize_map", None, None)]),
    "complexes.induced": ("alghom.complexes", [
        ("induced_map_on_homology", None, None),
        ("check_quasi_isomorphism", None, None)]),
    "complexes.connecting": ("alghom.complexes", [
        ("connecting_homomorphism", None, None)]),
    "complexes.assemble": ("alghom.complexes", [
        ("long_exact_sequence", None, None),
        ("assemble_sequence", None, None)]),
    "excision": ("alghom.excision", [
        ("excision_report", None, None), ("build_theory", None, None),
        ("candidate_homology_sequence", None, None),
        ("candidate_cohomology_sequence", None, None)]),
    "algebra": ("alghom.algebra", [
        ("preset", None, None), ("quotient_extension", None, None),
        ("validate_extension", None, None), ("validate_algebra", None, None),
        ("unit_witness", None, None)]),
    "fileio": ("alghom.fileio", [("load_document", None, None)]),
    "cli": ("alghom.cli", [("main", None, None)]),
}

# counted, not spanned: a span per construction would dwarf the work
CONSTRUCTOR = ("alghom.linalg", "Matrix.__init__", "linalg.matrix.constructed")


class Recorder:
    """Context manager that patches the layer functions on entry and
    restores them on exit.  Record jobs by setting active to True."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.active = False
        self._stack = []
        self._patched = []      # (owner, attribute, original)

    def __enter__(self):
        try:
            for layer, (modname, entries) in LAYERS.items():
                module = importlib.import_module(modname)
                for qualname, pre, post in entries:
                    self._patch(module, qualname,
                                functools.partial(self._spanned, layer, qualname,
                                                  pre=pre, post=post))
            modname, qualname, counter = CONSTRUCTOR
            self._patch(importlib.import_module(modname), qualname,
                        lambda fn: self._counted(counter, fn))
        except BaseException:
            self.__exit__()         # a name alghom no longer has: undo, re-raise
            raise
        return self

    def __exit__(self, *exc):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        return False

    def _patch(self, module, qualname, make_wrapper):
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            owners = [(getattr(module, cls_name), attr)]
            original = getattr(owners[0][0], attr)
        else:
            original = getattr(module, qualname)
            owners = [(mod, name)
                      for modname, mod in list(sys.modules.items())
                      if modname == "alghom" or modname.startswith("alghom.")
                      for name, value in list(vars(mod).items())
                      if value is original]
        wrapper = make_wrapper(original)
        for owner, attr in owners:
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def _spanned(self, layer, name, fn, *, pre, post):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        calls_key = layer + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            outer = parent < 0 or spans[parent][0] != layer
            if outer:
                counts[calls_key] += 1
            if pre is not None:
                pre(counts, outer, *args, **kwargs)
            span = [layer, name, clock(), 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if outer and post is not None:
                post(counts, result)
            return result
        return wrapper

    def _counted(self, counter, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                counts[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    def self_times(self) -> Counter:
        covered = [0.0] * len(self.spans)
        for layer, name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = Counter()
        for (layer, name, start, end, parent), child in zip(self.spans, covered):
            out[layer] += (end - start) - child
        return out


COUNT_METRICS = (
    "linalg.eliminate.calls", "linalg.eliminate.cells",
    "linalg.eliminate.nnz_in", "linalg.coords.calls", "linalg.matmul.calls",
    "linalg.matmul.nnz_out", "linalg.matrix.constructed",
    "hochschild.build.calls", "hochschild.build.tensors",
    "hochschild.quotient.calls", "hochschild.kernel.calls",
    "complexes.check.calls", "complexes.homology.calls",
    "complexes.dual.calls", "complexes.induced.calls",
    "complexes.connecting.calls", "algebra.calls",
)


def layer_metrics(rec: Recorder, traced_wall: float) -> dict:
    """Per-layer metrics of one traced pass whose jobs took traced_wall
    seconds in total: self times, counts and hit ratios, plus the time
    outside every wrapped function."""
    self_s = rec.self_times()
    c = rec.counts
    out = {"%s.self_s" % layer: self_s[layer] for layer in LAYERS}
    out.update({name: c[name] for name in COUNT_METRICS})
    out["linalg.eliminate.hit_ratio"] = (
        c["linalg.eliminate.hits"] / c["linalg.eliminate.calls"]
        if c["linalg.eliminate.calls"] else 0.0)
    out["complexes.homology.hit_ratio"] = (
        c["complexes.homology.hits"] / c["complexes.homology.lookups"]
        if c["complexes.homology.lookups"] else 0.0)
    out["trace.outside_s"] = traced_wall - sum(self_s.values())
    return out
