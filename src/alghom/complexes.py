"""Finite chain complexes: homology, duals, chain maps, short exact
sequences, the connecting homomorphism and long-exact-sequence assembly.

Complexes are graded 0..top_degree with differentials d_n: C_{n+1} -> C_n.
A complex built as a truncation of an infinite one is unreliable at its
top degree only; genuine_top marks complexes (such as duals of complexes
that really start in degree 0) whose top degree is exact.

Homology bases are echelon-deterministic: the boundary basis is the
canonical column-space basis of d_n, and representatives are the cycle
basis columns that extend it, so induced maps are reproducible
bit-for-bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .linalg import (
    Matrix, Q, ZERO, ONE, Subspace, hstack,
    _echelon, image_basis, kernel_basis, rank, solve_many,
)


class WellDefinednessViolation(Exception):
    """A chain map failed to send cycles to cycles or boundaries to
    boundaries; its ChainMap invariant is broken."""


class LiftFailure(Exception):
    """A zig-zag lift had no solution; the short exact sequence
    invariants must be broken."""


class ChainComplex:
    """Chain complex of finite-dimensional rational spaces.

    dims[n] is the dimension of C_n; diffs[n] is the matrix of
    d_n: C_{n+1} -> C_n, so len(diffs) == len(dims) - 1.
    """

    def __init__(self, dims, diffs, genuine_top=False):
        self.dims = list(dims)
        self.diffs = list(diffs)
        if len(self.diffs) != max(len(self.dims) - 1, 0):
            raise ValueError("need exactly one differential per adjacent pair")
        for n, d in enumerate(self.diffs):
            if (d.rows, d.cols) != (self.dims[n], self.dims[n + 1]):
                raise ValueError("differential %d has shape %dx%d, expected %dx%d"
                                 % (n, d.rows, d.cols, self.dims[n], self.dims[n + 1]))
        self.genuine_top = genuine_top
        self._homology = {}
        self._dual = None

    @property
    def top_degree(self) -> int:
        return len(self.dims) - 1

    def __repr__(self):
        return "ChainComplex(dims=%r)" % (self.dims,)


def check_complex(K: ChainComplex):
    """Verify d_n o d_{n+1} = 0 for every degree; returns None when the
    complex is valid, else (degree, witness_entry)."""
    for n in range(len(K.diffs) - 1):
        comp = K.diffs[n] @ K.diffs[n + 1]
        if not comp.is_zero():
            key = sorted(comp.entries)[0]
            return (n, {"entry": key, "value": comp.entries[key]})
    return None


@dataclass
class DegreeHomology:
    dim: int
    boundary_basis: Subspace
    rep_basis: Matrix          # columns: chosen representative cycles

    def class_coords(self, vecs: Matrix):
        """Coordinates of the homology classes of the columns of vecs in
        the representative basis, as the columns of a dim x vecs.cols
        matrix, by one solve; None if some column is not a cycle
        combination."""
        if not vecs.cols:
            return Matrix.zero(self.dim, 0)
        sol = solve_many(hstack([self.boundary_basis.basis, self.rep_basis]),
                         vecs)
        if sol is None:
            return None
        nb = self.boundary_basis.dim
        return Matrix(self.dim, vecs.cols, {(r - nb, c): v for (r, c), v
                                            in sol.entries.items() if r >= nb})


def homology_at(K: ChainComplex, n: int) -> DegreeHomology:
    """Homology in one degree: Ker d_{n-1} / Im d_n with deterministic
    bases.  Cached on the complex."""
    got = K._homology.get(n)
    if got is not None:
        return got
    if not 0 <= n <= K.top_degree:
        raise ValueError("degree %d outside the complex" % n)
    if n == 0:
        cycles = Subspace(K.dims[0], Matrix.identity(K.dims[0]),
                          coordinate_rows=tuple(range(K.dims[0])))
    else:
        cycles = kernel_basis(K.diffs[n - 1])
    if n < len(K.diffs):
        boundaries = image_basis(K.diffs[n])
    else:
        boundaries = Subspace(K.dims[n], Matrix.zero(K.dims[n], 0),
                              coordinate_rows=())
    # representatives: cycle columns that extend the boundary basis,
    # chosen by echelon pivots on [boundaries | cycles]
    combined = hstack([boundaries.basis, cycles.basis])
    nb = boundaries.dim
    chosen = [c - nb for c in _rank_increasing_columns(combined) if c >= nb]
    cyc_cols = cycles.basis.column_dicts()
    reps = Matrix.from_columns(K.dims[n], [cyc_cols[c] for c in chosen])
    got = DegreeHomology(dim=cycles.dim - boundaries.dim,
                         boundary_basis=boundaries, rep_basis=reps)
    if got.dim != reps.cols:
        raise AssertionError("homology basis selection inconsistent")
    K._homology[n] = got
    return got


def _rank_increasing_columns(M: Matrix):
    """Columns of M that successively increase the rank: the pivot
    columns of the row echelon form, under the deterministic pivot rule."""
    pivots, _ = _echelon(M.row_dicts(), M.cols, reduce=False)
    return [c for c, _ in pivots]


def homology_dims(K: ChainComplex, n_report: int):
    return [homology_at(K, n).dim for n in range(n_report + 1)]


def dualize(K: ChainComplex) -> ChainComplex:
    """Dual cochain complex stored as a chain complex with reversed
    degrees: chain degree m corresponds to cohomological degree
    top_degree - m, so the same homology engine computes cohomology.
    The reversed top (cohomological degree 0) is genuine.

    The dual is built once and cached on K, so every caller (and every
    dual chain map through dualize_map) shares one dual object and its
    homology cache.  This relies on complexes never being mutated after
    construction: no code changes dims or diffs of an existing complex."""
    if K._dual is None:
        N = K.top_degree
        dims = [K.dims[N - m] for m in range(N + 1)]
        diffs = [K.diffs[N - 1 - m].transpose() for m in range(N)]
        K._dual = ChainComplex(dims, diffs, genuine_top=True)
    return K._dual


def cohomology_dims(K: ChainComplex, n_report: int):
    """dim H^n for n = 0..n_report, via the dualized complex."""
    dual = dualize(K)
    N = K.top_degree
    return [homology_at(dual, N - n).dim for n in range(n_report + 1)]


class ChainMap:
    """Degreewise linear map commuting with the differentials."""

    def __init__(self, source: ChainComplex, target: ChainComplex, components):
        self.source = source
        self.target = target
        self.components = list(components)
        if len(self.components) != len(source.dims):
            raise ValueError("need one component per degree")
        for n, m in enumerate(self.components):
            if (m.rows, m.cols) != (target.dims[n], source.dims[n]):
                raise ValueError("component %d shape mismatch" % n)

    def __repr__(self):
        return "ChainMap(%r -> %r)" % (self.source.dims, self.target.dims)


def check_chain_map(psi: ChainMap):
    """Verify commutation with differentials; None when valid, else the
    first failing degree."""
    for n in range(min(len(psi.source.diffs), len(psi.target.diffs))):
        lhs = psi.target.diffs[n] @ psi.components[n + 1]
        rhs = psi.components[n] @ psi.source.diffs[n]
        if lhs != rhs:
            return n
    return None


def dualize_map(psi: ChainMap) -> ChainMap:
    """Transpose of a chain map between the dualized complexes (arrows
    reverse: the dual goes from dualize(target) to dualize(source))."""
    N = psi.source.top_degree
    comps = [psi.components[N - m].transpose() for m in range(N + 1)]
    return ChainMap(dualize(psi.target), dualize(psi.source), comps)


def induced_map_on_homology(psi: ChainMap, n: int) -> Matrix:
    """Matrix of H_n(psi) in the deterministic homology bases.

    Well-definedness (cycles to cycles, boundaries to boundaries) is
    verified, not assumed."""
    src = homology_at(psi.source, n)
    tgt = homology_at(psi.target, n)
    comp = psi.components[n]
    for col in src.boundary_basis.basis.column_dicts():
        img = comp.apply_dict(col)
        if img and not tgt.boundary_basis.contains(img):
            raise WellDefinednessViolation(
                "boundary not sent to a boundary in degree %d" % n)
    coords = tgt.class_coords(comp @ src.rep_basis)
    if coords is None:
        raise WellDefinednessViolation(
            "cycle not sent to a cycle in degree %d" % n)
    return coords


def check_quasi_isomorphism(psi: ChainMap, n_report: int):
    """Per-degree verdict: H_n(psi) invertible (square and full rank)."""
    verdicts = []
    for n in range(n_report + 1):
        m = induced_map_on_homology(psi, n)
        verdicts.append(m.rows == m.cols and rank(m) == m.rows)
    return verdicts


# -- short exact sequences of complexes ------------------------------


@dataclass(frozen=True)
class ShortExactSequenceOfComplexes:
    K: ChainComplex
    P: ChainComplex
    L: ChainComplex
    inj: ChainMap   # K -> P
    surj: ChainMap  # P -> L


def check_ses(ses: ShortExactSequenceOfComplexes):
    """Degreewise: inj injective, surj surjective, Im inj = Ker surj.
    Returns None when valid, else (degree, reason)."""
    bad = check_chain_map(ses.inj)
    if bad is not None:
        return (bad, "inj is not a chain map")
    bad = check_chain_map(ses.surj)
    if bad is not None:
        return (bad, "surj is not a chain map")
    for n in range(len(ses.P.dims)):
        f = ses.inj.components[n]
        g = ses.surj.components[n]
        if rank(f) != f.cols:
            return (n, "inj not injective")
        if rank(g) != g.rows:
            return (n, "surj not surjective")
        if not (g @ f).is_zero():
            return (n, "surj o inj != 0")
        if g.cols - rank(g) != rank(f):
            return (n, "Im inj != Ker surj")
    return None


def connecting_homomorphism(ses: ShortExactSequenceOfComplexes, n: int) -> Matrix:
    """The snake-lemma connecting map H_n(L) -> H_{n-1}(K) by the
    classic zig-zag.  Independence of the lift choices is verified by
    recomputing with free variables set to 1 instead of 0."""
    if n < 1:
        raise ValueError("connecting map needs degree >= 1")
    hl = homology_at(ses.L, n)
    hk = homology_at(ses.K, n - 1)
    results = []
    for free_value in (0, 1):
        reps = hl.rep_basis
        if reps.cols == 0:
            results.append(Matrix.zero(hk.dim, 0))
            continue
        lifts = solve_many(ses.surj.components[n], reps, free_value=free_value)
        if lifts is None:
            raise LiftFailure("cycle of L in degree %d has no preimage" % n)
        dp = ses.P.diffs[n - 1] @ lifts
        pulled = solve_many(ses.inj.components[n - 1], dp, free_value=free_value)
        if pulled is None:
            raise LiftFailure("boundary of lift not in the image of inj "
                              "in degree %d" % (n - 1))
        coords = hk.class_coords(pulled)
        if coords is None:
            raise LiftFailure("pulled-back chain is not a cycle")
        results.append(coords)
    if results[0] != results[1]:
        raise LiftFailure("connecting map depends on the lift choice")
    return results[0]


@dataclass
class SequenceNode:
    label: str
    degree: int
    dim: int
    defect: int | None      # None: not computable at this boundary node
    boundary: bool          # excluded from pass/fail
    composition_zero: bool = True


@dataclass
class LongSequence:
    """Alternating H(K) -> H(P) -> H(L) -> H(K) ... with per-node
    exactness defects.  nodes are ordered by descending degree; maps[k]
    goes from nodes[k] to nodes[k+1]."""

    nodes: list
    maps: list

    @property
    def interior_exact(self) -> bool:
        """Exact at every node in the window: zero defect and a zero
        composition of the two adjacent maps."""
        return all(n.defect == 0 and n.composition_zero
                   for n in self.nodes if not n.boundary)


def _node_defect(incoming: Matrix | None, outgoing: Matrix | None, dim: int):
    """(defect, composition_zero) at a node; incoming/outgoing None means
    the adjacent map is genuinely zero (sequence end)."""
    rk_in = rank(incoming) if incoming is not None else 0
    if outgoing is not None:
        ker_out = outgoing.cols - rank(outgoing)
    else:
        ker_out = dim
    comp_zero = True
    if incoming is not None and outgoing is not None:
        comp_zero = (outgoing @ incoming).is_zero()
    return ker_out - rk_in, comp_zero


def assemble_sequence(entries, maps, *, genuine_top: bool, genuine_bottom: bool,
                      window=None) -> LongSequence:
    """Generic defect computation for a candidate (long) sequence.

    entries: list of (label, degree, dim) from the top end downwards;
    maps: list of matrices between consecutive entries, with None for a
    map that could not be constructed.  genuine_top/bottom say whether
    the sequence really ends there (incoming/outgoing zero map), as
    opposed to being a truncation.  window, when given, is a (lo, hi)
    degree range outside which nodes are marked boundary.
    """
    nodes = []
    for k, (label, degree, dim) in enumerate(entries):
        incoming = maps[k - 1] if k > 0 else None
        outgoing = maps[k] if k < len(maps) else None
        at_top = k == 0
        at_bottom = k == len(entries) - 1
        boundary = (at_top and not genuine_top) or (at_bottom and not genuine_bottom)
        if window is not None and not (window[0] <= degree <= window[1]):
            boundary = True
        defect = None
        comp_zero = True
        missing = ((incoming is None and at_top and not genuine_top)
                   or (outgoing is None and at_bottom and not genuine_bottom)
                   or (k > 0 and maps[k - 1] is None)
                   or (k < len(maps) and maps[k] is None))
        if not missing:
            defect, comp_zero = _node_defect(incoming, outgoing, dim)
        else:
            boundary = True
        nodes.append(SequenceNode(label, degree, dim, defect, boundary, comp_zero))
    return LongSequence(nodes, maps)


def long_exact_sequence(ses: ShortExactSequenceOfComplexes,
                        lo: int, hi: int,
                        labels=("K", "P", "L")) -> LongSequence:
    """The homology long exact sequence of a short exact sequence of
    complexes over degrees lo..hi, with exactness defects at every node
    where both adjacent maps are available.  The topmost node has no
    incoming map and is reported without a defect unless the sequence
    genuinely ends there.

    Precondition: ses is valid (check_ses(ses) is None).  Like
    connecting_homomorphism, this does not re-verify it: the producer
    does (random_ses checks itself; the read-off of hochschild builds a
    valid SES, its closure checks covering the input-dependent part).
    For a valid SES all interior defects are zero (the snake lemma);
    defects are computed, not assumed."""
    entries = []
    maps = []
    for n in range(hi, lo - 1, -1):
        entries.append((labels[0], n, homology_at(ses.K, n).dim))
        maps.append(induced_map_on_homology(ses.inj, n))
        entries.append((labels[1], n, homology_at(ses.P, n).dim))
        maps.append(induced_map_on_homology(ses.surj, n))
        entries.append((labels[2], n, homology_at(ses.L, n).dim))
        if n > lo:
            maps.append(connecting_homomorphism(ses, n))
    return assemble_sequence(
        entries, maps, genuine_top=ses.P.genuine_top and hi == ses.P.top_degree,
        genuine_bottom=lo == 0, window=(lo, hi))


# -- random generators for property tests ----------------------------


def random_complex(rng: random.Random, degrees: int, max_dim: int) -> ChainComplex:
    """Random chain complex with d o d = 0, built from factored
    differentials d_n = B_n P_n with P_n B_{n+1} = 0."""
    dims = [rng.randrange(0, max_dim + 1) for _ in range(degrees + 1)]
    diffs = []
    prev_P = None  # P_{n-1}, constraining Im B_n
    for n in range(degrees):
        src, tgt = dims[n + 1], dims[n]
        if prev_P is None:
            avail = Subspace(tgt, Matrix.identity(tgt),
                             coordinate_rows=tuple(range(tgt)))
        else:
            avail = kernel_basis(prev_P)
        r = rng.randrange(0, min(avail.dim, src) + 1)
        bcols = []
        for _ in range(r):
            coeffs = {k: Q(rng.randint(-2, 2)) for k in range(avail.dim)}
            col = avail.basis.apply_dict({k: v for k, v in coeffs.items() if v})
            bcols.append(col)
        B = Matrix.from_columns(tgt, bcols)
        P = Matrix(r, src, {(a, b): Q(rng.randint(-2, 2))
                            for a in range(r) for b in range(src)
                            if rng.random() < 0.7})
        diffs.append(B @ P)
        prev_P = P
    K = ChainComplex(dims, diffs)
    if check_complex(K) is not None:
        raise AssertionError("random complex generator produced d*d != 0")
    return K


def random_ses(seed: int, degrees: int = 4, max_dim: int = 4) -> ShortExactSequenceOfComplexes:
    """Deterministic-in-seed valid SES: P = K (+) L twisted by a
    degree-(-1) map built from a random chain homotopy, which forces
    d_P^2 = 0 while keeping the inclusion/projection exact."""
    rng = random.Random(seed)
    K = random_complex(rng, degrees, max_dim)
    L = random_complex(rng, degrees, max_dim)
    s = [Matrix(K.dims[n], L.dims[n],
                {(a, b): Q(rng.randint(-2, 2))
                 for a in range(K.dims[n]) for b in range(L.dims[n])
                 if rng.random() < 0.6})
         for n in range(len(K.dims))]
    dims = [K.dims[n] + L.dims[n] for n in range(len(K.dims))]
    diffs = []
    for n in range(len(K.diffs)):
        h = (K.diffs[n] @ s[n + 1]) - (s[n] @ L.diffs[n])
        ents = {}
        for (r, c), v in K.diffs[n].entries.items():
            ents[(r, c)] = v
        for (r, c), v in h.entries.items():
            key = (r, K.dims[n + 1] + c)
            w = ents.get(key, ZERO) + v
            if w:
                ents[key] = w
        for (r, c), v in L.diffs[n].entries.items():
            ents[(K.dims[n] + r, K.dims[n + 1] + c)] = v
        diffs.append(Matrix(dims[n], dims[n + 1], ents))
    P = ChainComplex(dims, diffs)
    inj = ChainMap(K, P, [Matrix(dims[n], K.dims[n],
                                 {(r, r): ONE for r in range(K.dims[n])})
                          for n in range(len(dims))])
    surj = ChainMap(P, L, [Matrix(L.dims[n], dims[n],
                                  {(r, K.dims[n] + r): ONE
                                   for r in range(L.dims[n])})
                           for n in range(len(dims))])
    ses = ShortExactSequenceOfComplexes(K, P, L, inj, surj)
    bad = check_ses(ses)
    if bad is not None:
        raise AssertionError("random SES generator broke its contract: %r" % (bad,))
    return ses
