"""Finite chain complexes: homology, duals, chain maps, short exact
sequences, the connecting homomorphism and long-exact-sequence assembly.

Complexes are graded 0..top_degree with differentials d_n: C_{n+1} -> C_n.
A complex built as a truncation of an infinite one is unreliable at its
top degree only; genuine_top marks complexes (such as duals of complexes
that really start in degree 0) whose top degree is exact; the builders
stop one degree above the top reported one, whose H_n and H^n read d_n.

Homology bases are echelon-deterministic: the boundary basis is the
canonical column-space basis of d_n, and representatives are the cycle
basis columns that extend it, so induced maps are reproducible
bit-for-bit.  They are picked in cycle coordinates (extending_columns),
which needs d_{n-1} d_n = 0, as do dims from ranks: homology_at and
homology_dims call require_complex, the one d o d gate, whose record a
dual, a closure-checked piece and Connes' quotient copy.  Dims need no
basis, as rank d^T = rank d over Q.  A degree recorded acyclic by a
checked contracting homotopy (hochschild.certify_acyclic) has H = 0
with no basis and no elimination, and so has its dual degree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import (
    Matrix, Subspace, hstack, exactness_defect, extending_columns,
    format_q, image_basis, kernel_basis, rank, solve_many,
)


class WellDefinednessViolation(Exception):
    """A chain map failed to send cycles to cycles or boundaries to
    boundaries; its ChainMap invariant is broken."""


class NotAComplex(Exception):
    """d_n o d_{n+1} != 0 in some degree n: a complex fails
    require_complex."""


class LiftFailure(Exception):
    """A zig-zag step failed: a lift read off the splitting is not a
    preimage, a pulled-back chain is not a cycle, or two lifts disagree.
    A valid short exact sequence split by coordinates never raises it."""


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
        self._checked = False   # d o d = 0 known: require_complex sets it
        self._acyclic = frozenset()     # H_n = 0 known: certify_acyclic sets it
        self._homology = {}
        self._dual = None

    @property
    def top_degree(self) -> int:
        return len(self.dims) - 1

    def __repr__(self):
        return "ChainComplex(dims=%r)" % (self.dims,)


def check_complex(K: ChainComplex):
    """Verify d_n o d_{n+1} = 0 for every degree n; returns None when
    they hold, else (degree, witness_entry)."""
    for n in range(len(K.diffs) - 1):
        comp = K.diffs[n] @ K.diffs[n + 1]
        if not comp.is_zero():
            key = sorted(comp.entries)[0]
            return (n, {"entry": key, "value": comp.entries[key]})
    return None


def require_complex(K: ChainComplex, what: str) -> ChainComplex:
    """K, recorded as checked, when it is recorded already or
    check_complex finds no witness; otherwise NotAComplex naming the
    degree and the witness entry."""
    bad = None if K._checked else check_complex(K)
    if bad is not None:
        n, witness = bad
        raise NotAComplex("%s is not a complex at degree %d: d_%d d_%d has "
                          "entry %s at %r" % (what, n, n, n + 1,
                                              format_q(witness["value"]),
                                              witness["entry"]))
    K._checked = True
    return K


@dataclass
class DegreeHomology:
    dim: int
    boundary_basis: Subspace | None     # None: a degree recorded acyclic
    rep_basis: Matrix          # columns: chosen representative cycles
    below: Matrix | None = None     # d_{n-1} of an acyclic degree n >= 1

    def class_coords(self, vecs: Matrix):
        """Coordinates of the homology classes of the columns of vecs in
        the representative basis, as the columns of a dim x vecs.cols
        matrix, by one solve; None if some column is not a cycle
        combination.  On a degree recorded acyclic every cycle is a
        boundary, so the test is d_{n-1} @ vecs = 0 and the classes 0."""
        if not vecs.cols:
            return Matrix.zero(self.dim, 0)
        if self.boundary_basis is None:
            if self.below is not None and not (self.below @ vecs).is_zero():
                return None
            return Matrix.zero(0, vecs.cols)
        sol = solve_many(hstack([self.boundary_basis.basis, self.rep_basis]),
                         vecs)
        if sol is None:
            return None
        nb = self.boundary_basis.dim
        return Matrix(self.dim, vecs.cols, {(r - nb, c): v for (r, c), v
                                            in sol.entries.items() if r >= nb})


def homology_at(K: ChainComplex, n: int) -> DegreeHomology:
    """Homology in one degree: Ker d_{n-1} / Im d_n with deterministic
    bases, once K passes require_complex (extending_columns needs
    d o d = 0), or 0 with no basis on a degree recorded acyclic.
    Cached on the complex."""
    got = K._homology.get(n)
    if got is not None:
        return got
    if not 0 <= n <= K.top_degree:
        raise ValueError("degree %d outside the complex, whose top degree "
                         "is %d" % (n, K.top_degree))
    require_complex(K, "chain complex")
    if n in K._acyclic:
        return K._homology.setdefault(n, DegreeHomology(
            0, None, Matrix.zero(K.dims[n], 0), K.diffs[n - 1] if n else None))
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
    reps = extending_columns(cycles, boundaries.basis)
    return K._homology.setdefault(n, DegreeHomology(reps.cols, boundaries, reps))


def homology_dims(K: ChainComplex, n_report: int):
    """dim H_n = dim C_n - rank d_{n-1} - rank d_n for n <= n_report, by
    one non-reduced elimination per d_k read, and 0 with no rank on a
    degree recorded acyclic.  Ranks cannot see d o d != 0, so K passes
    require_complex first, in every degree: NotAComplex also when
    d o d != 0 only above n_report."""
    if n_report > K.top_degree:
        raise ValueError("degree %d outside the complex, whose top degree "
                         "is %d" % (K.top_degree + 1, K.top_degree))
    require_complex(K, "chain complex")
    live = [n for n in range(n_report + 1) if n not in K._acyclic]
    ranks = {k: rank(K.diffs[k]) for n in live for k in (n - 1, n)
             if 0 <= k < len(K.diffs)}
    return [K.dims[n] - ranks.get(n - 1, 0) - ranks.get(n, 0)
            if n in live else 0 for n in range(n_report + 1)]


def dualize(K: ChainComplex) -> ChainComplex:
    """Dual cochain complex stored as a chain complex with reversed
    degrees: chain degree m corresponds to cohomological degree
    top_degree - m, so the same homology engine computes cohomology.
    The reversed top (cohomological degree 0) is genuine.  A degree n
    recorded acyclic on K is recorded at N - n on the dual: transposing
    d_n s_n + s_{n-1} d_{n-1} = 1 gives the contraction of C_n^*.

    The dual is built once and cached on K, so every caller (and every
    dual chain map through dualize_map) shares one dual object and its
    homology cache.  This relies on complexes never being mutated after
    construction: no code changes dims or diffs of an existing complex."""
    if K._dual is None:
        N = K.top_degree
        dims = [K.dims[N - m] for m in range(N + 1)]
        diffs = [K.diffs[N - 1 - m].transpose() for m in range(N)]
        K._dual = ChainComplex(dims, diffs, genuine_top=True)
        K._dual._checked = K._checked
        K._dual._acyclic = frozenset(N - n for n in K._acyclic)
    return K._dual


def cohomology_dims(K: ChainComplex, n_report: int):
    """dim H^n for n = 0..n_report: the dual's differentials are the
    d_n^T, and rank d^T = rank d over Q, so these are homology_dims."""
    return homology_dims(K, n_report)


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
    verified, not assumed, with one exception: a side recorded acyclic
    has no boundary basis, and its boundary loop is skipped.  A chain
    map sends boundaries to boundaries, and every map this is asked for
    is one by a check that has run: incl, comp and map_ad by the
    read-off's closure check (hochschild._read_off), and their duals as
    the transposes of those.  An acyclic source gives the empty matrix;
    an acyclic target keeps the cycle check (class_coords)."""
    src = homology_at(psi.source, n)
    tgt = homology_at(psi.target, n)
    if src.boundary_basis is None:
        return Matrix.zero(tgt.dim, 0)
    comp = psi.components[n]
    if tgt.boundary_basis is not None:
        for col in src.boundary_basis.basis.column_dicts():
            img = comp.apply_dict(col)
            if img and tgt.boundary_basis.coords(img) is None:
                raise WellDefinednessViolation(
                    "boundary not sent to a boundary in degree %d" % n)
    coords = tgt.class_coords(comp @ src.rep_basis)
    if coords is None:
        raise WellDefinednessViolation(
            "cycle not sent to a cycle in degree %d" % n)
    return coords


def check_quasi_isomorphism(induced_maps):
    """Per-degree verdict on the matrices H_n(psi) of a chain map psi:
    each invertible (square and full rank)."""
    return [m.rows == m.cols and rank(m) == m.rows for m in induced_maps]


# -- short exact sequences of complexes ------------------------------


@dataclass(frozen=True)
class ShortExactSequenceOfComplexes:
    """0 -> K -> P -> L -> 0, split by coordinates: in each degree inj is
    a 0/1 coordinate inclusion and surj the projection onto the
    complementary coordinates.  connecting_homomorphism reads its lifts
    off that splitting and checks each one is a preimage, so a sequence
    split otherwise raises LiftFailure rather than giving a wrong map."""

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
        if exactness_defect(f, g):
            return (n, "Im inj != Ker surj")
    return None


def connecting_homomorphism(ses: ShortExactSequenceOfComplexes, n: int) -> Matrix:
    """The snake-lemma connecting map H_n(L) -> H_{n-1}(K) by the
    classic zig-zag, read off the coordinate splitting: surj^T lifts the
    cycles of L to P and inj^T pulls their boundaries back to K, each
    checked to be a preimage.  Independence of the lift choice is
    verified by recomputing from the lift moved by inj(J), J the
    all-ones chains of K, which moves the pulled-back chains by d_K(J)."""
    if n < 1:
        raise ValueError("connecting map needs degree >= 1")
    hl = homology_at(ses.L, n)
    hk = homology_at(ses.K, n - 1)
    reps = hl.rep_basis
    if reps.cols == 0:
        return Matrix.zero(hk.dim, 0)
    surj = ses.surj.components[n]
    lift = surj.transpose() @ reps
    if surj @ lift != reps:
        raise LiftFailure("lift surj^T of the cycles of L in degree %d is "
                          "not a preimage" % n)
    inj = ses.inj.components[n - 1]
    ones = Matrix(ses.K.dims[n], reps.cols,
                  {(r, c): 1 for r in range(ses.K.dims[n])
                   for c in range(reps.cols)})
    results = []
    for chain in (lift, lift + ses.inj.components[n] @ ones):
        dp = ses.P.diffs[n - 1] @ chain
        pulled = inj.transpose() @ dp
        if inj @ pulled != dp:
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
    # a node's report record: its fields, in the order __init__ sets them
    degree: int
    group: str
    dim: int
    defect: int | None      # None: not computable at this cut node
    in_window: bool         # counted in pass/fail
    composition_zero: bool


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
                   for n in self.nodes if n.in_window)


def _node_defect(incoming: Matrix | None, outgoing: Matrix | None, dim: int):
    """(defect, composition_zero) at a node; incoming/outgoing None means
    the adjacent map is genuinely zero (sequence end)."""
    f = Matrix.zero(dim, 0) if incoming is None else incoming
    g = Matrix.zero(0, dim) if outgoing is None else outgoing
    return exactness_defect(f, g), (g @ f).is_zero()


def assemble_sequence(entries, maps, *, genuine_top: bool, genuine_bottom: bool,
                      window) -> LongSequence:
    """Generic defect computation for a candidate (long) sequence.

    entries: list of (group, degree, dim) from the top end downwards;
    maps: list of matrices between consecutive entries, with None for a
    map that could not be constructed.  genuine_top/bottom say whether
    the sequence really ends there (incoming/outgoing zero map), as
    opposed to being a truncation.  A node is cut, with no defect, when
    it is a truncated end or an adjacent map is None; it is in_window
    (counted in pass/fail) unless cut or outside the (lo, hi) window.
    """
    nodes = []
    for k, (group, degree, dim) in enumerate(entries):
        incoming = maps[k - 1] if k > 0 else None
        outgoing = maps[k] if k < len(maps) else None
        cut = ((k == 0 and not genuine_top)
               or (k == len(entries) - 1 and not genuine_bottom)
               or (k > 0 and incoming is None)
               or (k < len(maps) and outgoing is None))
        defect, comp_zero = ((None, True) if cut
                             else _node_defect(incoming, outgoing, dim))
        in_window = not cut and window[0] <= degree <= window[1]
        nodes.append(SequenceNode(degree, group, dim, defect, in_window, comp_zero))
    return LongSequence(nodes, maps)


def long_exact_sequence(ses: ShortExactSequenceOfComplexes,
                        lo: int, hi: int,
                        labels=("K", "P", "L")) -> LongSequence:
    """The homology long exact sequence of a short exact sequence of
    complexes over degrees lo..hi, with exactness defects at every node
    where both adjacent maps are available.  The topmost node has no
    incoming map and is reported without a defect unless the sequence
    genuinely ends there.

    Precondition: ses is valid (check_ses(ses) is None) and split by
    coordinates (ShortExactSequenceOfComplexes).  This does not
    re-verify validity: its producer establishes it (the read-off of
    hochschild builds a valid SES, its closure checks covering the
    input-dependent part).  The splitting is enforced where the
    connecting maps use it, by their two preimage checks.
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
