"""Shared helpers for the property suites: random chain complexes and
short exact sequences, snake-lemma checks on them, the
homology/cohomology window implications for injective chain maps,
Kronecker products and the kernel span lemma they check, the probing
kernel basis oracle, coordinates by a solve as the oracle for the
read-off of Subspace.coords, elimination over Q as the oracle for the
fraction-free elimination and for solves, the associativity check of
every triple, fixed changes of basis for extensions, the complexes
built one degree further as the oracle for the truncation degree,
homology and cohomology dims read off homology bases as the oracle for
the dims read off ranks, the RREF of every line as the oracle for the
RREF of the rank-increasing lines, representatives picked on
[boundaries | cycles] as the oracle for the pick in cycle coordinates,
the unit equations of every basis triple and the solve of both sides as
the oracle for the unit equations read off the nonzero products and for
unit_witness, the homotopy of a one-sided unit as a matrix as the
oracle for the index map of certify_acyclic, extensions whose A has a
one-sided unit only, and dense and section constructors for
matrices."""

import random

from alghom.algebra import Algebra, UnitWitness, preset, quotient_extension
from alghom.complexes import (
    ChainComplex, ChainMap, ShortExactSequenceOfComplexes, check_complex,
    check_ses, connecting_homomorphism, dualize, dualize_map, homology_at,
    induced_map_on_homology, long_exact_sequence, require_complex,
)
from alghom.corpus import _coordinate_ideal, build
from alghom.hochschild import _build_complex
from alghom.linalg import (
    Cokernel, Matrix, ONE, Q, Subspace, ZERO, _echelon, _shared_rref, hstack,
    kernel_basis, rank, solve_many,
)


def from_dense(data, rows=None, cols=None) -> Matrix:
    """The matrix of a list of rows."""
    if rows is None:
        rows = len(data)
    if cols is None:
        cols = len(data[0]) if data else 0
    return Matrix(rows, cols, {(r, c): v for r, row in enumerate(data)
                               for c, v in enumerate(row)})


def section(cok: Cokernel) -> Matrix:
    """The 0/1 matrix embedding the quotient coordinates of cok at its
    rows, so that cok.projection @ section(cok) is the identity."""
    return Matrix(cok.projection.cols, cok.dim,
                  {(r, k): 1 for k, r in enumerate(cok.rows)})


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


def kron(M: Matrix, N: Matrix) -> Matrix:
    """Kronecker product, leftmost factor most significant: entry
    ((i1, i2), (j1, j2)) lives at (i1 * N.rows + i2, j1 * N.cols + j2).
    This is the same index map used for chain-space basis tensors."""
    ents = {}
    for (r1, c1), v1 in M.entries.items():
        for (r2, c2), v2 in N.entries.items():
            ents[(r1 * N.rows + r2, c1 * N.cols + c2)] = v1 * v2
    return Matrix(M.rows * N.rows, M.cols * N.cols, ents)


def kron_power(M: Matrix, n: int) -> Matrix:
    if n < 1:
        raise ValueError("kron_power needs n >= 1")
    out = M
    for _ in range(n - 1):
        out = kron(out, M)
    return out


def kernel_basis_by_probing(M: Matrix) -> Subspace:
    """kernel_basis by a double loop over the RREF: each free column
    probes every pivot row for its entry.  The oracle for the one-pass
    walk of kernel_basis."""
    pivots = _shared_rref(M, "rref")
    pivot_cols = {c for c, _ in pivots}
    free_cols = [c for c in range(M.cols) if c not in pivot_cols]
    columns = []
    for f in free_cols:
        col = {f: 1}
        for pc, row in pivots:
            w = row.get(f)
            if w:
                col[pc] = -w
        columns.append(col)
    return Subspace(M.cols, Matrix.from_columns(M.cols, columns),
                    coordinate_rows=tuple(free_cols))


def coords_by_solve(sub: Subspace, vec: dict):
    """Coordinates of vec in the basis of sub by one solve, or None when
    vec is outside sub; the oracle for the read-off of Subspace.coords."""
    sol = solve_many(sub.basis, Matrix.from_columns(sub.ambient_dim, [vec]))
    return None if sol is None else sol.column(0)


def echelon_over_q(row_dicts, ncols, *, reduce=True):
    """Sparse Gaussian elimination over Q with the deterministic pivot
    rule; the oracle for the fraction-free linalg._echelon, which must
    give the same RREF, pivot columns and rank.

    Pivots on the leftmost nonzero column; within a column picks the
    smallest-magnitude entry (lowest row index on ties).  With
    reduce=True the result is the reduced row echelon form (pivots 1,
    zeros above and below).  A pivot of +-1 is its own inverse, so its
    row is negated or kept and its factors are products; any other
    pivot divides a Q.

    Returns the pivots, a list of (col, row_dict) in increasing column
    order.
    """
    rows = [dict(r) for r in row_dicts]
    colmap = {}
    for i, r in enumerate(rows):
        for c in r:
            colmap.setdefault(c, set()).add(i)

    pivot_of = {}
    for c in range(ncols):
        live = colmap.get(c)
        if not live:
            continue
        cand = [i for i in live if i not in pivot_of]
        if not cand:
            continue
        p = min(cand, key=lambda i: (abs(rows[i][c]), i))
        prow = rows[p]
        pv = prow[c]
        if reduce and pv != 1:
            if pv == -1:
                for cc in prow:
                    prow[cc] = -prow[cc]
            else:
                inv = ONE / pv
                for cc in prow:
                    prow[cc] *= inv
            pv = 1
        unit = pv == 1 or pv == -1
        if reduce:
            targets = [i for i in live if i != p]
        else:
            targets = [i for i in live if i != p and i not in pivot_of]
        for i in sorted(targets):
            trow = rows[i]
            f = trow[c] * pv if unit else Q(trow[c]) / pv
            for cc, w in prow.items():
                s = trow.get(cc, 0) - f * w
                if s:
                    if cc not in trow:
                        colmap.setdefault(cc, set()).add(i)
                    trow[cc] = s
                else:
                    if cc in trow:
                        del trow[cc]
                        colmap[cc].discard(i)
        pivot_of[p] = c

    return sorted(((c, rows[p]) for p, c in pivot_of.items()), key=lambda t: t[0])


def solve_over_q(M: Matrix, B: Matrix):
    """X with MX = B read off echelon_over_q's RREF of [M | B], free
    variables 0, or None when rank [M | B] > rank M; the oracle for
    linalg.solve_many, which reads inconsistency off a pivot in an
    augmented column."""
    n = M.cols
    pivots = echelon_over_q(hstack([M, B]).row_dicts(), n + B.cols)
    if len(pivots) > len(echelon_over_q(M.row_dicts(), n)):
        return None
    return Matrix(n, B.cols, {(pc, c - n): v for pc, row in pivots
                              for c, v in row.items() if c >= n})


def violations_over_every_triple(alg: Algebra):
    """Associativity violations of alg visiting all dim^3 triples
    (i, j, k) in order: the oracle for validate_algebra, which skips
    the triples where both sides vanish."""
    violations = []
    for i in range(alg.dim):
        for j in range(alg.dim):
            for k in range(alg.dim):
                left = alg.product(alg.product_basis(i, j), {k: 1})
                right = alg.product({i: 1}, alg.product_basis(j, k))
                if left != right:
                    violations.append({
                        "triple": (i, j, k),
                        "left": {t: Q(v) for t, v in left.items()},
                        "right": {t: Q(v) for t, v in right.items()}})
    return violations


def verify_kernel_span(ext, n: int):
    """Check that Ker(j^(x)n) equals the sum over positions p of
    A^(x)(p) (x) i(B) (x) A^(x)(n-1-p), by containment both ways and an
    inclusion-exclusion dimension count.  Returns None when the check
    passes, else a counterexample description."""
    if n < 1:
        raise ValueError("tensor power must be >= 1")
    a, t = ext.A.dim, ext.D.dim
    J = kron_power(ext.j.matrix, n)
    ker = kernel_basis(J)
    span = hstack([kron(kron(Matrix.identity(a ** p), ext.i.matrix),
                        Matrix.identity(a ** (n - 1 - p))) for p in range(n)])
    span_rank = rank(span)
    expected = a ** n - t ** n
    if ker.dim != expected:
        return {"reason": "kernel dimension", "got": ker.dim, "expected": expected}
    if span_rank != expected:
        return {"reason": "span dimension", "got": span_rank, "expected": expected}
    # containment: every spanning column must be annihilated by J
    if not (J @ span).is_zero():
        return {"reason": "span not inside kernel"}
    return None


def snake_check(seed: int, degrees: int = 4, max_dim: int = 4) -> bool:
    """A random SES of complexes yields a long exact sequence with zero
    interior defects; the connecting morphism's choice-independence is
    rechecked internally (two lifts per column) and raises on mismatch."""
    ses = random_ses(seed, degrees, max_dim)
    hi = ses.P.top_degree - 1   # last degree with trustworthy homology
    for n in range(1, hi + 1):
        connecting_homomorphism(ses, n)   # raises LiftFailure if unstable
    seq = long_exact_sequence(ses, 0, hi)
    return seq.interior_exact


def _is_iso(M) -> bool:
    return M.rows == M.cols and rank(M) == M.rows


def _homology_iso(psi, n) -> bool:
    """H_n(psi) an isomorphism; degrees below 0 are trivially iso."""
    if n < 0:
        return True
    return _is_iso(induced_map_on_homology(psi, n))


def prop_window_check(seed: int, degrees: int = 5, max_dim: int = 4):
    """Window implications for an injective chain map psi : K -> P.

    (I)  H^k(psi*) iso for n-1 <= k <= n+2   =>  H_n(psi) iso.
    (II) H_k(psi) iso for n-2 <= k <= n+1    =>  H^n(psi*) iso.

    Returns (violations, nonvacuous_count) over all degrees n where the
    windows stay inside the trustworthy range.
    """
    ses = random_ses(seed, degrees, max_dim)
    psi = ses.inj
    dual_psi = dualize_map(psi)
    N = ses.P.top_degree
    top_valid = N - 1

    def cohomology_iso(n):
        if n < 0:
            return True
        return _is_iso(induced_map_on_homology(dual_psi, N - n))

    violations = 0
    nonvacuous = 0
    # (I): conclusion at n needs the window n-1..n+2 within 0..top_valid
    for n in range(0, top_valid - 1):
        if all(cohomology_iso(k) for k in range(n - 1, n + 3)):
            nonvacuous += 1
            if not _homology_iso(psi, n):
                violations += 1
    # (II): window n-2..n+1, conclusion H^n valid for n <= top_valid
    for n in range(0, top_valid):
        if all(_homology_iso(psi, k) for k in range(n - 2, n + 2)):
            nonvacuous += 1
            if not cohomology_iso(n):
                violations += 1
    return violations, nonvacuous


def lemma_vanishing_check(seed: int, degrees: int = 4, max_dim: int = 4) -> tuple:
    """In an exact sequence, a node flanked two maps away by
    isomorphisms must vanish.  Scans the true long exact sequence of a
    random SES; returns (violations, nonvacuous_count)."""
    ses = random_ses(seed, degrees, max_dim)
    hi = ses.P.top_degree - 1
    seq = long_exact_sequence(ses, 0, hi)
    violations = 0
    nonvacuous = 0
    for k in range(2, len(seq.nodes) - 2):
        nd = seq.nodes[k]
        if not (nd.in_window and seq.nodes[k - 1].in_window
                and seq.nodes[k + 1].in_window):
            continue
        if _is_iso(seq.maps[k - 2]) and _is_iso(seq.maps[k + 1]):
            nonvacuous += 1
            if nd.dim != 0:
                violations += 1
    return violations, nonvacuous


# Changes of basis f = S e of a 3-dimensional algebra.  A unimodular
# one (det 1) keeps integral structure constants integral; the one with
# det 4 gives every 3-dimensional corpus algebra fractional ones, also
# after adapted_extension.
BASIS_CHANGE = ((2, 1, 1), (1, 1, 1), (1, 1, 2))
BASIS_CHANGE_DET_4 = ((2, 1, 1), (1, 2, 1), (1, 1, 2))


def rebased(ext, S=BASIS_CHANGE):
    """ext with its 3-dimensional A rewritten in the basis f = S e and
    rebuilt with quotient_extension, so that the ideal is no longer
    spanned by basis vectors."""
    d = ext.A.dim
    assert d == len(S)
    S_inv = solve_many(from_dense(S), Matrix.identity(d))
    mult = {(a, b): S_inv.apply_dict(ext.A.product(
                {i: S[i][a] for i in range(d)}, {j: S[j][b] for j in range(d)}))
            for a in range(d) for b in range(d)}
    A = Algebra(d, ["f%d" % k for k in range(d)], mult)
    return quotient_extension(A, S_inv @ ext.i.matrix, ext.B.basis_names)


def m3_plus_q():
    """The C*-case of the paper at its smallest non-commutative size:
    A = M_3(Q) (+) Q with B = M_3(Q), D = Q."""
    return _coordinate_ideal(preset("direct_sum", a=preset("matrix", k=3),
                                    b=preset("field")), range(9))


def complex_one_degree_further(A, n_report: int, wrap: bool = True):
    """The simplicial complex of A (the bar complex when wrap=False) to
    internal degree n_report + 2, one above hochschild_complex and
    bar_complex, and checked as they check theirs.  Reports read off it
    must equal the shipped ones: H_n and H^n for n <= n_report read
    d_n only up to n = n_report."""
    return require_complex(_build_complex(A, n_report + 2, wrap),
                           "simplicial complex" if wrap else "bar complex")


def basis_dims(K: ChainComplex, n_report: int):
    """(dim H_n, dim H^n) for n = 0..n_report, read off the homology
    bases of K and of its dual: the engine the excision report reads,
    and the oracle for homology_dims and cohomology_dims, which read
    ranks only."""
    N = K.top_degree
    return ([homology_at(K, n).dim for n in range(n_report + 1)],
            [homology_at(dualize(K), N - n).dim for n in range(n_report + 1)])


def rref_of_every_line(M: Matrix, key: str):
    """The RREF of all of M's rows (key "rref") or of all its columns
    ("rref_t"), by one reduced elimination of every line in index
    order: the oracle for linalg._shared_rref, which eliminates only the
    rank-increasing lines."""
    by_rows = key == "rref"
    lines = [{} for _ in range(M.rows if by_rows else M.cols)]
    for (r, c), v in sorted(M.entries.items()):
        if by_rows:
            lines[r][c] = v
        else:
            lines[c][r] = v
    return _echelon(lines, M.cols if by_rows else M.rows, reduce=True)


def typed_rref(pivots):
    """An RREF as (pivot column, [(column, value, type name)]) in column
    order, so that equal RREFs compare equal in their entry types too."""
    return [(c, [(k, v, type(v).__name__) for k, v in sorted(row.items())])
            for c, row in pivots]


def rep_basis_on_hstack(K: ChainComplex, n: int) -> Matrix:
    """The representatives of H_n(K) as the cycle columns among the
    pivot columns of one non-reduced elimination of [boundaries |
    cycles] in C_n: the oracle for linalg.extending_columns, which
    picks them in cycle coordinates."""
    if n == 0:
        cycles = Matrix.identity(K.dims[0])
    else:
        cycles = kernel_basis(K.diffs[n - 1]).basis
    image = (rref_of_every_line(K.diffs[n], "rref_t")
             if n < len(K.diffs) else [])
    boundaries = Matrix.from_columns(K.dims[n], [row for _, row in image])
    combined = hstack([boundaries, cycles])
    nb = boundaries.cols
    pivots = _echelon(combined.row_dicts(), combined.cols, reduce=False)
    columns = cycles.column_dicts()
    return Matrix.from_columns(K.dims[n], [columns[c - nb]
                                           for c, _ in pivots if c >= nb])


def unit_system_over_every_triple(alg: Algebra, side: str):
    """The unit equations of one side visiting all dim^3 index triples:
    row j * dim + k is sum_i x_i c[i][j][k] = delta_jk (left) or
    sum_i x_i c[j][i][k] = delta_jk (right).  The oracle for
    algebra._unit_system, which reads the nonzero products only."""
    ents = {}
    rhs = {}
    row = 0
    for j in range(alg.dim):
        for k in range(alg.dim):
            for i in range(alg.dim):
                c = (alg.product_basis(i, j) if side == "left"
                     else alg.product_basis(j, i)).get(k)
                if c:
                    ents[(row, i)] = c
            if j == k:
                rhs[(row, 0)] = 1
            row += 1
    return Matrix(row, alg.dim, ents), Matrix(row, 1, rhs)


def unit_witness_by_two_solves(alg: Algebra) -> UnitWitness:
    """The unit witness from solving both sides' equations of every
    triple: two-sided when both solve (the left solution is kept),
    otherwise the side that solves.  The oracle for unit_witness, which
    solves the right side only when there is no left unit."""
    found = {}
    for side in ("left", "right"):
        if alg.dim == 0:
            found[side] = []
            continue
        sol = solve_many(*unit_system_over_every_triple(alg, side))
        if sol is not None:
            x = sol.column(0)
            found[side] = [x.get(i, ZERO) for i in range(alg.dim)]
    if len(found) == 2:
        return UnitWitness("two-sided", found["left"])
    if found:
        (side, element), = found.items()
        return UnitWitness(side, element)
    return UnitWitness("none")


def homotopy_matrix(unit: UnitWitness, d: int, n: int) -> Matrix:
    """s_n: C_n -> C_{n+1} of the bar complex of a d-dimensional algebra
    for the one-sided unit witness unit, as a matrix in flat indices:
    x -> u (x) x for a left (or two-sided) unit, x -> (-1)^n x (x) u for
    a right one.  The oracle for the index map of certify_acyclic."""
    u = {i: v for i, v in enumerate(unit.element) if v}
    span = d ** (n + 1)
    if unit.side == "right":
        sign = -1 if n % 2 else 1
        return Matrix(d * span, span, {
            (f * d + i, f): sign * w for f in range(span) for i, w in u.items()})
    return Matrix(d * span, span, {
        (i * span + f, f): w for i, w in u.items() for f in range(span)})


def contraction_by_matrices(K: ChainComplex, unit: UnitWitness, n: int) -> Matrix:
    """d_n s_n + s_{n-1} d_{n-1} on C_n of the bar complex K, by Matrix
    products of K's differentials and homotopy_matrix."""
    d = K.dims[0]
    out = K.diffs[n] @ homotopy_matrix(unit, d, n)
    if n:
        out = out + homotopy_matrix(unit, d, n - 1) @ K.diffs[n - 1]
    return out


def _corner_ideal(corner, ideal):
    """A corner's B as A, over the coordinate ideal of the indices
    ideal: A has only the left (or only the right) unit of that B."""
    return _coordinate_ideal(build(corner).B, ideal)


# extensions whose A has one-sided units only, and one with no unit
ONE_SIDED = {
    "left-A-over-e12": lambda: _corner_ideal("left_unital_corner", [1]),
    "left-A-over-A": lambda: _corner_ideal("left_unital_corner", [0, 1]),
    "right-A-over-e12": lambda: _corner_ideal("right_unital_corner", [0]),
    "right-A-over-A": lambda: _corner_ideal("right_unital_corner", [0, 1]),
    "zero_mult": lambda: _coordinate_ideal(preset("zero_mult", d=2), [0]),
}
