"""Builders for the concrete complexes of an algebra: simplicial
(Hochschild), bar and cyclic, their duals, the trace space, and the
pieces of an extension's complexes.  In the adapted basis [i(B) | s(D)]
of A (adapted_extension), Ker(j (x) ... (x) j), C(B) and the quotient
C(D) are spanned by the basis tensors with some, only and no B slots,
and are read off the one complex C(A) by index.  The cyclic complex
CC(A) is Connes' complex C(A) / Im(1 - t), one coordinate per rotation
orbit of basis tensors on which t acts by +1 (connes_complex); it is
relabelled from C(A), and its pieces are read off it in the same way.
A one-sided unit contracts the bar complex (certify_acyclic), and the
degrees where its homotopy is checked are recorded acyclic.

Index convention (shared by every builder, rotation_orbits and the
B-slot counts): a basis tensor
e_{i0} (x) ... (x) e_{in} of the degree-n chain space is flattened
row-major with the leftmost factor most significant:
flat = i0 * d^n + i1 * d^(n-1) + ... + in.

Sign conventions (single source of truth for this repo):
  simplicial differential on a_0 (x) ... (x) a_{n+1}:
      sum_{i=0}^{n} (-1)^i  a_0 (x)...(x) a_i a_{i+1} (x)...(x) a_{n+1}
      + (-1)^{n+1}  a_{n+1} a_0 (x) a_1 (x)...(x) a_n
  bar differential: the same sum without the wrap-around term.
  cyclic operator: t_n (a_0 (x)...(x) a_n) =
      (-1)^n  a_n (x) a_0 (x)...(x) a_{n-1},  with t_0 = id.

Recursion (how _build_complex builds both differentials degree by
degree): the bar differential b'_n: C_{n+1} -> C_n satisfies
      b'_n = b'_{n-1} (x) 1  +  (-1)^n  1^(x)n (x) mu
(Loday, Cyclic Homology, 1.1), so b'_{n-1} (x) 1 moves each entry
(r, c) to (r d + x, c d + x) for every last factor x, and the new face
multiplies the last two factors: for each nonzero product
e_x e_y = sum c_k e_k and every mid < d^n, column (mid d + x) d + y
gets c_k (-1)^n in row mid d + k.  The simplicial d_n is b'_n plus the
wrap face: for each nonzero product e_x e_y = sum c_k e_k and every
mid < d^n, column (y d^n + mid) d + x (a_0 = e_y, a_{n+1} = e_x) gets
c_k (-1)^(n+1) in row k d^n + mid.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from dataclasses import dataclass

from .algebra import (
    Algebra, AlgebraHom, Extension, UnitWitness, find_splitting, validate_hom,
)
from .complexes import (
    ChainComplex, ChainMap, ShortExactSequenceOfComplexes, dualize,
    dualize_map, require_complex,
)
from .linalg import (
    Cokernel, Matrix, Subspace,
    cokernel, format_q, hstack, kernel_basis, solve_many,
)

DEGREE_CAP = 10 ** 6


class InducedMapNotWellDefined(Exception):
    """The differential does not descend to the cyclic quotient; this
    can only happen through an implementation bug."""


class ClosureViolation(Exception):
    """A subspace that must be closed is not: a differential leaves a
    subcomplex, or the ideal is not closed in the adapted basis."""


class ContractionFailure(Exception):
    """The homotopy of a verified one-sided unit does not contract the
    bar complex; this can only happen through an implementation bug."""


class DegreeCapExceeded(Exception):
    """The requested build would allocate more basis tensors than the
    configured cap allows."""


def check_degree_cap(dim: int, n_report: int, force: bool = False):
    """Refuse, unless force, more than DEGREE_CAP basis tensors, dim^k
    for k = n_report + 3: one degree above the top built, as dim^(k - 1)
    admits M_3(Q) + Q at degree 4 (1,960 MiB).  For dim >= 2 a k past the
    cap's bit length exceeds it; dim^k is not formed but printed d^k."""
    if n_report < 0:
        raise ValueError("report degree must be >= 0, got %d" % n_report)
    n_internal, k = n_report + 2, n_report + 3
    big = dim > 1 and k > DEGREE_CAP.bit_length()
    if not force and (big or dim ** k > DEGREE_CAP):
        raise DegreeCapExceeded(
            "degree %d over a %d-dimensional algebra needs %s basis tensors "
            "(cap %d); pass force to override" % (
                n_internal, dim, "%d^%d" % (dim, k) if big else dim ** k,
                DEGREE_CAP))


# -- simplicial and bar complexes ------------------------------------


def _accumulate(ents: dict, terms):
    """Add the (key, value) terms, all nonzero, into ents, and delete a
    key whose sum cancels, so that ents stays clean."""
    for key, v in terms:
        s = ents.get(key, 0) + v
        if s:
            ents[key] = s
        else:
            del ents[key]


def _build_complex(A: Algebra, top: int, wrap: bool) -> ChainComplex:
    """The simplicial complex of A (the bar complex when wrap=False) in
    degrees 0 ... top, by the recursion of the module docstring.  It is
    not checked here: hochschild_complex and bar_complex run
    require_complex on it, and trace_space reads only d_0.

    b'_n is b'_{n-1} (x) 1, a dict comprehension whose keys are
    distinct, plus the new face, accumulated over the nonzero products
    of A only.  The wrap face of degree n - 1 is added to b'_{n-1} in
    place once b'_n has been read off it, so each degree's entries are
    held once.  Integral structure constants are ints (Algebra), so
    integral data gives an integral matrix."""
    d = A.dim
    products = [(x, y, list(prod.items())) for (x, y), prod in A.mult.items()]

    def finish(ents, n):
        """d_n from b'_n: add the wrap face, e_x e_y = sum c_k e_k for
        a_{n+1} = e_x and a_0 = e_y."""
        if wrap:
            sign, span = (1 if n % 2 else -1), d ** n
            _accumulate(ents, (((k * span + mid, (y * span + mid) * d + x),
                                sign * c)
                               for x, y, prod in products for k, c in prod
                               for mid in range(span)))
        return Matrix._trusted(d ** (n + 1), d ** (n + 2), ents)

    diffs, bar = [], {}
    for n in range(top):
        ents = {(r * d + x, c * d + x): v
                for (r, c), v in bar.items() for x in range(d)}
        sign = 1 if n % 2 == 0 else -1
        _accumulate(ents, (((mid * d + k, (mid * d + x) * d + y), sign * c)
                           for x, y, prod in products for k, c in prod
                           for mid in range(d ** n)))
        if n:
            diffs.append(finish(bar, n - 1))
        bar = ents
    if top:
        diffs.append(finish(bar, top - 1))
    return ChainComplex([d ** (n + 1) for n in range(top + 1)], diffs)


def hochschild_complex(A: Algebra, n_report: int, force: bool = False) -> ChainComplex:
    """Simplicial chain complex of A to internal degree n_report + 1."""
    check_degree_cap(A.dim, n_report, force)
    return require_complex(_build_complex(A, n_report + 1, wrap=True),
                           "simplicial complex")


def bar_complex(A: Algebra, n_report: int, force: bool = False) -> ChainComplex:
    """Bar chain complex (no wrap-around term), built as far."""
    check_degree_cap(A.dim, n_report, force)
    return require_complex(_build_complex(A, n_report + 1, wrap=False),
                           "bar complex")


def _insertion(u: dict, right: bool, d: int, n: int):
    """s_n: C_n -> C_{n+1} of the bar complex of a d-dimensional algebra
    with the one-sided unit sum_i u[i] e_i, as the index map (step,
    stride, coef): s_n e_f = sum_i coef[i] e_(i step + f stride).  A
    left unit goes in front, x -> u (x) x at i d^(n+1) + f; a right one
    behind with its sign, x -> (-1)^n x (x) u at f d + i."""
    if right:
        sign = -1 if n % 2 else 1
        return 1, d, {i: sign * w for i, w in u.items()}
    return d ** (n + 1), 1, u


def certify_acyclic(K: ChainComplex, unit: UnitWitness):
    """Record the degrees below K's top as acyclic once the homotopy s of
    unit, a one-sided unit of the algebra whose bar complex K is (flat
    indices, over K.dims[0] basis vectors), passes
    d_n s_n + s_{n-1} d_{n-1} = 1 on C_n, checked on K's own matrices
    (Loday, Cyclic Homology, 1.4); a two-sided unit is taken as a left
    one.  With no unit nothing is recorded, and a verified unit that
    fails the identity raises ContractionFailure naming the degree.
    s is never built: _insertion's index map is applied to the columns
    of d_n for d_n s_n, and to the rows of d_{n-1} for s_{n-1} d_{n-1}."""
    if not unit.found:
        return
    d, right = K.dims[0], unit.side == "right"
    # an integral unit in ints, so that integral matrices stay integral
    u = {i: v.numerator if v.denominator == 1 else v
         for i, v in enumerate(unit.element) if v}
    for n in range(K.top_degree):
        span, ents = d ** (n + 1), {}
        step, stride, coef = _insertion(u, right, d, n)
        # column c = i step + f stride of d_n, with i < d and f < span
        _accumulate(ents, (((r, c // stride % span), coef[c // step % d] * v)
                           for (r, c), v in K.diffs[n].entries.items()
                           if c // step % d in coef))
        if n:
            step, stride, coef = _insertion(u, right, d, n - 1)
            _accumulate(ents, (((i * step + r * stride, c), w * v)
                               for (r, c), v in K.diffs[n - 1].entries.items()
                               for i, w in coef.items()))
        one = {(k, k): 1 for k in range(span)}
        if ents != one:
            key = min(k for k in ents.keys() | one.keys()
                      if ents.get(k, 0) != one.get(k, 0))
            raise ContractionFailure(
                "bar complex is not contracted by its %s unit at degree %d: "
                "d_%d s_%d%s has entry %s at %r" % (
                    unit.side, n, n, n,
                    " + s_%d d_%d" % (n - 1, n - 1) if n else "",
                    format_q(ents.get(key, 0)), key))
    K._acyclic = frozenset(range(K.top_degree))


# -- cyclic quotient -------------------------------------------------


def cyclic_operator(A: Algebra, n: int) -> Matrix:
    """Signed cyclic permutation t_n on C_n(A); t_0 is the identity.
    The last factor of the tensor at col moves to the front."""
    d, size = A.dim, A.dim ** (n + 1)
    sign = 1 if n % 2 == 0 else -1
    return Matrix(size, size, {((col % d) * d ** n + col // d, col): sign
                               for col in range(size)})


def cyclic_quotient(A: Algebra, n: int) -> Cokernel:
    """C_n(A) / Im(1 - t_n) by elimination; the oracle for
    rotation_orbits."""
    t = cyclic_operator(A, n)
    return cokernel(Matrix.identity(t.rows) - t)


Orbits = namedtuple("Orbits", "reps coord sign")


def rotation_orbits(d: int, n: int) -> Orbits:
    """The orbits of t_n on the flat indices of degree n over a
    d-dimensional algebra: t_n e_x = s e_tau(x), with the rotation
    tau(x) = (x mod d) d^n + x div d and s = (-1)^n.

    An orbit of length L survives in C_n / Im(1 - t_n) iff s^L = +1.
    Its coordinate is represented by its largest flat index, coordinates
    are ordered by that index (reps), and tau^k(rep) projects to
    s^k e_orbit: x projects to sign[x] e_coord[x], and coord[x] is -1
    when its orbit dies.  These are the free coordinates, their order
    and the projection that cokernel(1 - t_n) picks."""
    size, top, odd = d ** (n + 1), d ** n, n % 2
    rep_of, sign, alive = [None] * size, [1] * size, []
    # descending, so the first unvisited index of an orbit is its largest
    for rep in range(size - 1, -1, -1):
        if rep_of[rep] is not None:
            continue
        x, s, length = rep, 1, 0
        while rep_of[x] is None:
            rep_of[x], sign[x] = rep, s
            x, s, length = (x % d) * top + x // d, -s if odd else s, length + 1
        if not (odd and length % 2):
            alive.append(rep)
    reps = alive[::-1]
    index = {rep: k for k, rep in enumerate(reps)}
    return Orbits(reps, [index.get(r, -1) for r in rep_of], sign)


def _relabel(dn: Matrix, rows: Orbits, cols: Orbits, n: int) -> Matrix:
    """The differential induced by dn: C_{n+1} -> C_n on the orbit
    coordinates: dn's column at reps[k], each row mapped to its orbit
    and sign (rows in dead orbits dropped), is column k.  It is well
    defined, proj @ dn @ (1 - t) = 0, iff every relabelled column of dn
    is its sign times its orbit's column (0 in a dead orbit): one pass
    finds each nonzero its sign times an entry of its orbit's column,
    and an orbit of length L with L times that column's nonzeros."""
    images = {}
    for (r, c), v in dn.entries.items():
        k = rows.coord[r]
        if k >= 0:
            key = k, c
            images[key] = images.get(key, 0) + (v if rows.sign[r] > 0 else -v)
    out = {(r, cols.coord[c]): v for (r, c), v in images.items()
           if v and cols.coord[c] >= 0 and c == cols.reps[cols.coord[c]]}
    nnz = [0] * len(cols.reps)
    for (r, c), v in images.items():
        k = cols.coord[c]
        if not v:
            continue
        if k < 0 or out.get((r, k)) != (v if cols.sign[c] > 0 else -v):
            break
        nnz[k] += 1
    else:
        length = Counter(cols.coord)
        if all(nnz[k] == length[k] * m
               for k, m in Counter(k for _, k in out).items()):
            return Matrix._trusted(len(rows.reps), len(cols.reps), out)
    raise InducedMapNotWellDefined(
        "differential does not preserve Im(1 - t) at degree %d" % n)


def connes_complex(C: ChainComplex):
    """Connes' complex C^lambda = C / Im(1 - t) of the simplicial
    complex C of an algebra, with its per-degree rotation_orbits.  One
    coordinate per surviving rotation orbit; C is relabelled, not
    rebuilt, and nothing is eliminated.  CC copies C's check record:
    _relabel proves d_lambda proj = proj d with proj onto, so
    d_lambda^2 proj = proj d^2 = 0 gives d_lambda^2 = 0 (Loday, 2.1)."""
    orbits = [rotation_orbits(C.dims[0], n) for n in range(len(C.dims))]
    CC = ChainComplex([len(o.reps) for o in orbits],
                      [_relabel(dn, orbits[n], orbits[n + 1], n)
                       for n, dn in enumerate(C.diffs)])
    CC._checked = C._checked
    return CC, orbits


def cyclic_complex(A: Algebra, n_report: int, force: bool = False):
    """Cyclic complex CC(A) with its per-degree rotation_orbits:
    connes_complex of the simplicial complex of A."""
    return connes_complex(hochschild_complex(A, n_report, force))


def trace_space(A: Algebra) -> Subspace:
    """Functionals f with f(ab) = f(ba), as a subspace of the dual:
    the kernel of the transposed degree-0 differential."""
    d0 = _build_complex(A, 1, wrap=True).diffs[0]
    return kernel_basis(d0.transpose())


# -- an extension in its adapted basis ------------------------------


def _adapted_maps(a: int, b: int):
    """The matrices i = [I; 0] and j = [0 | I] for dim A = a, dim B = b."""
    return (Matrix(a, b, {(k, k): 1 for k in range(b)}),
            Matrix(a - b, a, {(k, b + k): 1 for k in range(a - b)}))


def adapted_extension(ext: Extension) -> Extension:
    """ext with A rebased onto [i(B) | s(D)], s = find_splitting(ext), so
    that i = [I; 0] and j = [0 | I]: the B slots of a basis tensor are
    the slots holding an index below B.dim.  B and D are kept.  Raises
    ClosureViolation when the new i or j is not multiplicative."""
    a, b = ext.A.dim, ext.B.dim
    P = hstack([ext.i.matrix, find_splitting(ext)])
    cols = P.column_dicts()
    X = solve_many(P, Matrix.from_columns(
        a, [ext.A.product(x, y) for x in cols for y in cols]))
    if X is None:
        raise ClosureViolation("products leave the span of [i(B) | s(D)]")
    A = Algebra(a, ext.B.basis_names + ext.D.basis_names,
                {divmod(c, a): col for c, col in enumerate(X.column_dicts())})
    mi, mj = _adapted_maps(a, b)
    i, j = AlgebraHom(ext.B, A, mi), AlgebraHom(A, ext.D, mj)
    for name, hom in (("i", i), ("j", j)):
        if validate_hom(hom):
            raise ClosureViolation(
                "%s is not multiplicative in the adapted basis" % name)
    return Extension(ext.B, A, ext.D, i, j)


def _restrict(K: ChainComplex, keep, sub: bool = True):
    """The coordinate piece of K on the increasing index lists keep[n].

    sub=True: keep must span a subcomplex, and an entry of a kept column
    in a dropped row raises ClosureViolation.  sub=False: the quotient
    by the complementary coordinates, whose entries are dropped; valid
    only once the complement has passed the subcomplex check."""
    diffs = []
    for n, d in enumerate(K.diffs):
        rows = {r: k for k, r in enumerate(keep[n])}
        cols = {c: k for k, c in enumerate(keep[n + 1])}
        ents = {}
        for (r, c), v in d.entries.items():
            if c in cols and r in rows:
                ents[(rows[r], cols[c])] = v
            elif c in cols and sub:
                raise ClosureViolation(
                    "differential leaves the subcomplex at degree %d" % n)
        diffs.append(Matrix._trusted(len(keep[n]), len(keep[n + 1]), ents))
    piece = ChainComplex([len(k) for k in keep], diffs)
    piece._checked = K._checked
    return piece


def _coordinate_map(source, target, positions, project=False) -> ChainMap:
    """Coordinate k of source to coordinate positions[n][k] of target;
    with project, the projection of source onto those coordinates."""
    return ChainMap(source, target, [Matrix(
        target.dims[n], source.dims[n],
        {(k, p) if project else (p, k): 1 for k, p in enumerate(pos)})
        for n, pos in enumerate(positions)])


@dataclass
class TheoryData:
    """One homology theory's complexes and maps for an extension.  CA
    is the complex of the adapted A (adapted_extension); the other
    complexes and the maps are coordinate pieces of it."""

    CA: ChainComplex
    CB: ChainComplex
    CD: ChainComplex
    sub: ChainComplex          # kernel subcomplex inside CA
    incl: ChainMap             # sub -> CA
    comp: ChainMap             # CB -> sub (the comparison map)
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


def _read_off(C_A: ChainComplex, counts) -> TheoryData:
    """Split C_A by counts[n][k], the number of B slots of the tensor
    behind coordinate k in degree n: Ker has some, C(B) only B slots,
    and the quotient C(D) none.  C(B) maps to C_A through Ker, as
    incl o comp.

    Ker -> C_A -> C(D) (incl, map_ad) is a valid short exact sequence
    by construction once Ker passes the closure check: the index lists
    of Ker and C(D) are disjoint and cover every coordinate, and the
    closure check is the chain-map condition of both maps.

    Ker and C(D) take C_A's acyclic record, C(B) never does.  The
    homotopy of a unit of A, u (x) x or x (x) u, keeps every B slot of
    x, so it maps Ker into Ker: the identity d s + s d = 1 restricts to
    Ker and descends to C(D) = C_A / Ker.  Its slot for u is no B slot
    unless u is in B, so C(B) is certified with B's own unit."""
    ker = [[k for k, c in enumerate(cn) if c] for cn in counts]
    only_b = [[k for k, c in enumerate(cn) if c == n + 1]
              for n, cn in enumerate(counts)]
    no_b = [[k for k, c in enumerate(cn) if not c] for cn in counts]
    sub, CB = _restrict(C_A, ker), _restrict(C_A, only_b)
    CD = _restrict(C_A, no_b, sub=False)
    sub._acyclic = CD._acyclic = C_A._acyclic
    in_ker = [{t: k for k, t in enumerate(kn)} for kn in ker]
    return TheoryData(
        C_A, CB, CD, sub, _coordinate_map(sub, C_A, ker),
        _coordinate_map(CB, sub, [[at[t] for t in ob]
                                  for at, ob in zip(in_ker, only_b)]),
        _coordinate_map(C_A, CD, no_b, project=True))


def _b_slot_counts(ext: Extension, top: int):
    """Per degree n <= top, the number of B slots of each basis tensor
    of A^(x)(n+1), in flat order.  ext must be in its adapted basis."""
    a, b = ext.A.dim, ext.B.dim
    if (ext.i.matrix, ext.j.matrix) != _adapted_maps(a, b):
        raise ValueError("extension is not in its adapted basis; "
                         "pass adapted_extension(ext)")
    counts = [[int(s < b) for s in range(a)]]
    for _ in range(top):
        counts.append([c + (s < b) for c in counts[-1] for s in range(a)])
    return counts


def kernel_subcomplex(ext: Extension, C_A: ChainComplex) -> TheoryData:
    """The theory (TheoryData) of C_A, the simplicial or bar complex of
    the A of an adapted extension, read off C_A by index."""
    return _read_off(C_A, _b_slot_counts(ext, C_A.top_degree))


def cyclic_kernel_subcomplex(ext: Extension, cyclic_A) -> TheoryData:
    """kernel_subcomplex for Connes' complex: cyclic_A is what
    connes_complex returns for the simplicial complex of the A of an
    adapted extension.  Rotation keeps the number of B slots, so each
    orbit coordinate counts the B slots of its representative, and the
    pieces are coordinate pieces of CC(A) as well."""
    CC_A, orbits = cyclic_A
    slots = _b_slot_counts(ext, CC_A.top_degree)
    return _read_off(CC_A, [[slots[n][rep] for rep in orb.reps]
                            for n, orb in enumerate(orbits)])
