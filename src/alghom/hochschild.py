"""Builders for the concrete complexes of an algebra: simplicial
(Hochschild), bar and cyclic, their duals, the trace space, and the
pieces of an extension's complexes.  In the adapted basis [i(B) | s(D)]
of A (adapted_extension), Ker(j (x) ... (x) j), C(B) and the quotient
C(D) are spanned by the basis tensors with some, only and no B slots,
and are read off the one complex C(A) by index.

Index convention (shared with linalg.kron): a basis tensor
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
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import dataclass

from .algebra import (
    Algebra, AlgebraHom, Extension, find_splitting, validate_hom,
)
from .complexes import ChainComplex, ChainMap, check_complex
from .linalg import (
    Matrix, ZERO, ONE, Subspace,
    cokernel, hstack, kernel_basis, kron, kron_power, rank, solve_many,
)

DEGREE_CAP = 10 ** 6


class InducedMapNotWellDefined(Exception):
    """The differential does not descend to the cyclic quotient; this
    can only happen through an implementation bug."""


class ClosureViolation(Exception):
    """A subspace that must be closed is not: a differential leaves a
    subcomplex, or the ideal is not closed in the adapted basis."""


class DegreeCapExceeded(Exception):
    """The requested build would allocate more basis tensors than the
    configured cap allows."""


def check_degree_cap(dim: int, n_report: int, force: bool = False):
    if n_report < 0:
        raise ValueError("report degree must be >= 0, got %d" % n_report)
    n_internal = n_report + 2
    size = dim ** (n_internal + 1)
    if size > DEGREE_CAP and not force:
        raise DegreeCapExceeded(
            "degree %d over a %d-dimensional algebra needs %d basis tensors "
            "(cap %d); pass force to override" % (n_internal, dim, size, DEGREE_CAP))


# -- simplicial and bar complexes ------------------------------------


def _chain_differential(A: Algebra, n: int, wrap: bool) -> Matrix:
    """d_n (or dr_n when wrap=False): C_{n+1}(A) -> C_n(A).

    Face i <= n of the tensor at flat index col = (pre, a_i, a_{i+1},
    rest) puts the product a_i a_{i+1} between pre and rest; the
    wrap-around face puts a_{n+1} a_0 in front of rest = a_1 ... a_n.
    Sums that cancel are dropped by the Matrix constructor."""
    d = A.dim
    # (left slot, right slot, sign, weight of the product's slot)
    faces = [(i, i + 1, ONE if i % 2 == 0 else -ONE, d ** (n - i))
             for i in range(n + 1)]
    if wrap:
        faces.append((n + 1, 0, ONE if n % 2 else -ONE, d ** n))
    ents = {}
    for col, factors in enumerate(itertools.product(range(d), repeat=n + 2)):
        for left, right, sign, scale in faces:
            prod = A.mult.get((factors[left], factors[right]))
            if not prod:
                continue
            if right:
                base = col // (scale * d * d) * d * scale + col % scale
            else:
                base = col // d % scale
            for k, c in prod.items():
                key = (base + k * scale, col)
                ents[key] = ents.get(key, ZERO) + sign * c
    return Matrix(d ** (n + 1), d ** (n + 2), ents)


def _build_complex(A: Algebra, n_report: int, wrap: bool,
                   force: bool = False) -> ChainComplex:
    check_degree_cap(A.dim, n_report, force)
    n_internal = n_report + 2
    dims = [A.dim ** (n + 1) for n in range(n_internal + 1)]
    diffs = [_chain_differential(A, n, wrap) for n in range(n_internal)]
    K = ChainComplex(dims, diffs)
    bad = check_complex(K)
    if bad is not None:
        raise AssertionError("built complex is not a complex: %r" % (bad,))
    return K


def hochschild_complex(A: Algebra, n_report: int, force: bool = False) -> ChainComplex:
    """Simplicial chain complex of A to internal degree n_report + 2."""
    return _build_complex(A, n_report, wrap=True, force=force)


def bar_complex(A: Algebra, n_report: int, force: bool = False) -> ChainComplex:
    """Bar chain complex (no wrap-around term)."""
    return _build_complex(A, n_report, wrap=False, force=force)


# -- cyclic quotient -------------------------------------------------


def cyclic_operator(A: Algebra, n: int) -> Matrix:
    """Signed cyclic permutation t_n on C_n(A); t_0 is the identity.
    The last factor of the tensor at col moves to the front."""
    d, size = A.dim, A.dim ** (n + 1)
    sign = ONE if n % 2 == 0 else -ONE
    return Matrix(size, size, {((col % d) * d ** n + col // d, col): sign
                               for col in range(size)})


@dataclass(frozen=True)
class CyclicQuotientData:
    degree: int
    t_matrix: Matrix
    one_minus_t: Matrix
    projection: Matrix
    section: Matrix
    cc_dim: int


def cyclic_quotient(A: Algebra, n: int) -> CyclicQuotientData:
    t = cyclic_operator(A, n)
    omt = Matrix.identity(t.rows) - t
    cok = cokernel(omt)
    return CyclicQuotientData(n, t, omt, cok.projection, cok.section, cok.dim)


def cyclic_complex(A: Algebra, n_report: int, force: bool = False):
    """Cyclic quotient complex CC(A) with its per-degree quotient data.

    The induced differential is computed through the deterministic
    section of the projection; well-definedness (d maps Im(1 - t) into
    Im(1 - t)) is verified exactly before quotienting."""
    C = hochschild_complex(A, n_report, force)
    n_internal = n_report + 2
    quotients = [cyclic_quotient(A, n) for n in range(n_internal + 1)]
    dims = [q.cc_dim for q in quotients]
    diffs = []
    for n in range(n_internal):
        proj_d = quotients[n].projection @ C.diffs[n]
        if not (proj_d @ quotients[n + 1].one_minus_t).is_zero():
            raise InducedMapNotWellDefined(
                "differential does not preserve Im(1 - t) at degree %d" % n)
        diffs.append(proj_d @ quotients[n + 1].section)
    CC = ChainComplex(dims, diffs)
    bad = check_complex(CC)
    if bad is not None:
        raise AssertionError("cyclic quotient complex is not a complex: %r" % (bad,))
    return CC, quotients


def trace_space(A: Algebra) -> Subspace:
    """Functionals f with f(ab) = f(ba), as a subspace of the dual:
    the kernel of the transposed degree-0 differential."""
    d0 = _chain_differential(A, 0, wrap=True)
    return kernel_basis(d0.transpose())


# -- an extension in its adapted basis ------------------------------


def _adapted_maps(a: int, b: int):
    """The matrices i = [I; 0] and j = [0 | I] for dim A = a, dim B = b."""
    return (Matrix(a, b, {(k, k): ONE for k in range(b)}),
            Matrix(a - b, a, {(k, b + k): ONE for k in range(a - b)}))


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
        diffs.append(Matrix(len(keep[n]), len(keep[n + 1]), ents))
    return ChainComplex([len(k) for k in keep], diffs)


def _coordinate_map(source, target, positions, project=False) -> ChainMap:
    """Coordinate k of source to coordinate positions[n][k] of target;
    with project, the projection of source onto those coordinates."""
    return ChainMap(source, target, [Matrix(
        target.dims[n], source.dims[n],
        {(k, p) if project else (p, k): ONE for k, p in enumerate(pos)})
        for n, pos in enumerate(positions)])


ExtensionPieces = namedtuple(
    "ExtensionPieces", "CB CD sub incl comp map_ba map_ad")


def _read_off(C_A: ChainComplex, counts) -> ExtensionPieces:
    """Split C_A by counts[n][k], the number of B slots of the tensor
    behind coordinate k in degree n: Ker has some, C(B) only B slots,
    and the quotient C(D) none.

    Ker -> C_A -> C(D) (incl, map_ad) is a valid short exact sequence
    by construction once Ker passes the closure check: the index lists
    of Ker and C(D) are disjoint and cover every coordinate, and the
    closure check is the chain-map condition of both maps."""
    def where(test):
        return [[k for k, c in enumerate(cn) if test(n, c)]
                for n, cn in enumerate(counts)]
    ker, only_b = where(lambda n, c: c), where(lambda n, c: c == n + 1)
    no_b = where(lambda n, c: not c)
    sub, CB = _restrict(C_A, ker), _restrict(C_A, only_b)
    CD = _restrict(C_A, no_b, sub=False)
    in_ker = [{t: k for k, t in enumerate(kn)} for kn in ker]
    return ExtensionPieces(
        CB, CD, sub, _coordinate_map(sub, C_A, ker),
        _coordinate_map(CB, sub, [[at[t] for t in ob]
                                  for at, ob in zip(in_ker, only_b)]),
        _coordinate_map(CB, C_A, only_b),
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


def kernel_subcomplex(ext: Extension, C_A: ChainComplex) -> ExtensionPieces:
    """C(B), the quotient C(D), the subcomplex Ker(j (x) ... (x) j) and
    the maps incl, comp, map_ba and map_ad, read off C_A, the simplicial
    or bar complex of the A of an adapted extension, by index."""
    return _read_off(C_A, _b_slot_counts(ext, C_A.top_degree))


def cyclic_kernel_subcomplex(ext: Extension, cyclic_A) -> ExtensionPieces:
    """kernel_subcomplex for the cyclic quotient: cyclic_A is what
    cyclic_complex returns for the A of an adapted extension.

    Quotient coordinate qi is the class of the tensor q with
    section @ e_qi = e_q, and counts the B slots of q.  Every tensor
    with a B slot must project onto such coordinates; the image of
    Ker(j (x) ... (x) j) is then exactly their span."""
    CC_A, quot_A = cyclic_A
    slots = _b_slot_counts(ext, CC_A.top_degree)
    counts = []
    for n, q in enumerate(quot_A):
        coord = [slots[n][next(iter(col))] for col in q.section.column_dicts()]
        for k, col in enumerate(q.projection.column_dicts()):
            if slots[n][k] and not all(coord[qi] for qi in col):
                raise ClosureViolation(
                    "cyclic projection moves the kernel off its "
                    "coordinates at degree %d" % n)
        counts.append(coord)
    return _read_off(CC_A, counts)


def verify_kernel_span(ext: Extension, n: int):
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
