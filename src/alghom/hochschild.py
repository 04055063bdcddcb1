"""Builders for the concrete complexes of an algebra: simplicial
(Hochschild), bar and cyclic, their duals, the trace space, and the
kernel subcomplexes attached to an extension.

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
from dataclasses import dataclass

from .algebra import Algebra, Extension
from .complexes import ChainComplex, ChainMap, check_complex
from .linalg import (
    Matrix, ZERO, ONE, Subspace,
    cokernel, hstack, image_basis, kernel_basis, kron, kron_power, rank,
)

DEGREE_CAP = 10 ** 6


class InducedMapNotWellDefined(Exception):
    """The differential does not descend to the cyclic quotient; this
    can only happen through an implementation bug."""


class ClosureViolation(Exception):
    """A differential failed to map a kernel subcomplex into itself."""


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
    """d_n (or dr_n when wrap=False): C_{n+1}(A) -> C_n(A)."""
    d = A.dim
    ents = {}
    if d == 0:
        return Matrix.zero(0, 0)
    powers = [d ** k for k in range(n + 2)]
    for col, factors in enumerate(itertools.product(range(d), repeat=n + 2)):
        # face maps multiplying adjacent factors
        for i in range(n + 1):
            prod = A.product_basis(factors[i], factors[i + 1])
            if not prod:
                continue
            sign = ONE if i % 2 == 0 else -ONE
            pre = 0
            for f in factors[:i]:
                pre = pre * d + f
            suf = 0
            for f in factors[i + 2:]:
                suf = suf * d + f
            shift_k = powers[n - i]          # positions after slot i
            shift_pre = powers[n - i + 1]    # slot i itself plus the suffix
            for k, c in prod.items():
                row = pre * shift_pre + k * shift_k + suf
                key = (row, col)
                s = ents.get(key, ZERO) + sign * c
                if s:
                    ents[key] = s
                elif key in ents:
                    del ents[key]
        if wrap:
            prod = A.product_basis(factors[n + 1], factors[0])
            if prod:
                sign = ONE if (n + 1) % 2 == 0 else -ONE
                mid = 0
                for f in factors[1:n + 1]:
                    mid = mid * d + f
                for k, c in prod.items():
                    row = k * powers[n] + mid
                    key = (row, col)
                    s = ents.get(key, ZERO) + sign * c
                    if s:
                        ents[key] = s
                    elif key in ents:
                        del ents[key]
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
    """Signed cyclic permutation t_n on C_n(A); t_0 is the identity."""
    d = A.dim
    size = d ** (n + 1)
    if n == 0:
        return Matrix.identity(size)
    sign = ONE if n % 2 == 0 else -ONE
    ents = {}
    for col in range(size):
        last = col % d
        head = col // d
        row = last * (d ** n) + head
        ents[(row, col)] = sign
    return Matrix(size, size, ents)


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


# -- kernel subcomplexes of an extension -----------------------------


def _restrict_to_kernels(C_A: ChainComplex, kernels, what: str):
    """Restrict the differentials of C_A to per-degree kernel subspaces;
    verifies that each differential maps the subspace into the one below."""
    dims = [k.dim for k in kernels]
    diffs = []
    for n in range(len(C_A.diffs)):
        image = C_A.diffs[n] @ kernels[n + 1].basis
        cols = []
        for col in image.column_dicts():
            coords = kernels[n].coords(col)
            if coords is None:
                raise ClosureViolation(
                    "%s differential leaves the kernel subspace at degree %d"
                    % (what, n))
            cols.append(coords)
        diffs.append(Matrix.from_columns(dims[n], cols))
    return ChainComplex(dims, diffs)


def kernel_subcomplex(ext: Extension, C_A: ChainComplex, C_B: ChainComplex):
    """The subcomplex Ker(j (x) ... (x) j) of C_A, the simplicial or bar
    complex of ext.A, with the comparison chain map from C_B, the
    complex of ext.B built with the same differential and degree.
    Returns (subcomplex, inclusion into C_A, comparison map
    C_B -> subcomplex)."""
    n_internal = C_A.top_degree
    kernels = [kernel_basis(kron_power(ext.j.matrix, n + 1))
               for n in range(n_internal + 1)]
    sub = _restrict_to_kernels(C_A, kernels, "chain")
    inclusion = ChainMap(sub, C_A, [k.basis for k in kernels])
    comp_cols = []
    for n in range(n_internal + 1):
        i_pow = kron_power(ext.i.matrix, n + 1)
        cols = []
        for col in i_pow.column_dicts():
            coords = kernels[n].coords(col)
            if coords is None:
                raise ClosureViolation(
                    "tensor power of i does not land in Ker(j tensor power)")
            cols.append(coords)
        comp_cols.append(Matrix.from_columns(kernels[n].dim, cols))
    comparison = ChainMap(C_B, sub, comp_cols)
    return sub, inclusion, comparison


def verify_kernel_span(ext: Extension, n: int):
    """Check that Ker(j^(x)n) equals the sum over positions p of
    A^(x)(p) (x) i(B) (x) A^(x)(n-1-p), by containment both ways and an
    inclusion-exclusion dimension count.  Returns None when the check
    passes, else a counterexample description."""
    if n < 1:
        raise ValueError("tensor power must be >= 1")
    a, b, t = ext.A.dim, ext.B.dim, ext.D.dim
    J = kron_power(ext.j.matrix, n)
    ker = kernel_basis(J)
    blocks = []
    for p in range(n):
        factors = []
        for q in range(n):
            factors.append(ext.i.matrix if q == p else Matrix.identity(a))
        blk = factors[0]
        for f in factors[1:]:
            blk = kron(blk, f)
        blocks.append(blk)
    span = hstack(blocks)
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


def cyclic_kernel_subcomplex(ext: Extension, cyclic_A, cyclic_B):
    """Image of Ker(j^(x)(n+1)) in the cyclic quotient CC(A), with the
    induced differential and the comparison map from CC(B).

    cyclic_A and cyclic_B are the (complex, quotient data) pairs that
    cyclic_complex returns for ext.A and ext.B at the same degree.
    Returns (subcomplex, inclusion into CC(A), comparison map)."""
    CC_A, quot_A = cyclic_A
    CC_B, quot_B = cyclic_B
    n_internal = CC_A.top_degree
    kernels = []
    for n in range(n_internal + 1):
        J = kron_power(ext.j.matrix, n + 1)
        pushed = quot_A[n].projection @ kernel_basis(J).basis
        kernels.append(image_basis(pushed))
    sub = _restrict_to_kernels(CC_A, kernels, "cyclic")
    inclusion = ChainMap(sub, CC_A, [k.basis for k in kernels])
    comp_cols = []
    for n in range(n_internal + 1):
        induced_i = quot_A[n].projection @ kron_power(ext.i.matrix, n + 1) \
            @ quot_B[n].section
        cols = []
        for col in induced_i.column_dicts():
            coords = kernels[n].coords(col)
            if coords is None:
                raise ClosureViolation(
                    "induced tensor power of i leaves the cyclic kernel")
            cols.append(coords)
        comp_cols.append(Matrix.from_columns(kernels[n].dim, cols))
    comparison = ChainMap(CC_B, sub, comp_cols)
    return sub, inclusion, comparison
