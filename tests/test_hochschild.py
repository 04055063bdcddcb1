"""Hochschild/cyclic/bar complexes against an independently coded
dense oracle, plus hand-checkable dimension tables."""

import dataclasses
import itertools

import pytest

from alghom import linalg
from alghom.algebra import (
    AlgebraHom, Extension, preset, validate_extension,
)
from alghom.complexes import (
    check_chain_map, check_complex, cohomology_dims, homology_dims,
)
from alghom.corpus import CORPUS, build
from alghom.hochschild import (
    ClosureViolation, DegreeCapExceeded, adapted_extension, bar_complex,
    check_degree_cap, cyclic_complex, cyclic_kernel_subcomplex,
    cyclic_operator, hochschild_complex, kernel_subcomplex, trace_space,
    verify_kernel_span,
)
from alghom.linalg import (
    Matrix, ONE, Q, ZERO, kernel_basis, kron_power, rank,
)


def oracle_differential(A, n, wrap):
    """Dense reimplementation of the degree-n differential, built by
    enumerating basis tensors instead of assembling columns."""
    d = A.dim
    rows, cols = d ** (n + 1), d ** (n + 2)
    out = {}

    def flat(tup):
        idx = 0
        for t in tup:
            idx = idx * d + t
        return idx

    for src in itertools.product(range(d), repeat=n + 2):
        col = flat(src)
        acc = {}
        for i in range(n + 1):
            prod = A.product_basis(src[i], src[i + 1])
            sign = ONE if i % 2 == 0 else -ONE
            for k, c in prod.items():
                tgt = src[:i] + (k,) + src[i + 2:]
                r = flat(tgt)
                acc[r] = acc.get(r, ZERO) + sign * c
        if wrap:
            prod = A.product_basis(src[n + 1], src[0])
            sign = ONE if (n + 1) % 2 == 0 else -ONE
            for k, c in prod.items():
                tgt = (k,) + src[1:n + 1]
                r = flat(tgt)
                acc[r] = acc.get(r, ZERO) + sign * c
        for r, v in acc.items():
            if v:
                out[(r, col)] = v
    return Matrix(rows, cols, out)


SMALL = [preset("field"), preset("zero_mult", d=2),
         preset("truncated_poly", m=3), preset("upper_triangular", k=2)]


@pytest.mark.parametrize("A", SMALL, ids=lambda a: repr(a))
@pytest.mark.parametrize("wrap", [True, False], ids=["full", "bar"])
def test_differential_matches_oracle(A, wrap):
    C = hochschild_complex(A, 2) if wrap else bar_complex(A, 2)
    for n in range(C.top_degree):
        assert C.diffs[n] == oracle_differential(A, n, wrap)


def test_field_differentials_alternate():
    C = hochschild_complex(preset("field"), 3)
    dense = [C.diffs[n].entries.get((0, 0), ZERO) for n in range(C.top_degree)]
    assert dense == [ZERO, ONE, ZERO, ONE, ZERO][:C.top_degree]


def test_homology_tables():
    assert homology_dims(hochschild_complex(preset("field"), 3), 3) == [1, 0, 0, 0]
    assert homology_dims(hochschild_complex(preset("matrix", k=2), 3), 3) == [1, 0, 0, 0]


def test_cyclic_field_alternation():
    CC, _ = cyclic_complex(preset("field"), 4)
    assert homology_dims(CC, 4) == [1, 0, 1, 0, 1]


def test_bar_homology_detects_units():
    assert homology_dims(bar_complex(preset("zero_mult", d=1), 3), 3) == [1, 1, 1, 1]
    assert homology_dims(bar_complex(preset("zero_mult", d=2), 3), 3) == [2, 4, 8, 16]
    for A in (preset("field"), preset("matrix", k=2),
              preset("truncated_poly", m=3), preset("upper_triangular", k=2)):
        assert homology_dims(bar_complex(A, 3), 3) == [0, 0, 0, 0]


def test_cyclic_operator_order():
    """t_n^(n+1) is the identity (the sign (-1)^n appears n+1 times and
    n(n+1) is even)."""
    A = preset("upper_triangular", k=2)
    for n in range(3):
        t = cyclic_operator(A, n)
        p = Matrix.identity(t.rows)
        for _ in range(n + 1):
            p = t @ p
        assert p == Matrix.identity(t.rows)


def test_cyclic_quotient_dims():
    # CC_0 = C_0 = A; 1 - t_0 = 0
    A = preset("matrix", k=2)
    CC, quot = cyclic_complex(A, 2)
    assert CC.dims[0] == A.dim
    assert quot[0].one_minus_t.is_zero()
    for q in quot[1:]:
        assert q.cc_dim == q.t_matrix.rows - rank(q.one_minus_t)


def test_trace_space_dims():
    assert trace_space(preset("matrix", k=2)).dim == 1
    assert trace_space(preset("direct_sum", a=preset("field"),
                              b=preset("field"))).dim == 2
    assert trace_space(preset("zero_mult", d=3)).dim == 3


def test_trace_is_h0_and_hc0_dual():
    for A in SMALL:
        tr = trace_space(A).dim
        assert cohomology_dims(hochschild_complex(A, 1), 0) == [tr]
        CC, _ = cyclic_complex(A, 1)
        assert cohomology_dims(CC, 0) == [tr]


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_kernel_subcomplex_structure(name):
    ext = adapted_extension(build(name))
    pieces = kernel_subcomplex(ext, hochschild_complex(ext.A, 2))
    sub, incl, comp = pieces.sub, pieces.incl, pieces.comp
    assert check_complex(sub) is None
    assert check_chain_map(incl) is None
    assert check_chain_map(comp) is None
    a, b = ext.A.dim, ext.B.dim
    for n in range(sub.top_degree + 1):
        assert sub.dims[n] == a ** (n + 1) - (a - b) ** (n + 1)


def test_kernel_subcomplex_dims_nilpotent_corner():
    ext = adapted_extension(build("nilpotent_corner"))
    sub = kernel_subcomplex(ext, hochschild_complex(ext.A, 3)).sub
    assert sub.dims == [3 ** k - 2 ** k for k in range(1, 7)][:len(sub.dims)]


def _direct(theory, A, n_report):
    if theory == "cyclic":
        return cyclic_complex(A, n_report)
    if theory == "simplicial":
        return hochschild_complex(A, n_report), None
    return bar_complex(A, n_report), None


def _pieces(theory, ext, n_report):
    """C(A) of an adapted extension with what is read off it."""
    C_A, quot = _direct(theory, ext.A, n_report)
    if theory == "cyclic":
        return C_A, cyclic_kernel_subcomplex(ext, (C_A, quot))
    return C_A, kernel_subcomplex(ext, C_A)


@pytest.mark.parametrize("theory", ["simplicial", "bar", "cyclic"])
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_read_off_pieces_match_elimination_oracles(name, theory):
    """C(B) and C(D) read off C(A) equal the complexes built directly
    from B and D, and Ker has the dimension that elimination finds in
    the original basis: dim Ker(j^(x)(n+1)), or for cyclic the rank of
    its image under the cyclic projection."""
    ext = build(name)
    C_A, pieces = _pieces(theory, adapted_extension(ext), 1)
    for piece, alg in ((pieces.CB, ext.B), (pieces.CD, ext.D)):
        direct = _direct(theory, alg, 1)[0]
        assert piece.dims == direct.dims
        assert piece.diffs == direct.diffs
    quot = _direct(theory, ext.A, 1)[1]
    kernel_dims = []
    for n in range(C_A.top_degree + 1):
        ker = kernel_basis(kron_power(ext.j.matrix, n + 1))
        kernel_dims.append(rank(quot[n].projection @ ker.basis) if quot
                           else ker.dim)
    assert pieces.sub.dims == kernel_dims
    for psi in (pieces.incl, pieces.comp, pieces.map_ba, pieces.map_ad):
        assert check_chain_map(psi) is None


@pytest.mark.parametrize("theory", ["simplicial", "cyclic"])
def test_read_off_eliminates_nothing(theory, monkeypatch):
    ext = adapted_extension(build("nilpotent_corner"))
    C_A, quot = _direct(theory, ext.A, 1)

    def forbidden(*args, **kwargs):
        raise AssertionError("elimination while reading off C(A)")

    monkeypatch.setattr(linalg, "_echelon", forbidden)
    monkeypatch.setattr(linalg.Subspace, "coords", forbidden)
    if theory == "cyclic":
        pieces = cyclic_kernel_subcomplex(ext, (C_A, quot))
    else:
        pieces = kernel_subcomplex(ext, C_A)
    assert pieces.sub.dims[0] == 1


def _non_ideal_extension():
    """B = span{e11} inside the upper-triangular 2x2 matrices, written
    with i = [I; 0] and j = [0 | I] although e11 e12 = e12 leaves B."""
    A = preset("upper_triangular", k=2)
    B, D = preset("field"), preset("zero_mult", d=2)
    i = Matrix.from_dense([[1], [0], [0]])
    j = Matrix.from_dense([[0, 1, 0], [0, 0, 1]])
    return Extension(B, A, D, AlgebraHom(B, A, i), AlgebraHom(A, D, j))


@pytest.mark.parametrize("theory", ["simplicial", "cyclic"])
def test_non_closed_restriction_names_degree(theory):
    with pytest.raises(ClosureViolation,
                       match="leaves the subcomplex at degree 0"):
        _pieces(theory, _non_ideal_extension(), 0)


def test_cyclic_projection_must_keep_the_kernel():
    """A projection sending a tensor with a B slot onto a coordinate with
    none is refused before anything is read off."""
    ext = adapted_extension(build("nilpotent_corner"))
    CC_A, quot = cyclic_complex(ext.A, 0)
    bad = dict(quot[0].projection.entries)
    bad[(1, 0)] = ONE          # tensor 0 is e12 (B), coordinate 1 is not
    quot[0] = dataclasses.replace(quot[0], projection=Matrix(3, 3, bad))
    with pytest.raises(ClosureViolation,
                       match="off its coordinates at degree 0"):
        cyclic_kernel_subcomplex(ext, (CC_A, quot))


def test_adapted_extension_rejects_non_multiplicative_j():
    with pytest.raises(ClosureViolation, match="j is not multiplicative"):
        adapted_extension(_non_ideal_extension())


@pytest.mark.parametrize("theory", ["simplicial", "cyclic"])
def test_read_off_requires_adapted_extension(theory):
    ext = build("nilpotent_corner")
    with pytest.raises(ValueError, match="adapted basis"):
        _pieces(theory, ext, 0)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_adapted_extension_is_valid_and_keeps_b_and_d(name):
    ext = build(name)
    adapted = adapted_extension(ext)
    assert adapted.B is ext.B and adapted.D is ext.D
    assert validate_extension(adapted) is None


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_kernel_span_lemma(name):
    ext = build(name)
    for n in range(1, 4):
        assert verify_kernel_span(ext, n) is None


def test_degree_cap():
    big = preset("zero_mult", d=16)
    with pytest.raises(DegreeCapExceeded):
        check_degree_cap(big.dim, 3)
    check_degree_cap(big.dim, 3, force=True)
    with pytest.raises(DegreeCapExceeded):
        hochschild_complex(big, 3)


def test_negative_degree_rejected():
    with pytest.raises(ValueError):
        check_degree_cap(2, -1)
    with pytest.raises(ValueError):
        hochschild_complex(preset("field"), -3)
