"""Hochschild/cyclic/bar complexes against an independently coded
dense oracle, plus hand-checkable dimension tables."""

import itertools

import pytest

from alghom.algebra import preset
from alghom.complexes import (
    check_chain_map, check_complex, cohomology_dims, homology_dims,
)
from alghom.corpus import CORPUS, build
from alghom.hochschild import (
    DegreeCapExceeded, bar_complex, check_degree_cap, cyclic_complex,
    cyclic_operator, hochschild_complex, kernel_subcomplex, trace_space,
    verify_kernel_span,
)
from alghom.linalg import Matrix, ONE, Q, ZERO, rank


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
        assert C.diff(n) == oracle_differential(A, n, wrap)


def test_field_differentials_alternate():
    C = hochschild_complex(preset("field"), 3)
    dense = [C.diff(n).entries.get((0, 0), ZERO) for n in range(C.top_degree)]
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
    ext = build(name)
    sub, incl, comp = kernel_subcomplex(
        ext, hochschild_complex(ext.A, 2), hochschild_complex(ext.B, 2))
    assert check_complex(sub) is None
    assert check_chain_map(incl) is None
    assert check_chain_map(comp) is None
    a, b = ext.A.dim, ext.B.dim
    for n in range(sub.top_degree + 1):
        assert sub.dims[n] == a ** (n + 1) - (a - b) ** (n + 1)


def test_kernel_subcomplex_dims_nilpotent_corner():
    ext = build("nilpotent_corner")
    sub, _, _ = kernel_subcomplex(
        ext, hochschild_complex(ext.A, 3), hochschild_complex(ext.B, 3))
    assert sub.dims == [3 ** k - 2 ** k for k in range(1, 7)][:len(sub.dims)]


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
