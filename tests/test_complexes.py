"""Chain complexes, homology, duality, chain maps and the snake lemma."""

import random

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from alghom import complexes
from alghom.complexes import (
    ChainComplex, ChainMap, LiftFailure, WellDefinednessViolation,
    assemble_sequence, check_chain_map, check_complex, check_ses,
    cohomology_dims, connecting_homomorphism, dualize, dualize_map,
    homology_at, homology_dims, induced_map_on_homology,
    long_exact_sequence, random_complex, random_ses,
)
from alghom.linalg import Matrix, ONE, Q, rank

from support import lemma_vanishing_check, prop_window_check, snake_check


def sympy_rank(M):
    return sympy.Matrix(M.rows, M.cols,
                        lambda r, c: sympy.Rational(str(M.entries.get((r, c), 0)))
                        ).rank()


seeds = st.integers(0, 10 ** 6)


def test_check_complex_catches_bad_differential():
    # dims [1, 2, 1]: d0 is 1x2, d1 is 2x1, and d0 @ d1 != 0
    d0 = Matrix.from_dense([[1, 0]])
    d1 = Matrix.from_dense([[1], [0]])
    K = ChainComplex([1, 2, 1], [d0, d1])
    assert check_complex(K) is not None


@settings(max_examples=50, deadline=None)
@given(seeds)
def test_random_complexes_close(seed):
    K = random_complex(random.Random(seed), 4, 5)
    assert check_complex(K) is None


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_homology_dims_match_rank_formula(seed):
    """dim H_n = dim C_n - rank d_{n-1} - rank d_n, with ranks from
    sympy as the independent oracle."""
    K = random_complex(random.Random(seed), 4, 5)
    for n in range(K.top_degree):
        r_in = sympy_rank(K.diffs[n - 1]) if n > 0 else 0
        r_out = sympy_rank(K.diffs[n])
        assert homology_at(K, n).dim == K.dims[n] - r_in - r_out


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_homology_representatives_are_cycles(seed):
    K = random_complex(random.Random(seed), 4, 4)
    for n in range(K.top_degree):
        h = homology_at(K, n)
        if n > 0 and h.rep_basis.cols:
            assert (K.diffs[n - 1] @ h.rep_basis).is_zero()


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_betti_duality(seed):
    """dim H^n = dim H_n over Q in every trustworthy degree."""
    K = random_complex(random.Random(seed), 4, 5)
    hi = K.top_degree - 1
    assert homology_dims(K, hi) == cohomology_dims(K, hi)


def test_dualize_reverses_and_transposes():
    d0 = Matrix.from_dense([[1, 0]])
    K = ChainComplex([1, 2], [d0])
    D = dualize(K)
    assert D.dims == [2, 1]
    assert D.diffs[0] == d0.transpose()
    assert D.genuine_top


def test_dualize_is_cached_and_shared_by_dual_maps():
    ses = random_ses(5)
    assert dualize(ses.P) is dualize(ses.P)
    dual = dualize_map(ses.inj)
    assert dual.source is dualize(ses.P)
    assert dual.target is dualize(ses.K)
    # the homology cache of the shared dual survives between calls
    homology_at(dualize(ses.P), 0)
    assert 0 in dualize_map(ses.surj).target._homology


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_ses_generator_valid(seed):
    ses = random_ses(seed)
    assert check_ses(ses) is None
    assert check_chain_map(ses.inj) is None
    assert check_chain_map(ses.surj) is None


def test_induced_map_rejects_non_chain_map():
    # identity from the zero-differential complex to the identity-
    # differential complex sends cycles to non-cycles at degree 1
    K = ChainComplex([1, 1], [Matrix.zero(1, 1)], genuine_top=True)
    L = ChainComplex([1, 1], [Matrix.from_dense([[1]])], genuine_top=True)
    psi = ChainMap(K, L, [Matrix.identity(1), Matrix.identity(1)])
    with pytest.raises(WellDefinednessViolation):
        induced_map_on_homology(psi, 1)


def test_induced_map_solves_once(monkeypatch):
    """All representatives of the source are mapped to classes by one
    solve, not one per representative, and a source without homology
    needs no solve."""
    K = ChainComplex([3, 2], [Matrix.zero(3, 2)], genuine_top=True)
    psi = ChainMap(K, K, [Matrix.identity(3), Matrix.identity(2)])
    L = ChainComplex([1, 1], [Matrix.identity(1)], genuine_top=True)
    zero = ChainMap(L, L, [Matrix.identity(1), Matrix.identity(1)])
    homology_at(K, 0)
    homology_at(L, 1)
    calls = []
    real = complexes.solve_many

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(complexes, "solve_many", counted)
    assert induced_map_on_homology(psi, 0) == Matrix.identity(3)
    assert len(calls) == 1
    assert induced_map_on_homology(zero, 1) == Matrix.zero(0, 0)
    assert len(calls) == 1


def test_interior_exact_needs_zero_compositions():
    """A node with defect 0 whose adjacent maps do not compose to zero
    is not exact."""
    f = Matrix.from_dense([[1, 0], [0, 0]])
    seq = assemble_sequence([("a", 2, 2), ("b", 1, 2), ("c", 0, 2)], [f, f],
                            genuine_top=True, genuine_bottom=True,
                            window=(1, 1))
    middle = seq.nodes[1]
    assert (middle.boundary, middle.defect, middle.composition_zero) == (
        False, 0, False)
    assert not seq.interior_exact


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_snake_lemma_property(seed):
    assert snake_check(seed)


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_connecting_square_with_differential_zero(seed):
    """The connecting morphism lands in homology: composing its
    representative-level construction with another boundary step is
    zero, which induced_map verification plus the double-lift check
    inside connecting_homomorphism already enforce; here we only assert
    it runs without LiftFailure on valid input."""
    ses = random_ses(seed)
    for n in range(1, ses.P.top_degree):
        connecting_homomorphism(ses, n)


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_window_implications(seed):
    violations, _ = prop_window_check(seed)
    assert violations == 0


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_exact_sequence_vanishing_between_isos(seed):
    violations, _ = lemma_vanishing_check(seed)
    assert violations == 0


def test_window_implications_nonvacuous():
    total = sum(prop_window_check(seed)[1] for seed in range(40))
    assert total > 0


def test_long_exact_sequence_boundary_marking():
    ses = random_ses(3)
    hi = ses.P.top_degree - 1
    seq = long_exact_sequence(ses, 0, hi)
    assert seq.nodes[0].degree == hi
    # bottom node sits at a genuine end, so it carries a defect
    assert seq.nodes[-1].defect is not None
