"""Chain complexes, homology, duality, chain maps and the snake lemma."""

import random

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from alghom import complexes, linalg
from alghom.algebra import preset
from alghom.corpus import CORPUS, build
from alghom.hochschild import bar_complex, cyclic_complex, hochschild_complex
from alghom.complexes import (
    ChainComplex, ChainMap, DegreeHomology, LiftFailure, NotAComplex,
    ShortExactSequenceOfComplexes, WellDefinednessViolation,
    assemble_sequence, check_chain_map, check_complex, check_ses,
    cohomology_dims, connecting_homomorphism, dualize, dualize_map,
    homology_at, homology_dims, induced_map_on_homology,
    long_exact_sequence, require_complex,
)
from alghom.linalg import Matrix, ONE, Q, rank

from support import (
    BASIS_CHANGE, BASIS_CHANGE_DET_4, basis_dims, from_dense,
    lemma_vanishing_check, prop_window_check, random_complex, random_ses,
    rebased, snake_check,
)


def sympy_rank(M):
    return sympy.Matrix(M.rows, M.cols,
                        lambda r, c: sympy.Rational(str(M.entries.get((r, c), 0)))
                        ).rank()


seeds = st.integers(0, 10 ** 6)


def test_check_complex_catches_bad_differential():
    # dims [1, 2, 1]: d0 is 1x2, d1 is 2x1, and d0 @ d1 != 0
    d0 = from_dense([[1, 0]])
    d1 = from_dense([[1], [0]])
    K = ChainComplex([1, 2, 1], [d0, d1])
    assert check_complex(K) is not None


NOT_A_COMPLEX_AT_0 = (r"^chain complex is not a complex at degree 0: "
                      r"d_0 d_1 has entry 1 at \(0, 0\)$")


def test_homology_of_a_non_complex_names_the_degree():
    """d_0 d_1 = 1: homology_at passes K through require_complex, which
    names the failing degree, whichever degree is asked for."""
    K = ChainComplex([1, 1, 1], [Matrix.identity(1), Matrix.identity(1)])
    for n in range(3):
        with pytest.raises(NotAComplex, match=NOT_A_COMPLEX_AT_0):
            homology_at(K, n)
    assert not K._checked and K._homology == {}


def test_dual_of_a_non_complex_raises():
    """The dual of an unchecked complex is unchecked, and its homology
    checks it: (d_0 d_1)^T != 0 is the dual's d_0 d_1."""
    K = ChainComplex([1, 1, 1], [Matrix.identity(1), Matrix.identity(1)])
    assert not dualize(K)._checked
    with pytest.raises(NotAComplex, match=NOT_A_COMPLEX_AT_0):
        homology_at(dualize(K), 1)


def test_homology_checks_a_non_complex_whose_counts_agree():
    """d_0 d_1 != 0, yet the boundary (1, 1) has the cycle coordinate 1
    at the free row of Ker d_0, so one cycle, one boundary and no
    representative look consistent: only the product check sees it."""
    K = ChainComplex([1, 2, 1], [from_dense([[1, 0]]), from_dense([[1], [1]])])
    with pytest.raises(NotAComplex, match=NOT_A_COMPLEX_AT_0):
        homology_at(K, 1)


def test_require_complex_checks_a_complex_once(monkeypatch):
    """require_complex is idempotent: homology_at in every degree and
    the dims of an unchecked complex run check_complex once in all."""
    K = ChainComplex([1, 2, 1], [from_dense([[1, 0]]), from_dense([[0], [1]])])
    real, calls = complexes.check_complex, []

    def counted(K):
        calls.append(K)
        return real(K)

    monkeypatch.setattr(complexes, "check_complex", counted)
    assert [homology_at(K, n).dim for n in range(3)] == [0, 0, 0]
    assert homology_dims(K, 2) == cohomology_dims(K, 2) == [0, 0, 0]
    assert require_complex(K, "chain complex") is K
    assert calls == [K] and K._checked


def test_homology_past_the_top_names_the_top_degree():
    K = hochschild_complex(preset("matrix", k=2), 2)
    for n in (4, -1):
        with pytest.raises(ValueError, match="^degree %d outside the complex, "
                                             "whose top degree is 3$" % n):
            homology_at(K, n)


@pytest.mark.parametrize("dims", [homology_dims, cohomology_dims])
def test_dims_of_a_non_complex_raise(dims):
    """Ranks alone give dims 1 - 0 - 1, 1 - 1 - 1 and 1 - 1 - 0 here; a
    complex that require_complex has not passed is checked first."""
    K = ChainComplex([1, 1, 1], [Matrix.identity(1), Matrix.identity(1)])
    with pytest.raises(NotAComplex, match="at degree 0: d_0 d_1"):
        dims(K, 2)


@pytest.mark.parametrize("dims", [homology_dims, cohomology_dims])
def test_dims_check_the_whole_of_an_unchecked_complex(dims):
    """d_1 d_2 != 0 lies above the degree-0 dims, which read d_0 only;
    the dims still refuse K, as it is not a complex."""
    K = ChainComplex([1, 1, 1, 1], [Matrix.zero(1, 1), Matrix.identity(1),
                                    Matrix.identity(1)])
    with pytest.raises(NotAComplex, match="at degree 1: d_1 d_2"):
        dims(K, 0)


@pytest.mark.parametrize("dims", [homology_dims, cohomology_dims])
def test_dims_past_the_top_name_the_first_missing_degree(dims):
    K = hochschild_complex(preset("matrix", k=2), 2)
    assert K.top_degree == 3
    with pytest.raises(ValueError, match="^degree 4 outside the complex, "
                                         "whose top degree is 3$"):
        dims(K, 5)
    assert dims(K, 2) == [1, 0, 0]


def test_dims_of_a_built_complex_run_no_product(monkeypatch):
    """A built complex passed require_complex when it was built, so its
    dims run no second d o d product."""
    A = preset("upper_triangular", k=2)
    built = [hochschild_complex(A, 3), bar_complex(A, 3),
             cyclic_complex(A, 3)[0]]
    real, products = Matrix.__matmul__, []

    def counted(self, other):
        products.append((self.rows, other.cols))
        return real(self, other)

    monkeypatch.setattr(Matrix, "__matmul__", counted)
    for K in built:
        homology_dims(K, 3)
        cohomology_dims(K, 3)
    assert products == []


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
    formula = []
    for n in range(K.top_degree + 1):
        r_in = sympy_rank(K.diffs[n - 1]) if n > 0 else 0
        r_out = sympy_rank(K.diffs[n]) if n < K.top_degree else 0
        formula.append(K.dims[n] - r_in - r_out)
        if n < K.top_degree:
            assert homology_at(K, n).dim == formula[n]
    for n_report in range(K.top_degree + 1):
        assert homology_dims(K, n_report) == formula[:n_report + 1]
        assert cohomology_dims(K, n_report) == formula[:n_report + 1]


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
    """dim H^n = dim H_n over Q in every trustworthy degree: the
    homology bases of K and of its dual have the same dims, and they
    are the dims read off the ranks."""
    K = random_complex(random.Random(seed), 4, 5)
    hi = K.top_degree - 1
    homology, cohomology = basis_dims(K, hi)
    assert homology == cohomology
    assert homology_dims(K, hi) == homology
    assert cohomology_dims(K, hi) == cohomology


def test_dualize_reverses_and_transposes():
    d0 = from_dense([[1, 0]])
    K = ChainComplex([1, 2], [d0])
    D = dualize(K)
    assert D.dims == [2, 1]
    assert D.diffs[0] == d0.transpose()
    assert D.genuine_top


def _homology_bases(K, n_report):
    return [homology_at(K, n) for n in range(n_report + 1)]


def _cohomology_bases(K, n_report):
    return [homology_at(dualize(K), K.top_degree - n)
            for n in range(n_report + 1)]


@pytest.mark.parametrize("first, second",
                         [(_homology_bases, _cohomology_bases),
                          (_cohomology_bases, _homology_bases)],
                         ids=["homology-first", "cohomology-first"])
def test_dual_shares_rrefs_with_its_complex(first, second, monkeypatch):
    """A dual differential is the transpose of one of K's, and their
    RREFs are one: whichever side's homology bases are built first, the
    other side runs no reduced elimination."""
    K = hochschild_complex(preset("upper_triangular", k=2), 2)
    real, reduced = linalg._echelon, []

    def counted(*args, **kwargs):
        reduced.append(kwargs.get("reduce", True))
        return real(*args, **kwargs)

    monkeypatch.setattr(linalg, "_echelon", counted)
    first(K, 3)
    assert any(reduced)
    reduced.clear()
    second(K, 3)
    assert not any(reduced)


@pytest.mark.parametrize("first, second", [(homology_dims, cohomology_dims),
                                           (cohomology_dims, homology_dims)],
                         ids=["homology-first", "cohomology-first"])
def test_dims_run_one_rank_per_differential(first, second, monkeypatch):
    """Dims read one non-reduced elimination on the rows of each d_k
    they need, d_0..d_n, and the other side reads the ranks recorded on
    them."""
    K = hochschild_complex(preset("upper_triangular", k=2), 3)
    real, runs = linalg._echelon, []

    def counted(rows, ncols, **kwargs):
        runs.append((len(rows), ncols, kwargs.get("reduce", True)))
        return real(rows, ncols, **kwargs)

    monkeypatch.setattr(linalg, "_echelon", counted)
    first(K, 3)
    assert runs == [(d.rows, d.cols, False) for d in K.diffs[:4]]
    runs.clear()
    second(K, 3)
    assert runs == []


@pytest.mark.parametrize("A", [
    pytest.param(rebased(build(name), S).A, id="%s-%s" % (name, tag))
    for name in sorted(n for n in CORPUS if build(n).A.dim == 3)
    for tag, S in [("unimodular", BASIS_CHANGE), ("det4", BASIS_CHANGE_DET_4)]])
def test_dims_match_the_basis_engine(A):
    """On dense algebras, the dims read off ranks equal the dims of the
    homology bases of K and of its dual."""
    for K in (hochschild_complex(A, 2), bar_complex(A, 2),
              cyclic_complex(A, 2)[0]):
        top = K.top_degree
        homology, cohomology = basis_dims(K, top)
        assert homology_dims(K, top) == homology
        assert cohomology_dims(K, top) == cohomology


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
    L = ChainComplex([1, 1], [from_dense([[1]])], genuine_top=True)
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
    f = from_dense([[1, 0], [0, 0]])
    seq = assemble_sequence([("a", 2, 2), ("b", 1, 2), ("c", 0, 2)], [f, f],
                            genuine_top=True, genuine_bottom=True,
                            window=(1, 1))
    middle = seq.nodes[1]
    assert (middle.in_window, middle.defect, middle.composition_zero) == (
        True, 0, False)
    assert not seq.interior_exact


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_snake_lemma_property(seed):
    assert snake_check(seed)


def _first_connecting_degree(ses):
    """The lowest degree n >= 1 below the top at which H_n(L) != 0."""
    return next(n for n in range(1, ses.P.top_degree)
                if homology_at(ses.L, n).dim)


def test_lift_failure_when_surj_is_not_a_coordinate_projection():
    """2 surj still makes a valid short exact sequence, but surj^T no
    longer lifts the cycles of L, and the lift check says so."""
    ses = random_ses(3)
    doubled = ChainMap(ses.P, ses.L, [m.scale(2) for m in ses.surj.components])
    bent = ShortExactSequenceOfComplexes(ses.K, ses.P, ses.L, ses.inj, doubled)
    assert check_ses(bent) is None
    with pytest.raises(LiftFailure, match="lift surj"):
        connecting_homomorphism(bent, _first_connecting_degree(ses))


def test_lift_failure_when_surj_is_not_a_chain_map():
    """A P differential with an extra L-to-L block breaks d_L surj =
    surj d_P, so the boundary of a lift leaves the image of inj."""
    ses = random_ses(3)
    n = _first_connecting_degree(ses)
    reps = homology_at(ses.L, n).rep_basis
    surj_lo, surj_hi = ses.surj.components[n - 1], ses.surj.components[n]
    # x reps != 0: x's first row is the first representative
    x = Matrix(surj_lo.rows, surj_hi.rows,
               {(0, r): v for (r, c), v in reps.entries.items() if c == 0})
    diffs = list(ses.P.diffs)
    diffs[n - 1] = diffs[n - 1] + surj_lo.transpose() @ x @ surj_hi
    P = ChainComplex(ses.P.dims, diffs)
    broken = ShortExactSequenceOfComplexes(
        ses.K, P, ses.L, ChainMap(ses.K, P, ses.inj.components),
        ChainMap(P, ses.L, ses.surj.components))
    assert check_chain_map(broken.surj) == n - 1
    with pytest.raises(LiftFailure, match="image of inj"):
        connecting_homomorphism(broken, n)


def _record_zigzag(monkeypatch, ses, n):
    """(solve_many calls, chains given to class_coords) of one
    connecting map, with the homology it reads computed beforehand."""
    homology_at(ses.L, n)
    homology_at(ses.K, n - 1)
    solves, pulled = [], []
    real_solve, real_coords = complexes.solve_many, DegreeHomology.class_coords

    def counted(*args, **kwargs):
        solves.append(args)
        return real_solve(*args, **kwargs)

    def recorded(self, vecs):
        pulled.append(vecs)
        return real_coords(self, vecs)

    with monkeypatch.context() as m:
        m.setattr(complexes, "solve_many", counted)
        m.setattr(DegreeHomology, "class_coords", recorded)
        connecting_homomorphism(ses, n)
    return solves, pulled


def test_connecting_map_solves_only_for_classes(monkeypatch):
    """Lifts and pullbacks are read off the splitting: the only solves
    are the two class_coords calls of the two lifts, and a map from
    H_n(L) = 0 solves nothing."""
    seen = set()
    for seed in range(12):
        ses = random_ses(seed)
        for n in range(1, ses.P.top_degree):
            solves, pulled = _record_zigzag(monkeypatch, ses, n)
            has_homology = homology_at(ses.L, n).dim > 0
            assert (len(solves), len(pulled)) == ((2, 2) if has_homology
                                                  else (0, 0))
            seen.add(has_homology)
    assert seen == {True, False}


def test_second_lift_moves_the_pullback_by_d_of_ones(monkeypatch):
    """The second lift is the first plus inj(J), J all ones, so the two
    pulled-back chains differ by exactly d_K(J); nonzero somewhere."""
    moved = 0
    for seed in range(12):
        ses = random_ses(seed)
        for n in range(1, ses.P.top_degree):
            cols = homology_at(ses.L, n).dim
            if not cols:
                continue
            _, (first, second) = _record_zigzag(monkeypatch, ses, n)
            ones = Matrix(ses.K.dims[n], cols,
                          {(r, c): 1 for r in range(ses.K.dims[n])
                           for c in range(cols)})
            d_ones = ses.K.diffs[n - 1] @ ones
            assert second - first == d_ones
            moved += not d_ones.is_zero()
    assert moved


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
