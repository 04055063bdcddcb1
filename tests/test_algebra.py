"""Algebras, homomorphisms, extensions and unit witnesses."""

import random

import pytest

from alghom.algebra import (
    Algebra, AlgebraHom, Extension, find_one_sided_unit, find_splitting,
    preset, quotient_extension, unit_witness, validate_algebra,
    validate_extension, validate_hom,
)
from alghom import algebra, linalg
from alghom.corpus import CORPUS, build
from alghom.hochschild import adapted_extension
from alghom.linalg import Matrix, ONE, Q

from support import (
    BASIS_CHANGE, BASIS_CHANGE_DET_4, ONE_SIDED, from_dense, rebased,
    unit_system_over_every_triple, unit_witness_by_two_solves,
    violations_over_every_triple,
)


ALL_PRESETS = [
    preset("field"),
    preset("zero_mult", d=2),
    preset("truncated_poly", m=3),
    preset("matrix", k=2),
    preset("upper_triangular", k=2),
    preset("direct_sum", a=preset("field"), b=preset("matrix", k=2)),
]


@pytest.mark.parametrize("alg", ALL_PRESETS, ids=lambda a: repr(a))
def test_presets_associative(alg):
    assert validate_algebra(alg) == []


def test_associativity_with_rational_constants():
    # rescaling the basis of M_2(Q) by s gives constants s_i s_j / s_k
    A = preset("matrix", k=2)
    s = [Q(1, 2), Q(3), Q(-2, 5), Q(7, 3)]
    mult = {(i, j): {k: s[i] * s[j] / s[k] * c for k, c in comp.items()}
            for (i, j), comp in A.mult.items()}
    assert validate_algebra(Algebra(A.dim, A.basis_names, mult)) == []
    key = next(iter(mult))
    mult[key] = {k: c + Q(1, 3) for k, c in mult[key].items()}
    bad = Algebra(A.dim, A.basis_names, mult)
    violations = validate_algebra(bad)
    assert violations
    for v in violations:
        i, j, k = v["triple"]
        assert v["left"] == bad.product(bad.product_basis(i, j), {k: ONE})
        assert v["right"] == bad.product({i: ONE}, bad.product_basis(j, k))
        assert v["left"] != v["right"]


def random_sparse_algebra(rng):
    """Structure constants on a few random basis pairs: mostly not
    associative, with rows and columns of zero products."""
    dim = rng.randint(1, 5)
    return Algebra(dim, None, {
        (rng.randrange(dim), rng.randrange(dim)):
            {rng.randrange(dim): rng.choice([1, -1, 2, Q(1, 2)])
             for _ in range(rng.randint(1, 2))}
        for _ in range(rng.randint(0, dim + 2))})


def test_violations_match_the_check_of_every_triple():
    """validate_algebra skips the triples where both sides vanish and
    finds the violations, in order and with their sides, that the
    check of all dim^3 triples finds, on 300 seeded random algebras and
    on every preset and corpus algebra."""
    rng = random.Random(20261020)
    algebras = [random_sparse_algebra(rng) for _ in range(300)]
    algebras += ALL_PRESETS + [getattr(build(name), part) for name in CORPUS
                               for part in "BAD"]
    found = 0
    for alg in algebras:
        got = validate_algebra(alg)
        assert got == violations_over_every_triple(alg)
        found += bool(got)
    assert 100 < found < 300


def test_an_algebra_with_no_products_visits_no_triple(monkeypatch):
    """A 300-dimensional algebra with no products has 27 million basis
    triples, and both sides of each vanish: none is evaluated."""
    def forbidden(*args):
        raise AssertionError("evaluated a triple")

    monkeypatch.setattr(Algebra, "product", forbidden)
    assert validate_algebra(preset("zero_mult", d=300)) == []


def test_structure_constants_are_int_when_integral():
    """Entry-type contract: an integral constant is stored as an int,
    whatever type it came in, and any other as a Q; products of an
    integral algebra stay in ints."""
    alg = Algebra(2, None, {(0, 0): {0: Q(2), 1: "3"}, (0, 1): {1: Q(1, 2)},
                            (1, 0): {0: 1, 1: Q(0)}, (1, 1): {1: Q(4, 2)}})
    assert alg.mult == {(0, 0): {0: 2, 1: 3}, (0, 1): {1: Q(1, 2)},
                        (1, 0): {0: 1}, (1, 1): {1: 2}}
    assert {(key, k): type(v) for key, comp in alg.mult.items()
            for k, v in comp.items()} == {
        ((0, 0), 0): int, ((0, 0), 1): int, ((0, 1), 1): Q,
        ((1, 0), 0): int, ((1, 1), 1): int}
    square = alg.product({0: 1, 1: 1}, {0: 1})
    assert square == {0: 3, 1: 3}
    assert all(type(v) is int for v in square.values())
    for A in ALL_PRESETS:
        assert all(type(v) is int for comp in A.mult.values()
                   for v in comp.values())


def test_corrupted_structure_constant_detected():
    # break associativity in the 2x2 matrix algebra
    A = preset("matrix", k=2)
    mult = dict(A.mult)
    key = next(iter(mult))
    mult[key] = {0: Q(1), 3: Q(1)}
    bad = Algebra(A.dim, A.basis_names, mult)
    violations = validate_algebra(bad)
    assert violations
    assert all("triple" in v for v in violations)


def test_matrix_units_multiplication():
    A = preset("matrix", k=2)
    # e_pq e_rs = delta_qr e_ps with row-major basis order
    i = A.basis_names.index
    assert A.product_basis(i("e11"), i("e12")) == {i("e12"): ONE}
    assert A.product_basis(i("e12"), i("e21")) == {i("e11"): ONE}
    assert A.product_basis(i("e12"), i("e12")) == {}


def test_unit_witnesses():
    assert unit_witness(preset("field")).side == "two-sided"
    assert unit_witness(preset("matrix", k=3)).side == "two-sided"
    assert unit_witness(preset("zero_mult", d=2)).side == "none"
    assert unit_witness(build("left_unital_corner").B).side == "left"
    assert unit_witness(build("right_unital_corner").B).side == "right"


def test_unit_element_actually_a_unit():
    A = preset("truncated_poly", m=4)
    w = unit_witness(A)
    assert w.side == "two-sided"
    e = {i: c for i, c in enumerate(w.element) if c}
    for k in range(A.dim):
        assert A.product(e, {k: ONE}) == {k: ONE}
        assert A.product({k: ONE}, e) == {k: ONE}


def test_one_sided_unit_search_sides():
    B = build("left_unital_corner").B
    assert find_one_sided_unit(B, "left").found
    assert not find_one_sided_unit(B, "right").found


def _unit_algebras():
    """(id, algebra): the presets; the A, B and D of the corpus, of the
    one-sided extensions and of the corpus rebased in two bases; and
    the adapted A of each of those extensions."""
    presets = [preset("field"), preset("truncated_poly", m=1),
               preset("truncated_poly", m=4), preset("matrix", k=1),
               preset("matrix", k=3), preset("upper_triangular", k=3),
               preset("direct_sum", a=preset("field"), b=preset("matrix", k=2)),
               preset("direct_sum", a=build("left_unital_corner").B,
                      b=preset("zero_mult", d=1))]
    presets += [preset("zero_mult", d=d) for d in range(4)]
    out = [("preset%d-dim%d" % (k, alg.dim), alg)
           for k, alg in enumerate(presets)]
    exts = [(name, make()) for name, make in sorted({**CORPUS,
                                                     **ONE_SIDED}.items())]
    exts += [("%s-rebased-%s" % (name, tag), rebased(build(name), S))
             for name in sorted(CORPUS) if build(name).A.dim == 3
             for tag, S in (("det1", BASIS_CHANGE), ("det4", BASIS_CHANGE_DET_4))]
    for name, ext in exts:
        out += [("%s-%s" % (name, part), getattr(ext, part)) for part in "ABD"]
        out.append(("%s-adapted-A" % name, adapted_extension(ext).A))
    return out


UNIT_ALGEBRAS = _unit_algebras()


@pytest.mark.parametrize("alg", [alg for _, alg in UNIT_ALGEBRAS],
                         ids=[name for name, _ in UNIT_ALGEBRAS])
def test_unit_equations_match_the_loop_over_every_triple(alg):
    """Both sides' unit equations, read off the nonzero products, are the
    matrices of the loop over every index triple, and unit_witness,
    which solves the right side only without a left unit, gives the
    witness of solving both."""
    for side in ("left", "right"):
        assert algebra._unit_system(alg, side) == unit_system_over_every_triple(
            alg, side)
    assert unit_witness(alg) == unit_witness_by_two_solves(alg)


def test_unit_algebras_have_every_side():
    sides = {unit_witness_by_two_solves(alg).side for _, alg in UNIT_ALGEBRAS}
    assert sides == {"two-sided", "left", "right", "none"}


def test_a_left_unit_is_found_by_one_solve(monkeypatch):
    """With a left unit (here two-sided, or left only) the right
    equations are never solved; without one they are."""
    sides = []
    real = algebra.find_one_sided_unit

    def counted(alg, side):
        sides.append(side)
        return real(alg, side)

    monkeypatch.setattr(algebra, "find_one_sided_unit", counted)
    for alg, solved in [(preset("matrix", k=2), ["left"]),
                        (build("left_unital_corner").B, ["left"]),
                        (build("right_unital_corner").B, ["left", "right"]),
                        (preset("zero_mult", d=2), ["left", "right"])]:
        sides.clear()
        unit_witness(alg)
        assert sides == solved


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_extensions_valid(name):
    assert validate_extension(build(name)) is None


def test_validate_extension_rejects_non_ideal():
    # span{e11} in upper_triangular(2) is not a two-sided ideal
    A = preset("upper_triangular", k=2)
    idx = A.basis_names.index("e11")
    basis = Matrix(A.dim, 1, {(idx, 0): ONE})
    with pytest.raises(ValueError):
        quotient_extension(A, basis, ["e11"])


def test_validate_extension_rejects_broken_maps():
    ext = build("split_product")
    wrong_i = AlgebraHom(ext.B, ext.A, Matrix.zero(ext.A.dim, ext.B.dim))
    bad = Extension(ext.B, ext.A, ext.D, wrong_i, ext.j)
    assert validate_extension(bad) is not None


def test_validate_extension_im_i_is_ker_j():
    """j = [1, 0] on split_product is multiplicative and onto, and i is
    injective, but j kills the complement of i(B) instead of i(B)."""
    ext = build("split_product")
    j = AlgebraHom(ext.A, ext.D, from_dense([[1, 0]]))
    assert validate_extension(Extension(ext.B, ext.A, ext.D, ext.i, j)) == {
        "invariant": "Im i = Ker j", "detail": "Im i not in Ker j"}


def test_validate_extension_builds_no_bases(monkeypatch):
    """Im i = Ker j is decided by ranks and j i = 0, with no kernel or
    image basis."""
    exts = [build(name) for name in sorted(CORPUS)]

    def forbidden(*args, **kwargs):
        raise AssertionError("validate_extension built a basis")

    for module in (linalg, algebra):
        for name in ("kernel_basis", "image_basis"):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    for ext in exts:
        assert validate_extension(ext) is None


def test_validate_extension_checks_associativity():
    # e1 e1 = e0 + e1, e1 e0 = e0: (e1 e1) e1 != e1 (e1 e1), while i and
    # j are multiplicative and Im i = Ker j is an ideal
    B = Algebra(1)
    A = Algebra(2, mult={(1, 1): {0: 1, 1: 1}, (1, 0): {0: 1}})
    D = Algebra(1, mult={(0, 0): {0: 1}})
    i = AlgebraHom(B, A, from_dense([[1], [0]]))
    j = AlgebraHom(A, D, from_dense([[0, 1]]))
    bad = validate_extension(Extension(B, A, D, i, j))
    assert bad is not None and bad["invariant"] == "A associative"
    assert bad["detail"]["triple"] == (1, 1, 1)


def test_hom_multiplicativity_check():
    A = preset("field")
    B = preset("zero_mult", d=1)
    not_hom = AlgebraHom(A, B, Matrix.identity(1))
    assert validate_hom(not_hom) is not None


def test_quotient_extension_structure():
    ext = build("nilpotent_corner")
    # D is Q x Q: two orthogonal idempotents
    assert ext.D.dim == 2
    assert validate_algebra(ext.D) == []
    assert unit_witness(ext.D).side == "two-sided"


def test_find_splitting_is_linear_section():
    ext = build("split_product")
    s = find_splitting(ext)
    assert ext.j.matrix @ s == Matrix.identity(ext.D.dim)


def test_extension_admissibility_everywhere():
    """Every finite-dimensional extension admits a linear splitting."""
    for name in sorted(CORPUS):
        ext = build(name)
        s = find_splitting(ext)
        assert ext.j.matrix @ s == Matrix.identity(ext.D.dim)
