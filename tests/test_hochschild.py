"""Hochschild/cyclic/bar complexes against an independently coded
dense oracle, plus hand-checkable dimension tables."""

import itertools
import json
import math
import os
import time

import pytest

from alghom import complexes, hochschild, linalg
from alghom.algebra import (
    Algebra, AlgebraHom, Extension, UnitWitness, preset, unit_witness,
    validate_extension,
)
from alghom.complexes import (
    ChainComplex, check_chain_map, check_complex, cohomology_dims, dualize,
    homology_at, homology_dims, induced_map_on_homology, long_exact_sequence,
)
from alghom.corpus import CORPUS, build
from alghom.excision import build_theory
from alghom.hochschild import (
    ClosureViolation, ContractionFailure, DegreeCapExceeded,
    InducedMapNotWellDefined, adapted_extension, bar_complex,
    certify_acyclic, check_degree_cap, connes_complex, cyclic_complex,
    cyclic_kernel_subcomplex, cyclic_operator, cyclic_quotient,
    hochschild_complex, kernel_subcomplex, rotation_orbits, trace_space,
)
from alghom.linalg import Matrix, ONE, Q, ZERO, format_q, kernel_basis, rank

from support import (
    ONE_SIDED, basis_dims, complex_one_degree_further,
    contraction_by_matrices, from_dense, kron_power, rebased,
    rep_basis_on_hstack, section, verify_kernel_span,
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
HALF = Algebra(1, None, {(0, 0): {0: Q(1, 2)}})


@pytest.mark.parametrize("A", SMALL + [
    pytest.param(preset("matrix", k=2), id="matrix2"),
    pytest.param(rebased(build("nilpotent_augmentation")).A,
                 id="dense-rebased"),
    pytest.param(HALF, id="half")], ids=lambda a: repr(a))
@pytest.mark.parametrize("wrap", [True, False], ids=["full", "bar"])
def test_differential_matches_oracle(A, wrap):
    """Every differential up to internal degree 5, on sparse, dense
    (all 9 products nonzero) and non-integral structure constants."""
    C = hochschild_complex(A, 4) if wrap else bar_complex(A, 4)
    assert C.top_degree == 5
    for n in range(C.top_degree):
        assert C.diffs[n] == oracle_differential(A, n, wrap)


def test_integral_preset_builds_int_entries():
    """Integral structure constants give int entries in every
    differential of the simplicial, bar and cyclic complexes; a
    non-integral constant gives Q entries."""
    A = preset("matrix", k=2)
    C = hochschild_complex(A, 1)
    for K in (C, bar_complex(A, 1), connes_complex(C)[0]):
        assert all(type(v) is int for d in K.diffs for v in d.entries.values())
    C = hochschild_complex(HALF, 1)
    assert {v for d in C.diffs for v in d.entries.values()} == {Q(1, 2)}
    assert all(type(v) is Q for d in C.diffs for v in d.entries.values())


def test_field_differentials_alternate():
    C = hochschild_complex(preset("field"), 4)
    dense = [C.diffs[n].entries.get((0, 0), ZERO) for n in range(C.top_degree)]
    assert dense == [ZERO, ONE, ZERO, ONE, ZERO][:C.top_degree]


def test_homology_tables():
    assert homology_dims(hochschild_complex(preset("field"), 3), 3) == [1, 0, 0, 0]
    assert homology_dims(hochschild_complex(preset("matrix", k=2), 3), 3) == [1, 0, 0, 0]


def test_cstar_three_summands_closed_forms():
    """A = M_2(Q) x Q x Q, the rational analogue of a finite-dimensional
    C*-algebra with r = 3 simple summands (Morita invariance and
    additivity): HH = [r, 0, 0], HC = [r, 0, r] and HR = 0, in homology
    and in cohomology."""
    A = preset("direct_sum", a=preset("matrix", k=2),
               b=preset("direct_sum", a=preset("field"), b=preset("field")))
    for K, closed in [(hochschild_complex(A, 2), [3, 0, 0]),
                      (cyclic_complex(A, 2)[0], [3, 0, 3]),
                      (bar_complex(A, 2), [0, 0, 0])]:
        assert homology_dims(K, 2) == closed
        assert cohomology_dims(K, 2) == closed
        assert basis_dims(K, 2) == (closed, closed)


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
    CC, orbits = cyclic_complex(A, 3)
    assert CC.dims[0] == A.dim
    assert (Matrix.identity(A.dim) - cyclic_operator(A, 0)).is_zero()
    for n, orb in enumerate(orbits):
        t = cyclic_operator(A, n)
        assert (CC.dims[n] == len(orb.reps) == cyclic_quotient(A, n).dim
                == t.rows - rank(Matrix.identity(t.rows) - t))


def _cokernel_complex(A, n_report):
    """CC(A) by elimination: each C_n / Im(1 - t_n) from cokernel, and
    the differential projection @ d @ section."""
    C = hochschild_complex(A, n_report)
    quot = [cyclic_quotient(A, n) for n in range(C.top_degree + 1)]
    return ([q.dim for q in quot],
            [quot[n].projection @ d @ section(quot[n + 1])
             for n, d in enumerate(C.diffs)])


# the presets of the homology-presets benchmark workload
PRESETS = {"truncated_poly": {"m": 3}, "upper_triangular": {"k": 2},
           "zero_mult": {"d": 3}, "matrix": {"k": 2}}


@pytest.mark.parametrize(
    "A, n_report",
    [(adapted_extension(build(name)).A, 2) for name in sorted(CORPUS)]
    + [(preset(name, **params), n) for name, params in PRESETS.items()
       for n in range(4)],
    ids=sorted(CORPUS) + ["%s-%d" % (name, n) for name in PRESETS
                          for n in range(4)])
def test_orbit_complex_matches_cokernel_complex(A, n_report):
    CC, _ = cyclic_complex(A, n_report)
    dims, diffs = _cokernel_complex(A, n_report)
    assert CC.dims == dims
    assert CC.diffs == diffs


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_one_more_degree_changes_no_dims(name):
    """Homology and cohomology dims in degrees 0..n, n <= 3, are the
    same on the complexes built one degree further, for the simplicial,
    bar and cyclic theories."""
    A = preset(name, **PRESETS[name])
    for n in range(4):
        further = complex_one_degree_further(A, n)
        for K, L in [(hochschild_complex(A, n), further),
                     (bar_complex(A, n), complex_one_degree_further(A, n, False)),
                     (cyclic_complex(A, n)[0], connes_complex(further)[0])]:
            assert L.top_degree == K.top_degree + 1
            assert homology_dims(K, n) == homology_dims(L, n)
            assert cohomology_dims(K, n) == cohomology_dims(L, n)
            assert basis_dims(K, n) == basis_dims(L, n)


DIMS = os.path.join(os.path.dirname(__file__), "data", "homology_dims.json")
THEORIES = {"hochschild": hochschild_complex, "bar": bar_complex,
            "cyclic": lambda A, n: cyclic_complex(A, n)[0]}


def recorded_algebra(name):
    """A bench preset by name, else the A of the corpus extension."""
    if name in PRESETS:
        return preset(name, **PRESETS[name])
    return build(name).A


def dims_by_theory(A):
    """homology_dims and cohomology_dims of A's three complexes at each
    report degree 0 to the excision-corpus benchmark's (3, or 2 when
    dim A >= 4)."""
    return {theory: {str(n): {"homology": homology_dims(make(A, n), n),
                              "cohomology": cohomology_dims(make(A, n), n)}
                     for n in range(4 if A.dim <= 3 else 3)}
            for theory, make in THEORIES.items()}


@pytest.mark.parametrize("name", sorted(PRESETS) + sorted(CORPUS))
def test_dims_match_recorded_oracle(name):
    """The dims recorded in tests/data/homology_dims.json, taken from
    the homology and cohomology bases of each complex, for the four
    bench presets and the A of every corpus extension."""
    with open(DIMS) as fh:
        recorded = json.load(fh)
    assert sorted(recorded) == sorted(set(PRESETS) | set(CORPUS))
    assert dims_by_theory(recorded_algebra(name)) == recorded[name]


def _signed_necklaces(d, n):
    m = n + 1
    total = sum(((-1) ** n) ** j * d ** math.gcd(j, m) for j in range(m))
    assert total % m == 0
    return total // m


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_orbit_count_is_signed_necklace_count(d):
    """The surviving orbits of t_n on (Q^d)^(n+1) number
    (1/m) sum_j ((-1)^n)^j d^gcd(j, m), m = n + 1, the dimension of
    the t_n-invariants."""
    for n in range(6):
        assert len(rotation_orbits(d, n).reps) == _signed_necklaces(d, n)


def test_trace_space_dims():
    assert trace_space(preset("matrix", k=2)).dim == 1
    assert trace_space(preset("direct_sum", a=preset("field"),
                              b=preset("field"))).dim == 2
    assert trace_space(preset("zero_mult", d=3)).dim == 3


def test_trace_is_h0_and_hc0_dual():
    for A in SMALL:
        tr = trace_space(A).dim
        for K in (hochschild_complex(A, 1), cyclic_complex(A, 1)[0]):
            assert cohomology_dims(K, 0) == basis_dims(K, 0)[1] == [tr]


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_kernel_subcomplex_structure(name):
    ext = adapted_extension(build(name))
    pieces = kernel_subcomplex(ext, hochschild_complex(ext.A, 3))
    sub, incl, comp = pieces.sub, pieces.incl, pieces.comp
    assert check_complex(sub) is None
    assert check_chain_map(incl) is None
    assert check_chain_map(comp) is None
    a, b = ext.A.dim, ext.B.dim
    for n in range(sub.top_degree + 1):
        assert sub.dims[n] == a ** (n + 1) - (a - b) ** (n + 1)


def test_kernel_subcomplex_dims_nilpotent_corner():
    ext = adapted_extension(build("nilpotent_corner"))
    sub = kernel_subcomplex(ext, hochschild_complex(ext.A, 4)).sub
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
    C_A, pieces = _pieces(theory, adapted_extension(ext), 2)
    for piece, alg in ((pieces.CB, ext.B), (pieces.CD, ext.D)):
        direct = _direct(theory, alg, 2)[0]
        assert piece.dims == direct.dims
        assert piece.diffs == direct.diffs
    kernel_dims = []
    for n in range(C_A.top_degree + 1):
        ker = kernel_basis(kron_power(ext.j.matrix, n + 1))
        kernel_dims.append(
            rank(cyclic_quotient(ext.A, n).projection @ ker.basis)
            if theory == "cyclic" else ker.dim)
    assert pieces.sub.dims == kernel_dims
    for psi in (pieces.incl, pieces.comp, pieces.map_ad):
        assert check_chain_map(psi) is None


def _report_complexes(pieces):
    """C(A), Ker, C(B) and C(D) of a theory, and their duals: the
    complexes whose homology bases excision_report reads."""
    Ks = [pieces.CA, pieces.sub, pieces.CB, pieces.CD]
    return Ks + [dualize(K) for K in Ks]


@pytest.mark.parametrize("theory", ["simplicial", "bar", "cyclic"])
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_representatives_match_the_pick_on_boundaries_and_cycles(
        name, theory):
    """The representatives picked in cycle coordinates are the ones the
    pivot columns of [boundaries | cycles] pick, entry types included,
    in every degree of every complex the report reads."""
    _, pieces = _pieces(theory, adapted_extension(build(name)), 2)
    for K in _report_complexes(pieces):
        for n in range(K.top_degree + 1):
            got, want = homology_at(K, n).rep_basis, rep_basis_on_hstack(K, n)
            assert got == want, (K, n)
            assert ({k: type(v) for k, v in got.entries.items()}
                    == {k: type(v) for k, v in want.entries.items()})


@pytest.mark.parametrize("theory", ["simplicial", "bar", "cyclic"])
def test_pieces_and_duals_carry_the_check_record(theory, monkeypatch):
    """Ker, C(B) and C(D) are closure-checked pieces of a checked C(A),
    and a dual of a checked complex is a complex: each carries the
    record of require_complex, so their homology bases check no d o d
    product again."""
    _, pieces = _pieces(theory, adapted_extension(build("two_of_three")), 2)
    Ks = _report_complexes(pieces)
    assert [K._checked for K in Ks] == [True] * 8

    def forbidden(*args, **kwargs):
        raise AssertionError("checked a complex again")

    monkeypatch.setattr(complexes, "check_complex", forbidden)
    for K in Ks:
        for n in range(K.top_degree + 1):
            homology_at(K, n)


@pytest.mark.parametrize("theory", ["simplicial", "cyclic"])
def test_read_off_eliminates_nothing(theory, monkeypatch):
    ext = adapted_extension(build("nilpotent_corner"))
    C_A, orbits = _direct(theory, ext.A, 1)
    _forbid_elimination(monkeypatch)
    if theory == "cyclic":
        pieces = cyclic_kernel_subcomplex(ext, (C_A, orbits))
    else:
        pieces = kernel_subcomplex(ext, C_A)
    assert pieces.sub.dims[0] == 1


def _forbid_elimination(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("elimination while reading off C(A)")

    monkeypatch.setattr(linalg, "_echelon", forbidden)
    monkeypatch.setattr(linalg.Subspace, "coords", forbidden)


def test_connes_complex_eliminates_nothing(monkeypatch):
    C = hochschild_complex(preset("matrix", k=2), 2)
    _forbid_elimination(monkeypatch)
    CC, _ = connes_complex(C)
    assert CC.dims == [4, 6, 24, 66]


def test_cyclic_complex_carries_the_record_of_one_check(monkeypatch):
    """_relabel proves d_lambda proj = proj d with proj onto, so CC
    copies C's check record: building CC(A) runs check_complex once, on
    C(A), and CC's homology and dims run it no more.  An unchecked C
    gives an unchecked CC, which its homology then checks."""
    real, calls = complexes.check_complex, []

    def counted(K):
        calls.append(K)
        return real(K)

    monkeypatch.setattr(complexes, "check_complex", counted)
    A = preset("upper_triangular", k=2)
    CC, _ = cyclic_complex(A, 2)
    assert len(calls) == 1 and calls[0] is not CC and CC._checked
    homology_dims(CC, 2)
    for n in range(CC.top_degree + 1):
        homology_at(CC, n)
    assert len(calls) == 1
    calls.clear()
    unchecked, _ = connes_complex(hochschild._build_complex(A, 3, wrap=True))
    assert calls == [] and not unchecked._checked
    assert homology_dims(unchecked, 2) == homology_dims(CC, 2)
    assert calls == [unchecked] and unchecked._checked


def _non_ideal_extension():
    """B = span{e11} inside the upper-triangular 2x2 matrices, written
    with i = [I; 0] and j = [0 | I] although e11 e12 = e12 leaves B."""
    A = preset("upper_triangular", k=2)
    B, D = preset("field"), preset("zero_mult", d=2)
    i = from_dense([[1], [0], [0]])
    j = from_dense([[0, 1, 0], [0, 0, 1]])
    return Extension(B, A, D, AlgebraHom(B, A, i), AlgebraHom(A, D, j))


@pytest.mark.parametrize("theory", ["simplicial", "cyclic"])
def test_non_closed_restriction_names_degree(theory):
    with pytest.raises(ClosureViolation,
                       match="leaves the subcomplex at degree 0"):
        _pieces(theory, _non_ideal_extension(), 0)


@pytest.mark.parametrize("theory", ["simplicial", "bar", "cyclic"])
def test_a_map_that_is_not_a_chain_map_is_caught_at_construction(theory):
    """induced_map_on_homology skips the boundary loop next to a degree
    recorded acyclic, because every map it is asked for passed the
    read-off's closure check, which is the chain-map condition of incl
    and map_ad.  With B = span{e11}, not an ideal, the coordinate
    inclusion of the B-slot tensors is not a chain map, and the
    read-off refuses it before any map exists."""
    ext = _non_ideal_extension()
    C_A, orbits = _direct(theory, ext.A, 1)
    counts = hochschild._b_slot_counts(ext, C_A.top_degree)
    if orbits is not None:
        counts = [[counts[n][rep] for rep in o.reps]
                  for n, o in enumerate(orbits)]
    ker = [[k for k, c in enumerate(cn) if c] for cn in counts]
    # the same index lists, without the closure check
    unchecked = hochschild._restrict(C_A, ker, sub=False)
    incl = hochschild._coordinate_map(unchecked, C_A, ker)
    assert check_chain_map(incl) == 0
    with pytest.raises(ClosureViolation,
                       match="leaves the subcomplex at degree 0"):
        _pieces(theory, ext, 1)


# In M_2 (basis e11, e12, e21, e22), e12 (x) e21 has flat index 6 and
# t_1 sends it to -e21 (x) e12 at index 9, its orbit's representative:
# e_6 projects to -e_orbit, and d_0 e_6 = e11 - e22 is not zero.
def _flip_table_sign(monkeypatch, C):
    real = hochschild.rotation_orbits

    def flipped(d, n):
        orb = real(d, n)
        if n == 1:
            sign = list(orb.sign)
            sign[6] = -sign[6]
            orb = orb._replace(sign=sign)
        return orb

    monkeypatch.setattr(hochschild, "rotation_orbits", flipped)
    return C


def _flip_differential_sign(monkeypatch, C):
    d0 = dict(C.diffs[0].entries)
    d0[(0, 6)] = -d0[(0, 6)]
    C.diffs[0] = Matrix(C.diffs[0].rows, C.diffs[0].cols, d0)
    return C


@pytest.mark.parametrize("flip", [_flip_table_sign, _flip_differential_sign],
                         ids=["orbit-table", "differential"])
def test_cyclic_sign_flip_is_not_well_defined(flip, monkeypatch):
    """A sign flipped in one orbit's entry, of the orbit table or of d
    in a column that is not its orbit's representative, breaks
    proj @ d @ (1 - t) = 0 and is refused."""
    C = flip(monkeypatch, hochschild_complex(preset("matrix", k=2), 0))
    assert C.diffs[0].entries[(0, 6)] in (ONE, -ONE)
    with pytest.raises(InducedMapNotWellDefined, match="at degree 0"):
        connes_complex(C)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("flip", [True, False], ids=["flipped", "dropped"])
def test_cyclic_defect_above_degree_0_names_its_degree(n, flip):
    """An entry of d_n, in an alive row orbit and a column that is not
    its orbit's representative, sign-flipped or dropped: the column is
    no longer its sign times its orbit's column, and the relabelling
    refuses it at degree n."""
    C = hochschild_complex(preset("matrix", k=2), n)
    rows, cols = rotation_orbits(4, n), rotation_orbits(4, n + 1)
    ents = dict(C.diffs[n].entries)
    r, c = next((r, c) for r, c in ents if rows.coord[r] >= 0
                and cols.coord[c] >= 0 and cols.reps[cols.coord[c]] != c)
    v = ents.pop((r, c))
    if flip:
        ents[r, c] = -v
    C.diffs[n] = Matrix(C.diffs[n].rows, C.diffs[n].cols, ents)
    with pytest.raises(InducedMapNotWellDefined, match="at degree %d" % n):
        connes_complex(C)


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


def test_degree_cap_forms_no_huge_power():
    """An exponent past the cap's bit length is refused without forming
    dim^k, which at degree 10^7 has millions of digits."""
    start = time.perf_counter()
    with pytest.raises(DegreeCapExceeded, match=r"needs 5\^10000003 "):
        check_degree_cap(5, 10 ** 7)
    assert time.perf_counter() - start < 1
    check_degree_cap(1, 10 ** 7)


def test_negative_degree_rejected():
    with pytest.raises(ValueError):
        check_degree_cap(2, -1)
    with pytest.raises(ValueError):
        hochschild_complex(preset("field"), -3)


# -- bar acyclicity by a checked contracting homotopy ----------------


BAR_EXTENSIONS = {**CORPUS, **ONE_SIDED}


def test_one_sided_extensions_have_the_units_they_are_named_for():
    sides = {name: (unit_witness(adapted_extension(make()).A).side,
                    unit_witness(make().B).side)
             for name, make in ONE_SIDED.items()}
    assert sides == {"left-A-over-e12": ("left", "none"),
                     "left-A-over-A": ("left", "left"),
                     "right-A-over-e12": ("right", "none"),
                     "right-A-over-A": ("right", "right"),
                     "zero_mult": ("none", "none")}


def _bar_pieces(name, n_report):
    """The bar theory of an extension, with which of its pieces are
    certifiable: C(A), Ker and C(D) by a unit of A, C(B) by one of B."""
    ext = adapted_extension(BAR_EXTENSIONS[name]())
    td = build_theory(ext, n_report, "bar")
    unital_a, unital_b = (unit_witness(alg).found for alg in (ext.A, ext.B))
    return td, [(td.CA, unital_a), (td.sub, unital_a), (td.CD, unital_a),
                (td.CB, unital_b)]


@pytest.mark.parametrize("name", sorted(BAR_EXTENSIONS))
def test_certified_bar_pieces_are_acyclic_by_ranks(name):
    """Each bar piece certified by a unit's homotopy, and its dual, has
    zero homology in degrees 0..n_report by ranks, with the record
    withheld; an uncertified piece (no unit: C(B) of a nilpotent B, or
    every piece of an A without one) has no record, and its homology
    bases give the dims of ranks."""
    n = 3
    td, pieces = _bar_pieces(name, n)
    N = n + 1
    for K, certified in pieces:
        bare = ChainComplex(K.dims, K.diffs)
        dims = homology_dims(bare, n)
        dual_dims = homology_dims(dualize(bare), N)[N - n:]
        if certified:
            assert K._acyclic == frozenset(range(n + 1))
            assert dualize(K)._acyclic == frozenset(range(N - n, N + 1))
            assert dims == dual_dims == [0] * (n + 1), K
        else:
            assert K._acyclic == dualize(K)._acyclic == frozenset()
            assert [homology_at(K, k).dim for k in range(n + 1)] == dims
            assert [homology_at(dualize(K), k).dim
                    for k in range(N - n, N + 1)] == dual_dims


def test_certified_bar_pieces_are_the_expected_ones():
    """All nine corpus A's certify, and the C(B) of every corpus
    extension but the two nilpotent ideals."""
    certified = {name: [bool(K._acyclic) for K, _ in _bar_pieces(name, 1)[1]]
                 for name in CORPUS}
    assert all(c[:3] == [True] * 3 for c in certified.values())
    assert sorted(name for name, c in certified.items() if not c[3]) == [
        "nilpotent_augmentation", "nilpotent_corner"]


@pytest.mark.parametrize("name", sorted(BAR_EXTENSIONS))
def test_certified_bar_pieces_eliminate_nothing(name, monkeypatch):
    """The homology and dims of a certified piece and of its dual run
    no elimination; nor, for an A with a unit, does the snake sequence
    of Ker -> C(A) -> C(D) or of its dual, maps and connecting maps
    included."""
    n = 2
    td, pieces = _bar_pieces(name, n)
    calls = []
    real = linalg._echelon

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(linalg, "_echelon", counted)
    for K, certified in pieces:
        if certified:
            assert homology_dims(K, n) == cohomology_dims(K, n) == [0] * (n + 1)
            for k in range(n + 1):
                assert homology_at(K, k).dim == 0
                assert homology_at(dualize(K), n + 1 - k).dim == 0
    if pieces[0][1]:
        long_exact_sequence(td.ses, 0, n)
        long_exact_sequence(td.dual_ses(), 1, n + 1)
    assert calls == []


def test_class_coords_tests_cycles_on_a_certified_degree():
    """On a degree recorded acyclic a chain has a class, 0, iff it is a
    cycle: in the bar complex of Q, d_0 = 1 and d_1 = 0, so e_0 in C_1
    is no cycle and e_0 in C_2 is one; and a map into C_1 that is not a
    chain map is caught on a cycle of its source."""
    K = bar_complex(preset("field"), 2)
    certify_acyclic(K, unit_witness(preset("field")))
    e0 = Matrix(1, 1, {(0, 0): 1})
    assert homology_at(K, 1).class_coords(e0) is None
    assert homology_at(K, 2).class_coords(e0) == Matrix.zero(0, 1)
    assert homology_at(K, 0).class_coords(e0) == Matrix.zero(0, 1)
    # Q in degree 1 only, mapped onto e_0 in C_1 of K
    S = ChainComplex([0, 1, 0, 0], [Matrix.zero(0, 1), Matrix.zero(1, 0),
                                    Matrix.zero(0, 0)])
    psi = complexes.ChainMap(S, K, [Matrix.zero(1, 0), e0, Matrix.zero(1, 0),
                                    Matrix.zero(1, 0)])
    with pytest.raises(complexes.WellDefinednessViolation,
                       match="cycle not sent to a cycle in degree 1"):
        induced_map_on_homology(psi, 1)


def _broken(witness, how):
    """witness with its last nonzero term dropped ("drop"), or with a
    one-sided unit taken for one of the other side ("side")."""
    element = list(witness.element)
    if how == "drop":
        element[max(i for i, v in enumerate(element) if v)] = 0
        return UnitWitness(witness.side, element)
    return UnitWitness("left" if witness.side == "right" else "right", element)


@pytest.mark.parametrize("name, how", [
    ("matrix_block", "drop"), ("left-A-over-A", "drop"),
    ("left-A-over-A", "side"), ("right-A-over-A", "drop"),
    ("right-A-over-A", "side")])
def test_a_wrong_unit_fails_the_identity(name, how):
    """A unit with a term dropped, or a one-sided unit taken for one of
    the other side, breaks d s + s d = 1: the check names the degree
    and records nothing.  That degree is the first where the Matrix
    products with s_n built as a matrix miss the identity, and the
    message names that matrix's first wrong entry and its value."""
    ext = adapted_extension(BAR_EXTENSIONS[name]())
    K, unit = bar_complex(ext.A, 2), _broken(unit_witness(ext.A), how)
    for n in range(K.top_degree):
        M, one = contraction_by_matrices(K, unit, n), Matrix.identity(K.dims[n])
        if M != one:
            break
    key = min(k for k in M.entries.keys() | one.entries.keys()
              if M.entries.get(k, 0) != one.entries.get(k, 0))
    with pytest.raises(ContractionFailure,
                       match=r"^bar complex is not contracted by its "
                             r"[\w-]+ unit at degree \d: d_\d s_\d") as failure:
        certify_acyclic(K, unit)
    assert K._acyclic == frozenset()
    assert str(failure.value).endswith(
        "at degree %d: d_%d s_%d%s has entry %s at %r" % (
            n, n, n, " + s_%d d_%d" % (n - 1, n - 1) if n else "",
            format_q(M.entries.get(key, 0)), key))


def test_a_failure_past_degree_0_names_both_terms():
    """The bar complex of Q with d_1 set to [1] (so d o d != 0): degree
    0 passes, and degree 1 fails with d_1 s_1 + s_0 d_0 = 1 + 1."""
    K = bar_complex(preset("field"), 1)
    bent = ChainComplex(K.dims, [K.diffs[0], Matrix(1, 1, {(0, 0): 1})])
    with pytest.raises(ContractionFailure, match=(
            r"^bar complex is not contracted by its two-sided unit at "
            r"degree 1: d_1 s_1 \+ s_0 d_0 has entry 2 at \(0, 0\)$")):
        certify_acyclic(bent, unit_witness(preset("field")))
    assert bent._acyclic == frozenset()


@pytest.mark.parametrize("name", sorted(BAR_EXTENSIONS))
def test_the_recorded_homotopy_contracts_as_matrices(name):
    """Each bar piece that certify_acyclic records, C(A) with A's unit
    and C(B) with B's, passes d_n s_n + s_{n-1} d_{n-1} = 1 in every
    degree below its top by Matrix products with s_n built as a matrix;
    a piece it does not record has no unit."""
    ext = adapted_extension(BAR_EXTENSIONS[name]())
    td = build_theory(ext, 2, "bar")
    for K, alg in ((td.CA, ext.A), (td.CB, ext.B)):
        unit = unit_witness(alg)
        assert K._acyclic == (frozenset(range(K.top_degree)) if unit.found
                              else frozenset())
        if unit.found:
            for n in range(K.top_degree):
                assert (contraction_by_matrices(K, unit, n)
                        == Matrix.identity(K.dims[n])), (name, n)
