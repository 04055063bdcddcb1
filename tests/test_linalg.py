"""Exact linear algebra: elimination, subspaces, solving, tensor products.

Rank/kernel/image results are cross-checked against sympy on random
matrices; structural properties (RREF canonicity, solver correctness)
are hypothesis properties.
"""

import pathlib
import random

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from alghom.algebra import preset
from alghom.complexes import homology_dims
from alghom.corpus import CORPUS, build
from alghom.excision import excision_report
from alghom.hochschild import bar_complex, cyclic_complex, hochschild_complex
from alghom import linalg
from alghom.linalg import (
    Matrix, ONE, Q, ZERO, _echelon,
    _shared_rref,
    cokernel, exactness_defect, format_q, hstack, image_basis, kernel_basis,
    parse_q, rank, solve, solve_many,
)

from support import (
    BASIS_CHANGE, BASIS_CHANGE_DET_4, basis_dims, coords_by_solve,
    echelon_over_q, from_dense, kernel_basis_by_probing, kron, kron_power,
    rebased, rref_of_every_line, section, solve_over_q, typed_rref,
)


def random_matrix(rng, rows, cols, density=0.5, span=5):
    entries = {}
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                num = rng.randint(-span, span)
                den = rng.randint(1, 3)
                if num:
                    entries[(r, c)] = Q(num, den)
    return Matrix(rows, cols, entries)


def to_sympy(M):
    return sympy.Matrix(M.rows, M.cols,
                        lambda r, c: sympy.Rational(str(M.entries.get((r, c), 0))))


matrices = st.builds(
    lambda seed, rows, cols: random_matrix(random.Random(seed), rows, cols),
    st.integers(0, 10 ** 6), st.integers(1, 6), st.integers(1, 6))


def test_rational_formatting_roundtrip():
    for s in ["0", "1", "-3", "2/7", "-11/13"]:
        assert format_q(parse_q(s)) == s
    assert parse_q("4/6") == Q(2, 3)


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_rank_matches_sympy(M):
    assert rank(M) == to_sympy(M).rank()


@settings(max_examples=40, deadline=None)
@given(matrices)
def test_kernel_basis_spans_sympy_nullspace(M):
    ker = kernel_basis(M)
    assert ker.dim == M.cols - rank(M)
    # every basis column really is in the kernel
    assert (M @ ker.basis).is_zero()
    # sympy's nullspace vectors lie in our kernel
    for v in to_sympy(M).nullspace():
        vec = {r: Q(str(v[r])) for r in range(M.cols) if v[r] != 0}
        assert ker.coords(vec) is not None


def test_kernel_basis_equals_probing_oracle():
    """The one-pass walk over the RREF gives the same basis, with the
    same entries inserted in the same order, as the double loop."""
    rng = random.Random(20261018)
    for _ in range(300):
        rows, cols = rng.randint(1, 8), rng.randint(1, 9)
        M = random_matrix(rng, rows, cols, density=rng.choice([0.2, 0.5, 0.9]))
        got, want = kernel_basis(M), kernel_basis_by_probing(M)
        assert got == want
        assert list(got.basis.entries.items()) == list(want.basis.entries.items())


@settings(max_examples=40, deadline=None)
@given(matrices)
def test_image_basis_is_echelon_and_correct(M):
    im = image_basis(M)
    assert im.dim == rank(M)
    for col in M.column_dicts():
        assert im.coords(dict(col)) is not None


@settings(max_examples=40, deadline=None)
@given(matrices)
def test_subspace_coords_reconstruct(M):
    im = image_basis(M)
    for col in M.column_dicts():
        coords = im.coords(dict(col))
        assert coords is not None
        rebuilt = im.basis.apply_dict(coords)
        assert rebuilt == {k: v for k, v in dict(col).items() if v}


@settings(max_examples=40, deadline=None)
@given(matrices)
def test_cokernel_projection_section(M):
    cok = cokernel(M)
    assert cok.dim == M.rows - rank(M)
    # projection kills the image
    assert (cok.projection @ M).is_zero()
    # section splits the projection
    if cok.dim:
        assert cok.projection @ section(cok) == Matrix.identity(cok.dim)


@settings(max_examples=50, deadline=None)
@given(matrices, st.integers(0, 10 ** 6))
def test_solve_agrees_with_membership(M, seed):
    rng = random.Random(seed)
    # consistent system: b in the image by construction
    x = {c: Q(rng.randint(-3, 3)) for c in range(M.cols)}
    image = M.apply_dict(x)
    b = [image.get(r, ZERO) for r in range(M.rows)]
    sol = solve(M, b)
    assert sol is not None
    assert M.apply_dict(dict(enumerate(sol))) == image


def test_solve_inconsistent_returns_none():
    M = from_dense([[1, 0], [0, 0]])
    assert solve(M, [0, 1]) is None
    assert solve_many(M, from_dense([[0], [1]])) is None


@settings(max_examples=30, deadline=None)
@given(matrices, matrices)
def test_solve_many_columnwise(M, C):
    B = M @ random_matrix(random.Random(7), M.cols, 3)
    X = solve_many(M, B)
    assert X is not None
    assert M @ X == B


@settings(max_examples=30, deadline=None)
@given(matrices, matrices)
def test_kron_entrywise(M, N):
    """(M (x) N)[(i1,i2),(j1,j2)] = M[i1,j1] * N[i2,j2] in row-major
    flat indexing."""
    K = kron(M, N)
    expected = {}
    for (i1, j1), a in M.entries.items():
        for (i2, j2), b in N.entries.items():
            expected[(i1 * N.rows + i2, j1 * N.cols + j2)] = a * b
    assert K.entries == expected


def test_kron_power_identity():
    I = Matrix.identity(3)
    assert kron_power(I, 4) == Matrix.identity(81)
    assert kron_power(I, 1) == I


def test_kron_index_convention_row_major():
    # leftmost factor most significant: e_i (x) e_j -> e_{i*n + j}
    A = Matrix(2, 2, {(1, 0): ONE})   # e_0 -> e_1
    B = Matrix(3, 3, {(2, 1): ONE})   # e_1 -> e_2
    K = kron(A, B)
    assert K.entries == {(1 * 3 + 2, 0 * 3 + 1): ONE}


def test_exactness_defect():
    # 0 -> Q -f-> Q^2 -g-> Q with g f = 0, exact at the middle
    f = from_dense([[1], [0]])
    g = from_dense([[0, 1]])
    assert exactness_defect(f, g) == 0
    g_zero = Matrix.zero(1, 2)
    assert exactness_defect(f, g_zero) == 1


def test_genuine_ends_eliminate_nothing(monkeypatch):
    """A sequence end is a zero matrix, and the rank of a zero matrix
    takes no elimination."""
    def forbidden(*args, **kwargs):
        raise AssertionError("eliminated a zero matrix")

    monkeypatch.setattr(linalg, "_echelon", forbidden)
    assert exactness_defect(Matrix.zero(3, 0), Matrix.zero(0, 3)) == 3
    assert rank(Matrix.zero(2, 5)) == 0


def test_hstack():
    A = from_dense([[1], [2]])
    B = from_dense([[3], [4]])
    assert hstack([A, B]) == from_dense([[1, 3], [2, 4]])


def test_matmul_associativity_spot():
    rng = random.Random(42)
    A = random_matrix(rng, 4, 5)
    B = random_matrix(rng, 5, 3)
    C = random_matrix(rng, 3, 6)
    assert (A @ B) @ C == A @ (B @ C)


# -- fast paths against the constructions they replace ----------------


def subspaces_of(M):
    return [kernel_basis(M), image_basis(M)]


def random_combination(sub, rng):
    coeffs = {k: Q(rng.randint(-3, 3)) for k in range(sub.dim)}
    return sub.basis.apply_dict({k: v for k, v in coeffs.items() if v})


def is_member(sub, vec):
    with_vec = hstack([sub.basis, Matrix.from_columns(sub.ambient_dim, [vec])])
    return rank(with_vec) == sub.dim


@settings(max_examples=40, deadline=None)
@given(matrices, st.integers(0, 10 ** 6))
def test_coords_read_off_agrees_with_solve(M, seed):
    rng = random.Random(seed)
    for sub in subspaces_of(M):
        for _ in range(3):
            vec = random_combination(sub, rng)
            assert sub.coords(vec) == coords_by_solve(sub, vec)
            # explicit zeros change nothing for a member
            padded = dict(vec)
            for r in range(sub.ambient_dim):
                padded.setdefault(r, ZERO)
            assert sub.coords(padded) == coords_by_solve(sub, vec)


@settings(max_examples=40, deadline=None)
@given(matrices, st.integers(0, 10 ** 6))
def test_coords_rejects_non_members(M, seed):
    rng = random.Random(seed)
    for sub in subspaces_of(M):
        rows = set(sub.coordinate_rows)
        # a nonzero vector supported off the coordinate rows reads zero
        # coordinates, so only the membership check can reject it
        for r in range(sub.ambient_dim):
            if r not in rows:
                assert sub.coords({r: Q(rng.randint(1, 3))}) is None
                assert not is_member(sub, {r: ONE})
        for _ in range(3):
            vec = random_combination(sub, rng)
            vec[rng.randrange(sub.ambient_dim)] = Q(rng.randint(-3, 3))
            vec = {r: v for r, v in vec.items() if v}
            if is_member(sub, vec):
                continue
            assert sub.coords(vec) is None
            padded = dict(vec)
            for r in rows:
                padded.setdefault(r, ZERO)
            assert sub.coords(padded) is None


def cokernel_projection_oracle(M):
    """Reference projection: for each free coordinate, look it up in
    every pivot row of the RREF (free coordinates x pivots)."""
    pivots = _shared_rref(M, "rref_t")
    pivot_set = {c for c, _ in pivots}
    free_coords = [q for q in range(M.rows) if q not in pivot_set]
    ents = {}
    for qi, q in enumerate(free_coords):
        ents[(qi, q)] = ONE
        for pc, row in pivots:
            w = row.get(q)
            if w:
                ents[(qi, pc)] = -w
    return Matrix(len(free_coords), M.rows, ents)


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_cokernel_projection_matches_double_loop(M):
    assert cokernel(M).projection == cokernel_projection_oracle(M)


def is_exact(v) -> bool:
    """An entry allowed by the entry-type contract."""
    return (type(v) is int or type(v) is Q) and v != 0


def test_matrix_constructor_checks_and_converts():
    """Entry-type contract: ints stay ints, everything else goes
    through Q, zeros are dropped, and no entry is a float or a bool."""
    with pytest.raises(ValueError):
        Matrix(2, 2, {(2, 0): ONE})
    with pytest.raises(ValueError):
        Matrix(2, 2, {(0, -1): ONE})
    M = Matrix(2, 3, {(0, 0): 3, (0, 1): "2/4", (0, 2): True, (1, 0): 0,
                      (1, 1): Q(0), (1, 2): 0.5})
    assert M.entries == {(0, 0): 3, (0, 1): Q(1, 2), (0, 2): 1,
                         (1, 2): Q(1, 2)}
    assert type(M.entries[(0, 0)]) is int
    assert all(type(M.entries[k]) is Q for k in [(0, 1), (0, 2), (1, 2)])
    assert all(is_exact(v) for v in M.entries.values())


def test_trusted_constructions_keep_the_entry_contract(monkeypatch):
    """Matrix._trusted checks nothing, so every dict handed to it must
    already be clean: in bounds, nonzero ints and Qs only.  Checked on
    every trusted construction of one corpus report (in a basis with
    fractional structure constants) and of a preset's three theories."""
    trusted, sizes = Matrix._trusted, []

    def checked(rows, cols, entries):
        for (r, c), v in entries.items():
            assert 0 <= r < rows and 0 <= c < cols, (r, c, rows, cols)
            assert is_exact(v), v
        sizes.append(len(entries))
        return trusted(rows, cols, entries)

    monkeypatch.setattr(Matrix, "_trusted", staticmethod(checked))
    r = excision_report(rebased(build("nilpotent_corner"), BASIS_CHANGE_DET_4), 2)
    assert r["verdict"]
    A = preset("matrix", k=2)
    for K in (hochschild_complex(A, 1), bar_complex(A, 1), cyclic_complex(A, 1)[0]):
        homology, cohomology = basis_dims(K, 1)
        assert homology == cohomology == homology_dims(K, 1)
    assert len(sizes) > 100 and sum(sizes) > 1000


def test_integral_arithmetic_stays_integral():
    A = from_dense([[1, -2], [0, 3]])
    I = Matrix.identity(2)
    for M in [A, I, A @ A, A + I, A - I, A.scale(-2), A.transpose(),
              Matrix.from_columns(2, A.column_dicts())]:
        assert all(type(v) is int for v in M.entries.values()), M
    assert all(type(v) is int for v in A.apply_dict({0: 2, 1: -1}).values())


def integer_rows(rng, rows, cols):
    """Rows with entries of magnitude 2..9, so that no first pivot is
    a unit and later ones are rarely so."""
    return [{c: rng.choice([-1, 1]) * rng.randint(2, 9) for c in range(cols)
             if rng.random() < 0.6} for _ in range(rows)]


def as_q(rows):
    return [{c: Q(v) for c, v in row.items()} for row in rows]


def echelon_entries(pivots):
    return [v for _, row in pivots for v in row.values()]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 6), st.integers(1, 6))
def test_echelon_on_ints_equals_echelon_on_q(seed, nrows, ncols):
    """Integer rows with non-unit pivots eliminate to exactly what the
    same rows given as Q do, with no float anywhere."""
    rng = random.Random(seed)
    rows = integer_rows(rng, nrows, ncols)
    for reduce in (True, False):
        got = _echelon(rows, ncols, reduce=reduce)
        assert got == _echelon(as_q(rows), ncols, reduce=reduce)
        assert all(is_exact(v) for v in echelon_entries(got))
    M = Matrix(nrows, ncols, {(r, c): v for r, row in enumerate(rows)
                              for c, v in row.items()})
    B = M @ Matrix(ncols, 2, {(c, k): rng.randint(-3, 3)
                              for c in range(ncols) for k in range(2)})
    X = solve_many(M, B)
    Mq = Matrix(M.rows, M.cols, {k: Q(v) for k, v in M.entries.items()})
    Bq = Matrix(B.rows, B.cols, {k: Q(v) for k, v in B.entries.items()})
    assert X == solve_many(Mq, Bq)
    assert M @ X == B
    assert all(is_exact(v) for v in X.entries.values())


def test_echelon_divides_by_a_non_unit_pivot():
    rows = [{0: 2, 1: 3}, {0: 4, 1: 5}]
    for reduce, expected in [(False, [(0, {0: 2, 1: 3}), (1, {1: -1})]),
                             (True, [(0, {0: 1}), (1, {1: 1})])]:
        pivots = _echelon(rows, 2, reduce=reduce)
        assert pivots == expected
        assert all(is_exact(v) for _, row in pivots for v in row.values())


def test_echelon_keeps_integral_rows_primitive_and_oriented():
    """A non-unit pivot pv turns a target t with entry a into
    (pv/g) t - (a/g) p, g = gcd(a, pv), with the multiplier of t made
    positive, and then divides t by its content."""
    cases = [([{0: -2, 1: 1, 2: 1}, {0: 3, 1: 5, 2: 1}],
              [(0, {0: -2, 1: 1, 2: 1}), (1, {1: 13, 2: 5})]),
             ([{0: 4, 1: 6}, {0: 6, 1: 3}], [(0, {0: 4, 1: 6}), (1, {1: -1})])]
    for rows, expected in cases:
        pivots = _echelon(rows, 3, reduce=False)
        assert pivots == expected
        assert all(type(v) is int for _, row in pivots for v in row.values())


def oracle_rows(rng):
    """Rows for the fraction-free elimination: integer entries that make
    most pivots non-units, Q entries, zero rows and repeated rows (equal
    or a multiple), with the width of an augmented block."""
    nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
    kind = rng.choice(["int", "q", "mixed"])
    rows = []
    for _ in range(nrows):
        row = {}
        for c in range(ncols):
            if rng.random() < 0.6:
                v = rng.choice([-1, 1]) * rng.choice([1, 2, 3, 4, 6, 9])
                if kind == "q" or (kind == "mixed" and rng.random() < 0.4):
                    v = Q(v, rng.randint(1, 4))
                row[c] = v
        rows.append(row)
    for _ in range(rng.randint(0, 2)):
        k = rng.randint(0, len(rows))
        if rng.random() < 0.3 or not rows:
            rows.insert(k, {})
        else:
            m = rng.choice([1, -2, 3, Q(1, 2)])
            rows.insert(k, {c: m * v for c, v in rng.choice(rows).items()})
    return rows, ncols, rng.randint(0, min(2, ncols - 1))


def augmented_system(rows, ncols, extra):
    """The rows as the system [M | B], B their last extra columns."""
    limit = ncols - extra
    parts = [{}, {}]
    for r, row in enumerate(rows):
        for c, v in row.items():
            parts[c >= limit][(r, c - limit if c >= limit else c)] = v
    return Matrix(len(rows), limit, parts[0]), Matrix(len(rows), extra, parts[1])


def test_fraction_free_echelon_matches_the_q_oracle(monkeypatch):
    """The integer elimination gives the RREF of elimination over Q and
    the same pivot columns and rank without reduction, entries within
    the entry-type contract, and through it the same kernel, image,
    cokernel and solutions.  Read as augmented systems [M | B], the
    rows give solve_many the solution, or the None, of the oracle's
    RREF of [M | B], and both verdicts occur."""
    rng = random.Random(20261019)
    verdicts = set()
    for _ in range(400):
        rows, ncols, extra = oracle_rows(rng)
        before = [dict(r) for r in rows]
        for reduce in (True, False):
            got = _echelon(rows, ncols, reduce=reduce)
            want = echelon_over_q(rows, ncols, reduce=reduce)
            assert [c for c, _ in got] == [c for c, _ in want]
            if not reduce:
                assert all(type(v) is int for v in echelon_entries(got))
                continue
            assert all(is_exact(v) for v in echelon_entries(got))
            assert got == want
        assert rows == before
        X = solve_many(*augmented_system(rows, ncols, extra))
        assert X == solve_over_q(*augmented_system(rows, ncols, extra))
        verdicts.add(X is None)
        M = Matrix(len(rows), ncols, {(r, c): v for r, row in enumerate(rows)
                                      for c, v in row.items()})
        B = M @ Matrix(ncols, 2, {(c, k): rng.randint(-3, 3)
                                  for c in range(ncols) for k in range(2)})
        # column 0 is consistent, column 1 only when e_r is in the image
        B = B + Matrix(M.rows, 2, {(rng.randrange(M.rows), 1): 1})

        def outputs():
            # a fresh matrix per call, so that no cached RREF is reused
            def fresh():
                return Matrix(M.rows, M.cols, M.entries)
            return (kernel_basis(fresh()), image_basis(fresh()),
                    cokernel(fresh()), solve_many(fresh(), B), rank(fresh()))

        got = outputs()
        assert got[3] == solve_over_q(M, B)
        verdicts.add(got[3] is None)
        with monkeypatch.context() as mp:
            mp.setattr(linalg, "_echelon", echelon_over_q)
            assert got == outputs()
    assert verdicts == {True, False}


REBASED_ALGEBRAS = [
    pytest.param(rebased(build(name), S).A, id="%s-%s" % (name, tag))
    for name in sorted(n for n in CORPUS if build(n).A.dim == 3)
    for tag, S in [("unimodular", BASIS_CHANGE), ("det4", BASIS_CHANGE_DET_4)]]


@pytest.mark.parametrize("A", REBASED_ALGEBRAS)
def test_echelon_matches_the_q_oracle_on_dense_differentials(A):
    """Every differential of a rebased C(A) at report degree 2 (up to
    27 x 81, dense, with non-unit pivots and many back-substitutions)
    and its transpose: the same RREF as elimination over Q, and the
    same pivot columns without reduction."""
    for d in hochschild_complex(A, 2).diffs:
        for M in (d, d.transpose()):
            rows = M.row_dicts()
            assert (_echelon(rows, M.cols, reduce=True)
                    == echelon_over_q(rows, M.cols, reduce=True))
            assert ([c for c, _ in _echelon(rows, M.cols, reduce=False)]
                    == [c for c, _ in echelon_over_q(rows, M.cols,
                                                     reduce=False)])


def test_echelon_does_not_depend_on_the_row_order():
    """Whichever row of a column arrives first becomes its pivot row,
    and no output reads that choice: permuted rows give the same RREF,
    the same pivot columns without reduction, and, read as augmented
    systems [M | B], the same solve_many solution or None, which is
    the oracle's."""
    rng = random.Random(20261020)
    for _ in range(300):
        rows, ncols, extra = oracle_rows(rng)
        rref = _echelon(rows, ncols, reduce=True)
        cols = [c for c, _ in _echelon(rows, ncols, reduce=False)]
        X = solve_many(*augmented_system(rows, ncols, extra))
        assert X == solve_over_q(*augmented_system(rows, ncols, extra))
        for _ in range(3):
            permuted = rng.sample(rows, len(rows))
            assert _echelon(permuted, ncols, reduce=True) == rref
            assert [c for c, _ in _echelon(permuted, ncols,
                                           reduce=False)] == cols
            assert solve_many(*augmented_system(permuted, ncols, extra)) == X


def test_elimination_happens_only_in_linalg():
    """No alghom module but linalg names _echelon, so patching
    linalg._echelon sees every elimination."""
    package = pathlib.Path(linalg.__file__).parent
    users = sorted(path.name for path in package.glob("*.py")
                   if path.name != "linalg.py"
                   and "_echelon" in path.read_text())
    assert users == []


@pytest.mark.parametrize("reduce_source", [kernel_basis, image_basis, cokernel],
                         ids=["kernel", "image", "cokernel"])
def test_rank_of_a_reduced_matrix_or_its_transpose_eliminates_nothing(
        reduce_source, monkeypatch):
    """The RREF that a basis was read off records the rank, and a
    transpose made before or after the reduction reads its source's."""
    M = from_dense([[1, 2, 3, 4], [2, 4, 6, 8], [1, 0, 1, 0]])
    early = M.transpose()
    reduce_source(M)

    def forbidden(*args, **kwargs):
        raise AssertionError("rank eliminated again")

    monkeypatch.setattr(linalg, "_echelon", forbidden)
    assert (rank(M), rank(early), rank(M.transpose())) == (2, 2, 2)


def rref_matrices():
    """Seeded random Q and int matrices, wide, tall and square, and the
    differentials of three complexes: integral ones of presets and
    rational ones of a dense rebased algebra."""
    rng = random.Random(20261020)
    mats = []
    for _ in range(40):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        mats.append(random_matrix(rng, rows, cols,
                                  density=rng.choice([0.2, 0.5, 0.9])))
        mats.append(from_dense(integer_rows(rng, rows, cols), rows, cols))
    dense = rebased(build("nilpotent_corner"), BASIS_CHANGE_DET_4).A
    for K in (hochschild_complex(preset("matrix", k=2), 2),
              bar_complex(preset("upper_triangular", k=2), 2),
              cyclic_complex(dense, 2)[0]):
        mats += K.diffs
    return mats


@pytest.mark.parametrize("key", ["rref", "rref_t"])
def test_rref_of_the_rank_increasing_lines_is_the_rref_of_every_line(
        key, monkeypatch):
    """_shared_rref gives the RREF of every line, with the same pivots,
    entries and entry types, whether nothing is cached, the other
    side's RREF is, or the other side's RREF is cached on the transpose
    partner.  With the other side cached, or shorter and eliminated
    non-reduced first, it reduces only the rank-increasing lines."""
    other = "rref_t" if key == "rref" else "rref"
    real, runs = linalg._echelon, []

    def counted(rows, ncols, **kwargs):
        runs.append((len(rows), kwargs["reduce"]))
        return real(rows, ncols, **kwargs)

    for M in rref_matrices():
        want = typed_rref(rref_of_every_line(M, key))
        r = len(want)
        lines, across = (M.rows, M.cols) if key == "rref" else (M.cols, M.rows)
        fresh = Matrix(M.rows, M.cols, M.entries)
        with monkeypatch.context() as mp:
            mp.setattr(linalg, "_echelon", counted)
            assert typed_rref(_shared_rref(fresh, key)) == want
        assert runs == ([(across, False), (r, True)] if across < lines
                        else [(lines, True)])
        assert rank(fresh) == r
        runs.clear()
        fresh = Matrix(M.rows, M.cols, M.entries)
        _shared_rref(fresh, other)
        source = Matrix(M.cols, M.rows,
                        {(c, r): v for (r, c), v in M.entries.items()})
        _shared_rref(source, key)       # its transpose's other side
        partner = source.transpose()
        with monkeypatch.context() as mp:
            mp.setattr(linalg, "_echelon", counted)
            assert typed_rref(_shared_rref(fresh, key)) == want
            assert typed_rref(_shared_rref(partner, key)) == want
        assert runs == [(r, True), (r, True)]
        runs.clear()
