"""Sparse exact-rational linear algebra.

Everything downstream (chain complexes, homology dimensions, exactness
defects) reduces to rank / kernel / image / solve over the rationals, so
this module is the only place elimination happens.  All arithmetic is
exact; there are no tolerances anywhere.  The rationals are
fractions.Fraction (Q below).

Entry-type contract: a Matrix entry or an Algebra structure constant is
a nonzero Python int or a nonzero Q, never a float or a bool.  Integral
data (integral structure constants and every differential built from
them) stays in ints, which are much cheaper than Q; Matrix keeps ints
and coerces everything else through Q, and Algebra stores an integral
constant as an int.  Sums and products of ints stay ints.  _echelon
eliminates fraction-free over the integers, where a row is only ever
divided exactly, by its content; the only other division of entries is
its read-out of a reduced form, which divides each pivot row by its
pivot: an entry stays an int when that division is exact and becomes
Q(w, pivot) otherwise, so two ints are never divided into a float.
Every value equals the one the same operations give over Q alone.

Determinism contract: elimination always pivots on a row's leftmost
nonzero column, and the first row to arrive at a column with no pivot
row becomes that column's pivot row.  Kernel, image and cokernel bases
are read off the reduced row echelon form, and solutions off that of a
consistent augmented system.  A matrix determines its RREF uniquely,
whichever rows become pivot rows and in whatever order the rows come,
so identical inputs give bit-identical bases, equal to those of
elimination over Q.  Without reduction only the pivot columns are read:
they are the rank-increasing columns, also independent of the pivot
rows and of the row order.  As a row space has one RREF, an RREF read
off its rank-increasing rows alone (_shared_rref) is the same, entry
types included.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cached_property
from math import gcd, lcm

ZERO = Q(0)
ONE = Q(1)


def format_q(x) -> str:
    """Render a rational as 'p' or 'p/q' (never a float)."""
    x = Q(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%s/%s" % (x.numerator, x.denominator)


def parse_q(s):
    """Parse 'p' or 'p/q' into an exact rational: ASCII digits, no
    underscores (every string format_q emits parses back)."""
    s = str(s).strip()
    if "_" in s or not s.isascii():
        raise ValueError("not ASCII digits without underscores")
    if "/" in s:
        num, den = s.split("/")
        return Q(int(num), int(den))
    return Q(int(s))


class Matrix:
    """Immutable sparse matrix over the exact rationals.

    Entries are stored in a dict {(row, col): value} holding only nonzero
    values.  Instances are treated as immutable after construction and are
    safe to share between threads.
    """

    __slots__ = ("rows", "cols", "entries", "_cache")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        ents = {}
        if entries:
            for (r, c), v in entries.items():
                if not (0 <= r < rows and 0 <= c < cols):
                    raise ValueError("entry index (%d,%d) out of bounds" % (r, c))
                if type(v) is not int and type(v) is not Q:
                    v = Q(v)
                if v:
                    ents[(r, c)] = v
        self.entries = ents
        self._cache = {}

    @staticmethod
    def _trusted(rows: int, cols: int, entries: dict) -> "Matrix":
        """A Matrix that takes entries as they are, unchecked and
        uncopied.  Only for a dict that is clean by construction: every
        key in bounds, every value a nonzero int or Q, and no other
        holder that changes it."""
        m = Matrix.__new__(Matrix)
        m.rows, m.cols, m.entries, m._cache = rows, cols, entries, {}
        return m

    # -- constructors -------------------------------------------------

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, {(i, i): 1 for i in range(n)})

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols)

    @staticmethod
    def from_columns(rows: int, columns) -> "Matrix":
        """Build from a list of sparse columns, each a dict {row: value}."""
        ents = {}
        for c, col in enumerate(columns):
            for r, v in col.items():
                if v:
                    ents[(r, c)] = v
        return Matrix(rows, len(columns), ents)

    # -- views --------------------------------------------------------

    def row_dicts(self):
        return _lines(self, True)

    def column_dicts(self):
        if "cols" not in self._cache:
            self._cache["cols"] = _lines(self, False)
        return self._cache["cols"]

    def column(self, c: int) -> dict:
        return dict(self.column_dicts()[c])

    # -- arithmetic ---------------------------------------------------

    def transpose(self) -> "Matrix":
        """The transpose, which keeps its source under "transpose_of"
        so the two share one RREF (_shared_rref).  The link is one-way:
        a source keeps no transpose alive."""
        t = Matrix._trusted(self.cols, self.rows,
                            {(c, r): v for (r, c), v in self.entries.items()})
        t._cache["transpose_of"] = self
        return t

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        left_cols = self.column_dicts()
        out = {}
        for (j, k), w in other.entries.items():
            for i, v in left_cols[j].items():
                key = (i, k)
                s = out.get(key, 0) + v * w
                if s:
                    out[key] = s
                elif key in out:
                    del out[key]
        return Matrix._trusted(self.rows, other.cols, out)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix sum")
        out = dict(self.entries)
        for key, v in other.entries.items():
            s = out.get(key, 0) + v
            if s:
                out[key] = s
            elif key in out:
                del out[key]
        return Matrix._trusted(self.rows, self.cols, out)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scale(-1)

    def scale(self, a) -> "Matrix":
        if type(a) is not int:
            a = Q(a)
        if not a:
            return Matrix.zero(self.rows, self.cols)
        return Matrix(self.rows, self.cols,
                      {k: a * v for k, v in self.entries.items()})

    def apply_dict(self, vec: dict) -> dict:
        """Matrix times a sparse vector {index: value}."""
        out = {}
        cols = self.column_dicts()
        for c, x in vec.items():
            if not x:
                continue
            for r, v in cols[c].items():
                s = out.get(r, 0) + v * x
                if s:
                    out[r] = s
                elif r in out:
                    del out[r]
        return out

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix)
                and self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self):
        return id(self)

    def __repr__(self):
        return "Matrix(%dx%d, %d nonzero)" % (self.rows, self.cols, len(self.entries))


def hstack(mats) -> Matrix:
    mats = list(mats)
    rows = mats[0].rows if mats else 0
    ents = {}
    off = 0
    for m in mats:
        if m.rows != rows:
            raise ValueError("row count mismatch in hstack")
        for (r, c), v in m.entries.items():
            ents[(r, c + off)] = v
        off += m.cols
    return Matrix._trusted(rows, off, ents)


# -- elimination core ------------------------------------------------


def _clear(row, prow, c):
    """Clear column c of the integral row with the integral pivot row
    prow, whose pivot pv is at c.  A pivot pv = +-1 is its own inverse:
    a row with entry a becomes row - a*pv*prow.  Any other pivot turns
    row into (pv/g)*row - (a/g)*prow with g = gcd(a, pv) and the
    multiplier of row made positive, and row is then divided by its
    content (the gcd of its entries)."""
    a, pv = row[c], prow[c]
    unit = pv == 1 or pv == -1
    if unit:
        f = a * pv
    else:
        g = gcd(a, pv)
        m, f = pv // g, a // g
        if m < 0:
            m, f = -m, -f
        if m != 1:
            for cc, w in row.items():
                row[cc] = m * w
    for cc, w in prow.items():
        s = row.get(cc, 0) - f * w
        if s:
            row[cc] = s
        else:
            del row[cc]
    if not unit:
        content = gcd(*row.values())
        if content > 1:
            for cc, w in row.items():
                row[cc] = w // content


def _echelon(row_dicts, ncols, *, reduce=True):
    """Sparse fraction-free Gaussian elimination, row by row against a
    table of pivot rows.

    A row with Q entries is first multiplied by the lcm of its
    denominators, which keeps its span, so every row is integral.  Each
    row, in input order, is cleared at its leading (leftmost nonzero)
    column by that column's pivot row (_clear) until no pivot row exists
    for its leading column; it then becomes that column's pivot row.  A
    row that vanishes is dropped.

    With reduce=True the pivot rows are then taken from the rightmost
    pivot column to the leftmost, and each row's other pivot columns are
    cleared with the rows already taken, which are zero at every pivot
    column but their own, so no pivot column comes back.  At the end
    each row is divided by its pivot: the result is the reduced row
    echelon form (pivots 1, zeros above and below).  With reduce=False
    the rows stay integral and only the pivot columns are meaningful.

    Returns the pivots: (col, row_dict) pairs in increasing col order.
    """
    pivot_of = {}
    for r in row_dicts:
        row = dict(r)
        if any(type(v) is not int for v in row.values()):
            scale = lcm(*(v.denominator for v in row.values()))
            for cc, v in row.items():
                row[cc] = v.numerator * (scale // v.denominator)
        while row:
            c = min(row)
            prow = pivot_of.get(c)
            if prow is None:
                pivot_of[c] = row
                break
            _clear(row, prow, c)

    pivots = sorted(pivot_of.items())
    if reduce:
        for c, row in reversed(pivots):
            for cc in [k for k in row if k > c and k in pivot_of]:
                _clear(row, pivot_of[cc], cc)
        for c, row in pivots:
            pv = row[c]
            if pv != 1:
                for cc, w in row.items():
                    q, rem = divmod(w, pv)
                    row[cc] = Q(w, pv) if rem else q
    return pivots


def _lines(M: Matrix, by_rows: bool, keep=None):
    """M's rows (by_rows) or columns as dicts, only those at the
    indices keep when given, in one pass over its entries."""
    n = M.rows if by_rows else M.cols
    lines = [None] * n
    for i in range(n) if keep is None else keep:
        lines[i] = {}
    i, j = (0, 1) if by_rows else (1, 0)
    for key, v in M.entries.items():
        line = lines[key[i]]
        if line is not None:
            line[key[j]] = v
    return lines if keep is None else [lines[i] for i in keep]


def _shared_rref(M: Matrix, key: str):
    """The RREF "rref" of M's rows or "rref_t" of its columns, cached
    with the rank; a transpose asks its source under the swapped key.
    It is reduced from the rank-increasing lines, the pivot columns of
    the other side's cached RREF or of a non-reduced pass over the other
    side if shorter (if not, the pass costs more than it saves: every
    line is reduced).  A row space has one RREF, so these all agree."""
    got = M._cache.get(key)
    if got is None:
        by_rows = key == "rref"
        swapped = "rref_t" if by_rows else "rref"
        source = M._cache.get("transpose_of")
        if source is not None:
            got = _shared_rref(source, swapped)
        else:
            mine, other = (M.rows, M.cols) if by_rows else (M.cols, M.rows)
            basis = M._cache.get(swapped)
            if basis is None and other < mine:
                basis = _echelon(_lines(M, not by_rows), mine, reduce=False)
            keep = None if basis is None else [c for c, _ in basis]
            got = _echelon(_lines(M, by_rows, keep), other, reduce=True)
        M._cache[key], M._cache["rank"] = got, len(got)
    return got


# -- subspaces -------------------------------------------------------


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^ambient_dim given by a full-column-rank basis in
    canonical echelon position.

    coordinate_rows lists one row index per basis column at which that
    column is 1 and all other columns vanish, so coordinates of a member
    vector are read off directly, in time proportional to the vector's
    nonzeros (through a {row: basis index} map built once per subspace).
    The read-off is always followed by the membership check
    basis @ x == vec, so a vector outside the subspace still gets None.
    """

    ambient_dim: int
    basis: Matrix
    coordinate_rows: tuple

    @property
    def dim(self) -> int:
        return self.basis.cols

    def coords(self, vec: dict):
        """Coordinates of a sparse vector in the basis, or None if the
        vector is outside the subspace."""
        index = self._row_index
        x = dict(sorted((index[r], v) for r, v in vec.items()
                        if v and r in index))
        # membership check: basis @ x must reproduce vec exactly
        if self.basis.apply_dict(x) != {r: v for r, v in vec.items() if v}:
            return None
        return x

    @cached_property
    def _row_index(self) -> dict:
        return {r: k for k, r in enumerate(self.coordinate_rows)}


@dataclass(frozen=True)
class Cokernel:
    """Quotient of the target of a matrix by its column space.

    projection has full row rank and projection @ M = 0; rows lists the
    target coordinates whose unit vectors it maps to the unit vectors
    of the quotient, in order.
    """

    projection: Matrix
    rows: tuple

    @property
    def dim(self) -> int:
        return len(self.rows)


# -- the public operations -------------------------------------------


def rank(M: Matrix) -> int:
    """The "rank" recorded on M, else by pivots; a transpose asks its source."""
    got = M._cache.get("rank")
    if got is None:
        source = M._cache.get("transpose_of")
        if source is not None:
            got = rank(source)
        else:
            got = (len(_echelon(M.row_dicts(), M.cols, reduce=False))
                   if M.entries else 0)
        M._cache["rank"] = got
    return got


def extending_columns(Z: Subspace, B: Matrix) -> Matrix:
    """The columns of Z's basis that extend B, a basis inside Z: column
    j when outside the span of B and of columns 0..j-1, as the pivot
    columns of hstack([B, Z.basis]) pick them.  B's coordinates in Z are
    its entries at Z's coordinate rows, and column j is in that span iff
    some combination of them ends at coordinate j: a pivot column of one
    non-reduced elimination of them with the coordinates reversed."""
    m, index = Z.dim, Z._row_index
    if B.cols == m:             # B spans Z: no column extends it
        return Matrix.zero(Z.ambient_dim, 0)
    rows = [{} for _ in range(B.cols)]
    for (r, c), v in B.entries.items():
        k = index.get(r)
        if k is not None:
            rows[c][m - 1 - k] = v
    last = {m - 1 - c for c, _ in _echelon(rows, m, reduce=False)}
    at = {j: k for k, j in enumerate(j for j in range(m) if j not in last)}
    return Matrix._trusted(Z.ambient_dim, len(at), {
        (r, at[c]): v for (r, c), v in Z.basis.entries.items() if c in at})


def kernel_basis(M: Matrix) -> Subspace:
    """Echelon-deterministic basis of {x : Mx = 0}."""
    pivots = _shared_rref(M, "rref")
    pivot_cols = {c for c, _ in pivots}
    free_cols = [c for c in range(M.cols) if c not in pivot_cols]
    free_index = {f: k for k, f in enumerate(free_cols)}
    columns = [{f: 1} for f in free_cols]
    # one pass over the nonzeros of the RREF: entry w of pivot row pc in
    # free column f puts -w in row pc of f's kernel column
    for pc, row in pivots:
        for f, w in row.items():
            k = free_index.get(f)
            if k is not None:
                columns[k][pc] = -w
    ents = {(r, k): v for k, col in enumerate(columns) for r, v in col.items()}
    return Subspace(M.cols, Matrix._trusted(M.cols, len(columns), ents),
                    coordinate_rows=tuple(free_cols))


def image_basis(M: Matrix) -> Subspace:
    """Echelon-deterministic basis of the column space."""
    pivots = _shared_rref(M, "rref_t")
    ents = {(r, k): v for k, (_, row) in enumerate(pivots)
            for r, v in row.items()}
    return Subspace(M.rows, Matrix._trusted(M.rows, len(pivots), ents),
                    coordinate_rows=tuple(c for c, _ in pivots))


def cokernel(M: Matrix) -> Cokernel:
    """Projection of the target of M onto a complement of Im M: the
    kernel basis of M's transpose, transposed.  Its rows are the
    kernel's coordinate rows, the non-pivot rows of the column space."""
    ker = kernel_basis(M.transpose())
    return Cokernel(ker.basis.transpose(), ker.coordinate_rows)


def solve(M: Matrix, b):
    """One solution of Mx = b (dense vector), or None when b is outside
    the image; see solve_many."""
    if len(b) != M.rows:
        raise ValueError("right-hand side length mismatch")
    col = {i: Q(v) for i, v in enumerate(b) if Q(v)}
    sol = solve_many(M, Matrix.from_columns(M.rows, [col]))
    if sol is None:
        return None
    c = sol.column(0)
    return [c.get(i, ZERO) for i in range(M.cols)]


def solve_many(M: Matrix, B: Matrix):
    """Solve MX = B for all columns of B at once, or None if any column
    is inconsistent: only then does a row reach an augmented column, and
    a pivot there is the witness.  Free variables are 0 under
    leftmost-pivot elimination, so X, read off the augmented entries of
    the pivot rows of the reduced system, is deterministic."""
    if B.rows != M.rows:
        raise ValueError("right-hand side row count mismatch")
    n = M.cols
    rows = M.row_dicts()
    for (r, c), v in B.entries.items():
        rows[r][n + c] = v
    pivots = _echelon(rows, n + B.cols, reduce=True)
    if pivots and pivots[-1][0] >= n:
        return None
    return Matrix(n, B.cols, {(pc, c - n): v for pc, row in pivots
                              for c, v in row.items() if c >= n})


def exactness_defect(f: Matrix, g: Matrix) -> int:
    """dim Ker g - rank f for a composable pair; when g(f(x)) = 0 it is
    zero exactly when the pair is exact at the middle space.  Whether
    the composition vanishes is the caller's question."""
    if g.cols != f.rows:
        raise ValueError("maps are not composable")
    return (g.cols - rank(g)) - rank(f)
