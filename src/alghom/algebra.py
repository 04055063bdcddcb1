"""Finite-dimensional associative algebras, homomorphisms and extensions.

An algebra is a structure-constant tensor over the exact rationals in a
fixed basis: e_i * e_j = sum_k c[i][j][k] e_k.  Extensions are short
exact sequences 0 -> B -> A -> D -> 0 of algebras given by explicit
matrices for the inclusion and the quotient map.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import (
    Matrix, Q, ZERO, ONE,
    cokernel, image_basis, rank, solve_many,
)


class Algebra:
    """Associative algebra given by structure constants.

    mult maps a basis pair (i, j) to a sparse dict {k: value}; absent
    pairs multiply to zero.  An integral value is an int, any other a Q
    (linalg's entry-type contract).  Instances are immutable after
    construction.
    """

    def __init__(self, dim: int, basis_names=None, mult=None):
        if dim < 0:
            raise ValueError("negative dimension")
        self.dim = dim
        self.basis_names = list(basis_names) if basis_names else [
            "e%d" % i for i in range(dim)]
        if len(self.basis_names) != dim:
            raise ValueError("basis name count does not match dimension")
        table = {}
        if mult:
            for (i, j), comp in mult.items():
                if not (0 <= i < dim and 0 <= j < dim):
                    raise ValueError("structure constant index out of range")
                clean = {}
                for k, v in comp.items():
                    if not 0 <= k < dim:
                        raise ValueError("structure constant index out of range")
                    v = Q(v)
                    if v:
                        clean[k] = v.numerator if v.denominator == 1 else v
                if clean:
                    table[(i, j)] = clean
        self.mult = table

    def product_basis(self, i: int, j: int) -> dict:
        """e_i * e_j as a sparse coefficient vector."""
        return self.mult.get((i, j), {})

    def product(self, x: dict, y: dict) -> dict:
        """Product of two elements given as sparse coefficient vectors."""
        out = {}
        for i, xi in x.items():
            for j, yj in y.items():
                for k, c in self.mult.get((i, j), {}).items():
                    s = out.get(k, 0) + xi * yj * c
                    if s:
                        out[k] = s
                    elif k in out:
                        del out[k]
        return out

    def __repr__(self):
        return "Algebra(dim=%d)" % self.dim


def validate_algebra(alg: Algebra):
    """Check associativity on every triple where a side can be nonzero.

    Returns a list of violations, one per failing triple (i, j, k), each
    with both evaluated sides over Q; the empty list means the algebra is
    valid.  Both sides of (e_i e_j) e_k = e_i (e_j e_k) are products of
    structure constants, so an integral algebra is checked in int
    arithmetic.  With e_i e_j = 0 only a k with e_j e_k != 0 can fail, so
    the j visited, in order, are those with e_i e_j or some e_j e_k != 0."""
    violations, nonzero_after = [], [[] for _ in range(alg.dim)]
    for j, k in sorted(alg.mult):
        nonzero_after[j].append(k)
    left_factors = [j for j in range(alg.dim) if nonzero_after[j]]
    for i in range(alg.dim):
        extra = [j for j in nonzero_after[i] if not nonzero_after[j]]
        # sorted() merges two sorted runs in linear time
        for j in sorted(left_factors + extra) if extra else left_factors:
            for k in (range(alg.dim) if (i, j) in alg.mult
                      else nonzero_after[j]):
                left = alg.product(alg.product_basis(i, j), {k: 1})
                right = alg.product({i: 1}, alg.product_basis(j, k))
                if left != right:
                    violations.append({
                        "triple": (i, j, k),
                        "left": {t: Q(v) for t, v in left.items()},
                        "right": {t: Q(v) for t, v in right.items()}})
    return violations


# -- presets ---------------------------------------------------------


# each preset's parameters: an integer's least value, or Algebra
_PRESET_PARAMS = {
    "field": {}, "zero_mult": {"d": 0}, "truncated_poly": {"m": 1},
    "matrix": {"k": 1}, "upper_triangular": {"k": 1},
    "direct_sum": {"a": Algebra, "b": Algebra},
}


def _check_preset_params(name, params):
    """ValueError naming the parameter unless params are exactly the
    preset's, each an algebra or an integer in range as it needs."""
    if not isinstance(name, str) or name not in _PRESET_PARAMS:
        raise ValueError("unknown preset %r" % (name,))
    spec = _PRESET_PARAMS[name]
    odd = sorted(set(params) ^ set(spec))
    if odd:
        raise ValueError("%s %s parameter %r" % (
            name, "takes no" if odd[0] in params else "needs", odd[0]))
    for key, least in spec.items():
        value = params[key]
        if least is Algebra:
            if not isinstance(value, Algebra):
                raise ValueError("%s parameter %r must be an algebra, got %r"
                                 % (name, key, value))
        elif isinstance(value, bool) or not isinstance(value, int):
            raise ValueError("%s parameter %r must be an integer, got %r"
                             % (name, key, value))
        elif value < least:
            raise ValueError("%s needs %s >= %d" % (name, key, least))


def preset(name: str, **params) -> Algebra:
    """Canonical example algebras.

    matrix(k): full k x k matrices, basis e_pq row-major.
    truncated_poly(m): Q[x]/x^m, basis 1, x, ..., x^(m-1).
    zero_mult(d): d-dimensional space with all products zero.
    upper_triangular(k): upper-triangular k x k matrices.
    direct_sum(a, b): product algebra on the concatenated bases.
    field(): the 1-dimensional unital algebra.

    Raises ValueError naming the parameter that is unknown, missing, of
    the wrong type or out of range.
    """
    _check_preset_params(name, params)
    if name == "field":
        return Algebra(1, ["1"], {(0, 0): {0: ONE}})
    if name == "zero_mult":
        return Algebra(params["d"], None, {})
    if name == "truncated_poly":
        m = params["m"]
        names = ["1"] + ["x^%d" % p if p > 1 else "x" for p in range(1, m)]
        mult = {}
        for i in range(m):
            for j in range(m):
                if i + j < m:
                    mult[(i, j)] = {i + j: ONE}
        return Algebra(m, names, mult)
    if name in ("matrix", "upper_triangular"):
        k, upper = params["k"], name == "upper_triangular"
        pairs = [(p, q) for p in range(k) for q in range(p if upper else 0, k)]
        idx = {pq: n for n, pq in enumerate(pairs)}
        names = ["e%d%d" % (p + 1, q + 1) for p, q in pairs]
        mult = {}
        for a, (p, q) in enumerate(pairs):
            for b, (r, s) in enumerate(pairs):
                if q == r:
                    mult[(a, b)] = {idx[(p, s)]: ONE}
        return Algebra(len(pairs), names, mult)
    a, b = params["a"], params["b"]             # direct_sum
    names = ["L." + n for n in a.basis_names] + ["R." + n for n in b.basis_names]
    mult = {}
    for (i, j), comp in a.mult.items():
        mult[(i, j)] = dict(comp)
    off = a.dim
    for (i, j), comp in b.mult.items():
        mult[(i + off, j + off)] = {k + off: v for k, v in comp.items()}
    return Algebra(a.dim + b.dim, names, mult)


# -- homomorphisms and extensions ------------------------------------


@dataclass(frozen=True)
class AlgebraHom:
    """Linear map between algebras, stored as a target.dim x source.dim
    matrix in the fixed bases."""

    source: Algebra
    target: Algebra
    matrix: Matrix

    def __post_init__(self):
        if (self.matrix.rows, self.matrix.cols) != (self.target.dim, self.source.dim):
            raise ValueError("homomorphism matrix shape mismatch")


def validate_hom(hom: AlgebraHom):
    """Check multiplicativity on all basis pairs; returns violations."""
    violations = []
    for i in range(hom.source.dim):
        fi = hom.matrix.column(i)
        for j in range(hom.source.dim):
            fj = hom.matrix.column(j)
            lhs = hom.matrix.apply_dict(hom.source.product_basis(i, j))
            rhs = hom.target.product(fi, fj)
            if lhs != rhs:
                violations.append({"pair": (i, j), "image_of_product": lhs,
                                   "product_of_images": rhs})
    return violations


@dataclass(frozen=True)
class Extension:
    """0 -> B -i-> A -j-> D -> 0 with i injective onto a two-sided ideal
    and j the quotient map."""

    B: Algebra
    A: Algebra
    D: Algebra
    i: AlgebraHom
    j: AlgebraHom


def validate_extension(ext: Extension):
    """Check all extension invariants; returns None when valid, else a
    dict naming the first failing invariant."""
    if ext.i.source is not ext.B and ext.i.source.dim != ext.B.dim:
        return {"invariant": "shapes", "detail": "i does not start at B"}
    if ext.A.dim != ext.B.dim + ext.D.dim:
        return {"invariant": "dimension",
                "detail": "dim A = %d but dim B + dim D = %d"
                          % (ext.A.dim, ext.B.dim + ext.D.dim)}
    for name, alg in (("B", ext.B), ("A", ext.A), ("D", ext.D)):
        bad = validate_algebra(alg)
        if bad:
            return {"invariant": "%s associative" % name, "detail": bad[0]}
    bad = validate_hom(ext.i)
    if bad:
        return {"invariant": "i multiplicative", "detail": bad[0]}
    bad = validate_hom(ext.j)
    if bad:
        return {"invariant": "j multiplicative", "detail": bad[0]}
    if rank(ext.i.matrix) != ext.B.dim:
        return {"invariant": "i injective", "detail": None}
    if rank(ext.j.matrix) != ext.D.dim:
        return {"invariant": "j surjective", "detail": None}
    # dim Ker j = dim A - dim D = dim B = rank i, so Im i = Ker j exactly
    # when j i = 0; and Ker j of a multiplicative j is a two-sided ideal
    if not (ext.j.matrix @ ext.i.matrix).is_zero():
        return {"invariant": "Im i = Ker j", "detail": "Im i not in Ker j"}
    return None


# -- unit witnesses --------------------------------------------------


@dataclass(frozen=True)
class UnitWitness:
    """Outcome of the one-sided unit search: side is 'left', 'right',
    'two-sided' or 'none'; element is the coefficient vector when found."""

    side: str
    element: list | None = None

    @property
    def found(self) -> bool:
        return self.side != "none"


def _unit_system(alg: Algebra, side: str):
    # left: sum_i x_i c[i][j][k] = delta_jk ; right: sum_i x_i c[j][i][k]
    ents = {}
    rhs = {}
    row = 0
    for j in range(alg.dim):
        for k in range(alg.dim):
            for i in range(alg.dim):
                c = (alg.product_basis(i, j) if side == "left"
                     else alg.product_basis(j, i)).get(k)
                if c:
                    ents[(row, i)] = c
            if j == k:
                rhs[(row, 0)] = 1
            row += 1
    return Matrix(row, alg.dim, ents), Matrix(row, 1, rhs)


def find_one_sided_unit(alg: Algebra, side: str) -> UnitWitness:
    """Solve the exact unit equations e*b = b (left) or b*e = b (right)
    for all basis elements b.  Absence is a legal outcome, not an error.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if alg.dim == 0:
        return UnitWitness(side, [])
    M, rhs = _unit_system(alg, side)
    sol = solve_many(M, rhs)
    if sol is None:
        return UnitWitness("none")
    x = sol.column(0)
    return UnitWitness(side, [x.get(i, ZERO) for i in range(alg.dim)])


def unit_witness(alg: Algebra) -> UnitWitness:
    """Best available unit: two-sided when both one-sided units exist
    (they then coincide), otherwise whichever side is found."""
    left = find_one_sided_unit(alg, "left")
    right = find_one_sided_unit(alg, "right")
    if left.found and right.found:
        # a left unit and a right unit are automatically equal
        return UnitWitness("two-sided", left.element)
    if left.found:
        return left
    if right.found:
        return right
    return UnitWitness("none")


# -- splittings and quotient construction ----------------------------


def find_splitting(ext: Extension) -> Matrix:
    """A linear right inverse of j (always exists here), computed by one
    deterministic solve j @ s = I."""
    s = solve_many(ext.j.matrix, Matrix.identity(ext.D.dim))
    if s is None:
        raise ValueError("j is not surjective; extension invalid")
    return s


def quotient_extension(A: Algebra, ideal_basis: Matrix,
                       ideal_names=None) -> Extension:
    """Build 0 -> B -> A -> A/ideal -> 0 from a basis of a two-sided
    ideal, with the deterministic echelon complement as the basis of the
    quotient."""
    if ideal_basis.rows != A.dim:
        raise ValueError("ideal basis ambient dimension mismatch")
    ideal = image_basis(ideal_basis)
    b_dim = ideal.dim
    # B structure constants: products of ideal basis vectors, expressed
    # back in the ideal basis (closure check included)
    bmult = {}
    bcols = ideal.basis.column_dicts()
    for bi, x in enumerate(bcols):
        for bj, y in enumerate(bcols):
            prod = A.product(x, y)
            if not prod:
                continue
            coords = ideal.coords(prod)
            if coords is None:
                raise ValueError("given subspace is not closed under multiplication")
            bmult[(bi, bj)] = coords
    names = list(ideal_names) if ideal_names else ["b%d" % i for i in range(b_dim)]
    B = Algebra(b_dim, names, bmult)

    cok = cokernel(ideal.basis)
    # D multiplies the unit vectors at its coordinate rows, and names
    # its basis after them
    dmult = {}
    for qi, x in enumerate(cok.rows):
        for qj, y in enumerate(cok.rows):
            prod = cok.projection.apply_dict(A.product_basis(x, y))
            if prod:
                dmult[(qi, qj)] = prod
    dnames = [A.basis_names[x] + "~" for x in cok.rows]
    D = Algebra(cok.dim, dnames, dmult)

    i = AlgebraHom(B, A, ideal.basis)
    j = AlgebraHom(A, D, cok.projection)
    ext = Extension(B, A, D, i, j)
    bad = validate_extension(ext)
    if bad is not None:
        raise ValueError("quotient construction produced an invalid extension: %r" % bad)
    return ext
