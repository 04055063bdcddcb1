"""Seeded unimodular change of basis for corpus extensions.

A preset algebra comes in the sparsest basis it has; a user's file comes
in whatever basis its author picked.  rebase() moves A to the basis
f = S e for a unimodular integer matrix S and rebuilds the extension
through alghom's public quotient_extension.  Every dimension, defect and
verdict of the excision report is basis-independent, so the rebased
report must equal the unrebased reference.

S is the product of one elementary column operation (add c times column
i to column j, c = +1 or -1) for every ordered pair i != j: first the
pairs with i < j, then those with i > j.  That is dim * (dim - 1)
operations with seeded signs.  The seeded stream is drawn from until the
rebased structure constants are fully dense (dim^3 nonzeros), so the
load per input depends on the seed only through coefficient values, not
through which entries happen to cancel; the draw count is printed.
"""

from __future__ import annotations

import random

from alghom.algebra import Algebra, Extension, quotient_extension
from alghom.linalg import Matrix

MAX_DRAWS = 10_000


def unimodular(rng: random.Random, dim: int):
    """(S, S^-1) as integer row lists, S built from seeded elementary
    column operations in a fixed order."""
    S = [[int(r == c) for c in range(dim)] for r in range(dim)]
    S_inv = [row[:] for row in S]
    pairs = ([(i, j) for i in range(dim) for j in range(dim) if i < j]
             + [(i, j) for i in range(dim) for j in range(dim) if i > j])
    for i, j in pairs:
        c = rng.choice((-1, 1))
        for r in range(dim):
            S[r][j] += c * S[r][i]
        for k in range(dim):
            S_inv[i][k] -= c * S_inv[j][k]
    return S, S_inv


def _constants(A: Algebra):
    """Nonzero structure constants (i, j, k, c), integral ones as int so
    that the many candidate draws stay cheap."""
    return [(i, j, k, int(c) if c.denominator == 1 else c)
            for (i, j), comp in A.mult.items() for k, c in comp.items()]


def _rebased_mult(consts, d: int, S, S_inv) -> dict:
    """Structure constants in the basis given by the columns of S."""
    mult = {}
    for a in range(d):
        for b in range(d):
            prod = [0] * d          # f_a f_b in the old basis
            for i, j, k, c in consts:
                w = S[i][a] * S[j][b]
                if w:
                    prod[k] += w * c
            coords = {}
            for k in range(d):
                v = sum(S_inv[k][p] * prod[p] for p in range(d))
                if v:
                    coords[k] = v
            if coords:
                mult[(a, b)] = coords
    return mult


def _transform(S_inv, M: Matrix) -> Matrix:
    """S^-1 @ M for an integer row-list S^-1."""
    ents = {}
    for (p, c), v in M.entries.items():
        for k, row in enumerate(S_inv):
            if row[p]:
                ents[(k, c)] = ents.get((k, c), 0) + row[p] * v
    return Matrix(len(S_inv), M.cols, ents)


def rebase(ext: Extension, rng: random.Random):
    """Recipe (mult, ideal_basis, draws) for ext with A rebased: the
    first seeded draw whose structure constants are fully dense.  Build
    the extension with build_rebased()."""
    d = ext.A.dim
    consts = _constants(ext.A)
    for draws in range(1, MAX_DRAWS + 1):
        S, S_inv = unimodular(rng, d)
        mult = _rebased_mult(consts, d, S, S_inv)
        if sum(len(v) for v in mult.values()) == d ** 3:
            return mult, _transform(S_inv, ext.i.matrix), draws
    raise RuntimeError("no fully dense rebasing in %d draws" % MAX_DRAWS)


def build_rebased(dim: int, mult: dict, ideal_basis: Matrix, ideal_names) -> Extension:
    """Fresh Extension objects from a rebase() recipe.  The ideal basis
    is copied because linear algebra caches its echelon form on it."""
    A = Algebra(dim, ["f%d" % k for k in range(dim)], mult)
    basis = Matrix(ideal_basis.rows, ideal_basis.cols, ideal_basis.entries)
    return quotient_extension(A, basis, ideal_names)
