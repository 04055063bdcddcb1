"""Preset extensions used by the test suite and the examples.

Each builder returns a validated Extension 0 -> B -> A -> D -> 0.  The
unital corpus (every B with a one-sided unit) is the quantification
domain of the headline excision test; the failure corpus collects
extensions whose ideal has no one-sided unit and nonvanishing bar
homology, where excision is expected to break.
"""

from __future__ import annotations

from .algebra import Algebra, Extension, preset, quotient_extension
from .linalg import Matrix


def _coordinate_ideal(A: Algebra, indices, names=None) -> Extension:
    basis = Matrix(A.dim, len(indices),
                   {(i, c): 1 for c, i in enumerate(indices)})
    if names is None:
        names = [A.basis_names[i] for i in indices]
    return quotient_extension(A, basis, names)


def split_product() -> Extension:
    """E1: A = Q x Q with B the first factor; D = Q.  Split, B unital."""
    A = preset("direct_sum", a=preset("field"), b=preset("field"))
    return _coordinate_ideal(A, [0])


def nilpotent_corner() -> Extension:
    """E2: A = upper-triangular 2x2 matrices, B = span{e12} with zero
    multiplication; D = Q x Q.  The ideal has no one-sided unit and
    excision fails."""
    A = preset("upper_triangular", k=2)
    return _coordinate_ideal(A, [A.basis_names.index("e12")])


def full_ideal() -> Extension:
    """B = A = 2x2 matrices, D = 0."""
    A = preset("matrix", k=2)
    return _coordinate_ideal(A, list(range(A.dim)))


def zero_ideal() -> Extension:
    """B = 0 inside A = 2x2 matrices, D = A."""
    A = preset("matrix", k=2)
    return _coordinate_ideal(A, [])


def matrix_block() -> Extension:
    """A = M_2(Q) x Q with B the matrix block (amenable surrogate);
    D = Q.  Dimension 5 -- the heavy corpus entry."""
    A = preset("direct_sum", a=preset("matrix", k=2), b=preset("field"))
    return _coordinate_ideal(A, [0, 1, 2, 3])


def two_of_three() -> Extension:
    """A = Q x Q x Q with B the first two factors; D = Q."""
    A = preset("direct_sum",
               a=preset("direct_sum", a=preset("field"), b=preset("field")),
               b=preset("field"))
    return _coordinate_ideal(A, [0, 1])


def left_unital_corner() -> Extension:
    """A = upper-triangular 2x2, B = span{e11, e12}: B has a left unit
    (e11) but no right unit; D = Q."""
    A = preset("upper_triangular", k=2)
    return _coordinate_ideal(
        A, [A.basis_names.index("e11"), A.basis_names.index("e12")])


def right_unital_corner() -> Extension:
    """A = upper-triangular 2x2, B = span{e12, e22}: B has a right unit
    (e22) but no left unit; D = Q."""
    A = preset("upper_triangular", k=2)
    return _coordinate_ideal(
        A, [A.basis_names.index("e12"), A.basis_names.index("e22")])


def nilpotent_augmentation() -> Extension:
    """A = Q[x]/x^3 with B the nilpotent ideal (x, x^2); D = Q.
    Second excision-failure case: B has no one-sided unit."""
    A = preset("truncated_poly", m=3)
    return _coordinate_ideal(A, [1, 2])


UNITAL_CORPUS = {
    "split_product": split_product,
    "full_ideal": full_ideal,
    "zero_ideal": zero_ideal,
    "matrix_block": matrix_block,
    "two_of_three": two_of_three,
    "left_unital_corner": left_unital_corner,
    "right_unital_corner": right_unital_corner,
}

FAILURE_CORPUS = {
    "nilpotent_corner": nilpotent_corner,
    "nilpotent_augmentation": nilpotent_augmentation,
}

CORPUS = {**UNITAL_CORPUS, **FAILURE_CORPUS}


def build(name: str) -> Extension:
    return CORPUS[name]()
