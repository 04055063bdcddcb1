"""Shared helpers for the property suites: snake-lemma checks on random
short exact sequences, the homology/cohomology window implications
for injective chain maps, and a fixed change of basis for extensions."""

from alghom.algebra import Algebra, quotient_extension
from alghom.complexes import (
    connecting_homomorphism, dualize, dualize_map, homology_at,
    induced_map_on_homology, long_exact_sequence, random_ses,
)
from alghom.linalg import Matrix, rank


def snake_check(seed: int, degrees: int = 4, max_dim: int = 4) -> bool:
    """A random SES of complexes yields a long exact sequence with zero
    interior defects; the connecting morphism's choice-independence is
    rechecked internally (two lifts per column) and raises on mismatch."""
    ses = random_ses(seed, degrees, max_dim)
    hi = ses.P.top_degree - 1   # last degree with trustworthy homology
    for n in range(1, hi + 1):
        connecting_homomorphism(ses, n)   # raises LiftFailure if unstable
    seq = long_exact_sequence(ses, 0, hi)
    return seq.interior_exact


def _is_iso(M) -> bool:
    return M.rows == M.cols and rank(M) == M.rows


def _homology_iso(psi, n) -> bool:
    """H_n(psi) an isomorphism; degrees below 0 are trivially iso."""
    if n < 0:
        return True
    return _is_iso(induced_map_on_homology(psi, n))


def prop_window_check(seed: int, degrees: int = 5, max_dim: int = 4):
    """Window implications for an injective chain map psi : K -> P.

    (I)  H^k(psi*) iso for n-1 <= k <= n+2   =>  H_n(psi) iso.
    (II) H_k(psi) iso for n-2 <= k <= n+1    =>  H^n(psi*) iso.

    Returns (violations, nonvacuous_count) over all degrees n where the
    windows stay inside the trustworthy range.
    """
    ses = random_ses(seed, degrees, max_dim)
    psi = ses.inj
    dual_psi = dualize_map(psi)
    N = ses.P.top_degree
    top_valid = N - 1

    def cohomology_iso(n):
        if n < 0:
            return True
        return _is_iso(induced_map_on_homology(dual_psi, N - n))

    violations = 0
    nonvacuous = 0
    # (I): conclusion at n needs the window n-1..n+2 within 0..top_valid
    for n in range(0, top_valid - 1):
        if all(cohomology_iso(k) for k in range(n - 1, n + 3)):
            nonvacuous += 1
            if not _homology_iso(psi, n):
                violations += 1
    # (II): window n-2..n+1, conclusion H^n valid for n <= top_valid
    for n in range(0, top_valid):
        if all(_homology_iso(psi, k) for k in range(n - 2, n + 2)):
            nonvacuous += 1
            if not cohomology_iso(n):
                violations += 1
    return violations, nonvacuous


def lemma_vanishing_check(seed: int, degrees: int = 4, max_dim: int = 4) -> tuple:
    """In an exact sequence, a node flanked two maps away by
    isomorphisms must vanish.  Scans the true long exact sequence of a
    random SES; returns (violations, nonvacuous_count)."""
    ses = random_ses(seed, degrees, max_dim)
    hi = ses.P.top_degree - 1
    seq = long_exact_sequence(ses, 0, hi)
    violations = 0
    nonvacuous = 0
    for k in range(2, len(seq.nodes) - 2):
        nd = seq.nodes[k]
        if nd.boundary or seq.nodes[k - 1].boundary or seq.nodes[k + 1].boundary:
            continue
        if _is_iso(seq.maps[k - 2]) and _is_iso(seq.maps[k + 1]):
            nonvacuous += 1
            if nd.dim != 0:
                violations += 1
    return violations, nonvacuous


# A fixed unimodular integer change of basis f = S e of a 3-dimensional
# algebra (det S = 1) and its inverse.
BASIS_CHANGE = ((2, 1, 1), (1, 1, 1), (1, 1, 2))
BASIS_CHANGE_INVERSE = ((1, -1, 0), (-1, 3, -1), (0, -1, 1))


def rebased(ext):
    """ext with its 3-dimensional A rewritten in the basis f = S e and
    rebuilt with quotient_extension, so that the ideal is no longer
    spanned by basis vectors."""
    S, S_inv, d = BASIS_CHANGE, BASIS_CHANGE_INVERSE, ext.A.dim
    assert d == len(S)
    mult = {}
    for a in range(d):
        for b in range(d):
            prod = ext.A.product({i: S[i][a] for i in range(d)},
                                 {j: S[j][b] for j in range(d)})
            mult[(a, b)] = {k: sum(S_inv[k][p] * v for p, v in prod.items())
                            for k in range(d)}
    A = Algebra(d, ["f%d" % k for k in range(d)], mult)
    S_inv_matrix = Matrix.from_dense(S_inv)
    return quotient_extension(A, S_inv_matrix @ ext.i.matrix,
                              ext.B.basis_names)
