"""Test-only oracles: slow, independent ways to compute what the package
computes, for cross-checks on small inputs."""
from fractions import Fraction

import pytest

from eqsing import linalg


def closure_naive(generators, limit=100000):
    """Order by repeated pairwise products until stable.

    Lists every element as a matrix, a different method from the
    orbit-stabiliser order on the roots, so the two can be cross-checked
    on small groups.
    """
    mats = {linalg.identity(generators[0].rank)}
    mats.update(g.matrix for g in generators)
    while True:
        new = set()
        for a in mats:
            for b in mats:
                p = linalg.mat_mul(a, b)
                if p not in mats:
                    new.add(p)
        if not new:
            return len(mats)
        mats |= new
        if len(mats) > limit:
            raise RuntimeError("naive closure limit exceeded")


def evaluate_word(generators, word):
    """The product of a certificate word, multiplied out left to right.

    `word` names generators by their labels ("h3"); the result is the
    matrix the word denotes, independent of how the search that produced
    it computed its certificate matrix.
    """
    by_name = {g.word[0]: g for g in generators if len(g.word) == 1}
    product = linalg.identity(generators[0].rank)
    for letter in word:
        product = linalg.mat_mul(product, by_name[letter].matrix)
    return product


def isotypic_rank_rational(action, chi):
    """Rank of the chi-isotypic subspace over Q (projector route).

    Sums chi(g) g over every group element instead of solving the integer
    kernel `isotypic_sublattice` uses; does not saturate.  Used for the
    rank-additivity cross-check.
    """
    n = action.lattice.rank
    proj_cols = []
    for j in range(n):
        e = tuple(1 if t == j else 0 for t in range(n))
        acc = (0,) * n
        for subset, M in action.elements():
            c = 1
            for name in subset:
                c *= chi.of(name)
            acc = linalg.vec_add(acc, linalg.vec_scale(c, linalg.mat_vec(M, e)))
        proj_cols.append(acc)
    return linalg.rank_of(linalg.freeze(proj_cols))


def inverse_unimodular(U):
    """Integer inverse of a unimodular matrix, by Gauss-Jordan elimination
    over the rationals; ValueError when U is singular or its inverse is
    not integral."""
    n = len(U)
    M = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(U)]
    for c in range(n):
        p = next((i for i in range(c, n) if M[i][c] != 0), None)
        if p is None:
            raise ValueError("matrix is singular")
        M[c], M[p] = M[p], M[c]
        pivot = M[c][c]
        M[c] = [x / pivot for x in M[c]]
        for i in range(n):
            f = M[i][c]
            if i != c and f != 0:
                M[i] = [a - f * b for a, b in zip(M[i], M[c])]
    if any(x.denominator != 1 for row in M for x in row[n:]):
        raise ValueError("matrix is not unimodular")
    return tuple(tuple(int(x) for x in row[n:]) for row in M)


def charpoly_sympy(M):
    """Characteristic polynomial det(xI - M) by sympy, as integer
    coefficients, highest degree first; skips the test without sympy."""
    sympy = pytest.importorskip("sympy")
    return tuple(int(c) for c in sympy.Matrix(M).charpoly().all_coeffs())
