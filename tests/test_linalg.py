"""Exact linear algebra: HNF, integer kernels, saturation."""
import random

import pytest

from eqsing import linalg
from oracles import inverse_unimodular, mat_mul, mat_vec, saturation


def rand_matrix(rng, rows, cols, bound=4):
    return tuple(
        tuple(rng.randint(-bound, bound) for _ in range(cols)) for _ in range(rows)
    )


def row_span_membership(rows, v):
    """v in Z-span of rows, via HNF reduction."""
    return linalg.hnf(tuple(rows) + (tuple(v),)) == linalg.hnf(rows)


def test_hnf_canonical_under_row_ops():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        A = rand_matrix(rng, n, m)
        H = linalg.hnf(A)
        # shuffle rows and add random multiples: same lattice, same HNF
        B = [list(r) for r in A]
        rng.shuffle(B)
        if len(B) > 1:
            i, j = rng.sample(range(len(B)), 2)
            c = rng.randint(-3, 3)
            B[i] = [a + c * b for a, b in zip(B[i], B[j])]
        assert linalg.hnf(B) == H


def test_hnf_transform_is_unimodular():
    rng = random.Random(11)
    for _ in range(100):
        A = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        H, U = linalg.hnf_with_transform(A)
        assert mat_mul(U, A) == H
        inverse_unimodular(U)  # raises unless det = +-1


def test_int_kernel_exact_and_saturated():
    rng = random.Random(13)
    for _ in range(200):
        A = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        K = linalg.int_kernel(A)
        for v in K:
            assert linalg.is_zero_vec(mat_vec(A, v))
        # rank-nullity over Q
        assert len(K) == len(A[0]) - len(linalg.hnf(A))
        # saturation: kernel is its own saturation
        if K:
            assert saturation(K) == linalg.hnf(K)


def test_int_kernel_catches_non_primitive_solutions():
    # kernel of [2 -1] contains (1, 2); a non-saturated routine might return (2, 4)
    K = linalg.int_kernel(((2, -1),))
    assert K == ((1, 2),)


def test_saturation_examples():
    # span{(2,0)} saturates to span{(1,0)}
    assert saturation(((2, 0),)) == ((1, 0),)
    # (2,1) is already primitive and saturated
    assert saturation(((2, 1),)) == ((2, 1),)
    # index-2 sublattice of Z^2
    sat = saturation(((1, 1), (1, -1)))
    assert sat == ((1, 0), (0, 1))


def test_saturation_contains_input_with_finite_index():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(1, 4)
        k = rng.randint(1, n)
        A = rand_matrix(rng, k, n)
        A = linalg.hnf(A)
        if not A:
            continue
        S = saturation(A)
        assert len(S) == len(A)
        for row in A:
            assert row_span_membership(S, row)


def test_inverse_unimodular():
    U = ((1, 2), (0, 1))
    Ui = inverse_unimodular(U)
    assert mat_mul(U, Ui) == linalg.identity(2)
    with pytest.raises(ValueError):
        inverse_unimodular(((2, 0), (0, 1)))


def test_form_vec_reads_the_support_and_matches_the_dense_product():
    # G v over the rows on supp v equals the row-by-row product, for
    # vectors of zero, unit, negative and full support on random
    # symmetric integer forms
    rng = random.Random(38)
    for _ in range(200):
        n = rng.randint(1, 7)
        G = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                G[i][j] = G[j][i] = rng.randint(-5, 5)
        G = linalg.freeze(G)
        i = rng.randrange(n)
        unit = linalg.identity(n)[i]
        vectors = [(0,) * n, unit, tuple(-x for x in unit),
                   tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n)),
                   tuple(rng.randint(-3, 3) for _ in range(n))]
        for v in vectors:
            assert linalg.form_vec(G, v) == mat_vec(G, v)
        assert linalg.form_vec(G, unit) is G[i]  # a unit vector's image is its row


def test_support_and_dot_on():
    v = (0, 3, 0, -2, 0)
    assert linalg.support(v) == ((1, 3), (3, -2))
    assert linalg.support((0, 0)) == ()
    u = (7, 1, 5, 4, 9)
    assert linalg.dot_on(u, linalg.support(v)) == sum(a * b for a, b in zip(u, v)) == -5
