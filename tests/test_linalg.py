"""Exact linear algebra: HNF, integer kernels, saturation."""
import random

import pytest

from eqsing import linalg
from oracles import inverse_unimodular, mat_mul, saturation


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
            assert linalg.is_zero_vec(linalg.mat_vec(A, v))
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
