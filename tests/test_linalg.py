"""Exact linear algebra: HNF, integer kernels, saturation, charpoly."""
import random
from fractions import Fraction

import pytest

from eqsing import linalg
from oracles import inverse_unimodular


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
        assert linalg.mat_mul(U, A) == H
        inverse_unimodular(U)  # raises unless det = +-1


def test_int_kernel_exact_and_saturated():
    rng = random.Random(13)
    for _ in range(200):
        A = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        K = linalg.int_kernel(A)
        for v in K:
            assert linalg.is_zero_vec(linalg.mat_vec(A, v))
        # rank-nullity over Q
        assert len(K) == len(A[0]) - linalg.rank_of(A)
        # saturation: kernel is its own saturation
        if K:
            assert linalg.saturation(K) == linalg.hnf(K)


def test_int_kernel_catches_non_primitive_solutions():
    # kernel of [2 -1] contains (1, 2); a non-saturated routine might return (2, 4)
    K = linalg.int_kernel(((2, -1),))
    assert K == ((1, 2),)


def test_saturation_examples():
    # span{(2,0)} saturates to span{(1,0)}
    assert linalg.saturation(((2, 0),)) == ((1, 0),)
    # (2,1) is already primitive and saturated
    assert linalg.saturation(((2, 1),)) == ((2, 1),)
    # index-2 sublattice of Z^2
    sat = linalg.saturation(((1, 1), (1, -1)))
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
        S = linalg.saturation(A)
        assert len(S) == len(A)
        for row in A:
            assert row_span_membership(S, row)


def test_solve_rational_and_integer():
    A = ((1, 2), (3, 4))
    x = linalg.solve_rational(A, (5, 6))
    assert x == (Fraction(-4), Fraction(9, 2))
    assert linalg.solve_integer(A, (5, 6)) is None
    assert linalg.solve_integer(A, (3, 7)) == (1, 1)
    # inconsistent system
    assert linalg.solve_rational(((1, 1), (1, 1)), (0, 1)) is None


def test_inverse_unimodular():
    U = ((1, 2), (0, 1))
    Ui = inverse_unimodular(U)
    assert linalg.mat_mul(U, Ui) == linalg.identity(2)
    with pytest.raises(ValueError):
        inverse_unimodular(((2, 0), (0, 1)))


def test_charpoly_small_cases():
    assert linalg.charpoly(((0,),)) == (1, 0)
    assert linalg.charpoly(((2, 0), (0, 3))) == (1, -5, 6)
    # companion matrix of x^3 - 2x - 5
    C = ((0, 0, 5), (1, 0, 2), (0, 1, 0))
    assert linalg.charpoly(C) == (1, 0, -2, -5)


def test_charpoly_matches_determinant_and_trace():
    rng = random.Random(19)
    for _ in range(50):
        n = rng.randint(1, 4)
        A = rand_matrix(rng, n, n, bound=3)
        p = linalg.charpoly(A)
        assert p[0] == 1
        assert p[1] == -sum(A[i][i] for i in range(n))


def test_cyclotomic_polys():
    phis = linalg.cyclotomic_polys(4)
    assert phis[1] == (1, -1)
    assert phis[2] == (1, 1)
    assert phis[3] == (1, 1, 1)
    assert phis[4] == (1, 0, 1)
    assert phis[6] == (1, -1, 1)
    assert phis[12] == (1, 0, -1, 0, 1)
    assert all(linalg.euler_phi(d) <= 4 for d in phis)
    assert 5 in phis  # phi(5) = 4
    assert 7 not in phis  # phi(7) = 6 > 4
    assert 7 in linalg.cyclotomic_polys(6)


def test_strip_cyclotomic_factors():
    # (x-1)^2 (x^2+x+1): orders {1,1,3}, trivial residual
    poly = (1, 1, 0, -1, -1)  # hmm, build by multiplication instead
    def pmul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return tuple(out)

    poly = pmul(pmul((1, -1), (1, -1)), (1, 1, 1))
    orders, residual = linalg.strip_cyclotomic_factors(poly, 4)
    assert sorted(orders) == [1, 1, 3]
    assert len(residual) == 1
    # x^2 - 6x + 1 (Pell) is not a product of cyclotomics
    orders, residual = linalg.strip_cyclotomic_factors((1, -6, 1), 2)
    assert len(residual) > 1


def _pmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return tuple(out)


def test_charpoly_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1907)
    for _ in range(200):
        n = rng.randint(1, 10)
        A = rand_matrix(rng, n, n, bound=rng.choice((1, 3, 9)))
        expect = tuple(int(c) for c in sympy.Matrix(A).charpoly().all_coeffs())
        assert linalg.charpoly(A) == expect, A


def test_strip_cyclotomic_factors_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    phis = linalg.cyclotomic_polys(10)
    rng = random.Random(2019)
    for trial in range(150):
        if trial % 3 == 0:
            # the charpoly of a random matrix, as the finiteness test sees it
            n = rng.randint(1, 10)
            poly = linalg.charpoly(rand_matrix(rng, n, n, bound=2))
        else:
            poly = (1,)
            for _ in range(rng.randint(1, 4)):
                if rng.random() < 0.6:
                    factor = phis[rng.choice(sorted(phis))]
                else:
                    factor = (1,) + tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 3)))
                if len(poly) + len(factor) - 2 <= 10:
                    poly = _pmul(poly, factor)
        degree = len(poly) - 1
        orders, residual = linalg.strip_cyclotomic_factors(poly, degree)
        expect_orders, expect_residual = [], sympy.Integer(1)
        _content, factors = sympy.factor_list(sympy.Poly(poly, x))
        for f, mult in factors:
            d = next((d for d, pe in phis.items()
                      if f.all_coeffs() == list(pe)), None) if f.is_cyclotomic else None
            if d is None:
                expect_residual *= f.as_expr() ** mult
            else:
                expect_orders += [d] * mult
        assert sorted(orders) == sorted(expect_orders), poly
        assert sympy.Poly(expect_residual, x).all_coeffs() == list(residual), poly


def test_cyclotomic_polys_cached_and_read_only():
    phis = linalg.cyclotomic_polys(6)
    assert linalg.cyclotomic_polys(6) is phis
    with pytest.raises(TypeError):
        phis[1] = (1, 1)
    with pytest.raises(AttributeError):
        phis.pop(1)
    assert all(isinstance(p, tuple) for p in phis.values())
    assert phis[1] == (1, -1)
