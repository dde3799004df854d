"""Local algebra: Milnor numbers, isotypic dimensions, coranks."""
from fractions import Fraction

import pytest

from eqsing.errors import (
    DiagramSyntaxError,
    NotCertifiedError,
    NotIntegerError,
    NotInvariantError,
)
from eqsing.localalg import (
    coranks,
    germ,
    milnor_number,
    parse_germ,
    quasihomogeneous_mu,
)


def x9_member(a=1, corner=False):
    # x1^4 + x2^4 + a x1^2 x2^2
    return germ(
        {(4, 0): 1, (0, 4): 1, (2, 2): Fraction(a)}, m=2, n=0, corner=corner
    )


def test_a_k_series():
    for k in range(1, 9):
        f = germ({(k + 1,): 1}, m=0, n=1)
        assert milnor_number(f).mu == k


def test_m5_member_mu_and_isotypic_dims():
    rep = milnor_number(x9_member())
    assert rep.mu == 9
    # single Z2 negating both x's: invariant part has dimension 5
    assert rep.dim_of((1,)) == 5
    assert rep.dim_of((-1,)) == 4


def test_m4_member_corner_dims():
    rep = milnor_number(x9_member(corner=True))
    assert rep.mu == 9
    # corner action: the invariant part (matching the rank-4 homology
    # subspace through the local-algebra correspondence) has dimension 4
    assert rep.dim_of((1, 1)) == 4
    assert rep.dim_of((-1, -1)) == 1
    assert rep.dim_of((1, -1)) == 2
    assert rep.dim_of((-1, 1)) == 2


def test_isotypic_dims_sum_to_mu():
    for f in (x9_member(), x9_member(corner=True), germ({(5,): 1}, 0, 1)):
        rep = milnor_number(f)
        assert sum(d for _, d in rep.isotypic_dims) == rep.mu


def test_modulus_changes_nothing_generic():
    assert milnor_number(x9_member(a=Fraction(1, 3))).mu == 9
    assert milnor_number(x9_member(a=-5)).mu == 9


def test_non_isolated_not_certified():
    # x1^2 y1: the Jacobian ideal (x1 y1, x1^2) has infinite quotient
    f = germ({(2, 1): 1}, m=1, n=1)
    with pytest.raises(NotCertifiedError):
        milnor_number(f, max_degree=12)


def test_invariance_checked():
    with pytest.raises(NotInvariantError):
        germ({(3, 0): 1, (0, 2): 1}, m=1, n=1)  # x^3 is odd in x


def test_constant_term_rejected():
    with pytest.raises(ValueError):
        germ({(0, 0): 1, (2, 0): 1}, m=1, n=1)


def test_stabilization_consistency_y_square():
    base = milnor_number(x9_member())
    f2 = germ(
        {(4, 0, 0): 1, (0, 4, 0): 1, (2, 2, 0): 1, (0, 0, 2): 1}, m=2, n=1
    )
    rep = milnor_number(f2)
    assert rep.mu == base.mu
    assert [d for _, d in rep.isotypic_dims] == [d for _, d in base.isotypic_dims]


def test_stabilization_consistency_x_square_same_generator():
    base = milnor_number(x9_member())
    f2 = germ(
        {(4, 0, 0): 1, (0, 4, 0): 1, (2, 2, 0): 1, (0, 0, 2): 1}, m=3, n=0
    )
    rep = milnor_number(f2)
    assert rep.mu == base.mu
    assert [d for _, d in rep.isotypic_dims] == [d for _, d in base.isotypic_dims]


def test_stabilization_consistency_fresh_corner_generator():
    base = milnor_number(x9_member(corner=True))
    f2 = germ(
        {(4, 0, 0): 1, (0, 4, 0): 1, (2, 2, 0): 1, (0, 0, 2): 1},
        m=3,
        n=0,
        corner=True,
    )
    rep = milnor_number(f2)
    assert rep.mu == base.mu
    # old dims appear at the chi extended by +1 on the new generator
    for chi, d in base.isotypic_dims:
        assert rep.dim_of(chi + (1,)) == d
        assert rep.dim_of(chi + (-1,)) == 0


def test_scaling_invariance():
    f = germ({(4, 0): 1, (0, 4): 1, (2, 2): 1}, 2, 0)
    g = germ({(4, 0): Fraction(81), (0, 4): 1, (2, 2): Fraction(9)}, 2, 0)  # x -> 3x
    assert milnor_number(f).mu == milnor_number(g).mu
    # permutation of the two x variables
    h = germ({(0, 4): 1, (4, 0): 1, (2, 2): 1}, 2, 0)
    assert milnor_number(h).isotypic_dims == milnor_number(f).isotypic_dims


def test_quasihomogeneous_mu_examples():
    # A4 stabilized: weights (1/2, 1/5)
    assert quasihomogeneous_mu((Fraction(1, 2), Fraction(1, 5))) == 4
    # x^4 + y^4 type
    assert quasihomogeneous_mu((Fraction(1, 4), Fraction(1, 4))) == 9
    # F4 normal form x1^4 + x2^2 + y1^3
    assert (
        quasihomogeneous_mu((Fraction(1, 4), Fraction(1, 2), Fraction(1, 3))) == 6
    )
    f4 = germ({(4, 0, 0): 1, (0, 2, 0): 1, (0, 0, 3): 1}, m=2, n=1)
    assert milnor_number(f4).mu == 6


def test_quasihomogeneous_mu_rejects():
    with pytest.raises(NotIntegerError):
        quasihomogeneous_mu((Fraction(2, 3),))  # weight > 1/2
    with pytest.raises(NotIntegerError):
        quasihomogeneous_mu((Fraction(1, 2), Fraction(2, 7)))  # non-integer product


def test_coranks_examples():
    # F4 with m = 2: x1^4 + x2^2 + y1^3
    f = germ({(4, 0, 0): 1, (0, 2, 0): 1, (0, 0, 3): 1}, m=2, n=1)
    assert coranks(f) == (1, 1)
    # C2-type member: x1^2 y1 + x2^2 + y1^2
    f = germ({(2, 0, 1): 1, (0, 2, 0): 1, (0, 0, 2): 1}, m=2, n=1)
    assert coranks(f) == (1, 0)
    # M5 reduction: nondegenerate quartic in two x variables
    assert coranks(x9_member()) == (2, 0)


def test_coranks_cross_terms():
    # x1 x2 is T-invariant and contributes to the x-Hessian off-diagonal
    f = germ({(1, 1): 1, (2, 0): 1, (0, 2): 1}, m=2, n=0)
    m1, n1 = coranks(f)
    assert (m1, n1) == (0, 0)
    # (x1 + x2)^2 / 4: a rational Hessian of rank 1
    f = germ({(2, 0): Fraction(1, 4), (1, 1): Fraction(1, 2), (0, 2): Fraction(1, 4)},
             m=2, n=0)
    assert coranks(f) == (1, 0)


def test_parse_germ_format():
    f = parse_germ("vars x:2 y:0\n1 x1^4\n1 x2^4\n1 x1^2*x2^2\n")
    assert milnor_number(f).mu == 9
    f = parse_germ("vars x:0 y:1\n1 y1^5\n")
    assert milnor_number(f).mu == 4
    # rational coefficients and repeated monomials accumulate
    f = parse_germ("vars x:1 y:0\n1/2 x1^4\n1/2 x1^4\n")
    assert dict(f.terms) == {(4,): Fraction(1)}


def test_parse_germ_errors():
    with pytest.raises(DiagramSyntaxError):
        parse_germ("1 x1^4\n")  # term before header
    with pytest.raises(DiagramSyntaxError):
        parse_germ("vars x:1 y:0\nbogus\n")
    with pytest.raises(DiagramSyntaxError):
        parse_germ("vars x:1 y:0\n1 x2^2\n")  # out of range
    with pytest.raises(DiagramSyntaxError):
        parse_germ("vars q:1\n")


def test_truncation_degree_is_reported():
    rep = milnor_number(x9_member())
    assert rep.truncation_degree == 5
