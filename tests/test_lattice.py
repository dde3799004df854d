"""Bilinear lattices: inertia, kernels, restriction to primitive sublattices."""
import random

import pytest

from eqsing import linalg
from eqsing.errors import EqsingError
from eqsing.lattice import IntLattice, Sublattice, inertia, kernel_basis
from oracles import box_signs, coordinates, inertia_by_descartes, mat_vec
from test_closure import _dynkin_gram


A2 = IntLattice(((-2, 1), (1, -2)))

# restricted gram of the five invariant cycles on the fig1 lattice,
# derived independently from the edge data (see test_diagram for the
# encoding gate that pins the signs)
M5_GRAM = (
    (-2, 2, 2, -2, -2),
    (2, -4, 0, 2, 2),
    (2, 0, -4, 2, 2),
    (-2, 2, 2, -4, 0),
    (-2, 2, 2, 0, -4),
)
M4_GRAM = (
    (-2, 2, 2, -4),
    (2, -4, 0, 4),
    (2, 0, -4, 4),
    (-4, 4, 4, -8),
)


def rand_lattice(rng, max_rank=4, bound=3):
    n = rng.randint(1, max_rank)
    M = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            M[i][j] = M[j][i] = rng.randint(-bound, bound)
    return IntLattice(tuple(tuple(r) for r in M))


def brute_force_check(lat, sig):
    """The signs of v^T G v over the [-5, 5] box (`box_signs`) against the
    inertia.

    Definite iff all values share one sign; semidefinite iff one sign
    plus a zero on a nonzero vector.  Soundness directions hold for any
    box; the completeness directions (a sign class implies a witness in
    the box) are part of the oracle's claim for rank <= 4 and entries
    bounded by 3, except that a kernel zero is only demanded when the
    kernel basis itself fits in the box.
    """
    n = lat.rank
    pos, neg, zero = box_signs(lat)
    # soundness: an observed sign forces the matching inertia count
    if pos:
        assert sig.n_plus >= 1
    if neg:
        assert sig.n_minus >= 1
    if zero:
        assert not (sig.n_zero == 0 and (sig.n_plus == 0 or sig.n_minus == 0))
    # definite iff all one sign
    assert (sig.as_tuple() == (0, 0, n)) == (not pos and not zero)
    assert (sig.as_tuple() == (n, 0, 0)) == (not neg and not zero)
    # completeness: each nonzero count has a box witness
    if sig.n_plus >= 1:
        assert pos
    if sig.n_minus >= 1:
        assert neg
    kernel_in_box = all(all(abs(x) <= 5 for x in v) for v in kernel_basis(lat))
    if sig.n_zero >= 1 and kernel_in_box:
        assert zero


def test_gram_must_be_symmetric():
    with pytest.raises(EqsingError, match=r"gram matrix not symmetric at \(0,1\)"):
        IntLattice(((0, 1), (2, 0)))


def test_inertia_examples():
    assert inertia(IntLattice(((-2,),))).as_tuple() == (0, 0, 1)
    # A2: leading principal minors -2, 3 alternate in sign
    assert inertia(A2).as_tuple() == (0, 0, 2)
    assert inertia(IntLattice(M5_GRAM)).as_tuple() == (0, 2, 3)
    assert inertia(IntLattice(M4_GRAM)).as_tuple() == (0, 2, 2)


def test_inertia_hyperbolic_pair():
    # zero diagonal with nonzero off-diagonal: one square of each sign
    H = IntLattice(((0, 1), (1, 0)))
    assert inertia(H).as_tuple() == (1, 0, 1)
    # hyperbolic block plus definite tail, with coupling entries
    G = IntLattice(((0, 3, 1), (3, 0, 0), (1, 0, -2)))
    sig = inertia(G)
    assert sig.as_tuple()[0] >= 1 and sig.as_tuple()[2] >= 1
    assert sig.rank == 3


def test_inertia_zero_lattice():
    assert inertia(IntLattice(((0, 0), (0, 0)))).as_tuple() == (0, 2, 0)


def test_inertia_brute_force_oracle():
    # >= 500 seeded random lattices, rank <= 4, |entries| <= 3
    rng = random.Random(2024)
    for _ in range(500):
        lat = rand_lattice(rng)
        sig = inertia(lat)
        assert sig.rank == lat.rank
        brute_force_check(lat, sig)


def test_inertia_equals_descartes_oracle():
    # the counts themselves, not only sign classes, on >= 300 seeded random
    # forms of rank <= 8, a third of them with a zero diagonal
    rng = random.Random(1907)
    zero_diagonal = 0
    for t in range(300):
        n = rng.randint(0, 8)
        M = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if i == j and t % 3 == 0 or rng.random() < 0.4:
                    continue
                M[i][j] = M[j][i] = rng.randint(-3, 3)
        zero_diagonal += t % 3 == 0
        lat = IntLattice(linalg.freeze(M))
        assert inertia(lat) == inertia_by_descartes(lat.gram), lat.gram
    assert zero_diagonal >= 100


def _chain(a, b):
    return [(i, i + 1) for i in range(a, b)]


@pytest.mark.parametrize("gram, counts", [
    # T(2, 3, r): arms of 1, 2 and r - 1 vertices on vertex 1
    pytest.param(_dynkin_gram(33, [(1, 2), (1, 3), (3, 4), (1, 5)] + _chain(5, 33)),
                 (1, 0, 32), id="T(2,3,30)"),
    pytest.param(_dynkin_gram(63, [(1, 2), (1, 3), (3, 4), (1, 5)] + _chain(5, 63)),
                 (1, 0, 62), id="T(2,3,60)"),
    pytest.param(_dynkin_gram(30, _chain(1, 30) + [(30, 1)]), (0, 1, 29), id="affine A29"),
    pytest.param(_dynkin_gram(31, _chain(1, 29) + [(2, 30), (28, 31)]), (0, 1, 30),
                 id="affine D30"),
    pytest.param(_dynkin_gram(20, _chain(1, 19) + [(18, 20)]), (0, 0, 20), id="D20"),
])
def test_inertia_equals_descartes_at_high_rank(gram, counts):
    # the scaled Schur complements over many steps, on forms of rank 20-63
    assert inertia(IntLattice(gram)) == inertia_by_descartes(gram)
    assert inertia(IntLattice(gram)).as_tuple() == counts


def test_kernel_examples():
    assert kernel_basis(A2) == ()
    k5 = kernel_basis(IntLattice(M5_GRAM))
    # span contains nabla = 2d1+d2+d3 and nabla' = d2+d3+d4+d5
    assert len(k5) == 2
    assert linalg.hnf(k5 + ((2, 1, 1, 0, 0),)) == linalg.hnf(k5)
    assert linalg.hnf(k5 + ((0, 1, 1, 1, 1),)) == linalg.hnf(k5)
    k4 = kernel_basis(IntLattice(M4_GRAM))
    assert linalg.hnf(k4) == linalg.hnf(((2, 1, 1, 0), (0, 1, 1, 1)))


def test_kernel_properties_random():
    rng = random.Random(99)
    for _ in range(300):
        lat = rand_lattice(rng)
        ker = kernel_basis(lat)
        assert len(ker) == inertia(lat).n_zero
        for v in ker:
            assert linalg.is_zero_vec(mat_vec(lat.gram, v))
        # canonical: recomputation and HNF idempotence
        assert linalg.hnf(ker) == ker if ker else ker == ()


def test_analysis_computes_the_inertia_once(monkeypatch):
    # run_analysis hands its inertia to generate_group, which would
    # otherwise compute it again, and generate_group hands it to the
    # Infinite verdict's validate (M5, X9); the only other calls are the
    # finite verdict's check, one per component of the simple roots' Gram
    # matrix (E6)
    from eqsing import catalog, monodromy

    inside = ["outside"]

    def counted(lat, _original=inertia):
        calls[inside[-1]].append(lat.gram)
        return _original(lat)

    def check(*args, _original=monodromy._check_simple_system):
        inside.append("check")
        try:
            return _original(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(monodromy, "inertia", counted)
    monkeypatch.setattr(monodromy, "_check_simple_system", check)
    for symbol, kind, checks in (("E6", "finite", [6]), ("M5", "infinite", []),
                                 ("X9", "infinite", [])):
        calls = {"outside": [], "check": []}
        out = monodromy.run_analysis(catalog.fixture_file(symbol))
        assert out.verdict.kind == kind
        assert calls["outside"] == [out.sublattice.restricted_gram], symbol
        assert [len(gram) for gram in calls["check"]] == checks  # E6 is connected


def test_restrict_m5_and_m4_self_intersections():
    from eqsing.catalog import fixture_file
    from eqsing.diagram import to_lattice

    lat = to_lattice(fixture_file("X9").diagram)
    d = {
        1: (1, 0, 0, 0, 0, 0, 0, 0, 0),
        2: (0, 1, 0, 1, 0, 0, 0, 0, 0),
        3: (0, 0, 1, 0, 1, 0, 0, 0, 0),
        4: (0, 0, 0, 0, 0, 1, 0, 1, 0),
        5: (0, 0, 0, 0, 0, 0, 1, 0, 1),
    }
    sub = Sublattice(lat, (d[1], d[2], d[3], d[4], d[5]))
    assert sub.restricted_gram == M5_GRAM
    assert sub.restricted_gram[1][1] == -4  # (delta2, delta2) = -4
    m4_d4 = (0, 0, 0, 0, 0, 1, 1, 1, 1)
    sub4 = Sublattice(lat, (d[1], d[2], d[3], m4_d4))
    assert sub4.restricted_gram == M4_GRAM
    assert sub4.restricted_gram[3][3] == -8  # (delta4, delta4) = -8


def test_sublattice_embed_and_coordinates():
    from eqsing.catalog import fixture_file
    from eqsing.diagram import to_lattice

    lat = to_lattice(fixture_file("X9").diagram)
    sub = Sublattice(lat, ((1, 0, 0, 0, 0, 0, 0, 0, 0), (0, 1, 0, 1, 0, 0, 0, 0, 0)))
    amb = sub.embed((1, 1))
    assert coordinates(sub, amb) == (1, 1)
    assert coordinates(sub, (0, 0, 1, 0, 0, 0, 0, 0, 0)) is None


def test_coordinates_round_trip_on_fixture_sublattices():
    from eqsing.action import isotypic_sublattice
    from eqsing.catalog import fixture_file
    from eqsing.monodromy import action_from_file

    fixtures = (
        [("A", k) for k in range(1, 9)] + [("D", k) for k in (4, 5, 6)]
        + [("B", k) for k in (2, 3, 4)] + [("C", k) for k in (2, 3, 4)]
        + [(s, None) for s in ("E6", "E7", "E8", "F4", "M5", "M4", "X9")]
    )
    rng = random.Random(1907)
    off_span = 0
    for sym, k in fixtures:
        sub = isotypic_sublattice(*action_from_file(fixture_file(sym, k)))
        n = sub.ambient.rank
        for _ in range(10):
            x = tuple(rng.randint(-5, 5) for _ in range(sub.rank))
            assert coordinates(sub, sub.embed(x)) == x, (sym, k, x)
            v = tuple(rng.randint(-5, 5) for _ in range(n))
            if len(linalg.hnf(sub.basis + (v,))) > sub.rank:
                assert coordinates(sub, v) is None, (sym, k, v)
                off_span += 1
    assert off_span


def test_restricted_form_on_overlapping_supports_is_the_dense_product():
    # _gram_on reads each B_jk over the support of b_j; on Hermite normal
    # form bases of integer kernels, whose rows overlap, it must still be
    # the dense B G B^T
    from eqsing import lattice
    from oracles import mat_mul

    rng = random.Random(38)
    overlapping = 0
    for _ in range(300):
        n = rng.randint(2, 7)
        G = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                G[i][j] = G[j][i] = rng.randint(-4, 4)
        A = tuple(tuple(rng.randint(-3, 3) for _ in range(n))
                  for _ in range(rng.randint(1, n - 1)))
        basis = linalg.int_kernel(A)
        if not basis:
            continue
        dense = mat_mul(mat_mul(basis, G), linalg.transpose(basis))
        assert lattice._gram_on(IntLattice(G), basis) == dense
        supports = [{i for i, _ in linalg.support(b)} for b in basis]
        overlapping += any(s & t for j, s in enumerate(supports) for t in supports[j + 1:])
    assert overlapping >= 100
