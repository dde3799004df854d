"""Negative definite forms: the root search closes, and orbit-stabiliser on
the roots gives the exact order."""
import random
import time

import pytest

from eqsing.catalog import action_from_file, fixture_file, run_analysis, weyl_order
from eqsing.errors import EqsingError
from eqsing.lattice import IntLattice, inertia
from eqsing.monodromy import (
    Finite,
    Unknown,
    equivariant_generators,
    generate_group,
    pl_reflection,
)
from oracles import closure_naive

G2 = ((-2, 3), (3, -6))
C2 = ((-2, 2), (2, -4))
A1_CUBED = ((-2, 0, 0), (0, -2, 0), (0, 0, -2))


def _direct_sum(*grams):
    n = sum(len(g) for g in grams)
    out = [[0] * n for _ in range(n)]
    at = 0
    for g in grams:
        for i, row in enumerate(g):
            out[at + i][at:at + len(row)] = row
        at += len(g)
    return tuple(map(tuple, out))


def _dynkin_gram(n, edges):
    """-2 on the diagonal and 1 on each edge (i, j), 1-based."""
    gram = [[-2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        gram[i - 1][j - 1] = gram[j - 1][i - 1] = 1
    return gram


A2 = _dynkin_gram(2, [(1, 2)])


def _reflections(gram):
    lat = IntLattice(gram)
    return [pl_reflection(lat, lat.basis_vector(i), name=f"h{i + 1}")
            for i in range(lat.rank)]


def _fixture_generators(symbol, k=None):
    action, chi = action_from_file(fixture_file(symbol, k))
    return equivariant_generators(action, chi)[1]


def _small_groups():
    """Reflections and order of definite groups of order at most 200."""
    return [
        pytest.param(_reflections(A1_CUBED), 8, id="A1+A1+A1"),
        pytest.param(_reflections(G2), 12, id="G2"),
        pytest.param(_fixture_generators("A", 3), 24, id="A3"),
        pytest.param(_fixture_generators("B", 3), 48, id="B3"),
        pytest.param(_fixture_generators("C", 3), 48, id="C3"),
        pytest.param(_fixture_generators("D", 4), 192, id="D4"),
        # reducible: roots of one norm fall into several orbits
        pytest.param(_reflections(_direct_sum(A2, A2)), 36, id="A2+A2"),
        pytest.param(_reflections(_direct_sum(((-2,),), A2)), 12, id="A1+A2"),
        pytest.param(_reflections(_direct_sum(C2, G2)), 96, id="C2+G2"),
    ]


@pytest.mark.parametrize("gens, order", _small_groups())
def test_definite_order_matches_naive_closure(gens, order):
    assert closure_naive(gens) == order
    assert generate_group(gens) == Finite(order=order)


@pytest.mark.parametrize("symbol", ["E7", "E8"])
def test_e7_e8_simple_with_weyl_order(symbol):
    t0 = time.monotonic()
    out = run_analysis(fixture_file(symbol))
    elapsed = time.monotonic() - t0
    assert out.verdict == Finite(order=weyl_order(symbol))
    assert out.simple and out.criteria_agree
    assert elapsed < 5.0, f"{symbol} took {elapsed:.2f} s"


@pytest.mark.parametrize("symbol, n, edges", [
    ("A", 12, [(i, i + 1) for i in range(1, 12)]),
    ("D", 10, [(i, i + 1) for i in range(1, 9)] + [(8, 10)]),
])
def test_order_above_the_fixture_ranks(symbol, n, edges):
    gens = _reflections(_dynkin_gram(n, edges))
    assert generate_group(gens) == Finite(order=weyl_order(symbol, n))


def test_definite_cap_bounds_the_orbit():
    # the orbit of the 8 generator roots of E8 is all 240 roots
    gens = _fixture_generators("E8")
    assert generate_group(gens, cap=100) == Unknown(cap=100)
    assert generate_group(gens, cap=239) == Unknown(cap=239)
    assert generate_group(gens, cap=240) == Finite(order=weyl_order("E8"))
    assert generate_group(gens) == Finite(order=weyl_order("E8"))


def test_random_definite_reflection_groups():
    # -2 on the diagonal, 0 or +-1 off it, kept when negative definite;
    # reflections in random integral roots on it
    rng = random.Random(1907)
    checked = 0
    while checked < 60:
        n = rng.randint(2, 4)
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                gram[i][j] = gram[j][i] = rng.choice((0, 1, -1))
            gram[i][i] = -2
        if not inertia(IntLattice(gram)).negative_definite:
            continue
        gens = []
        for name in ("h1", "h2", "h3", "h4")[:rng.randint(2, 4)]:
            try:
                gens.append(pl_reflection(gram, [rng.randint(-1, 1) for _ in range(n)],
                                          name=name))
            except EqsingError:
                pass
        if len(gens) < 2:
            continue
        assert generate_group(gens) == Finite(order=closure_naive(gens)), (gram, gens)
        checked += 1
