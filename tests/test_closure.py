"""Negative definite forms: the root search closes, and orbit-stabiliser on
the roots gives the exact order."""
import random
import time

import pytest

from eqsing import linalg, monodromy
from eqsing.catalog import fixture_file, weyl_order
from eqsing.errors import EqsingError
from eqsing.lattice import IntLattice, inertia
from eqsing.monodromy import (
    Finite,
    Unknown,
    action_from_file,
    equivariant_generators,
    generate_group,
    run_analysis,
)
from oracles import closure_naive, pl_reflection
from test_semidefinite import AFFINE_E8_A1, _basis

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


def _fixture_form(symbol, k=None):
    """(restricted Gram, basis) of a fixture, the form and roots the
    pipeline decides."""
    action, chi = action_from_file(fixture_file(symbol, k))
    return _basis(equivariant_generators(action, chi)[0].restricted_gram)


def _small_groups():
    """Form, roots and order of definite groups of order at most 200."""
    return [
        pytest.param(*_basis(A1_CUBED), 8, id="A1+A1+A1"),
        pytest.param(*_basis(G2), 12, id="G2"),
        pytest.param(*_fixture_form("A", 3), 24, id="A3"),
        pytest.param(*_fixture_form("B", 3), 48, id="B3"),
        pytest.param(*_fixture_form("C", 3), 48, id="C3"),
        pytest.param(*_fixture_form("D", 4), 192, id="D4"),
        # reducible: roots of one norm fall into several orbits
        pytest.param(*_basis(_direct_sum(A2, A2)), 36, id="A2+A2"),
        pytest.param(*_basis(_direct_sum(((-2,),), A2)), 12, id="A1+A2"),
        pytest.param(*_basis(_direct_sum(C2, G2)), 96, id="C2+G2"),
    ]


@pytest.mark.parametrize("gram, roots, order", _small_groups())
def test_definite_order_matches_naive_closure(gram, roots, order):
    assert closure_naive(gram, roots) == order
    assert generate_group(gram, roots) == Finite(order=order)


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
    assert generate_group(*_basis(_dynkin_gram(n, edges))) == Finite(order=weyl_order(symbol, n))


def test_definite_cap_bounds_the_orbit():
    # the orbit of the 8 generator roots of E8 is all 240 roots
    gram, roots = _fixture_form("E8")
    assert generate_group(gram, roots, cap=100) == Unknown(cap=100)
    assert generate_group(gram, roots, cap=239) == Unknown(cap=239)
    assert generate_group(gram, roots, cap=240) == Finite(order=weyl_order("E8"))
    assert generate_group(gram, roots) == Finite(order=weyl_order("E8"))


@pytest.mark.parametrize("symbol", ["E7", "E8", "affine E8 + A1"])
def test_root_search_multiplies_by_the_form_once_per_generator(monkeypatch, symbol):
    # every root carries its image G r, so the search computes G delta once
    # per generator root and no image of any other root; only the
    # certificate of an Infinite verdict multiplies on its own
    if symbol == "affine E8 + A1":
        action, chi = action_from_file(AFFINE_E8_A1)
        gram, roots = _basis(equivariant_generators(action, chi)[0].restricted_gram)
    else:
        gram, roots = _fixture_form(symbol)
    calls = {"search": 0, "certificate": 0}
    inside = ["search"]

    def counted(M, v, _original=linalg.mat_vec):
        calls[inside[-1]] += 1
        return _original(M, v)

    def certificate(*args, _original=monodromy._pair_certificate):
        inside.append("certificate")
        try:
            return _original(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(linalg, "mat_vec", counted)
    monkeypatch.setattr(monodromy, "_pair_certificate", certificate)
    verdict = generate_group(gram, roots, cap=1000)
    assert calls["search"] == len(roots)
    if symbol == "affine E8 + A1":
        assert verdict.kind == "infinite" and calls["certificate"] > 0
    else:
        assert verdict == Finite(order=weyl_order(symbol)) and calls["certificate"] == 0


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
        roots = []
        for _ in range(rng.randint(2, 4)):
            root = [rng.randint(-1, 1) for _ in range(n)]
            try:
                pl_reflection(gram, root)
            except EqsingError:
                continue
            roots.append(root)
        if len(roots) < 2:
            continue
        assert generate_group(gram, roots) == Finite(order=closure_naive(gram, roots)), \
            (gram, roots)
        checked += 1
