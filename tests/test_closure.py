"""Negative definite forms: the root search closes, and the heights of the
roots give the exact order, checked against the simple roots."""
import itertools
import random
import time

import pytest

from eqsing import catalog, linalg, monodromy
from eqsing.catalog import fixture_file, weyl_order
from eqsing.diagram import DiagramFile
from eqsing.errors import EqsingError, InternalError
from eqsing.lattice import IntLattice, inertia
from eqsing.monodromy import (
    Finite,
    Unknown,
    action_from_file,
    equivariant_generators,
    generate_group,
    run_analysis,
)
from oracles import closure_naive, mat_vec, orbit_stabiliser_order, pl_reflection, root_orbit
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
        # indefinite: simple roots in components of either sign
        pytest.param(*_basis(_direct_sum(A2, ((2,),))), 12, id="A2+positive A1"),
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


@pytest.mark.parametrize("dfile, symbol, k", [
    pytest.param(DiagramFile(catalog._chain(16)), "A", 16, id="A16"),
    pytest.param(DiagramFile(catalog._d_diagram(16)), "D", 16, id="D16"),
    pytest.param(DiagramFile(catalog._d_diagram(20)), "D", 20, id="D20"),
    pytest.param(catalog._b_fixture(12), "B", 12, id="B12"),
    pytest.param(catalog._c_fixture(12), "C", 12, id="C12"),
])
def test_order_at_high_rank(dfile, symbol, k):
    assert run_analysis(dfile).verdict == Finite(order=weyl_order(symbol, k))


def test_definite_cap_bounds_the_orbit():
    # the orbit of the 8 generator roots of E8 is all 240 roots
    gram, roots = _fixture_form("E8")
    assert generate_group(gram, roots, cap=100) == Unknown(cap=100)
    assert generate_group(gram, roots, cap=239) == Unknown(cap=239)
    assert generate_group(gram, roots, cap=240) == Finite(order=weyl_order("E8"))
    assert generate_group(gram, roots) == Finite(order=weyl_order("E8"))


def test_root_entry_bound_caps_the_search(monkeypatch):
    # the search records at most MAX_ROOT_ENTRIES // rank roots, whatever
    # the cap: on E8, of rank 8, 800 entries stop it as cap=100 does
    gram, roots = _fixture_form("E8")
    monkeypatch.setattr(monodromy, "MAX_ROOT_ENTRIES", 800)
    assert generate_group(gram, roots) == Unknown(cap=100)
    assert generate_group(gram, roots, cap=50) == Unknown(cap=50)
    monkeypatch.setattr(monodromy, "MAX_ROOT_ENTRIES", 240 * 8 - 1)
    assert generate_group(gram, roots) == Unknown(cap=239)
    monkeypatch.setattr(monodromy, "MAX_ROOT_ENTRIES", 240 * 8)
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
    calls = {"search": [], "certificate": []}
    inside = ["search"]

    def counted(G, v, _original=linalg.form_vec):
        calls[inside[-1]].append(tuple(v))
        return _original(G, v)

    def certificate(*args, _original=monodromy._pair_certificate):
        inside.append("certificate")
        try:
            return _original(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(linalg, "form_vec", counted)
    monkeypatch.setattr(monodromy, "_pair_certificate", certificate)
    verdict = generate_group(gram, roots, cap=1000)
    assert calls["search"] == [linalg.primitive(r) for r in roots]
    if symbol == "affine E8 + A1":
        assert verdict.kind == "infinite" and calls["certificate"]
    else:
        assert verdict == Finite(order=weyl_order(symbol)) and not calls["certificate"]


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


def test_random_reflection_groups_match_orbit_stabiliser():
    # random definite forms of rank 2-6, of either sign, with roots among
    # the basis vectors and random integral ones: the order from root
    # heights equals orbit-stabiliser
    rng = random.Random(1087)
    checked = 0
    while checked < 300:
        n = 2 + checked % 5
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 1.5 / n:
                    gram[i][j] = gram[j][i] = rng.choice((1, -1))
            gram[i][i] = -2
        if not inertia(IntLattice(gram)).negative_definite:
            continue
        if rng.random() < 0.5:
            gram = [[-x for x in row] for row in gram]
        candidates = [[int(i == k) for i in range(n)] for k in range(n) if rng.random() < 0.7]
        candidates += [[rng.randint(-1, 1) for _ in range(n)] for _ in range(rng.randint(0, 2))]
        roots = []
        for root in candidates:
            try:
                pl_reflection(gram, root)
            except EqsingError:
                continue
            roots.append(root)
        if len(roots) < 2:
            continue
        expected = orbit_stabiliser_order(*root_orbit(gram, roots))
        assert generate_group(gram, roots) == Finite(order=expected), (gram, roots)
        checked += 1


def _negative(r):
    return tuple(-x for x in r)


@pytest.mark.parametrize("gram, roots", [
    _basis(A1_CUBED), _basis(G2), _fixture_form("B", 3), _fixture_form("D", 4),
    _fixture_form("E6"), _basis(_direct_sum(C2, G2)),
], ids=["A1+A1+A1", "G2", "B3", "D4", "E6", "C2+G2"])
def test_finite_order_refuses_a_doctored_root_set(gram, roots):
    # the recorded roots with one root dropped, one pair +-r dropped, or
    # one foreign vector (or pair) added never pass the check
    points, mirrors = root_orbit(gram, roots)
    assert monodromy._finite_order(points, mirrors) == orbit_stabiliser_order(points, mirrors)
    recorded = {r for r, _ in points}
    for k, (r, _) in enumerate(points):
        with pytest.raises(InternalError):
            monodromy._finite_order(points[:k] + points[k + 1:], mirrors)
        with pytest.raises(InternalError):
            monodromy._finite_order([p for p in points if p[0] not in (r, _negative(r))],
                                    mirrors)
    n = len(gram)
    for v in itertools.islice((v for v in itertools.product((-1, 0, 1), repeat=n)
                               if any(v) and v not in recorded), 40):
        foreign = (v, mat_vec(gram, v))
        with pytest.raises(InternalError):
            monodromy._finite_order(points + [foreign], mirrors)
        with pytest.raises(InternalError):
            monodromy._finite_order(
                points + [foreign, (_negative(v), _negative(foreign[1]))], mirrors)


def test_simple_system_check_refuses_what_is_no_simple_system():
    a2_positive = {(1, 0), (0, 1), (1, 1)}
    simple = [(r, mat_vec(A2, r)) for r in ((1, 0), (0, 1), (-1, -1))]
    assert monodromy._check_simple_system(simple[:2], a2_positive) == [2, 1]
    # the three roots of affine A2: the root strings run without end, and
    # stop once they exceed the recorded count
    with pytest.raises(InternalError, match="exceed the recorded roots"):
        monodromy._check_simple_system(simple, a2_positive)
    # b and a + b span a definite form and build only themselves, but
    # their Cartan integer is 1
    pair = [(r, mat_vec(A2, r)) for r in ((0, 1), (1, 1))]
    with pytest.raises(InternalError, match="Cartan integer"):
        monodromy._check_simple_system(pair, {(0, 1), (1, 1)})
    # a and -a, the affine A1 Cartan matrix on dependent vectors: the
    # strings close on {a, -a, 0}, and only the semidefinite Gram refuses
    pair = [(r, mat_vec(A2, r)) for r in ((1, 0), (-1, 0))]
    with pytest.raises(InternalError, match="not definite"):
        monodromy._check_simple_system(pair, {(1, 0), (-1, 0), (0, 0)})
