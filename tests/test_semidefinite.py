"""Semidefinite forms: root-class collisions, the cap, and oracles for
every certificate word."""
import random
import time

import pytest

from eqsing import linalg
from eqsing.catalog import fixture_file
from eqsing.diagram import DiagramFile, DynkinDiagram
from eqsing.errors import EqsingError
from eqsing.lattice import IntLattice, inertia
from eqsing.monodromy import (
    Finite,
    Infinite,
    Unknown,
    action_from_file,
    equivariant_generators,
    generate_group,
    run_analysis,
)
from oracles import closure_naive, evaluate_word, pl_reflection, reflections


def _star(*arms, isolated=0):
    """Vertex 1 with chains of the given lengths, plus isolated vertices."""
    vertices, edges = [(1, -2)], []
    for length in arms:
        prev = 1
        for _ in range(length):
            v = len(vertices) + 1
            vertices.append((v, -2))
            edges.append((prev, v, 1))
            prev = v
    for _ in range(isolated):
        vertices.append((len(vertices) + 1, -2))
    return DiagramFile(diagram=DynkinDiagram(vertices=tuple(vertices), edges=tuple(edges)))


AFFINE_E6 = _star(2, 2, 2)
AFFINE_E8_A1 = _star(1, 2, 5, isolated=1)
TRIANGLE_W2 = DiagramFile(diagram=DynkinDiagram(
    vertices=((1, -2), (2, -2), (3, -2)), edges=((1, 2, 2), (1, 3, 2), (2, 3, 2))))


def _basis(gram, count=None):
    """(gram, its first `count` basis vectors, all by default)."""
    return gram, linalg.identity(len(gram))[:count]


@pytest.mark.parametrize("dfile", [
    pytest.param(fixture_file("M4"), id="M4"),
    pytest.param(fixture_file("M5"), id="M5"),
    pytest.param(fixture_file("X9"), id="X9"),
    pytest.param(AFFINE_E6, id="affine E6"),
    pytest.param(AFFINE_E8_A1, id="affine E8 + A1"),
    pytest.param(TRIANGLE_W2, id="triangle with weight 2"),
])
def test_certificate_word_multiplies_out_to_its_matrix(dfile):
    out = run_analysis(dfile, cap=1000)
    assert isinstance(out.verdict, Infinite)
    out.verdict.validate()
    cert = out.verdict.certificate
    gens = reflections(out.sublattice.restricted_gram, out.generators)
    assert evaluate_word(gens, cert.word) == cert.matrix


def test_affine_e8_plus_a1_decided_within_the_cap():
    action, chi = action_from_file(AFFINE_E8_A1)
    sub, roots = equivariant_generators(action, chi)
    assert inertia(sub.lattice()).as_tuple() == (0, 1, 9)
    assert len(roots) == 10
    t0 = time.monotonic()
    verdict = generate_group(sub.restricted_gram, linalg.identity(10), cap=1000)
    elapsed = time.monotonic() - t0
    assert isinstance(verdict, Infinite)
    verdict.validate()
    gens = reflections(sub.restricted_gram, roots)
    assert evaluate_word(gens, verdict.certificate.word) == verdict.certificate.matrix
    assert elapsed < 5.0, f"affine E8 + A1 took {elapsed:.2f} s"
    # ten distinct roots fit under the cap, the eleventh does not
    assert generate_group(sub.restricted_gram, linalg.identity(10), cap=10) == Unknown(cap=10)


A2_PLUS_ZERO = ((-2, 1, 0), (1, -2, 0), (0, 0, 0))


@pytest.mark.parametrize("gram, roots, order", [
    pytest.param(((-2, 0), (0, 0)), [(1, 0)], 2, id="diag(-2, 0), one reflection"),
    pytest.param(*_basis(A2_PLUS_ZERO, 2), 6, id="A2 + <0>"),
    pytest.param(((-2, 0, 0), (0, -2, 0), (0, 0, 0)), [(1, 0, 1), (0, 1, 0)], 4,
                 id="A1 + A1 + <0>, one root off the kernel complement"),
])
def test_semidefinite_finite_matches_naive_closure(gram, roots, order):
    assert closure_naive(gram, roots) == order
    assert generate_group(gram, roots) == Finite(order=order)


@pytest.mark.parametrize("gram", [
    pytest.param(((-2, 2), (2, -2)), id="affine A1"),
    pytest.param(((-2, 1, 1), (1, -2, 1), (1, 1, -2)), id="affine A2"),
])
def test_affine_groups_are_infinite(gram):
    gram, roots = _basis(gram)
    with pytest.raises(RuntimeError):
        closure_naive(gram, roots, limit=200)
    verdict = generate_group(gram, roots)
    assert isinstance(verdict, Infinite)
    verdict.validate()
    cert = verdict.certificate
    assert evaluate_word(reflections(gram, roots), cert.word) == cert.matrix


def test_affine_a1_certificate_is_the_translation():
    # d1 + d2 spans the kernel, so the root -d1 = h1 d1 has the class of d2
    gram, roots = _basis(((-2, 2), (2, -2)))
    h1, h2 = reflections(gram, roots)
    verdict = generate_group(gram, roots)
    assert verdict.certificate.word == ("h1", "h2")
    assert verdict.certificate.matrix == linalg.mat_mul(h1.matrix, h2.matrix)


def test_random_semidefinite_reflection_groups():
    # gram = -A^T A with fewer rows than columns is negative semidefinite
    # and degenerate; reflections in random integral roots on it
    rng = random.Random(1978)
    seen = {"finite": 0, "infinite": 0}
    while min(seen.values()) < 60:
        n = rng.randint(2, 4)
        k = rng.randint(1, n - 1)
        A = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(k)]
        gram = linalg.freeze([[-sum(row[i] * row[j] for row in A) for j in range(n)]
                              for i in range(n)])
        if inertia(IntLattice(gram)).negative_definite:
            continue
        roots = []
        for _ in range(rng.randint(2, 4)):
            root = [rng.randint(-2, 2) for _ in range(n)]
            try:
                pl_reflection(gram, root)
            except EqsingError:
                continue
            roots.append(root)
        if not roots:
            continue
        verdict = generate_group(gram, roots)
        seen[verdict.kind] += 1
        if verdict.kind == "finite":
            assert closure_naive(gram, roots) == verdict.order, (gram, roots)
        else:
            verdict.validate()
            cert = verdict.certificate
            assert evaluate_word(reflections(gram, roots), cert.word) == cert.matrix
