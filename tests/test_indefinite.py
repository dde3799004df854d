"""Path (b) on forms that are not negative semidefinite: the root-pair search
along the Coxeter orbits, its certificates, its cap and its finite closures."""
import random

import pytest

from eqsing import linalg
from eqsing.errors import EqsingError
from eqsing.lattice import IntLattice, inertia
from eqsing.monodromy import (
    Finite,
    Infinite,
    Unknown,
    action_from_file,
    equivariant_generators,
    generate_group,
)
from oracles import charpoly_sympy, closure_naive, evaluate_word, pl_reflection, reflections
from test_semidefinite import TRIANGLE_W2, _basis, _star


def _pipeline_generators(dfile):
    """(h_k matrices, restricted Gram, basis roots) of a diagram file."""
    action, chi = action_from_file(dfile)
    sub, roots = equivariant_generators(action, chi)
    assert inertia(sub.lattice()).n_plus == 1
    return reflections(sub.restricted_gram, roots), sub.restricted_gram, roots


def _check_certificate(gens, verdict):
    assert isinstance(verdict, Infinite)
    verdict.validate()
    cert = verdict.certificate
    assert evaluate_word(gens, cert.word) == cert.matrix
    if verdict.residual_charpoly is not None:
        _check_residual(verdict)


def _check_residual(verdict):
    """sympy's charpoly of a hyperbolic certificate is (x - 1)^(n - 2) times
    x^2 - t x + 1, with t its trace less n - 2, and the residual is that
    quadratic factor."""
    M = verdict.certificate.matrix
    n = len(M)
    t = sum(M[i][i] for i in range(n)) - (n - 2)
    expect = (1, -t, 1)
    for _ in range(n - 2):
        # times x - 1
        expect = tuple(a - b for a, b in zip(expect + (0,), (0,) + expect))
    assert abs(t) > 2
    assert charpoly_sympy(M) == expect
    assert verdict.residual_charpoly == (1, -t, 1)


# T(p, q, r): a star with arms p - 1, q - 1, r - 1 and 1/p + 1/q + 1/r < 1.
# `seen` roots are recorded before the one that completes the pair, so the
# least cap that decides is seen + 1
@pytest.mark.parametrize("dfile, seen", [
    pytest.param(_star(1, 2, 6), 26, id="T(2,3,7)"),
    pytest.param(_star(1, 3, 4), 17, id="T(2,4,5)"),
    pytest.param(_star(2, 2, 3), 12, id="T(3,3,4)"),
    pytest.param(_star(1, 2, 7), 27, id="T(2,3,8)"),
    pytest.param(TRIANGLE_W2, 1, id="triangle with weight 2"),
])
def test_hyperbolic_diagrams_are_infinite_within_cap_100(dfile, seen):
    gens, gram, roots = _pipeline_generators(dfile)
    _check_certificate(gens, generate_group(gram, roots, cap=100))
    _check_certificate(gens, generate_group(gram, roots, cap=seen + 1))
    assert generate_group(gram, roots, cap=seen) == Unknown(cap=seen)


@pytest.mark.parametrize("gram, residual", [
    # b^2 > ac > 0: trace 4 * 9 / 4 - 2 = 7
    pytest.param(((-2, 3), (3, -2)), (1, -7, 1), id="b^2 > ac"),
    # roots of opposite norms, b != 0: trace 4 / -4 - 2 = -3
    pytest.param(((-2, 1), (1, 2)), (1, 3, 1), id="ac < 0"),
])
def test_hyperbolic_pair_has_a_residual_charpoly(gram, residual):
    gram, roots = _basis(gram)
    verdict = generate_group(gram, roots)
    _check_certificate(reflections(gram, roots), verdict)
    assert verdict.witness is None
    assert verdict.residual_charpoly == residual


A1_PLUS_U = ((-2, 0, 0), (0, 0, 1), (0, 1, 0))


@pytest.mark.parametrize("gram, roots, order", [
    pytest.param(*_basis(((-2, 0), (0, 2)), 1), 2, id="diag(-2, 2), one reflection"),
    pytest.param(*_basis(((2, -1), (-1, 2))), 6, id="sign-flipped A2"),
    pytest.param(A1_PLUS_U, [(1, 0, 0), (0, 1, -1)], 4, id="A1 + U, orthogonal -2 roots"),
    pytest.param(A1_PLUS_U, [(0, 1, -1), (1, 1, 0)], 6,
                 id="A1 + U, -2 roots with product -1"),
])
def test_finite_closure_matches_naive_closure(gram, roots, order):
    assert not inertia(IntLattice(gram)).negative_semidefinite
    assert closure_naive(gram, roots) == order
    assert generate_group(gram, roots) == Finite(order=order)


def test_random_indefinite_reflection_groups():
    # -2 or 2 on the diagonal, small products off it; reflections in random
    # roots with entries in {-1, 0, 1}
    rng = random.Random(1907)
    seen = {"finite": 0, "infinite": 0, "unipotent": 0, "hyperbolic": 0}
    while min(seen["finite"], seen["infinite"]) < 60:
        n = rng.randint(2, 4)
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                gram[i][j] = gram[j][i] = rng.choice((0, 0, 1, -1))
            gram[i][i] = rng.choice((-2, -2, -2, 2))
        gram = linalg.freeze(gram)
        if inertia(IntLattice(gram)).negative_semidefinite:
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
        verdict = generate_group(gram, roots, cap=200)
        assert verdict.kind != "unknown", (gram, roots)
        seen[verdict.kind] += 1
        if verdict.kind == "finite":
            assert closure_naive(gram, roots) == verdict.order, (gram, roots)
        else:
            _check_certificate(reflections(gram, roots), verdict)
            seen["hyperbolic" if verdict.residual_charpoly else "unipotent"] += 1
    assert seen["unipotent"] and seen["hyperbolic"]
