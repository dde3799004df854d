"""Monodromy engine: reflections, equivariant generators, finiteness."""
import random

import pytest

from eqsing import lattice, linalg, monodromy
from eqsing.action import GroupAction, signed_orbits
from eqsing.catalog import fixture_file
from eqsing.errors import (
    EqsingError,
    GeneratorError,
    InternalError,
    IsotropicCycleError,
    LatticeDataError,
    NonIntegralReflectionError,
    NotIsometryError,
    OrbitNotOrthogonalError,
)
from eqsing.lattice import IntLattice, Sublattice, kernel_basis
from eqsing.monodromy import (
    Finite,
    Infinite,
    MonodromyElement,
    Unknown,
    _check_orbit_product,
    _mirror,
    _reflect,
    action_from_file,
    equivariant_generators,
    generate_group,
    power_law_check,
)
from oracles import (
    closure_naive,
    equivariant_generators_by_projector,
    generator_outcome,
    pl_reflection,
    product,
    random_action_file,
    reflections,
    word_element,
)


A2 = IntLattice(((-2, 1), (1, -2)))

M5_NABLA = (2, 1, 1, 0, 0)
M5_NABLA_P = (0, 1, 1, 1, 1)
M4_NABLA = (2, 1, 1, 0)
M4_NABLA_P = (0, 1, 1, 1)


def m5_gens():
    """The M5 sublattice and the reflection matrices h1..h5 in its roots."""
    action, chi = action_from_file(fixture_file("M5"))
    sub, roots = equivariant_generators(action, chi)
    return sub, reflections(sub.restricted_gram, roots)


def m4_gens():
    action, chi = action_from_file(fixture_file("M4"))
    sub, roots = equivariant_generators(action, chi)
    return sub, reflections(sub.restricted_gram, roots)


# --------------------------------------------------------------------------
# Picard-Lefschetz reflections, as the test oracle's matrices


def test_reflection_rank_one_negation():
    h = pl_reflection(((-2,),), (1,))
    assert h.matrix == ((-1,),)


def test_reflection_isotropic_rejected():
    with pytest.raises(IsotropicCycleError):
        pl_reflection(((0, 1), (1, 0)), (1, 0))


def test_reflection_non_integral_rejected():
    # norm -4 cycle pairing oddly with a basis vector
    with pytest.raises(NonIntegralReflectionError):
        pl_reflection(((-4, 1), (1, -2)), (1, 0))


def test_reflection_m5_h2():
    sub, gens = m5_gens()
    h2 = gens[1]
    d2 = (0, 1, 0, 0, 0)
    # h2 negates delta2 and acts by a + ((a, delta2)/2) delta2
    assert linalg.mat_vec(h2.matrix, d2) == (0, -1, 0, 0, 0)
    G = sub.restricted_gram
    for j in range(5):
        e = tuple(1 if t == j else 0 for t in range(5))
        pairing = sum(G[1][t] * e[t] for t in range(5))
        expect = tuple(a + (pairing // 2) * b for a, b in zip(e, d2))
        assert linalg.mat_vec(h2.matrix, e) == expect


def test_reflection_m4_h4_on_delta1():
    sub, gens = m4_gens()
    h4 = gens[3]
    # (delta1, delta4) = -4, (delta4, delta4) = -8: h4(delta1) = delta1 - delta4
    assert linalg.mat_vec(h4.matrix, (1, 0, 0, 0)) == (1, 0, 0, -1)


def test_reflections_are_involutive_isometries():
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(1, 4)
        M = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                M[i][j] = M[j][i] = rng.randint(-3, 3)
        lat = IntLattice(linalg.freeze(M))
        delta = tuple(rng.randint(-2, 2) for _ in range(n))
        if product(lat.gram, delta, delta) == 0:
            continue
        try:
            h = pl_reflection(lat.gram, delta)
        except NonIntegralReflectionError:
            continue
        # involution; form preservation is enforced by the constructor
        assert linalg.mat_mul(h.matrix, h.matrix) == linalg.identity(n)
        assert linalg.mat_vec(h.matrix, delta) == tuple(-x for x in delta)


def test_kernel_fixed_pointwise():
    for setup in (m5_gens, m4_gens):
        sub, gens = setup()
        ker = kernel_basis(sub.lattice())
        for g in gens:
            for v in ker:
                assert linalg.mat_vec(g.matrix, v) == v


# --------------------------------------------------------------------------
# orbit generators


def test_orbit_generator_singleton():
    action, chi = action_from_file(fixture_file("M5"))
    assert equivariant_generators(action, chi)[1][0] == (1, 0, 0, 0, 0)
    sub, gens = m5_gens()
    assert gens[0].matrix == pl_reflection(sub.restricted_gram, (1, 0, 0, 0, 0)).matrix
    assert gens[0].word == ("h1",)


def test_orbit_generator_pair_equals_ambient_product():
    # H4 H2 restricted to the invariant part equals the reflection in
    # delta2 = Delta2 + Delta4: H4 H2 maps each basis vector b_j to the
    # embedding of column j of h2
    action, _ = action_from_file(fixture_file("M5"))
    sub, gens = m5_gens()
    lat = action.lattice
    H2 = pl_reflection(lat.gram, lat.basis_vector(1)).matrix
    H4 = pl_reflection(lat.gram, lat.basis_vector(3)).matrix
    prod = linalg.mat_mul(H4, H2)
    h2 = gens[1]
    for b, col in zip(sub.basis, linalg.transpose(h2.matrix)):
        assert linalg.mat_vec(prod, b) == sub.embed(col)
    assert h2.matrix == pl_reflection(sub.restricted_gram, (0, 1, 0, 0, 0)).matrix


def test_orbit_generator_checks_the_ambient_product():
    # on span(Delta2, Delta4) H4 H2 is -I, while the reflection in
    # Delta2 + Delta4 swaps Delta2 and -Delta4: the identity check refuses
    action, _ = action_from_file(fixture_file("M5"))
    lat = action.lattice
    pair = Sublattice(lat, (lat.basis_vector(1), lat.basis_vector(3)))
    cycle = pair.embed((1, 1))
    with pytest.raises(AssertionError, match="disagrees"):
        _check_orbit_product(lat.gram, (1, 3), cycle, pair, 0)


def test_orbit_generator_checks_the_cycle_is_basis_vector_k():
    # b = Delta1 + Delta2 meets Delta1 as the cycle Delta1 would, so the
    # coordinate equation holds; but H1 maps b to Delta2 - Delta1, not to -b
    lat = IntLattice(((-2, 0), (0, -2)))
    sub = Sublattice(lat, ((1, 1),))
    with pytest.raises(InternalError, match="disagrees"):
        _check_orbit_product(lat.gram, (0,), (1, 0), sub, 0)


def test_orbit_generator_check_reads_the_restricted_form(monkeypatch):
    # 4 more on one off-diagonal pair of the M5 restricted form, whose norms
    # are -2 and -4, keeps every restricted reflection integral: only the
    # comparison with the ambient product can refuse it
    gram_on = lattice._gram_on

    def skewed(ambient, basis):
        B = [list(row) for row in gram_on(ambient, basis)]
        B[0][1] += 4
        B[1][0] += 4
        return linalg.freeze(B)

    monkeypatch.setattr(lattice, "_gram_on", skewed)
    action, chi = action_from_file(fixture_file("M5"))
    with pytest.raises(InternalError, match="disagrees"):
        equivariant_generators(action, chi)


def test_orbit_generator_m4_four_cycle_orbit():
    action, chi = action_from_file(fixture_file("M4"))
    assert equivariant_generators(action, chi)[1] == tuple(linalg.identity(4))
    sub, gens = m4_gens()
    assert sub.basis[3] == (0, 0, 0, 0, 0, 1, 1, 1, 1)
    assert gens[3].matrix == pl_reflection(sub.restricted_gram, (0, 0, 0, 1)).matrix


def test_orbit_generator_rejects_non_orthogonal_orbit():
    # sigma swaps the adjacent Delta1 and Delta2
    lat = IntLattice(((-2, 1), (1, -2)))
    action = GroupAction(generators=(("sigma", ((1, 1), (0, 1))),), lattice=lat)
    with pytest.raises(OrbitNotOrthogonalError, match="cycles 1 and 2"):
        equivariant_generators(action, (1,))


def test_orbit_generator_projects_to_zero():
    # anti-invariant character on the M5 action: Delta1 projects to zero and
    # gives no generator; every basis vector of the sublattice is orthogonal
    # to it, so H1 fixes the sublattice, and the other four orbits give e_1..e_4
    action, _ = action_from_file(fixture_file("M5"))
    anti = (-1,)
    assert signed_orbits(action, anti)[0] == ((0,), None)
    sub, roots = equivariant_generators(action, anti)
    assert roots == linalg.identity(4)
    assert all(b[0] == 0 and product(action.lattice.gram, b, (1,) + (0,) * 8) == 0
               for b in sub.basis)
    assert generate_group(sub.restricted_gram, roots) == Finite(order=192)


def test_orbit_generator_checks_the_skipped_orbit(monkeypatch):
    # a sublattice that meets Delta1, the orbit with no chi-vector, is
    # inconsistent action data: Delta2 + Delta4 is the invariant cycle
    action, _ = action_from_file(fixture_file("M5"))
    meets = Sublattice(action.lattice, ((0, 1, 0, 1, 0, 0, 0, 0, 0),))
    assert product(action.lattice.gram, meets.basis[0], (1,) + (0,) * 8) != 0
    monkeypatch.setattr(monodromy, "isotypic_sublattice", lambda action, chi, orbits: meets)
    with pytest.raises(InternalError, match="no chi-vector"):
        equivariant_generators(action, (-1,))


def test_analysis_walks_the_signed_orbits_once(monkeypatch):
    # equivariant_generators hands its walk to isotypic_sublattice, which
    # would otherwise walk the same orbits again
    from eqsing import action as action_module

    calls = []

    def counted(action, chi, _original=signed_orbits):
        calls.append(chi)
        return _original(action, chi)

    monkeypatch.setattr(action_module, "signed_orbits", counted)
    monkeypatch.setattr(monodromy, "signed_orbits", counted)
    out = monodromy.run_analysis(fixture_file("M5"))
    assert out.verdict.kind == "infinite"
    assert calls == [(1,)]


def test_orbit_generator_anti_swap_orbit():
    # chi = -1 on the M5 swap: the orbit cycle of (Delta2, Delta4) is
    # Delta2 - Delta4, and the restricted product is the reflection in it
    action, _ = action_from_file(fixture_file("M5"))
    anti = (-1,)
    sub, roots = equivariant_generators(action, anti)
    assert sub.rank == 4
    assert sub.basis[0] == (0, 1, 0, -1, 0, 0, 0, 0, 0)
    assert roots[0] == (1, 0, 0, 0)
    h = reflections(sub.restricted_gram, roots)[0]
    assert h.matrix == pl_reflection(sub.restricted_gram, (1, 0, 0, 0)).matrix
    assert linalg.mat_mul(h.matrix, h.matrix) == linalg.identity(4)
    lat = action.lattice
    H2 = pl_reflection(lat.gram, lat.basis_vector(1)).matrix
    H4 = pl_reflection(lat.gram, lat.basis_vector(3)).matrix
    prod = linalg.mat_mul(H4, H2)
    for b, col in zip(sub.basis, linalg.transpose(h.matrix)):
        assert linalg.mat_vec(prod, b) == sub.embed(col)


def test_equivariant_generators_match_the_projector_on_random_actions():
    # every error class of the construction occurs among these 400: the
    # three action checks, a zero sublattice, a non-orthogonal orbit and an
    # isotropic or non-integral cycle; and generators both with every orbit
    # and with an orbit that projects to zero left out
    kinds = set()
    for seed in range(400):
        dfile = random_action_file(random.Random(seed))
        action, chi = action_from_file(dfile)
        new = generator_outcome(equivariant_generators, action, chi)
        old = generator_outcome(equivariant_generators_by_projector, action, chi)
        assert new == old, dfile
        if isinstance(new[0], type):
            kinds.add(new[0].__name__)
        elif any(cycle is None for _, cycle in signed_orbits(action, chi)):
            kinds.add("generators, orbit left out")
        else:
            kinds.add("generators")
    assert kinds == {
        "NotIsometryError", "NotInvolutionError", "NotCommutingError",
        "ZeroSublatticeError", "OrbitNotOrthogonalError", "IsotropicCycleError",
        "NonIntegralReflectionError", "generators", "generators, orbit left out",
    }


# --------------------------------------------------------------------------
# group generation


def _decide(sub, cap=10**6):
    """The decision on a sublattice's form and basis roots, as the
    pipeline makes it."""
    return generate_group(sub.restricted_gram, linalg.identity(sub.rank), cap=cap)


def test_generate_a2_weyl_group():
    verdict = generate_group(A2.gram, [(1, 0), (0, 1)])
    assert isinstance(verdict, Finite) and verdict.order == 6


def test_generate_single_reflection():
    verdict = generate_group(A2.gram, [(1, 0)])
    assert isinstance(verdict, Finite) and verdict.order == 2


def test_finite_order_matches_naive_closure():
    # same order from a different traversal (determinism of the order)
    assert closure_naive(A2.gram, linalg.identity(2)) == 6
    gram = ((-2, 1, 0), (1, -2, 1), (0, 1, -2))
    roots = linalg.identity(3)
    assert generate_group(gram, roots).order == closure_naive(gram, roots) == 24


def test_generate_m5_infinite_with_nabla_certificate():
    sub, gens = m5_gens()
    verdict = _decide(sub)
    assert isinstance(verdict, Infinite)
    verdict.validate()
    # increment vector is proportional to nabla
    w = verdict.increment
    assert len(linalg.hnf((w, M5_NABLA))) == 1
    # increment lies in the kernel
    assert linalg.is_zero_vec(linalg.mat_vec(sub.restricted_gram, w))


def test_generate_m4_infinite():
    sub, gens = m4_gens()
    verdict = _decide(sub)
    assert isinstance(verdict, Infinite)
    verdict.validate()
    # the collision certificate is the paper's own element h4*h1
    assert verdict.certificate.word == ("h4", "h1")


def test_generate_x9_infinite():
    action, chi = action_from_file(fixture_file("X9"))
    sub, roots = equivariant_generators(action, chi)
    assert len(roots) == 9
    verdict = _decide(sub)
    assert isinstance(verdict, Infinite)
    verdict.validate()


def test_infinite_certificate_is_self_validating():
    sub, gens = m5_gens()
    verdict = _decide(sub)
    g = verdict.certificate
    I = linalg.identity(g.rank)
    U = linalg.freeze(
        tuple(a - b for a, b in zip(row, irow)) for row, irow in zip(g.matrix, I)
    )
    assert any(any(row) for row in U)  # g != I
    assert not any(any(row) for row in linalg.mat_mul(U, U))  # (g-I)^2 = 0
    assert linalg.mat_vec(U, verdict.witness) == verdict.increment
    assert linalg.is_zero_vec(linalg.mat_vec(g.gram, verdict.increment))


def test_semidefinite_finite_group():
    # single reflection on a degenerate lattice: case (b) closes finitely
    verdict = generate_group(((-2, 0), (0, 0)), [(1, 0)])
    assert isinstance(verdict, Finite) and verdict.order == 2


def test_general_case_positive_definite_closes():
    # sign-flipped A2 is positive definite: the root search closes
    # without a pair
    verdict = generate_group(((2, -1), (-1, 2)), linalg.identity(2))
    assert isinstance(verdict, Finite) and verdict.order == 6


def test_general_case_unipotent_infinite():
    # positive semidefinite form with a unipotent isometry that is no
    # product of reflections the search would try: the power-law
    # certificate holds on its own
    gram = ((0, 0), (0, 2))
    g = MonodromyElement(matrix=((1, 1), (0, 1)), gram=gram, word=("u",))
    assert Infinite(certificate=g, witness=(0, 1), increment=(1, 0)).validate()


def test_general_case_spectral_infinite():
    # Pell isometry of diag(1, -2): eigenvalues 3 +- 2 sqrt 2, the roots of
    # x^2 - 6x + 1, off the unit circle
    gram = ((1, 0), (0, -2))
    g = MonodromyElement(matrix=((3, 4), (2, 3)), gram=gram, word=("p",))
    assert Infinite(certificate=g, residual_charpoly=(1, -6, 1)).validate()
    # a factor with no root among the eigenvalues, a trace of absolute
    # value 2 or less, or a leading coefficient other than 1 is refused
    for residual in ((1, -7, 1), (1, 6, 1), (1, -2, 1), (2, -6, 1)):
        with pytest.raises(AssertionError):
            Infinite(certificate=g, residual_charpoly=residual).validate()
    # a reflection has order 2, yet g^2 -+ 2g + I = (g -+ I)^2 is singular:
    # only |t| > 2 keeps it out
    h = pl_reflection(gram, (1, 0), name="h")
    for residual in ((1, -2, 1), (1, 2, 1)):
        with pytest.raises(AssertionError, match=r"\|t\| > 2"):
            Infinite(certificate=h, residual_charpoly=residual).validate()


def test_generate_group_refuses_bad_generator_lists():
    # each bad form or root list is a typed refusal, never a failed invariant
    cases = [
        (A2.gram, [], GeneratorError, "at least one"),
        (A2.gram, [(1, 0, 0)], GeneratorError, "length 2"),
        (A2.gram, [(1, 0), (1,)], GeneratorError, "h2"),
        (A2.gram, [(0.5, 0)], GeneratorError, "integer vector"),
        (A2.gram, [(0, 0)], LatticeDataError, "zero vector"),
        (((0, 1), (1, 0)), [(1, 0)], IsotropicCycleError, "self-intersection zero"),
        (((-4, 1), (1, -2)), [(0, 1), (1, 0)], NonIntegralReflectionError, "not integral"),
        (((-2, 1),), [(1, 0)], LatticeDataError, "square"),
        (((-2, 1), (0, -2)), [(1, 0)], LatticeDataError, "symmetric"),
    ]
    for gram, roots, error, match in cases:
        with pytest.raises(error, match=match) as info:
            generate_group(gram, roots)
        assert isinstance(info.value, EqsingError)
        assert not isinstance(info.value, InternalError), info.value


@pytest.mark.parametrize("gram, roots", [
    pytest.param(A2.gram, linalg.identity(2), id="A2, finite"),
    pytest.param(((-2, 2), (2, -2)), linalg.identity(2), id="affine A1, unipotent"),
    pytest.param(((-2, 3), (3, -2)), linalg.identity(2), id="b^2 > ac, hyperbolic"),
    pytest.param(None, None, id="M5, unipotent"),
])
def test_scaled_and_negated_roots_decide_alike(gram, roots):
    # a root stands for its reflection: 2 delta and -delta give the verdict,
    # order, certificate and words that delta gives
    if gram is None:
        sub, _ = m5_gens()
        gram, roots = sub.restricted_gram, linalg.identity(sub.rank)
    expect = generate_group(gram, roots)
    for k in range(len(roots)):
        for c in (2, -1, -3):
            moved = [tuple(c * x for x in r) if i == k else r for i, r in enumerate(roots)]
            assert generate_group(gram, moved) == expect, (k, c)


def test_element_not_preserving_the_form_is_refused():
    with pytest.raises(NotIsometryError, match="does not preserve"):
        MonodromyElement(matrix=((1, 1), (0, 1)), gram=A2.gram)


def test_invariant_failures_are_typed():
    # a certificate that fails its own check raises InternalError, which
    # is an EqsingError and still an AssertionError
    hh = word_element([pl_reflection(A2.gram, (1, 0), name="h")], ("h", "h"))
    with pytest.raises(InternalError, match="identity") as info:
        Infinite(certificate=hh, witness=(1, 0), increment=(0, 0)).validate()
    assert isinstance(info.value, AssertionError)


def test_reflect_refuses_a_non_integral_move():
    # a root moves with its image G r, and k = 2(r, delta)/(delta, delta)
    # is read off the image; the reflection in e_1 on this form is not
    # integral, and moving e_2 by it would take k = 2/(-4)
    gram = ((-4, 1), (1, -2))
    e1, e2 = ((1, 0), gram[0]), ((0, 1), gram[1])
    mirror = _mirror(e1)
    assert _reflect(e1, mirror) == ((-1, 0), (4, -1))
    with pytest.raises(InternalError, match="non-integral multiple") as info:
        _reflect(e2, mirror)
    assert isinstance(info.value, AssertionError)
    # a reflection that fixes a root gives back the root object itself
    fixed = ((0, 1), (0, -2))
    assert _reflect(fixed, _mirror(((1, 0), (-2, 0)))) is fixed


def test_general_case_unknown_at_cap():
    verdict = generate_group(((2, -1), (-1, 2)), linalg.identity(2), cap=3)
    assert isinstance(verdict, Unknown) and verdict.cap == 3


def test_group_elements_preserve_form():
    sub, gens = m5_gens()
    G = sub.restricted_gram
    # spot-check a few products (preservation is also enforced on
    # construction of every MonodromyElement)
    p = word_element(gens, ("h1", "h2", "h5"))
    Gt = linalg.mat_mul(linalg.mat_mul(linalg.transpose(p.matrix), G), p.matrix)
    assert Gt == G


# --------------------------------------------------------------------------
# power laws


def test_power_law_identity():
    sub, gens = m5_gens()
    I = MonodromyElement(matrix=linalg.identity(5), gram=sub.restricted_gram)
    assert power_law_check(I, (1, 2, 3, 4, 5), (0,) * 5, 5) is None


def test_power_law_m5_element():
    # the paper's element h5 h4 h1 on delta2+delta3 increments by a
    # kernel vector; the verified increment is 2*nabla - 2*nabla'
    sub, gens = m5_gens()
    g = word_element(gens, ("h5", "h4", "h1"))
    v = (0, 1, 1, 0, 0)
    w = tuple(2 * a - 2 * b for a, b in zip(M5_NABLA, M5_NABLA_P))
    assert w == (4, 0, 0, -2, -2)
    assert power_law_check(g, v, w, 5) is None
    assert linalg.is_zero_vec(linalg.mat_vec(sub.restricted_gram, w))
    # the paper's printed increment (nabla itself) does not satisfy the law:
    # reflections in delta1, delta4, delta5 cannot move delta2's coordinate
    assert power_law_check(g, v, M5_NABLA, 5) == 1


def test_power_law_m4_element():
    sub, gens = m4_gens()
    g = word_element(gens, ("h4", "h1"))
    v = (0, 1, 1, 0)
    w = tuple(2 * a - 2 * b for a, b in zip(M4_NABLA, M4_NABLA_P))
    assert w == (4, 0, 0, -2)
    assert power_law_check(g, v, w, 5) is None
    assert power_law_check(g, v, M4_NABLA, 5) == 1


def test_power_law_reports_first_failing_s():
    h = pl_reflection(A2.gram, (1, 0), name="h")
    # h^2 = I, so v + 2w fails at s = 2 for any nonzero w
    v = (1, 0)
    w = tuple(a - b for a, b in zip(linalg.mat_vec(h.matrix, v), v))
    assert power_law_check(h, v, w, 5) == 2
