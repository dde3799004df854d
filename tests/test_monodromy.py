"""Monodromy engine: reflections, equivariant generators, finiteness."""
import random
import re
import sys
import tracemalloc
from pathlib import Path

import pytest

from eqsing import lattice, linalg, monodromy
from eqsing.action import GroupAction, signed_orbits
from eqsing.catalog import fixture_file
from eqsing.diagram import DiagramFile, DynkinDiagram, parse_file
from eqsing.errors import EqsingError, InternalError
from eqsing.lattice import IntLattice, Sublattice, kernel_basis
from eqsing.monodromy import (
    Finite,
    Infinite,
    MonodromyElement,
    Unknown,
    _check_orbit_product,
    _dot,
    _mirror,
    _reflect,
    action_from_file,
    equivariant_generators,
    generate_group,
    power_law_check,
    run_analysis,
)
from oracles import (
    DenseElement,
    closure_naive,
    equivariant_generators_by_projector,
    evaluate_word,
    generator_outcome,
    index2_witness_dense,
    mat_mul,
    mat_vec,
    minus_identity,
    mirror_of,
    pl_reflection,
    product,
    random_action_file,
    reflections,
    word_element,
)


GOLDEN = Path(__file__).resolve().parent / "golden"
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
    with pytest.raises(EqsingError, match=r"cycle \(1, 0\) has self-intersection zero"):
        pl_reflection(((0, 1), (1, 0)), (1, 0))


def test_reflection_non_integral_rejected():
    # norm -4 cycle pairing oddly with a basis vector
    with pytest.raises(EqsingError, match=r"reflection in \(1, 0\) is not integral: "
                       r"2\(e_2, delta\) delta is not divisible by \(-4\)"):
        pl_reflection(((-4, 1), (1, -2)), (1, 0))


def test_reflection_m5_h2():
    sub, gens = m5_gens()
    h2 = gens[1]
    d2 = (0, 1, 0, 0, 0)
    # h2 negates delta2 and acts by a + ((a, delta2)/2) delta2
    assert mat_vec(h2.matrix, d2) == (0, -1, 0, 0, 0)
    G = sub.restricted_gram
    for j in range(5):
        e = tuple(1 if t == j else 0 for t in range(5))
        pairing = sum(G[1][t] * e[t] for t in range(5))
        expect = tuple(a + (pairing // 2) * b for a, b in zip(e, d2))
        assert mat_vec(h2.matrix, e) == expect


def test_reflection_m4_h4_on_delta1():
    sub, gens = m4_gens()
    h4 = gens[3]
    # (delta1, delta4) = -4, (delta4, delta4) = -8: h4(delta1) = delta1 - delta4
    assert mat_vec(h4.matrix, (1, 0, 0, 0)) == (1, 0, 0, -1)


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
        except EqsingError as exc:
            assert "is not integral" in str(exc)
            continue
        # involution; form preservation is enforced by the constructor
        assert mat_mul(h.matrix, h.matrix) == linalg.identity(n)
        assert mat_vec(h.matrix, delta) == tuple(-x for x in delta)


def test_kernel_fixed_pointwise():
    for setup in (m5_gens, m4_gens):
        sub, gens = setup()
        ker = kernel_basis(sub.lattice())
        for g in gens:
            for v in ker:
                assert mat_vec(g.matrix, v) == v


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
    H2 = pl_reflection(lat.gram, linalg.identity(lat.rank)[1]).matrix
    H4 = pl_reflection(lat.gram, linalg.identity(lat.rank)[3]).matrix
    prod = mat_mul(H4, H2)
    h2 = gens[1]
    for b, col in zip(sub.basis, linalg.transpose(h2.matrix)):
        assert mat_vec(prod, b) == sub.embed(col)
    assert h2.matrix == pl_reflection(sub.restricted_gram, (0, 1, 0, 0, 0)).matrix


def test_orbit_generator_checks_the_ambient_product():
    # on span(Delta2, Delta4) H4 H2 is -I, while the reflection in
    # Delta2 + Delta4 swaps Delta2 and -Delta4: the identity check refuses
    action, _ = action_from_file(fixture_file("M5"))
    lat = action.lattice
    e = linalg.identity(lat.rank)
    pair = Sublattice(lat, (e[1], e[3]))
    cycle = pair.embed((1, 1))
    with pytest.raises(AssertionError, match="disagrees"):
        _check_orbit_product(lat.gram, (1, 3), cycle, pair, 0,
                             tuple(map(linalg.support, pair.basis)))


def test_orbit_generator_checks_the_cycle_is_basis_vector_k():
    # b = Delta1 + Delta2 meets Delta1 as the cycle Delta1 would, so the
    # coordinate equation holds; but H1 maps b to Delta2 - Delta1, not to -b
    lat = IntLattice(((-2, 0), (0, -2)))
    sub = Sublattice(lat, ((1, 1),))
    with pytest.raises(InternalError, match="disagrees"):
        _check_orbit_product(lat.gram, (0,), (1, 0), sub, 0, (linalg.support((1, 1)),))


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


def test_oversized_diagram_is_refused_before_its_form_is_built():
    # past n*n > 4*MAX_ROOT_ENTRIES no n x n form is built: a chain of 2829
    # vertices would take about 128 MB for its Gram matrix, the refusal
    # less than 1 MB
    n = 2829
    dfile = DiagramFile(DynkinDiagram(tuple((i, -2) for i in range(1, n + 1)),
                                      tuple((i, i + 1, 1) for i in range(1, n))))
    tracemalloc.start()
    try:
        with pytest.raises(EqsingError, match=r"\(8000000\), got n=2829 vertices$"):
            action_from_file(dfile)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_orbit_generator_rejects_non_orthogonal_orbit():
    # sigma swaps the adjacent Delta1 and Delta2
    lat = IntLattice(((-2, 1), (1, -2)))
    action = GroupAction(generators=(("sigma", ((1, 1), (0, 1))),), lattice=lat)
    with pytest.raises(EqsingError, match="cycles 1 and 2 in one orbit have product 1 != 0"):
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


def test_ambient_stages_read_rows_linear_in_n(monkeypatch):
    # every row read from the ambient form while equivariant_generators
    # runs, and from the restricted form while generate_group sets up its
    # roots, is counted on D_k with the trivial action: a constant number
    # per vertex, where a dense product, or a row read once per basis
    # vector, reads about n per vertex
    reads = [0]

    class Rows(tuple):
        def __getitem__(self, i):
            reads[0] += 1
            return tuple.__getitem__(self, i)

        def __iter__(self):
            for row in tuple.__iter__(self):
                reads[0] += 1
                yield row

    def counted(G, v, _original=linalg.form_vec):
        return _original(G if isinstance(G, Rows) else Rows(G), v)

    monkeypatch.setattr(linalg, "form_vec", counted)
    monkeypatch.setattr(monodromy, "_generate_reflections", lambda gram, mirrors, cap, sig: None)
    counts = {}
    for k in (50, 100):
        action, chi = action_from_file(fixture_file("D", k))
        object.__setattr__(action.lattice, "gram", Rows(action.lattice.gram))
        reads[0] = 0
        sub, roots = equivariant_generators(action, chi)
        sig = lattice.inertia(sub.lattice())
        generate_group(sub.restricted_gram, roots, sig=sig)
        counts[k] = reads[0]
    assert all(k <= counts[k] <= 8 * k for k in counts), counts
    assert counts[100] == 2 * counts[50], counts


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
    assert mat_mul(h.matrix, h.matrix) == linalg.identity(4)
    lat = action.lattice
    H2 = pl_reflection(lat.gram, linalg.identity(lat.rank)[1]).matrix
    H4 = pl_reflection(lat.gram, linalg.identity(lat.rank)[3]).matrix
    prod = mat_mul(H4, H2)
    for b, col in zip(sub.basis, linalg.transpose(h.matrix)):
        assert mat_vec(prod, b) == sub.embed(col)


def test_equivariant_generators_match_the_projector_on_random_actions():
    # every refusal of the construction occurs among these 400, told apart
    # by its message: the three checks of the action as it is built, a zero
    # sublattice, a non-orthogonal orbit and an isotropic or non-integral
    # cycle; and generators both with every orbit and with an orbit that
    # projects to zero left out
    stems = ("does not preserve the form", "is not an involution", "do not commute",
             "isotypic sublattice is zero", "in one orbit have product",
             "has self-intersection zero", "is not integral")
    kinds = set()
    for seed in range(400):
        dfile = random_action_file(random.Random(seed))
        new = generator_outcome(equivariant_generators, dfile)
        old = generator_outcome(equivariant_generators_by_projector, dfile)
        assert new == old, dfile
        if isinstance(new[0], type):
            kind, = [stem for stem in stems if stem in new[1]]
            kinds.add(kind)
        elif any(cycle is None for _, cycle in signed_orbits(*action_from_file(dfile))):
            kinds.add("generators, orbit left out")
        else:
            kinds.add("generators")
    assert kinds == {*stems, "generators", "generators, orbit left out"}


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
    assert linalg.is_zero_vec(mat_vec(sub.restricted_gram, w))


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
    assert not any(any(row) for row in mat_mul(U, U))  # (g-I)^2 = 0
    assert mat_vec(U, verdict.witness) == verdict.increment
    assert linalg.is_zero_vec(mat_vec(g.gram, verdict.increment))


def test_certificates_match_the_dense_reference():
    # on every certificate of 10,000 random actions, the not-simple fixtures
    # and the golden diagrams: a unipotent one has
    # c (g - I)^2 = (c rho - b rho') kappa^T, kappa = 2 alpha + (alpha . rho') beta
    # read off the factors, against the product (g - I)(g - I), and the
    # witness and increment of the dense reference; a residual one has the
    # trace of g on its plane as t, and g^2 - t g + I kills rho
    rng = random.Random(7)
    dfiles = [random_action_file(rng) for _ in range(10_000)]
    dfiles += [fixture_file(symbol) for symbol in ("M5", "M4", "X9")]
    dfiles += [parse_file((GOLDEN / f"{name}.diagram").read_text())
               for name in ("affine_e6", "affine_e8_a1", "t237", "triangle_w2")]
    counts = {"unipotent": 0, "kappa = 0": 0, "residual": 0}
    for dfile in dfiles:
        try:
            verdict = run_analysis(dfile).verdict
        except EqsingError:
            continue
        if verdict.kind != "infinite":
            continue
        g = verdict.certificate
        U = minus_identity(g.matrix)
        if verdict.residual_charpoly is None:
            alpha, beta = g.factors
            kappa = tuple(2 * a + _dot(alpha, g.rho_p) * b for a, b in zip(alpha, beta))
            b, c = product(g.gram, g.rho, g.rho_p), product(g.gram, g.rho_p, g.rho_p)
            u = tuple(c * x - b * y for x, y in zip(g.rho, g.rho_p))
            assert (tuple(tuple(c * x for x in row) for row in mat_mul(U, U))
                    == tuple(tuple(x * k for k in kappa) for x in u))
            assert (verdict.witness, verdict.increment) == index2_witness_dense(g.matrix)
            counts["unipotent"] += 1
            counts["kappa = 0"] += linalg.is_zero_vec(kappa)
        else:
            t, n = -verdict.residual_charpoly[1], g.rank
            assert t == g.trace
            g2 = mat_mul(g.matrix, g.matrix)
            Q = [[g2[i][j] - t * g.matrix[i][j] + int(i == j) for j in range(n)]
                 for i in range(n)]
            assert linalg.is_zero_vec(mat_vec(Q, g.rho))
            counts["residual"] += 1
    assert counts == {"unipotent": 136, "kappa = 0": 77, "residual": 37}


def test_validate_computes_no_inertia():
    # the witness law is the whole unipotent certificate, on a negative
    # semidefinite form too, so validate() reads no inertia of the form
    called = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_globals.get("__name__", "").startswith("eqsing."):
            called.add(frame.f_code.co_name)

    verdicts = [_certified(name).verdict for name in CERTIFIED]
    sys.setprofile(profile)
    try:
        assert all(verdict.validate() for verdict in verdicts)
    finally:
        sys.setprofile(None)
    assert "_check_word" in called and "inertia" not in called


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
    # a pair with b^2 = ac on a positive semidefinite form: the power-law
    # certificate holds on its own; the word names the two roots as the
    # generators h1 and h2
    gram = ((0, 0), (0, 2))
    g = MonodromyElement(gram, (0, 1), (1, 1), ("h1", "h2"), ((0, 1), (1, 1)))
    assert g.matrix == ((1, -2), (0, 1))
    assert Infinite(certificate=g, witness=(0, 1), increment=(-2, 0)).validate()


def test_general_case_spectral_infinite():
    # Pell isometry of diag(1, -2): eigenvalues 3 +- 2 sqrt 2, the roots of
    # x^2 - 6x + 1, off the unit circle
    gram = ((1, 0), (0, -2))
    g = MonodromyElement(gram, (1, 0), (2, 1), ("h1", "h2"), ((1, 0), (2, 1)))
    assert g.matrix == ((3, -4), (-2, 3))
    assert Infinite(certificate=g, residual_charpoly=(1, -6, 1)).validate()
    # a factor with no root among the eigenvalues, a trace of absolute
    # value 2 or less, or a leading coefficient other than 1 is refused
    for residual in ((1, -7, 1), (1, 6, 1), (1, -2, 1), (2, -6, 1)):
        with pytest.raises(AssertionError):
            Infinite(certificate=g, residual_charpoly=residual).validate()
    # -I, the product of two orthogonal reflections, has order 2, yet
    # g^2 + 2g + I = (g + I)^2 is zero: only |t| > 2 keeps it out
    h = MonodromyElement(gram, (1, 0), (0, 1), ("h1", "h2"), ((1, 0), (0, 1)))
    assert h.matrix == ((-1, 0), (0, -1))
    for residual in ((1, -2, 1), (1, 2, 1)):
        with pytest.raises(AssertionError, match=r"\|t\| > 2"):
            Infinite(certificate=h, residual_charpoly=residual).validate()


def test_generate_group_refuses_bad_generator_lists():
    # each bad form or root list is a typed refusal, never a failed invariant
    cases = [
        (A2.gram, [], "at least one root is required"),
        (A2.gram, [(1, 0, 0)], r"root h1 is no integer vector of length 2: \(1, 0, 0\)"),
        (A2.gram, [(1, 0), (1,)], r"root h2 is no integer vector of length 2: \(1,\)"),
        (A2.gram, [(0.5, 0)], r"root h1 is no integer vector of length 2: \(0.5, 0\)"),
        (A2.gram, [(0, 0)], "zero vector has no primitive representative"),
        (((0, 1), (1, 0)), [(1, 0)], r"cycle \(1, 0\) has self-intersection zero"),
        (((-4, 1), (1, -2)), [(0, 1), (1, 0)], r"reflection in \(1, 0\) is not integral"),
        (((-2, 1),), [(1, 0)], "gram matrix must be square"),
        (((-2, 1), (0, -2)), [(1, 0)], r"gram matrix not symmetric at \(0,1\)"),
    ]
    for gram, roots, match in cases:
        with pytest.raises(EqsingError, match=match) as info:
            generate_group(gram, roots)
        assert type(info.value) is EqsingError, info.value


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


def test_element_refuses_an_isotropic_or_non_integral_root():
    # the element is the product of two integral reflections, an isometry
    # by construction; what it checks is each root of the pair
    with pytest.raises(EqsingError, match=r"cycle \(1, 0\) has self-intersection zero"):
        MonodromyElement(((0, 1), (1, -2)), (0, 1), (1, 0))
    with pytest.raises(EqsingError, match="zero vector has no primitive representative"):
        MonodromyElement(A2.gram, (0, 0), (1, 0))
    with pytest.raises(EqsingError, match=r"reflection in \(1, 0\) is not integral"):
        MonodromyElement(((-4, 1), (1, -2)), (0, 1), (1, 0))
    # a root stands for its reflection: a multiple is kept as the primitive
    # root with its first nonzero entry positive
    g = MonodromyElement(A2.gram, (2, 0), (0, -3))
    assert (g.rho, g.rho_p) == ((1, 0), (0, 1))
    assert g == MonodromyElement(A2.gram, (1, 0), (0, 1))


# a bad root, on the form it is given on, and the refusal with {name} for
# the name each entry point gives it; None: the generator stage takes no
# root, as its cycles are the unit vectors e_i, so only a form can be bad
ISOTROPIC = ((0, 1), (1, -2))  # e_1 has norm 0
NOT_INTEGRAL = ((-4, 1), (1, -2))  # 2(e_2, e_1)/(e_1, e_1) = -1/2
BAD_ROOTS = {
    "short": (A2.gram, (1,), "{name} is no integer vector of length 2: (1,)"),
    "float": (A2.gram, (1.0, 0), "{name} is no integer vector of length 2: (1.0, 0)"),
    "zero": (A2.gram, (0, 0), "zero vector has no primitive representative"),
    "isotropic": (ISOTROPIC, (1, 0), "cycle (1, 0) has self-intersection zero"),
    "not integral": (NOT_INTEGRAL, (1, 0), "reflection in (1, 0) is not integral: "
                     "2(e_2, delta) delta is not divisible by (-4)"),
}
# entry point -> (the name it gives the root, a call with the bad root on
# the form); (0, 1) is a good root on all three forms
ROOT_ENTRIES = {
    "generate_group": ("root h1", lambda gram, root: generate_group(gram, [root])),
    "element rho": ("rho", lambda gram, root: MonodromyElement(gram, root, (0, 1))),
    "element rho_p": ("rho_p", lambda gram, root: MonodromyElement(gram, (0, 1), root)),
    "element generator": ("generator h1", lambda gram, root: MonodromyElement(
        gram, (0, 1), (0, 1), ("h1",), (root,))),
    "generator stage": (None, lambda gram, root: equivariant_generators(
        GroupAction((), IntLattice(gram)), ())),
}


@pytest.mark.parametrize("bad, entry", [
    (bad, entry) for bad in BAD_ROOTS for entry in ROOT_ENTRIES
    if ROOT_ENTRIES[entry][0] is not None or bad in ("isotropic", "not integral")])
def test_a_bad_root_is_refused_alike_at_every_entry(bad, entry):
    # every root enters through _mirror, so each entry point refuses a bad
    # root with the one message, before any search, product or replay
    gram, root, message = BAD_ROOTS[bad]
    name, call = ROOT_ENTRIES[entry]
    with pytest.raises(EqsingError, match=re.escape(message.format(name=name))):
        call(gram, root)


def test_invariant_failures_are_typed():
    # a certificate that fails its own check raises InternalError, which
    # is an EqsingError and still an AssertionError
    hh = MonodromyElement(A2.gram, (1, 0), (-1, 0), word=("h", "h"))
    with pytest.raises(InternalError, match="identity") as info:
        Infinite(certificate=hh, witness=(1, 0), increment=(0, 0)).validate()
    assert isinstance(info.value, AssertionError)


# the not-simple diagrams of tests/golden/ (M5 through its shipped fixture)
# at the caps of their machine goldens, and X9
CERTIFIED = {"M5": None, "X9": None, "affine_e6": 10**6, "affine_e8_a1": 1000, "t237": 100,
             "triangle_w2": 10**6}


def _certified(name):
    """The AnalysisOutcome behind one certificate of CERTIFIED."""
    if CERTIFIED[name] is None:
        return run_analysis(fixture_file(name))
    dfile = parse_file((GOLDEN / f"{name}.diagram").read_text())
    return run_analysis(dfile, cap=CERTIFIED[name])


def test_certificate_g_minus_identity_has_rank_at_most_two():
    # g - I = rho alpha^T + rho' beta^T.  Every class collision of a
    # semidefinite form has G rho' parallel to G rho, so alpha is parallel
    # to beta and the dense g - I has rank one; only the indefinite pairs
    # reach two
    outcomes = {name: _certified(name) for name in CERTIFIED}
    outcomes["M4"] = run_analysis(fixture_file("M4"))
    ranks = {name: len(linalg.hnf(minus_identity(out.verdict.certificate.matrix)))
             for name, out in outcomes.items()}
    assert ranks == {"M5": 1, "M4": 1, "X9": 1, "affine_e6": 1, "affine_e8_a1": 1,
                     "t237": 2, "triangle_w2": 2}
    assert all(out.inertia.negative_semidefinite == (ranks[name] == 1)
               for name, out in outcomes.items())


def _generators(out):
    """The reflections h1, ..., hr of an outcome, as dense elements."""
    return reflections(out.sublattice.restricted_gram, linalg.identity(out.sublattice.rank))


def _with_word(verdict, word):
    """`verdict` with the word of its certificate replaced by `word`."""
    g = verdict.certificate
    return Infinite(MonodromyElement(g.gram, g.rho, g.rho_p, word, g.generators),
                    verdict.witness, verdict.increment, verdict.residual_charpoly)


def test_a_certificate_from_minus_rho_is_the_same():
    # rho -> -rho turns G rho and b to their negatives, so alpha -> -alpha
    # and rho alpha^T stays: the same g, the matrix of the dense reflections
    # in the signed roots, and the same witness and word; the element keeps
    # rho and rho' with their first nonzero entry positive
    for name in CERTIFIED:
        verdict = _certified(name).verdict
        g = verdict.certificate
        for sign, sign_p in ((-1, 1), (1, -1), (-1, -1)):
            rho, rho_p = tuple(sign * x for x in g.rho), tuple(sign_p * x for x in g.rho_p)
            h = MonodromyElement(g.gram, rho, rho_p, g.word, g.generators)
            dense = mat_mul(pl_reflection(g.gram, rho).matrix, pl_reflection(g.gram, rho_p).matrix)
            assert h == g and h.matrix == g.matrix == dense, (name, sign, sign_p)
            assert Infinite(h, verdict.witness, verdict.increment,
                            verdict.residual_charpoly).validate()


def _halves(word):
    """The first cut of `word` into two odd palindromes."""
    return next((word[:k], word[k:]) for k in range(1, len(word), 2)
                if word[:k] == word[:k][::-1] and word[k:] == word[k:][::-1])


def _mutants(word, letters):
    """(kind, mutated word): one letter swapped for another of `letters`,
    one pair of mirror letters of a palindrome half dropped, and the centre
    letter of a half doubled, which leaves an even palindrome that denotes
    I.  A long word is mutated at about a dozen positions, its ends
    included."""
    step = max(1, len(word) // 12)
    for i in sorted(set(range(0, len(word), step)) | {len(word) - 1}):
        for letter in letters:
            if letter != word[i]:
                yield "swapped letter", word[:i] + (letter,) + word[i + 1:]
    first, second = _halves(word)
    for half, build in ((first, lambda h: h + second), (second, lambda h: first + h)):
        for p in range(0, len(half) // 2, step):
            yield "dropped pair", build(half[:p] + half[p + 1:len(half) - 1 - p]
                                        + half[len(half) - p:])
        centre = len(half) // 2
        yield "doubled centre", build(half[:centre + 1] + half[centre:])


@pytest.mark.parametrize("name", CERTIFIED)
def test_a_word_that_does_not_replay_is_refused(name):
    # a swapped letter, a dropped palindrome pair, a doubled centre letter
    # or a word of another root: every mutant that multiplies out to
    # another element is refused, by the generator roots that travel with
    # the certificate
    out = _certified(name)
    verdict, gens = out.verdict, _generators(out)
    g = verdict.certificate
    assert verdict.validate()
    first, second = _halves(g.word)
    other = next(f"h{i + 1}" for i, e in enumerate(linalg.identity(g.rank))
                 if e not in (g.rho, tuple(-x for x in g.rho)))
    mutants = [("another root", second + first), ("another root", (other,) + second)]
    mutants += _mutants(g.word, [h.word[0] for h in gens])
    refused = {}
    for kind, word in mutants:
        if evaluate_word(gens, word) == g.matrix:
            continue  # the mutant is a word for g too
        with pytest.raises(InternalError, match="does not replay"):
            _with_word(verdict, word).validate()
        refused[kind] = refused.get(kind, 0) + 1
    assert refused["another root"] == refused["doubled centre"] == 2
    assert refused["swapped letter"] >= len(g.word) // 12
    assert ("dropped pair" in refused) == (len(g.word) > 2)


def test_a_word_naming_no_generator_is_refused():
    out = _certified("M5")
    for word in (("h2", "h1", "h3", "h6"), ("h2", "h1", "h3", "x1")):
        with pytest.raises(InternalError, match="names none of its 5 generators"):
            _with_word(out.verdict, word).validate()
    with pytest.raises(InternalError, match="does not replay"):
        _with_word(out.verdict, ()).validate()
    # a generator root of norm 0 has no reflection to replay, and is refused
    # as the certificate is built
    with pytest.raises(EqsingError, match=r"cycle \(1, 0\) has self-intersection zero"):
        MonodromyElement(((0, 0), (0, 2)), (0, 1), (1, 1), ("h1", "h2"), ((1, 0), (1, 1)))


def test_analysis_refuses_a_certificate_over_other_generators(monkeypatch):
    # validate() proves membership in the group of the certificate's own
    # generators; run_analysis ties them to the analysis' generator roots.
    # A certificate whose generators are its own pair with the word h1 h2
    # validates, yet is refused there, as are the true roots with one more
    def rebuilt(generators_of):
        def fake(gram, roots, cap=10**6, sig=None):
            verdict = generate_group(gram, roots, cap=cap, sig=sig)
            g = verdict.certificate
            word, generators = generators_of(g)
            verdict = Infinite(MonodromyElement(g.gram, g.rho, g.rho_p, word, generators),
                               verdict.witness, verdict.increment, verdict.residual_charpoly)
            verdict.validate()
            return verdict
        return fake

    for generators_of in (lambda g: (("h1", "h2"), (g.rho, g.rho_p)),
                          lambda g: (g.word, g.generators + (g.rho,))):
        monkeypatch.setattr(monodromy, "generate_group", rebuilt(generators_of))
        with pytest.raises(InternalError, match="generators are not the analysis'"):
            run_analysis(fixture_file("M5"))


def test_every_random_certificate_replays():
    # every Infinite verdict of 3,000 random actions replays its word to its
    # root pair with no argument, multiplies out to its matrix, and its word
    # with the halves exchanged, a word for g^-1, is refused
    rng = random.Random(37)
    count = 0
    for _ in range(3000):
        try:
            out = run_analysis(random_action_file(rng), cap=2000)
        except EqsingError:
            continue
        verdict = out.verdict
        if verdict.kind != "infinite":
            continue
        g = verdict.certificate
        assert verdict.validate()
        assert evaluate_word(_generators(out), g.word) == g.matrix
        first, second = _halves(g.word)
        with pytest.raises(InternalError, match="does not replay"):
            _with_word(verdict, second + first).validate()
        count += 1
    assert count == 55


def test_reflect_refuses_a_non_integral_move():
    # a root moves with its image G r, and k = 2(r, delta)/(delta, delta)
    # is read off the image; the reflection in e_1 on this form is not
    # integral, and moving e_2 by it would take k = 2/(-4)
    # (_mirror refuses that root, so its mirror is built by hand)
    gram = ((-4, 1), (1, -2))
    e1, e2 = ((1, 0), gram[0]), ((0, 1), gram[1])
    mirror = mirror_of(*e1)
    assert _reflect(e1, mirror) == ((-1, 0), (4, -1))
    with pytest.raises(InternalError, match="non-integral multiple") as info:
        _reflect(e2, mirror)
    assert isinstance(info.value, AssertionError)
    # a reflection that fixes a root gives back the root object itself
    fixed = ((0, 1), (0, -2))
    assert _reflect(fixed, _mirror("root", (1, 0), ((-2, 0), (0, -2)))) is fixed


def test_general_case_unknown_at_cap():
    verdict = generate_group(((2, -1), (-1, 2)), linalg.identity(2), cap=3)
    assert isinstance(verdict, Unknown) and verdict.cap == 3


def test_group_elements_preserve_form():
    sub, gens = m5_gens()
    G = sub.restricted_gram
    # spot-check a few products (preservation is also enforced on
    # construction of every DenseElement)
    p = word_element(gens, ("h1", "h2", "h5"))
    Gt = mat_mul(mat_mul(linalg.transpose(p.matrix), G), p.matrix)
    assert Gt == G


# --------------------------------------------------------------------------
# power laws


def test_power_law_identity():
    sub, gens = m5_gens()
    I = MonodromyElement(sub.restricted_gram, (1, 0, 0, 0, 0), (1, 0, 0, 0, 0))
    assert I.is_identity
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
    assert linalg.is_zero_vec(mat_vec(sub.restricted_gram, w))
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
    w = tuple(a - b for a, b in zip(mat_vec(h.matrix, v), v))
    assert power_law_check(h, v, w, 5) == 2


MALFORMED_VECTORS = {"short": lambda v: v[:-1], "long": lambda v: v + (0,),
                     "float": lambda v: tuple(map(float, v))}


@pytest.mark.parametrize("field", ["witness", "increment"])
@pytest.mark.parametrize("malformed", MALFORMED_VECTORS)
def test_a_malformed_witness_is_refused(malformed, field):
    # a witness or increment that is no integer vector of length n is
    # refused before any product, by validate and power_law_check alike,
    # where zipping it against g would cut it short or take its floats
    verdict = _certified("M5").verdict
    g = verdict.certificate
    vectors = {"witness": verdict.witness, "increment": verdict.increment}
    vectors[field] = MALFORMED_VECTORS[malformed](vectors[field])
    message = re.escape(f"{field} is no integer vector of length {g.rank}: ")
    with pytest.raises(EqsingError, match=message):
        Infinite(certificate=g, **vectors).validate()
    with pytest.raises(EqsingError, match=message):
        power_law_check(g, vectors["witness"], vectors["increment"], 5)


@pytest.mark.parametrize("cap", [-5, 1.5, "5", None, True])
def test_a_cap_that_is_no_count_is_refused(cap):
    # a library cap is refused as --cap is, not answered with Unknown(cap)
    # nor left to a TypeError
    message = re.escape(f"cap must be an integer >= 0, got {cap!r}")
    with pytest.raises(EqsingError, match=message):
        run_analysis(fixture_file("M5"), cap=cap)
    with pytest.raises(EqsingError, match=message):
        generate_group(A2.gram, linalg.identity(2), cap=cap)


def test_power_law_steps_a_certificate_by_its_factors():
    # power_law_check steps a MonodromyElement as x + (g - I) x from its
    # root pair; on every unipotent certificate of the goldens and X9 it
    # agrees with the same law stepped by the rendered matrix
    checked = 0
    for name in CERTIFIED:
        verdict = _certified(name).verdict
        if verdict.witness is None:
            continue
        g, v, w = verdict.certificate, verdict.witness, verdict.increment
        dense = DenseElement(g.matrix, g.gram)
        assert power_law_check(g, v, w, 5) is None is power_law_check(dense, v, w, 5)
        doubled = tuple(2 * x for x in w)
        assert power_law_check(g, v, doubled, 5) == 1 == power_law_check(dense, v, doubled, 5)
        checked += 1
    assert checked == 6
