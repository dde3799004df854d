"""Group actions: the checks of an action as it is built, isotypic
sublattices, signed orbits."""
import inspect
import itertools
import random
from math import gcd

import pytest

from eqsing import linalg
from eqsing.action import GroupAction, isotypic_sublattice, signed_orbits
from eqsing.catalog import fixture_file, normal_form
from eqsing.diagram import DiagramFile, DynkinDiagram
from eqsing.errors import DiagramError, EqsingError
from eqsing.lattice import IntLattice
from eqsing.localalg import LocalAlgebraReport, PolyGerm
from eqsing.monodromy import action_from_file, generate_group
from oracles import (
    action_tables,
    character_projection,
    group_elements,
    isotypic_rank_rational,
    mat_vec,
    permutation_matrix,
    product,
    random_action_file,
    saturation,
    validate_action_by_matrices,
)
from test_catalog import GOLDEN_FIXTURES


A2 = IntLattice(((-2, 1), (1, -2)))
A2_DIAGRAM = DynkinDiagram(((1, -2), (2, -2)), ((1, 2, 1),))


def m5_setup():
    df = fixture_file("M5")
    return action_from_file(df)


def m4_setup():
    df = fixture_file("M4")
    return action_from_file(df)


def test_signed_permutation_validation():
    # GroupAction checks each image table: a bijection of the basis cycles
    # with signs +-1, or an error naming the generator
    with pytest.raises(EqsingError, match="generator s is not a bijection"):
        GroupAction((("s", ((0, 1), (0, 1))),), A2)
    with pytest.raises(EqsingError, match="generator s has a sign"):
        GroupAction((("s", ((0, 2),)),), IntLattice(((-2,),)))
    swap = ((1, -1), (0, -1))
    assert GroupAction((("s", swap),), A2).generators == (("s", swap),)
    # column i of the matrix holds s at row j: the quarter turn, which is
    # no involution, tells the matrix from its transpose
    table = ((1, 1), (0, -1))
    assert permutation_matrix(table) == ((0, -1), (1, 0))
    assert mat_vec(permutation_matrix(table), (1, 0)) == (0, 1)


def test_built_diagram_file_checks_the_generators_like_a_parsed_one():
    # the check of a generator's vertex ids lives in DiagramFile alone: a
    # file built in code gets the message and the place in the order of
    # checks that parse_file gives
    bad = (("s", ((1, 1, 1),)),), (("s", ((1, 3, 1), (2, 2, 1))),)
    for generators in bad:
        with pytest.raises(DiagramError,
                           match="generator s must map the vertex set bijectively"):
            # the character is wrong too, and the generators are checked first
            DiagramFile(A2_DIAGRAM, generators, (("t", 1),))
    swap = (("s", ((2, 1, -1), (1, 2, -1))),)
    action, chi = action_from_file(DiagramFile(A2_DIAGRAM, swap, (("s", -1),)))
    assert action.generators == (("s", ((1, -1), (0, -1))),) and chi == (-1,)


@pytest.mark.parametrize("build, cls, message", [
    pytest.param(lambda: GroupAction((("s", ((0, 1), (0, 1))),), A2), EqsingError,
                 "generator s is not a bijection of the 2 basis cycles", id="not-a-bijection"),
    pytest.param(lambda: GroupAction((("s", ((0, 2),)),), IntLattice(((-2,),))),
                 EqsingError, r"generator s has a sign other than \+1 or -1", id="bad-sign"),
    pytest.param(lambda: DiagramFile(A2_DIAGRAM, (("s", ((1, 1, 1),)),)), DiagramError,
                 "generator s must map the vertex set bijectively", id="uncovered-vertex"),
    pytest.param(lambda: DiagramFile(A2_DIAGRAM, (("s", ((1, 3, 1), (2, 2, 1))),)),
                 DiagramError, "generator s must map the vertex set bijectively",
                 id="unknown-vertex"),
    pytest.param(lambda: linalg.primitive((0, 0)), EqsingError,
                 "zero vector has no primitive representative", id="primitive-of-zero"),
    pytest.param(lambda: signed_orbits(m5_setup()[0], (0,)), EqsingError,
                 r"character values must be \+1 or -1", id="character-value"),
    pytest.param(lambda: signed_orbits(m5_setup()[0], (1, 1)), EqsingError,
                 "character has 2 values for 1 generators", id="character-length"),
    pytest.param(lambda: GroupAction((("s", ((0, 1),)),) * 2, IntLattice(((-2,),))),
                 EqsingError, "generator names must be unique", id="duplicate-name"),
    pytest.param(lambda: GroupAction((("s", ((0, 1),)),), A2), EqsingError,
                 "generator s is not a bijection of the 2 basis cycles", id="size-mismatch"),
    pytest.param(lambda: IntLattice(((-2, 1), (0, -2))), EqsingError,
                 r"gram matrix not symmetric at \(0,1\)", id="not-symmetric"),
    pytest.param(lambda: IntLattice(((-2, 1),)), EqsingError, "gram matrix must be square",
                 id="not-square"),
    pytest.param(lambda: IntLattice(((-2, 1), ())), EqsingError, "gram matrix must be square",
                 id="ragged"),
    # a form with an entry that is no int is no integer lattice, so it is
    # refused by the entry before generate_group reads its roots
    pytest.param(lambda: IntLattice((("x",),)), EqsingError,
                 r"^gram matrix entry \(0,0\) is not an integer: 'x'$", id="not-an-int"),
    pytest.param(lambda: generate_group(((-1.5,),), [(1,)]), EqsingError,
                 r"^gram matrix entry \(0,0\) is not an integer: -1.5$", id="float-diagonal"),
    pytest.param(lambda: generate_group(((-2, 0.5), (0.5, -2)), [(1, 0), (0, 1)]), EqsingError,
                 r"^gram matrix entry \(0,1\) is not an integer: 0.5$", id="float-off-diagonal"),
    pytest.param(lambda: PolyGerm({(2,): 1}, -1, 2), EqsingError,
                 "^variable counts must be integers >= 0, got -1, 2$", id="negative-count"),
    pytest.param(lambda: LocalAlgebraReport((((1,), 1),), 2).dim_of((-1,)), EqsingError,
                 r"no character \(-1,\) in this report", id="dim-of"),
    # every file DiagramFile takes round-trips through serialize and
    # parse_file, which write and read one sign per image and value
    pytest.param(lambda: DiagramFile(A2_DIAGRAM, (("s", ((1, 1, 3), (2, 2, 1))),)),
                 DiagramError, r"^generator s has a sign other than \+1 or -1$",
                 id="file-sign-3"),
    pytest.param(lambda: DiagramFile(A2_DIAGRAM, (("s", ((1, 1, 1), (2, 2, 1))),),
                                     (("s", 0),)),
                 DiagramError, r"^character value of generator s must be \+1 or -1, got 0$",
                 id="file-character-0"),
    pytest.param(lambda: PolyGerm({(2,): object()}, 0, 1), EqsingError,
                 "^bad coefficient <object object at", id="coefficient-object"),
    pytest.param(lambda: PolyGerm({(2,): float("nan")}, 0, 1), EqsingError,
                 "^bad coefficient nan$", id="coefficient-nan"),
    pytest.param(lambda: PolyGerm({(2,): float("inf")}, 0, 1), EqsingError,
                 "^bad coefficient inf$", id="coefficient-inf"),
    pytest.param(lambda: PolyGerm({(2, 0): 1}, 0, 1), EqsingError,
                 "^exponent length does not match variable count$", id="exponent-length"),
    pytest.param(lambda: normal_form("X9", modulus=object()), EqsingError,
                 "^X9: bad modulus <object object at", id="modulus-object"),
    pytest.param(lambda: normal_form("X9", modulus=float("inf")), EqsingError,
                 "^X9: bad modulus inf$", id="modulus-inf"),
])
def test_library_boundary_errors_are_typed(build, cls, message):
    with pytest.raises(cls, match=message) as info:
        build()
    assert type(info.value) is cls


def test_validate_identity_ok():
    table = ((0, 1), (1, 1))
    act = GroupAction(generators=(("e", table),), lattice=A2)
    assert act.generators == (("e", table),)


def test_validate_m5_central_symmetry_ok():
    action, _ = m5_setup()
    assert [name for name, _ in action.generators] == ["sigma"]


def test_validate_not_isometry():
    # swap (1 2) with signs (+1, -1) breaks the A2 form
    with pytest.raises(EqsingError,
                       match=r"generator s does not preserve the form \(entry \(0, 1\)\)"):
        GroupAction(generators=(("s", ((1, 1), (0, -1))),), lattice=A2)


def test_validate_not_involution():
    # 3-cycle is not an involution
    lat = IntLattice(((-2, 0, 0), (0, -2, 0), (0, 0, -2)))
    with pytest.raises(EqsingError, match=r"generator r is not an involution \(entry \(0, 0\)"):
        GroupAction(generators=(("r", ((1, 1), (2, 1), (0, 1))),), lattice=lat)


def test_validate_not_commuting():
    # two transpositions with overlapping support on a diagonal form
    lat = IntLattice(((-2, 0, 0), (0, -2, 0), (0, 0, -2)))
    s1 = ((1, 1), (0, 1), (2, 1))
    s2 = ((0, 1), (2, 1), (1, 1))
    with pytest.raises(EqsingError, match=r"generators a, b do not commute \(entry \(0, 1\)\)"):
        GroupAction(generators=(("a", s1), ("b", s2)), lattice=lat)


def _random_signed_permutation(rng, n):
    targets = list(range(n))
    rng.shuffle(targets)
    return tuple((j, rng.choice((1, -1))) for j in targets)


def _validation_outcome(check, generators, lattice):
    """None when `check(generators, lattice)` accepts, else the type and
    message of its EqsingError."""
    try:
        check(generators, lattice)
    except EqsingError as exc:
        return type(exc), str(exc)
    return None


def test_validate_action_matches_the_matrix_products():
    # building the action gives the error message, with the witness entry of
    # the matrix identities, on every fixture action and 6,000 seeded ones:
    # random diagram+action files, random signed permutations on random
    # forms, and on a diagonal form, which every signed permutation keeps,
    # so that the involution and commutation checks are reached
    rng = random.Random(14)
    fixtures = [fixture_file(s, k) for s, k in GOLDEN_FIXTURES]
    cases = [action_tables(dfile) for dfile in fixtures]
    assert [GroupAction(*case) for case in cases] == [
        action_from_file(dfile)[0] for dfile in fixtures]
    cases += [action_tables(random_action_file(rng)) for _ in range(2000)]
    for diagonal in (False, True):
        for _ in range(2000):
            n = rng.randint(1, 4)
            gram = [[-2 if i == j else 0 for j in range(n)] for i in range(n)]
            if not diagonal:
                for i, j in itertools.combinations_with_replacement(range(n), 2):
                    gram[i][j] = gram[j][i] = rng.choice((-2, -2, -1, 0, 0, 1, 2))
            gens = tuple((f"g{k + 1}", _random_signed_permutation(rng, n))
                         for k in range(rng.randint(1, 3)))
            cases.append((gens, IntLattice(gram)))
    stems = ("does not preserve the form", "is not an involution", "do not commute")
    kinds = set()
    for generators, lattice in cases:
        got = _validation_outcome(GroupAction, generators, lattice)
        assert got == _validation_outcome(validate_action_by_matrices, generators, lattice)
        kinds.add(None if got is None else next(k for k in stems if k in got[1]))
    assert kinds == {None, *stems}


def test_validate_action_calls_no_linalg(monkeypatch):
    # the checks read the image tables: no matrix is built or multiplied
    def refuse(*args, **kwargs):
        raise AssertionError("GroupAction called a linalg routine")

    cases = [action_tables(fixture_file(s, k)) for s, k in GOLDEN_FIXTURES]
    for name, _ in inspect.getmembers(linalg, inspect.isfunction):
        monkeypatch.setattr(linalg, name, refuse)
    for generators, lattice in cases:
        assert GroupAction(generators, lattice).lattice is lattice


def test_isotypic_m5():
    action, chi = m5_setup()
    assert chi == (1,)  # z2 rule for m = 2
    sub = isotypic_sublattice(action, chi)
    assert sub.rank == 5
    assert sub.basis == (
        (1, 0, 0, 0, 0, 0, 0, 0, 0),
        (0, 1, 0, 1, 0, 0, 0, 0, 0),
        (0, 0, 1, 0, 1, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 1, 0, 1, 0),
        (0, 0, 0, 0, 0, 0, 1, 0, 1),
    )


def test_isotypic_m4():
    action, chi = m4_setup()
    sub = isotypic_sublattice(action, chi)
    assert sub.rank == 4
    assert sub.basis[3] == (0, 0, 0, 0, 0, 1, 1, 1, 1)  # delta4 = D6+D7+D8+D9


def test_isotypic_trivial_action():
    act = GroupAction(generators=(), lattice=A2)
    sub = isotypic_sublattice(act, ())
    assert sub.rank == 2
    assert sub.restricted_gram == A2.gram


def test_isotypic_vectors_satisfy_eigenvalue_equation():
    for setup in (m5_setup, m4_setup):
        action, chi = setup()
        sub = isotypic_sublattice(action, chi)
        for c, (_, g) in zip(chi, action.generators):
            for b in sub.basis:
                assert mat_vec(permutation_matrix(g), b) == tuple(c * x for x in b)


def test_rank_additivity_over_characters():
    for setup in (m5_setup, m4_setup):
        action, _ = setup()
        total = 0
        for chi in itertools.product((1, -1), repeat=len(action.generators)):
            total += isotypic_rank_rational(action, chi)
        assert total == action.lattice.rank


def test_restricted_gram_preserved_by_commuting_operators():
    # any group element commutes with the action and preserves the
    # restricted gram of the isotypic piece
    action, chi = m5_setup()
    sub = isotypic_sublattice(action, chi)
    for _, M in group_elements(action):
        img = [mat_vec(M, b) for b in sub.basis]
        gram = [
            [product(action.lattice.gram, a, b) for b in img] for a in img
        ]
        assert linalg.freeze(gram) == sub.restricted_gram


def test_orbit_decomposition_examples():
    action, chi = m5_setup()
    orbits = signed_orbits(action, chi)
    assert tuple(o for o, _ in orbits) == ((0,), (1, 3), (2, 4), (5, 7), (6, 8))
    assert orbits[1][1] == (0, 1, 0, 1, 0, 0, 0, 0, 0)
    action4, chi4 = m4_setup()
    orbits4 = signed_orbits(action4, chi4)
    assert tuple(o for o, _ in orbits4) == ((0,), (1, 3), (2, 4), (5, 6, 7, 8))
    assert orbits4[3][1] == (0, 0, 0, 0, 0, 1, 1, 1, 1)
    lat = IntLattice(((-2, 0, 0), (0, -2, 0), (0, 0, -2)))
    trivial = GroupAction(generators=(), lattice=lat)
    assert signed_orbits(trivial, ()) == (
        ((0,), (1, 0, 0)), ((1,), (0, 1, 0)), ((2,), (0, 0, 1)))
    # chi = -1 on the M5 swap: the fixed Delta1 carries no chi-vector, and
    # the pair (2, 4) carries Delta2 - Delta4
    anti = signed_orbits(action, (-1,))
    assert anti[0] == ((0,), None)
    assert anti[1] == ((1, 3), (0, 1, 0, -1, 0, 0, 0, 0, 0))


def test_character_projection_projector_identity():
    # the signed orbit sums span the saturated projector image
    action, chi = m5_setup()
    sub = isotypic_sublattice(action, chi)
    n = action.lattice.rank
    cols = []
    for j in range(n):
        e = tuple(1 if t == j else 0 for t in range(n))
        p = character_projection(action, chi, e)
        den = 1
        for x in p:
            den = den * x.denominator // gcd(den, x.denominator)
        cols.append(tuple(int(x * den) for x in p))
    image = [c for c in cols if any(c)]
    assert saturation(image) == sub.basis
