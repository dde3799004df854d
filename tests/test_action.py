"""Group actions: validation, isotypic sublattices, signed orbits."""
import itertools
from math import gcd

import pytest

from eqsing import linalg
from eqsing.action import (
    Character,
    GroupAction,
    SignedPermutation,
    corner_rule,
    isotypic_sublattice,
    signed_orbits,
    signed_permutation_from_file,
    validate_action,
    z2_rule,
)
from eqsing.catalog import action_from_file, fixture_file
from eqsing.diagram import to_lattice
from eqsing.errors import (
    EqsingError,
    NotCommutingError,
    NotInvolutionError,
    NotIsometryError,
)
from eqsing.lattice import IntLattice, Sublattice
from eqsing.localalg import LocalAlgebraReport
from oracles import character_projection, group_elements, isotypic_rank_rational


A2 = IntLattice(((-2, 1), (1, -2)))


def m5_setup():
    df = fixture_file("M5")
    return action_from_file(df)


def m4_setup():
    df = fixture_file("M4")
    return action_from_file(df)


def test_signed_permutation_validation():
    with pytest.raises(ValueError):
        SignedPermutation(images=((0, 1), (0, 1)))  # not a bijection
    with pytest.raises(ValueError):
        SignedPermutation(images=((0, 2),))  # bad sign
    sp = SignedPermutation(images=((1, 1), (0, -1)))
    assert sp.matrix == ((0, -1), (1, 0))
    assert sp.apply((1, 0)) == (0, 1)


@pytest.mark.parametrize("build, base", [
    pytest.param(lambda: SignedPermutation(images=((0, 1), (0, 1))), ValueError,
                 id="not-a-bijection"),
    pytest.param(lambda: SignedPermutation(images=((0, 2),)), ValueError, id="bad-sign"),
    pytest.param(lambda: signed_permutation_from_file(((1, 1, 1),), (1, 2)), ValueError,
                 id="uncovered-vertex"),
    pytest.param(lambda: signed_permutation_from_file(((1, 3, 1), (2, 2, 1)), (1, 2)),
                 ValueError, id="unknown-vertex"),
    pytest.param(lambda: linalg.primitive((0, 0)), ValueError, id="primitive-of-zero"),
    pytest.param(lambda: Character(values=(("s", 0),)), ValueError, id="character-value"),
    pytest.param(lambda: Character(values=(("s", 1),)).of("t"), KeyError,
                 id="character-of"),
    pytest.param(lambda: GroupAction(generators=(("s", SignedPermutation(((0, 1),))),) * 2,
                                     lattice=IntLattice(((-2,),))), ValueError,
                 id="duplicate-name"),
    pytest.param(lambda: GroupAction(generators=(("s", SignedPermutation(((0, 1),))),),
                                     lattice=A2), ValueError, id="size-mismatch"),
    pytest.param(lambda: IntLattice(((-2, 1), (0, -2))), ValueError, id="not-symmetric"),
    pytest.param(lambda: IntLattice(((-2, 1),)), ValueError, id="not-square"),
    pytest.param(lambda: IntLattice(((-2,),), labels=("a", "b")), ValueError,
                 id="labels"),
    pytest.param(lambda: Sublattice(A2, ((2, 0),)), ValueError, id="not-saturated"),
    pytest.param(lambda: LocalAlgebraReport(1, (((1,), 1),), 2).dim_of((-1,)), KeyError,
                 id="dim-of"),
])
def test_library_boundary_errors_are_typed(build, base):
    with pytest.raises(EqsingError) as info:
        build()
    assert isinstance(info.value, base)


def test_validate_identity_ok():
    act = GroupAction(
        generators=(("e", SignedPermutation(images=((0, 1), (1, 1)))),), lattice=A2
    )
    assert validate_action(act) is None


def test_validate_m5_central_symmetry_ok():
    action, _ = m5_setup()
    assert validate_action(action) is None


def test_validate_not_isometry():
    # swap (1 2) with signs (+1, -1) breaks the A2 form
    act = GroupAction(
        generators=(("s", SignedPermutation(images=((1, 1), (0, -1)))),), lattice=A2
    )
    with pytest.raises(NotIsometryError):
        validate_action(act)


def test_validate_not_involution():
    # 3-cycle is not an involution
    lat = IntLattice(((-2, 0, 0), (0, -2, 0), (0, 0, -2)))
    act = GroupAction(
        generators=(("r", SignedPermutation(images=((1, 1), (2, 1), (0, 1)))),),
        lattice=lat,
    )
    with pytest.raises(NotInvolutionError):
        validate_action(act)


def test_validate_not_commuting():
    # two transpositions with overlapping support on a diagonal form
    lat = IntLattice(((-2, 0, 0), (0, -2, 0), (0, 0, -2)))
    s1 = SignedPermutation(images=((1, 1), (0, 1), (2, 1)))
    s2 = SignedPermutation(images=((0, 1), (2, 1), (1, 1)))
    act = GroupAction(generators=(("a", s1), ("b", s2)), lattice=lat)
    with pytest.raises(NotCommutingError):
        validate_action(act)


def test_character_rules():
    assert z2_rule(1).values == (("sigma", -1),)
    assert z2_rule(2).values == (("sigma", 1),)
    assert corner_rule(2).values == (("s1", -1), ("s2", -1))


def test_isotypic_m5():
    action, chi = m5_setup()
    assert chi.values == (("sigma", 1),)  # z2 rule for m = 2
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
    sub = isotypic_sublattice(act, Character(values=()))
    assert sub.rank == 2
    assert sub.restricted_gram == A2.gram


def test_isotypic_vectors_satisfy_eigenvalue_equation():
    for setup in (m5_setup, m4_setup):
        action, chi = setup()
        sub = isotypic_sublattice(action, chi)
        for name, g in action.generators:
            c = chi.of(name)
            for b in sub.basis:
                assert g.apply(b) == tuple(c * x for x in b)


def test_rank_additivity_over_characters():
    for setup in (m5_setup, m4_setup):
        action, _ = setup()
        names = action.names
        total = 0
        for signs in itertools.product((1, -1), repeat=len(names)):
            chi = Character(values=tuple(zip(names, signs)))
            total += isotypic_rank_rational(action, chi)
        assert total == action.lattice.rank


def test_restricted_gram_preserved_by_commuting_operators():
    # any group element commutes with the action and preserves the
    # restricted gram of the isotypic piece
    action, chi = m5_setup()
    sub = isotypic_sublattice(action, chi)
    for _, M in group_elements(action):
        img = [linalg.mat_vec(M, b) for b in sub.basis]
        gram = [
            [action.lattice.product(a, b) for b in img] for a in img
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
    assert signed_orbits(trivial, Character(values=())) == (
        ((0,), (1, 0, 0)), ((1,), (0, 1, 0)), ((2,), (0, 0, 1)))
    # chi = -1 on the M5 swap: the fixed Delta1 carries no chi-vector, and
    # the pair (2, 4) carries Delta2 - Delta4
    anti = signed_orbits(action, Character(values=(("sigma", -1),)))
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
    assert linalg.saturation(image) == sub.basis
