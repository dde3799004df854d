"""Diagram codec: parsing, serialization, the fig1 encoding gate."""
import random

import pytest

from eqsing.action import isotypic_sublattice
from eqsing.catalog import fixture_file
from eqsing.diagram import (
    DiagramFile,
    DynkinDiagram,
    parse_file,
    serialize,
    to_lattice,
)
from eqsing.errors import DiagramError
from eqsing.monodromy import action_from_file, run_analysis
from oracles import product, random_action_file

A2_TEXT = """\
vertex 1 self=-2
vertex 2 self=-2
edge 1 2 w=1
"""

NABLA_AMB = (2, 1, 1, 1, 1, 0, 0, 0, 0)
NABLA_P_AMB = (0, 1, 1, 1, 1, 1, 1, 1, 1)


def test_parse_a2():
    d = parse_file(A2_TEXT).diagram
    assert d.vertices == ((1, -2), (2, -2))
    assert d.edges == ((1, 2, 1),)
    assert to_lattice(d).gram == ((-2, 1), (1, -2))


def test_parse_comments_and_blank_lines():
    d = parse_file("# heading\n\nvertex 1 self=-2  # trailing\n").diagram
    assert d.rank == 1


def test_parse_errors_carry_line_numbers():
    with pytest.raises(DiagramError, match="line 2: unknown directive 'vertx'") as err:
        parse_file("vertex 1 self=-2\nvertx 2 self=-2\n")
    assert err.value.line == 2
    with pytest.raises(DiagramError, match="line 2: vertex 1 already declared") as err:
        parse_file("vertex 1 self=-2\nvertex 1 self=-2\n")
    assert err.value.line == 2
    with pytest.raises(DiagramError, match="line 2: edge 1 7 references unknown vertex") as err:
        parse_file("vertex 1 self=-2\nedge 1 7 w=1\n")
    assert err.value.line == 2
    with pytest.raises(DiagramError, match="line 4: more than one edge between 1 and 2") as err:
        parse_file(A2_TEXT + "edge 2 1 w=-1\n")
    assert err.value.line == 4
    with pytest.raises(DiagramError, match="line 2: edge 1 1: loops are not allowed"):
        parse_file("vertex 1 self=-2\nedge 1 1 w=1\n")
    with pytest.raises(DiagramError, match="line 1: file declares no vertices"):
        parse_file("")


def test_zero_weight_rejected():
    with pytest.raises(DiagramError, match="line 3: edge 1 2: weight must be nonzero") as err:
        parse_file("vertex 1 self=-2\nvertex 2 self=-2\nedge 1 2 w=0\n")
    assert err.value.line == 3


@pytest.mark.parametrize("vertices, edges, message", [
    pytest.param((1, 2), ((1, 1, 1),), "edge 1 1: loops are not allowed", id="loop"),
    pytest.param((1, 2), ((1, 2, 0),), "edge 1 2: weight must be nonzero", id="zero weight"),
    pytest.param((1, 2), ((1, 7, 1),), "edge 1 7 references unknown vertex",
                 id="dangling end"),
    pytest.param((1, 2), ((1, 2, 1), (2, 1, -1)), "more than one edge between 1 and 2",
                 id="duplicate edge"),
    pytest.param((1, 2, 1), (), "vertex 1 already declared", id="duplicate vertex"),
    pytest.param((2, -1), (), "vertex -1: ids must be >= 0", id="negative id"),
])
def test_diagram_checks_carry_the_line_when_parsed(vertices, edges, message):
    # the same check serves both routes; only the parser knows the line
    with pytest.raises(DiagramError) as direct:
        DynkinDiagram(vertices=tuple((v, -2) for v in vertices), edges=edges)
    assert direct.value.line is None and str(direct.value) == message
    text = "".join(f"vertex {v} self=-2\n" for v in vertices)
    text += "".join(f"edge {i} {j} w={w}\n" for i, j, w in edges)
    with pytest.raises(DiagramError) as parsed:
        parse_file(text)
    assert parsed.value.line == len(text.splitlines())
    assert str(parsed.value) == f"line {parsed.value.line}: {direct.value}"


def test_action_block_parses():
    df = parse_file(A2_TEXT + "generator sigma 1:-2 2:-1\ncharacter sigma=-1\n")
    assert df.generators == (("sigma", ((1, 2, -1), (2, 1, -1))),)
    assert df.character == (("sigma", -1),)


def test_action_block_validation():
    with pytest.raises(DiagramError, match="generator sigma must map the vertex set"):
        # generator does not cover the vertex set
        parse_file(A2_TEXT + "generator sigma 1:-2\n")
    with pytest.raises(DiagramError, match="character must list every generator"):
        # character must list the generators in order
        parse_file(A2_TEXT + "generator sigma 1:+1 2:+2\ncharacter tau=-1\n")


@pytest.mark.parametrize("character", [
    (("s2", -1), ("s1", 1)),
    (("s1", -1),),
], ids=["out-of-order", "generator-left-out"])
def test_built_file_character_lists_every_generator_in_order(character):
    # a DiagramFile built in code follows the rule of a parsed file, so its
    # character's values are the signs in generator order
    m4 = fixture_file("M4")
    with pytest.raises(DiagramError) as info:
        DiagramFile(m4.diagram, m4.generators, character)
    assert str(info.value) == "character must list every generator, in declaration order"


def test_roundtrip_parse_serialize():
    for name in ("m5", "m4", "x9"):
        df = fixture_file(name.upper())
        assert parse_file(serialize(df)) == df
    # nontrivial weights survive the round trip
    d = DynkinDiagram(vertices=((1, -2), (2, -4)), edges=((1, 2, 3),))
    assert parse_file(serialize(d)).diagram == d
    # an image token carries one sign, the image's, so a diagram refuses a
    # negative vertex id, which could be written but not read back; the
    # least id it takes, 0, gets a sign of its own
    d = DynkinDiagram(vertices=((0, -2), (2, -2)), edges=((0, 2, 1),))
    df = DiagramFile(d, (("s", ((0, 2, -1), (2, 0, -1))),), (("s", -1),))
    assert "generator s 0:-2 2:-0" in serialize(df)
    assert parse_file(serialize(df)) == df
    rng = random.Random(0)
    for _ in range(200):
        df = random_action_file(rng)
        assert parse_file(serialize(df)) == df


def test_every_file_a_diagram_file_takes_round_trips():
    # one image sign or character value of a random file is set to a small
    # integer: a value other than +-1, which serialize would write as a
    # sign, is refused, and every file that is taken reads back equal
    rng = random.Random(35)
    outcomes = set()
    for _ in range(300):
        df = random_action_file(rng)
        if not df.generators:
            continue
        value = rng.choice((-3, -2, -1, 0, 1, 2, 3))
        k = rng.randrange(len(df.generators))
        generators, character = list(df.generators), df.character
        if rng.random() < 0.5:
            name, images = generators[k]
            t = rng.randrange(len(images))
            images = images[:t] + (images[t][:2] + (value,),) + images[t + 1:]
            generators[k] = (name, images)
        else:
            character = character[:k] + ((character[k][0], value),) + character[k + 1:]
        try:
            df = DiagramFile(df.diagram, tuple(generators), character)
        except DiagramError as err:
            assert value not in (1, -1) and "+1 or -1" in str(err)
            outcomes.add("refused")
            continue
        assert parse_file(serialize(df)) == df
        outcomes.add("round trip")
    assert outcomes == {"refused", "round trip"}


def test_serialization_is_byte_stable():
    df = fixture_file("M5")
    text = serialize(df)
    # canonical order: vertices ascending, then edges lexicographic
    lines = text.splitlines()
    assert lines[0] == "vertex 1 self=-2"
    assert lines[9] == "edge 1 2 w=1"
    assert serialize(parse_file(text)) == text


def test_fig1_lattice_entries():
    lat = to_lattice(fixture_file("X9").diagram)
    assert lat.rank == 9
    assert fixture_file("X9").diagram.vertex_ids()[0] == 1  # the text report's Δ1
    idx = {i + 1: i for i in range(9)}
    # (Delta2, Delta4) = 0
    assert lat.gram[idx[2]][idx[4]] == 0
    # dotted diagonal: (Delta1, Delta6) = -1
    assert lat.gram[idx[1]][idx[6]] == -1
    # solid: (Delta1, Delta2) = +1
    assert lat.gram[idx[1]][idx[2]] == 1
    assert all(lat.gram[i][i] == -2 for i in range(9))


def _flipped_fig1_file(name):
    """The bundled fixture with the solid/dotted sign convention inverted."""
    df = fixture_file(name)
    flipped = DynkinDiagram(
        vertices=df.diagram.vertices,
        edges=tuple((i, j, -w) for i, j, w in df.diagram.edges),
    )
    return DiagramFile(diagram=flipped, generators=df.generators, character=df.character)


@pytest.mark.parametrize("name", ["M5", "M4"])
def test_fig1_encoding_gate(name):
    """Acceptance gate for the sign convention: with solid=+1/dotted=-1 the
    vectors nabla and nabla' pair to zero with every invariant cycle of
    both actions, and (delta2, delta2) = -4; the flipped convention must
    fail this gate."""
    df = fixture_file(name)
    lat = to_lattice(df.diagram)
    action, chi = action_from_file(df)
    sub = isotypic_sublattice(action, chi)
    for v in (NABLA_AMB, NABLA_P_AMB):
        for b in sub.basis:
            assert product(lat.gram, v, b) == 0
    delta2 = sub.basis[1]
    assert product(lat.gram, delta2, delta2) == -4

    flipped = _flipped_fig1_file(name)
    flat = to_lattice(flipped.diagram)
    faction, fchi = action_from_file(flipped)
    fsub = isotypic_sublattice(faction, fchi)
    gate_holds = all(
        product(flat.gram, v, b) == 0
        for v in (NABLA_AMB, NABLA_P_AMB)
        for b in fsub.basis
    ) and product(flat.gram, fsub.basis[1], fsub.basis[1]) == -4
    assert not gate_holds


def test_threemod4_validation():
    assert all(s == -2 for _, s in fixture_file("X9").diagram.vertices)
    d = DynkinDiagram(vertices=((1, -2), (2, -3), (3, 0)), edges=((1, 2, 1),))
    with pytest.raises(DiagramError, match="^vertex 2 has self-intersection -3; "
                       "the criterion takes -2 on every vertex$"):
        run_analysis(DiagramFile(d))
