"""Catalog: normal forms, fixtures, Weyl orders, criterion coherence."""
import contextlib
import io
import itertools
import re
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from eqsing import catalog, linalg, monodromy
from eqsing.action import GroupAction, isotypic_sublattice, signed_orbits
from eqsing.catalog import (
    confining_list,
    fixture_file,
    normal_form,
    quasihomogeneous_weights,
    weyl_order,
)
from eqsing.diagram import DiagramFile, parse_file
from eqsing.errors import DiagramError, EqsingError, InternalError
from eqsing.lattice import IntLattice, inertia
from eqsing.localalg import milnor_number, quasihomogeneous_mu
from eqsing.monodromy import (
    Finite,
    Infinite,
    action_from_file,
    equivariant_generators,
    run_analysis,
)
from oracles import (
    closure_naive,
    equivariant_generators_by_projector,
    generator_outcome,
    inertia_by_descartes,
)


def test_normal_form_examples():
    f4 = normal_form("F4", m=2, n=1)
    assert dict(f4.terms) == {
        (4, 0, 0): Fraction(1),
        (0, 2, 0): Fraction(1),
        (0, 0, 3): Fraction(1),
    }
    b2 = normal_form("B", k=2, m=1, n=0)
    assert dict(b2.terms) == {(4,): Fraction(1)}  # degenerate tail
    a1 = normal_form("A", k=1, m=0, n=1)
    assert dict(a1.terms) == {(2,): Fraction(1)}


def test_normal_form_m4_is_corner():
    f = normal_form("M4", modulus=1)
    assert f.blocks == (("s1", (0,)), ("s2", (1,)))
    f5 = normal_form("M5", modulus=1)
    assert f5.blocks == (("sigma", (0, 1)),)


def test_normal_form_refuses_too_many_variables_before_building_lines():
    # the vars header's listing bound runs before the m + n lines of the
    # file are built: 200,001 variables were 29 MB of lines before the
    # refusal, and 10^8 an out-of-memory kill
    tracemalloc.start()
    try:
        with pytest.raises(EqsingError, match="200002 monomials of 200001 variables"):
            normal_form("A", k=2, m=200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_normal_form_parameter_validation():
    with pytest.raises(EqsingError, match=r"X9: modulus excluded by a\^2 != 4 \(a=2\)"):
        normal_form("X9", modulus=2)  # a^2 = 4 excluded
    with pytest.raises(EqsingError, match=r"X9: modulus excluded by a\^2 != 4 \(a=-2\)"):
        normal_form("X9", modulus=-2)
    with pytest.raises(EqsingError, match=r"P8: modulus excluded by a\^3\+27 != 0 \(a=-3\)"):
        normal_form("P8", modulus=-3)  # a^3 + 27 = 0
    with pytest.raises(EqsingError, match=r"L6: modulus excluded by a\^3 != 1 \(a=1\)"):
        normal_form("L6", modulus=1)  # a^3 = 1
    # the J10/F10 locus 4a^3+27=0 has no rational points; any rational a passes
    assert normal_form("J10", modulus=Fraction(-3, 2)) is not None
    with pytest.raises(EqsingError, match="A: k must be >= 1, got 0"):
        normal_form("A", k=0)
    with pytest.raises(EqsingError, match="D: k must be >= 4, got 3"):
        normal_form("D", k=3)
    with pytest.raises(EqsingError, match="B: k must be >= 2, got 1"):
        normal_form("B", k=1)
    with pytest.raises(EqsingError, match="E6 takes no index k"):
        normal_form("E6", k=2)
    with pytest.raises(EqsingError, match="A needs at least m=0, n=1 variables"):
        normal_form("A", k=1, n=0)  # needs one y
    with pytest.raises(EqsingError, match="A takes no modulus"):
        normal_form("A", k=1, modulus=1)
    with pytest.raises(EqsingError, match="X9 requires the modulus a"):
        normal_form("X9")  # confining families require the modulus
    with pytest.raises(EqsingError, match="unknown family symbol 'Z99'"):
        normal_form("Z99")


@pytest.mark.parametrize("modulus", ["1_0", " 3 ", "\u0663", "1/0", "0.5", "1", "-1/3"])
def test_normal_form_refuses_a_string_modulus(modulus):
    # the library takes numbers; a string, which Fraction would read with its
    # own grammar (underscores, spaces, non-ASCII digits), is refused
    with pytest.raises(EqsingError, match=re.escape(f"X9: bad modulus {modulus!r}")):
        normal_form("X9", modulus=modulus)
    assert ((2, 2), Fraction(-1, 3)) in normal_form("X9", modulus=Fraction(-1, 3)).terms


def test_confining_lists():
    z2 = confining_list("z2")
    assert [e.symbol for e in z2] == ["P8", "X9", "J10", "F10", "K42", "L6", "M5"]
    corner = confining_list("corner")
    assert [e.symbol for e in corner] == ["P8", "X9", "J10", "F10", "K42", "L6", "M4"]
    assert all(e.modulus_rule for e in corner)
    with pytest.raises(EqsingError, match=r"unknown setting 'other' \(use z2 or corner\)"):
        confining_list("other")


def test_weyl_order_closed_forms():
    assert weyl_order("A", 4) == 120
    assert weyl_order("B", 3) == 48
    assert weyl_order("C", 4) == 384
    assert weyl_order("D", 5) == 1920
    assert weyl_order("E6") == 51840
    assert weyl_order("F4") == 1152
    with pytest.raises(EqsingError, match="P8 has no Weyl group order in closed form"):
        weyl_order("P8")


def test_fixture_a2_trivial():
    dfile = fixture_file("A", 2)
    action, chi = action_from_file(dfile)
    assert dfile.diagram.rank == 2
    assert action.generators == () and chi == ()
    out = run_analysis(dfile)
    assert out.sublattice.rank == 2
    assert isinstance(out.verdict, Finite) and out.verdict.order == 6


def test_fixture_b2_folding():
    out = run_analysis(fixture_file("B", 2))
    assert out.sublattice.rank == 2
    assert out.inertia.negative_definite
    assert out.verdict.order == 8  # 2^2 * 2!


def test_fixture_m5():
    dfile = fixture_file("M5")
    action, chi = action_from_file(dfile)
    assert dfile.diagram.rank == 9
    assert dfile.character == (("sigma", 1),) and chi == (1,)
    out = run_analysis(dfile)
    assert out.sublattice.rank == 5


def test_fixture_errors():
    # (symbol, k) is checked first, as for every catalog function, then
    # whether a fixture is bundled, then k against the root search's bound
    with pytest.raises(EqsingError, match="no bundled fixture for family P8"):
        fixture_file("P8")
    with pytest.raises(EqsingError, match="P8 takes no index k"):
        fixture_file("P8", 3)
    with pytest.raises(EqsingError, match="unknown family symbol 'Z99'"):
        fixture_file("z99")
    with pytest.raises(EqsingError, match="A requires the index k"):
        fixture_file("A")
    with pytest.raises(EqsingError, match="A: k must be >= 1, got 0"):
        fixture_file("A", 0)
    with pytest.raises(EqsingError, match="M5 takes no index k"):
        fixture_file("M5", 3)
    with pytest.raises(EqsingError, match=re.escape(
            "B: k*k must be <= monodromy.MAX_ROOT_ENTRIES (2000000), got k=1415")):
        fixture_file("B", 1415)
    # past the fixtures the goldens pin, every k builds its fixture
    assert run_analysis(fixture_file("A", 9)).verdict == Finite(weyl_order("A", 9))
    assert run_analysis(fixture_file("B", 5)).verdict == Finite(weyl_order("B", 5))


def test_k_over_the_bound_is_refused_before_anything_is_built():
    # runs before the CLI cases with a large k: a chain of 10**6 vertices
    # would take far more than the 1 MB this refusal may use
    tracemalloc.start()
    try:
        with pytest.raises(EqsingError, match="got k=1000000"):
            fixture_file("A", 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_fixture_e7_e8_diagrams_exist():
    d7 = fixture_file("E7").diagram
    d8 = fixture_file("E8").diagram
    assert d7.rank == 7 and d8.rank == 8
    assert all(s == -2 for d in (d7, d8) for _, s in d.vertices)
    # definite forms (no group enumeration here)
    from eqsing.diagram import to_lattice

    assert inertia(to_lattice(d7)).negative_definite
    assert inertia(to_lattice(d8)).negative_definite


def test_simplicity_verdicts():
    out = run_analysis(fixture_file("B", 3))
    assert out.simple and out.verdict.order == 48
    out = run_analysis(fixture_file("A", 1))
    assert out.simple and out.verdict.order == 2
    out = run_analysis(fixture_file("M5"))
    assert not out.simple
    assert isinstance(out.verdict, Infinite)
    assert len(out.kernel) == 2


def test_verdict_orders_match_weyl_closed_form():
    # cheap members of each series; the full acceptance range runs in
    # test_acceptance
    cases = [("A", 3), ("B", 2), ("C", 2), ("D", 4), ("F4", None)]
    for sym, k in cases:
        out = run_analysis(fixture_file(sym, k))
        assert out.simple
        assert out.verdict.order == weyl_order(sym, k)


def test_folded_fixture_isotypic_ranks():
    for sym, k, rank in [("B", 2, 2), ("B", 4, 4), ("C", 3, 3), ("F4", None, 4)]:
        out = run_analysis(fixture_file(sym, k))
        assert out.sublattice.rank == rank
        assert out.inertia.negative_definite


def test_remark1_consistency_m5_m4():
    # homology-side isotypic rank == invariant local-algebra dimension
    out5 = run_analysis(fixture_file("M5"))
    f5 = normal_form("M5", modulus=1)
    rep5 = milnor_number(f5)
    assert out5.sublattice.rank == rep5.dim_of((1,)) == 5
    out4 = run_analysis(fixture_file("M4"))
    f4 = normal_form("M4", modulus=1)
    rep4 = milnor_number(f4)
    assert out4.sublattice.rank == rep4.dim_of((1, 1)) == 4


def test_remark1_consistency_folded_families():
    # B_k: homology rank k; invariant algebra dimension of x^{2k} is k
    for k in (2, 3, 4):
        out = run_analysis(fixture_file("B", k))
        rep = milnor_number(normal_form("B", k=k))
        assert out.sublattice.rank == rep.dim_of((1,)) == k
    # C_k: x1^2 y1 + y1^k
    for k in (2, 3, 4):
        out = run_analysis(fixture_file("C", k))
        rep = milnor_number(normal_form("C", k=k))
        assert out.sublattice.rank == rep.dim_of((1,)) == k
    # F4: x1^4 + y1^3
    out = run_analysis(fixture_file("F4"))
    rep = milnor_number(normal_form("F4"))
    assert out.sublattice.rank == rep.dim_of((1,)) == 4


# the fixtures `catalog.txt` and `verdict_cap*.machine` pin, and the ones the
# per-fixture checks run on; every k of an indexed family has a fixture
GOLDEN_FIXTURES = (
    [("A", k) for k in range(1, 9)] + [("D", k) for k in range(4, 7)]
    + [("B", k) for k in range(2, 5)] + [("C", k) for k in range(2, 5)]
    + [(s, None) for s in ("E6", "E7", "E8", "F4", "M5", "M4", "X9")]
)


def _every_fixture():
    for symbol, k in GOLDEN_FIXTURES:
        yield pytest.param(symbol, k, id=symbol + ("" if k is None else str(k)))


def _assert_wall_twist(symbol, k):
    # Wall (1980): the chi-isotypic rank of the vanishing lattice equals the
    # (chi det)-isotypic dimension of the Jacobian algebra, where det(g) is
    # (-1) to the number of x-variables g negates; a character is its signs
    # in generator order on both sides, so the generators' order is pinned
    action, _ = action_from_file(fixture_file(symbol, k))
    modulus = 1 if catalog.FAMILIES[symbol].kind == "confining" else None
    f = normal_form(symbol, k=k, modulus=modulus)
    assert tuple(name for name, _ in action.generators) == tuple(name for name, _ in f.blocks)
    rep = milnor_number(f)
    for chi in itertools.product((1, -1), repeat=len(action.generators)):
        try:
            rank = isotypic_sublattice(action, chi).rank
        except EqsingError as exc:
            assert str(exc) == "isotypic sublattice is zero; nothing to restrict to"
            rank = 0
        twisted = tuple(c * (-1) ** len(ix) for c, (_, ix) in zip(chi, f.blocks))
        assert rank == rep.dim_of(twisted), (chi, rank, twisted)


@pytest.mark.parametrize("symbol, k", _every_fixture())
def test_wall_twist_every_fixture_and_character(symbol, k):
    _assert_wall_twist(symbol, k)


@pytest.mark.parametrize("symbol, k", [
    pytest.param(symbol, k, id=f"{symbol}{k}")
    for symbol, ks in [("A", range(1, 21)), ("D", range(4, 17)),
                       ("B", range(2, 13)), ("C", range(2, 13))]
    for k in ks
])
def test_every_k_is_finite_of_the_weyl_order_on_rank_k(symbol, k):
    # A_k, D_k, and B_k and C_k folded from A_{2k-1} and D_{k+1}: the
    # isotypic sublattice has rank k, and the group is the Weyl group
    out = run_analysis(fixture_file(symbol, k))
    assert out.sublattice.rank == k
    assert out.verdict == Finite(weyl_order(symbol, k))
    _assert_wall_twist(symbol, k)


@pytest.mark.parametrize("symbol, k", _every_fixture())
def test_inertia_matches_descartes_every_character(symbol, k):
    action, _ = action_from_file(fixture_file(symbol, k))
    for chi in itertools.product((1, -1), repeat=len(action.generators)):
        try:
            gram = isotypic_sublattice(action, chi).restricted_gram
        except EqsingError as exc:
            assert str(exc) == "isotypic sublattice is zero; nothing to restrict to"
            continue
        assert inertia(IntLattice(gram)) == inertia_by_descartes(gram), chi


@pytest.mark.parametrize("symbol, k", _every_fixture())
def test_equivariant_generators_match_the_projector_every_character(symbol, k):
    dfile = fixture_file(symbol, k)
    for chi in itertools.product((1, -1), repeat=len(dfile.generators)):
        new = generator_outcome(equivariant_generators, dfile, chi)
        old = generator_outcome(equivariant_generators_by_projector, dfile, chi)
        assert new == old, chi


# the characters no fixture file names: in each, an orbit of cycles carries
# no chi-vector and gives no generator (notes/decisions.md)
@pytest.mark.parametrize("symbol, k, values, order", [
    ("B", 2, (1,), 2), ("B", 3, (1,), 6), ("B", 4, (1,), 24),
    ("C", 2, (1,), 2), ("C", 3, (1,), 2), ("C", 4, (1,), 2),
    ("F4", None, (1,), 6), ("M5", None, (-1,), 192),
    ("M4", None, (1, 1), 2), ("M4", None, (1, -1), 8), ("M4", None, (-1, 1), 8),
])
def test_character_with_an_orbit_left_out_decides(symbol, k, values, order):
    dfile = fixture_file(symbol, k)
    names = [name for name, _ in dfile.generators]
    dfile = DiagramFile(dfile.diagram, dfile.generators, tuple(zip(names, values)))
    action, chi = action_from_file(dfile)
    assert any(cycle is None for _, cycle in signed_orbits(action, chi))
    out = run_analysis(dfile)
    assert out.simple and out.verdict == Finite(order=order)
    sub = out.sublattice
    assert closure_naive(sub.restricted_gram, linalg.identity(sub.rank)) == order


def test_run_analysis_calls_no_mat_mul():
    # a finite group's order comes from its roots, and an infinite group's
    # certificate g = s_rho s_rho' has g - I of rank at most two: no analysis of a
    # fixture or of the benchmark's certify diagrams multiplies two matrices
    golden = Path(__file__).resolve().parent / "golden"
    dfiles = [fixture_file(symbol, k) for symbol, k in GOLDEN_FIXTURES]
    dfiles += [parse_file((golden / f"{name}.diagram").read_text())
               for name in ("affine_e6", "affine_e8_a1", "t237", "triangle_w2")]
    called = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_globals.get("__name__", "").startswith("eqsing."):
            called.add(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        verdicts = [run_analysis(dfile).verdict for dfile in dfiles]
    finally:
        sys.setprofile(None)
    assert [v.kind for v in verdicts] == ["finite"] * 21 + ["infinite"] * 7
    assert "_pair_certificate" in called and "mat_mul" not in called


def test_quasihomogeneous_oracle_whole_catalog():
    cases = [
        ("A", 2), ("A", 5), ("D", 4), ("D", 6), ("E6", None), ("E7", None),
        ("E8", None), ("B", 2), ("B", 4), ("C", 2), ("C", 4), ("F4", None),
    ]
    for sym, k in cases:
        f = normal_form(sym, k=k)
        w = quasihomogeneous_weights(sym, k=k)
        assert milnor_number(f).mu == quasihomogeneous_mu(w)
    confining = [
        ("P8", 0), ("X9", 1), ("J10", 1), ("F10", 1), ("K42", 1),
        ("L6", 0), ("M5", 1), ("M4", 1),
    ]
    for sym, a in confining:
        f = normal_form(sym, modulus=a)
        w = quasihomogeneous_weights(sym)
        assert milnor_number(f).mu == quasihomogeneous_mu(w)


def test_quasihomogeneous_oracle_with_stabilization():
    f = normal_form("F4", m=3, n=2)
    w = quasihomogeneous_weights("F4", m=3, n=2)
    assert milnor_number(f).mu == quasihomogeneous_mu(w) == 6


def test_confining_mu_values():
    expect = {"P8": 8, "X9": 9, "J10": 10, "F10": 10, "K42": 9, "L6": 8, "M5": 9}
    for sym, mu in expect.items():
        a = 0 if sym in ("P8", "L6") else 1
        assert milnor_number(normal_form(sym, modulus=a)).mu == mu


def test_emit_byte_identity():
    # bundled files equal the serializer output for their fixtures
    from importlib import resources

    from eqsing.diagram import serialize

    for name in ("m5", "m4", "x9"):
        bundled = (resources.files("eqsing") / "fixtures" / f"{name}.diagram").read_text()
        assert serialize(fixture_file(name.upper())) == bundled


def test_criteria_agreement_flag_on_incoherent_input(monkeypatch):
    # a positive definite lattice has a finite group but is not negative
    # definite: the criterion takes -2 on every vertex and refuses it
    from eqsing.diagram import DynkinDiagram

    flipped_a2 = DiagramFile(
        diagram=DynkinDiagram(
            vertices=((1, 2), (2, 2)), edges=((1, 2, -1),)
        )
    )
    with pytest.raises(DiagramError, match="vertex 1 has self-intersection 2"):
        run_analysis(flipped_a2)
    # with -2 on every vertex the decided criteria agree, so a disagreement
    # is a defect: here a finite verdict on M5's semidefinite form
    monkeypatch.setattr(monodromy, "generate_group", lambda gram, roots, cap, sig: Finite(order=1))
    with pytest.raises(InternalError, match="negative definiteness and finiteness disagree"):
        run_analysis(fixture_file("M5"))


def test_x9_regression_values():
    # kernel rank computed, then frozen as a regression value
    out = run_analysis(fixture_file("X9"))
    assert out.sublattice.rank == 9
    assert out.inertia.as_tuple() == (0, 2, 7)
    assert len(out.kernel) == 2
    assert isinstance(out.verdict, Infinite)


def _family_instances():
    """(symbol, k, modulus) for several k of every family."""
    for sym, entry in catalog.FAMILIES.items():
        a = Fraction(1, 3) if entry.kind == "confining" else None
        ks = [None] if entry.k_min is None else [entry.k_min + d for d in (0, 1, 4)]
        for k in ks:
            yield sym, k, a


@pytest.mark.parametrize("extra", [(0, 0), (2, 1)], ids=["minimal", "stabilised"])
def test_normal_form_terms_have_weighted_degree_one(extra):
    checked = set()
    for sym, k, a in _family_instances():
        base = normal_form(sym, k=k, modulus=a)
        m0 = sum(1 for v in base.variables if v.startswith("x"))
        m, n = m0 + extra[0], base.nvars - m0 + extra[1]
        f = normal_form(sym, k=k, m=m, n=n, modulus=a)
        w = quasihomogeneous_weights(sym, k=k, m=m, n=n)
        assert len(w) == f.nvars
        for exps, _ in f.terms:
            assert sum(wi * e for wi, e in zip(w, exps)) == 1, (sym, k, m, n, exps)
            checked.add(sym)
    assert checked == set(catalog.FAMILIES)


# (arguments, message, the functions that refuse them); every function that
# takes (symbol, k) refuses a bad pair with the same message
_BY_SYMBOL_K = (normal_form, quasihomogeneous_weights, fixture_file, weyl_order)
_BY_VARIABLES = (normal_form, quasihomogeneous_weights)
_BAD_FAMILY_ARGUMENTS = [
    (("Z99",), "unknown family symbol 'Z99'", _BY_SYMBOL_K),
    ((3,), "unknown family symbol 3", _BY_SYMBOL_K),
    (("A",), "A requires the index k", _BY_SYMBOL_K),
    (("A", 1, 0, 0), "A needs at least m=0, n=1 variables", _BY_VARIABLES),
    (("D", 3), "D: k must be >= 4, got 3", _BY_SYMBOL_K),  # below k_min
    (("A", 2.5), "A: k must be an integer, got 2.5", _BY_SYMBOL_K),
    (("A", "3"), "A: k must be an integer, got '3'", _BY_SYMBOL_K),
    (("A", 3.0), "A: k must be an integer, got 3.0", _BY_SYMBOL_K),
    (("E6", 2), "E6 takes no index k", _BY_SYMBOL_K),
    (("M5", None, 1), "M5 needs at least m=2, n=0 variables", _BY_VARIABLES),
    (("B", 2, 0), "B needs at least m=1, n=0 variables", _BY_VARIABLES),
]


@pytest.mark.parametrize("fn, args, message", [
    pytest.param(fn, args, message, id=f"{args!r}-{fn.__name__}")
    for args, message, fns in _BAD_FAMILY_ARGUMENTS for fn in fns
])
def test_bad_family_arguments_rejected(fn, args, message):
    with pytest.raises(EqsingError, match=re.escape(message)):
        fn(*args)


@pytest.mark.parametrize("symbol", ["M5", "M4", "X9"])
def test_certificate_validated_once_per_run(monkeypatch, symbol):
    calls = []
    original = Infinite.validate

    def counted(verdict, sig=None):
        calls.append(verdict)
        return original(verdict, sig)

    monkeypatch.setattr(Infinite, "validate", counted)
    out = run_analysis(fixture_file(symbol))
    assert isinstance(out.verdict, Infinite)
    assert len(calls) == 1


@pytest.mark.parametrize("symbol, k", [("M5", None), ("M4", None), ("B", 3)])
def test_action_validated_once_per_run(monkeypatch, symbol, k):
    # the action checks itself when it is built, and one is built per run
    calls = []
    original = GroupAction.__post_init__

    def counted(act):
        calls.append(act)
        return original(act)

    monkeypatch.setattr(GroupAction, "__post_init__", counted)
    run_analysis(fixture_file(symbol, k))
    assert len(calls) == 1


# --------------------------------------------------------------------------
# the catalog pinned byte for byte

GOLDEN = Path(__file__).resolve().parent / "golden" / "catalog.txt"

# one instance per family at its minimum variables, one stabilised
GOLDEN_FORMS = [
    ("A", 3, None, None, None), ("A", 5, 2, 3, None),
    ("D", 5, None, None, None), ("D", 7, 1, 3, None),
    ("E6", None, None, None, None), ("E6", None, 2, 3, None),
    ("E7", None, None, None, None), ("E7", None, 1, 4, None),
    ("E8", None, None, None, None), ("E8", None, 2, 2, None),
    ("B", 3, None, None, None), ("B", 4, 3, 2, None),
    ("C", 3, None, None, None), ("C", 5, 2, 2, None),
    ("F4", None, None, None, None), ("F4", None, 3, 2, None),
    ("P8", None, None, None, 0), ("P8", None, 1, 4, Fraction(1, 3)),
    ("X9", None, None, None, 1), ("X9", None, 2, 3, Fraction(-5, 3)),
    ("J10", None, None, None, 1), ("J10", None, 1, 3, Fraction(-3, 2)),
    ("F10", None, None, None, 1), ("F10", None, 2, 2, Fraction(1, 3)),
    ("K42", None, None, None, 1), ("K42", None, 3, 1, Fraction(7, 2)),
    ("L6", None, None, None, 0), ("L6", None, 2, 3, Fraction(1, 3)),
    ("M5", None, None, None, 1), ("M5", None, 3, 1, Fraction(-1, 3)),
    ("M4", None, None, None, 1), ("M4", None, 4, 2, Fraction(5)),
]


def render_catalog():
    """`catalog list` for both settings, every bundled fixture and one
    normal form per family and shape, as one text.

    Regenerate with
    `PYTHONPATH=src:tests python -c "import test_catalog as t; t.GOLDEN.write_text(t.render_catalog())"`
    only when the catalog is meant to change.
    """
    from eqsing.cli import main
    from eqsing.diagram import serialize
    from eqsing.localalg import serialize_germ

    parts = []
    for setting in ("z2", "corner"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(["catalog", "list", "--setting", setting])
        parts.append(f"## catalog list --setting {setting}\n{out.getvalue()}")
    for sym, k in GOLDEN_FIXTURES:
        parts.append(f"## fixture {sym} k={k}\n{serialize(fixture_file(sym, k))}")
    for sym, k, m, n, a in GOLDEN_FORMS:
        f = normal_form(sym, k=k, m=m, n=n, modulus=a)
        parts.append(
            f"## normal_form {sym} k={k} m={m} n={n} a={a} "
            f"generators={','.join(name for name, _ in f.blocks)}\n{serialize_germ(f)}"
        )
    return "".join(parts)


def test_catalog_golden():
    assert render_catalog() == GOLDEN.read_text()
