"""CLI: exit codes, machine- and text-format golden output, file errors."""
import io
import contextlib
import hashlib
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from eqsing.cli import main
from eqsing.diagram import serialize
from eqsing.errors import parse_int, parse_rational
from oracles import random_action_file
from test_catalog import GOLDEN_FIXTURES

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "eqsing" / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(*argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_analyze_m5_machine_golden():
    code, out, _ = run_cli(
        "analyze", str(FIXTURES / "m5.diagram"), "--format", "machine"
    )
    assert code == 1  # not simple
    out = out.replace(str(FIXTURES / "m5.diagram"), "m5.diagram")
    assert out == (GOLDEN / "m5_analyze.machine").read_text()


def _verdict_transcript(cap):
    """`catalog verdict --format machine` on every fixture of the goldens'
    table at `cap`, in family order, each output under a header line with
    its arguments and exit code."""
    from eqsing.catalog import FAMILIES

    parts = []
    for entry in FAMILIES.values():
        for k in [k for symbol, k in GOLDEN_FIXTURES if symbol == entry.symbol]:
            argv = ["catalog", "verdict", entry.symbol, "--cap", str(cap),
                    "--format", "machine"] + ([] if k is None else ["--k", str(k)])
            code, out, _ = run_cli(*argv)
            parts.append(f"# {' '.join(argv[2:])} exit={code}\n{out}")
    return "".join(parts)


@pytest.mark.parametrize("cap", [10**6, 10])
def test_catalog_verdict_every_fixture_machine_golden(cap):
    golden = GOLDEN / f"verdict_cap{cap}.machine"
    assert _verdict_transcript(cap) == golden.read_text()


@pytest.mark.parametrize("name, cap", [
    ("affine_e6", None),  # star 2,2,2
    ("affine_e8_a1", 1000),  # star 1,2,5 and an isolated vertex
    ("t237", 100),  # star 1,2,6
    ("triangle_w2", None),
])
def test_analyze_not_simple_diagrams_machine_golden(monkeypatch, name, cap):
    # the hand-built diagrams of the benchmark's certify workload; a relative
    # file name keeps the input= line stable
    monkeypatch.chdir(GOLDEN)
    argv = ["analyze", f"{name}.diagram", "--format", "machine"]
    code, out, err = run_cli(*argv + ([] if cap is None else ["--cap", str(cap)]))
    assert (code, err) == (1, "")
    assert out == (GOLDEN / f"{name}_analyze.machine").read_text()



@pytest.mark.parametrize("name, path", [
    ("m5", FIXTURES / "m5.diagram"),
    ("affine_e6", GOLDEN / "affine_e6.diagram"),
])
def test_analyze_text_golden(monkeypatch, name, path):
    # the text report names the ambient basis Δ<id> and the sublattice's
    # δ1, δ2, ...; its last line, elapsed:, is the one that is not pinned
    monkeypatch.chdir(path.parent)
    code, out, err = run_cli("analyze", path.name)
    assert (code, err) == (1, "")
    *report, elapsed = out.splitlines(keepends=True)
    assert elapsed.startswith("elapsed: ")
    assert "".join(report) == (GOLDEN / f"{name}_analyze.text").read_text()

def _random_action_transcript():
    """One line per seed 0..299: the seed, the exit code and the sha256 of
    stdout and of stderr of `analyze action.diagram --format machine` on
    `random_action_file(random.Random(seed))`, with the default
    self-intersections on even seeds and all -2 on odd ones.  Run in the
    current directory, so the file name is the same on every machine."""
    lines = []
    for seed in range(300):
        rng = random.Random(seed)
        dfile = random_action_file(rng) if seed % 2 == 0 else random_action_file(rng, (-2,))
        Path("action.diagram").write_text(serialize(dfile))
        code, out, err = run_cli("analyze", "action.diagram", "--format", "machine")
        digests = (hashlib.sha256(s.encode()).hexdigest() for s in (out, err))
        lines.append(" ".join([str(seed), str(code), *digests]) + "\n")
    return "".join(lines)


def test_random_action_files_machine_golden(monkeypatch, tmp_path):
    # verdicts and refusals alike: every message a malformed or invalid
    # action gives, and the layer that gives it, are pinned byte for byte
    monkeypatch.chdir(tmp_path)
    assert _random_action_transcript() == (GOLDEN / "random_actions.sha256").read_text()


def test_analyze_m4_report_values():
    code, out, _ = run_cli(
        "analyze", str(FIXTURES / "m4.diagram"), "--format", "machine"
    )
    assert code == 1
    lines = dict(l.split("=", 1) for l in out.splitlines())
    assert lines["isotypic.rank"] == "4"
    assert lines["isotypic.basis.4"] == "0,0,0,0,0,1,1,1,1"
    assert lines["kernel.delta.1"] == "2,0,0,-1"
    assert lines["kernel.delta.2"] == "0,1,1,1"
    assert lines["monodromy.verdict"] == "infinite"
    assert lines["monodromy.certificate.word"] == "h4*h1"
    assert lines["simple"] == "false"


def test_analyze_picks_the_character_from_the_file(tmp_path):
    # sigma = -1 on M5: the fixed Delta1 carries no chi-vector and is left
    # out; the other four orbits give W(D4), so the file is simple
    f = tmp_path / "m5_anti.diagram"
    f.write_text((FIXTURES / "m5.diagram").read_text().replace("sigma=+1", "sigma=-1"))
    code, out, err = run_cli("analyze", str(f), "--format", "machine")
    assert (code, err) == (0, "")
    lines = dict(l.split("=", 1) for l in out.splitlines())
    assert lines["action.character"] == "sigma:-1"
    assert lines["isotypic.rank"] == "4"
    assert lines["monodromy.generators"] == "h1,h2,h3,h4"
    assert lines["monodromy.order"] == "192"
    assert lines["simple"] == "true"


def test_analyze_simple_exit_zero(tmp_path):
    f = tmp_path / "a2.diagram"
    f.write_text("vertex 1 self=-2\nvertex 2 self=-2\nedge 1 2 w=1\n")
    code, out, _ = run_cli("analyze", str(f))
    assert code == 0
    assert "Finite, order 6" in out
    assert "simple: YES" in out


def test_analyze_parse_error_exit_two(tmp_path):
    f = tmp_path / "bad.diagram"
    f.write_text("vertex 1 self=-2\nedge 1 9 w=1\n")
    code, _, err = run_cli("analyze", str(f))
    assert code == 2
    assert "line 2" in err


def test_analyze_missing_file():
    code, _, err = run_cli("analyze", "/nonexistent/nope.diagram")
    assert code == 2


def test_analyze_zero_isotypic_sublattice_exit_two(tmp_path):
    # sigma fixes the only cycle, so the sigma = -1 part is zero
    f = tmp_path / "zero.diagram"
    f.write_text("vertex 1 self=-2\ngenerator sigma 1:+1\ncharacter sigma=-1\n")
    code, out, err = run_cli("analyze", str(f))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "isotypic sublattice is zero" in err


def test_analyze_unknown_exit_three(tmp_path):
    # A2 has 6 roots: at cap 3 the root search gives Unknown
    f = tmp_path / "a2.diagram"
    f.write_text("vertex 1 self=-2\nvertex 2 self=-2\nedge 1 2 w=1\n")
    code, out, _ = run_cli("analyze", str(f), "--cap", "3")
    assert code == 3
    assert "Unknown" in out


def test_analyze_other_self_intersection_exit_two(tmp_path):
    # the positive definite A2 has a finite group but is no input of the
    # criterion, which takes -2 on every vertex: an error, not "not simple"
    f = tmp_path / "pos.diagram"
    f.write_text("vertex 1 self=-2\nvertex 2 self=2\nedge 1 2 w=-1\n")
    code, out, err = run_cli("analyze", str(f))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "vertex 2 has self-intersection 2" in err


def test_analyze_internal_error_exit_two(monkeypatch):
    # a witness that fails validation is an internal fault: exit 2 with an
    # error line, never a verdict's exit code
    from eqsing import monodromy

    def wrong_witness(g):
        v = (1,) + (0,) * (g.rank - 1)
        return v, v

    monkeypatch.setattr(monodromy, "_index2_witness", wrong_witness)
    code, out, err = run_cli("analyze", str(FIXTURES / "m5.diagram"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_analyze_nullity_mismatch_exit_two(monkeypatch):
    # the zero squares of the inertia and the kernel rank come from two
    # independent eliminations; a kernel short of a vector is a fault
    from eqsing import monodromy

    kernel_basis = monodromy.kernel_basis
    monkeypatch.setattr(monodromy, "kernel_basis", lambda lat: kernel_basis(lat)[1:])
    code, out, err = run_cli("analyze", str(FIXTURES / "m5.diagram"))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_catalog_list_counts():
    code, out, _ = run_cli("catalog", "list", "--setting", "corner")
    assert code == 0
    assert "simple families (setting=corner): 8" in out
    assert "confining families: 7" in out
    assert "M4" in out and "M5" not in out
    code, out, _ = run_cli("catalog", "list", "--setting", "z2")
    assert "M5" in out and "M4" not in out


def test_catalog_emit_byte_identical():
    code, out, _ = run_cli("catalog", "emit", "M4")
    assert code == 0
    assert out == (FIXTURES / "m4.diagram").read_text()


def test_catalog_emit_to_file(tmp_path):
    target = tmp_path / "b3.diagram"
    code, _, _ = run_cli("catalog", "emit", "B", "--k", "3", "--out", str(target))
    assert code == 0
    code, out, _ = run_cli("analyze", str(target))
    assert code == 0
    assert "Finite, order 48" in out


def test_catalog_emit_poly_roundtrip(tmp_path):
    target = tmp_path / "m5.poly"
    code, _, _ = run_cli(
        "catalog", "emit", "M5", "--poly", "--modulus", "1", "--out", str(target)
    )
    assert code == 0
    code, out, _ = run_cli("mu", str(target))
    assert code == 0
    assert "mu=9" in out
    code, _, err = run_cli("catalog", "emit", "X9", "--poly", "--modulus", "2")
    assert code == 2  # excluded modulus


def test_catalog_verdict_exit_codes():
    code, out, _ = run_cli("catalog", "verdict", "B", "--k", "3")
    assert code == 0
    assert "Finite, order 48" in out
    code, out, _ = run_cli("catalog", "verdict", "M5")
    assert code == 1
    code, _, err = run_cli("catalog", "verdict", "P8")
    assert code == 2  # no fixture


@pytest.mark.parametrize("command", ["verdict", "emit"])
@pytest.mark.parametrize("argv, message", [
    # the library's one (symbol, k) check speaks before the fixture's own
    (["Z99"], "unknown family symbol 'Z99'"),
    (["A"], "A requires the index k"),
    (["A", "--k", "0"], "A: k must be >= 1, got 0"),
    (["P8", "--k", "3"], "P8 takes no index k"),
    # the fixture's own checks
    (["P8"], "no bundled fixture for family P8"),
    (["A", "--k", "1000000"],
     "A: k*k must be <= monodromy.MAX_ROOT_ENTRIES (2000000), got k=1000000"),
], ids=["unknown-symbol", "missing-k", "k-below-min", "k-not-taken", "no-fixture",
        "k-over-bound"])
def test_catalog_refusal_messages(command, argv, message):
    assert run_cli("catalog", command, *argv) == (2, "", f"error: {message}\n")


def test_catalog_verdict_past_the_fixture_goldens():
    code, out, err = run_cli("catalog", "verdict", "D", "--k", "7", "--format", "machine")
    assert (code, err) == (0, "")
    assert "monodromy.order=322560\n" in out


def test_root_entry_bound_is_the_only_limit_on_k(monkeypatch):
    # A_k's sublattice has rank k: at k*k <= MAX_ROOT_ENTRIES the search runs
    # and stops at its cap MAX_ROOT_ENTRIES // k; past it nothing is built
    from eqsing import monodromy

    monkeypatch.setattr(monodromy, "MAX_ROOT_ENTRIES", 800)
    code, out, err = run_cli("catalog", "verdict", "A", "--k", "28", "--format", "machine")
    assert (code, err) == (3, "")
    assert "monodromy.cap=28\n" in out
    code, out, err = run_cli("catalog", "verdict", "A", "--k", "29", "--format", "machine")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_catalog_verdict_undecided_definite_is_simple():
    # E8 is negative definite, so simple by the criterion, while its
    # monodromy (240 roots) is undecided at cap 100: exit 3 says so
    code, out, _ = run_cli("catalog", "verdict", "E8", "--cap", "100")
    assert code == 3
    assert "monodromy undecided at cap 100" in out
    assert "simple: YES" in out
    code, out, _ = run_cli("catalog", "verdict", "E8", "--cap", "100",
                           "--format", "machine")
    assert code == 3
    lines = dict(l.split("=", 1) for l in out.splitlines())
    assert lines["monodromy.verdict"] == "unknown"
    assert lines["monodromy.cap"] == "100"
    assert lines["criteria.agree"] == "true"
    assert lines["simple"] == "true"


def test_root_entry_bound_reads_as_the_cap(monkeypatch):
    # past MAX_ROOT_ENTRIES // rank roots the verdict is the Unknown of that
    # cap, byte for byte, at the default --cap (the help names the bound)
    from eqsing import monodromy

    capped = run_cli("catalog", "verdict", "E8", "--cap", "100", "--format", "machine")
    monkeypatch.setattr(monodromy, "MAX_ROOT_ENTRIES", 800)
    assert run_cli("catalog", "verdict", "E8", "--format", "machine") == capped


@pytest.mark.parametrize("argv", [["--help"], ["catalog", "verdict", "-h"],
                                  ["mu", "--bogus", "--help"]])
def test_help_names_every_option(argv):
    # the help is the module docstring: it names every option and flag of
    # the table the arguments are read from, and the bound behind --cap
    from eqsing import cli

    code, out, err = run_cli(*argv)
    assert (code, err) == (0, "")
    assert out == cli.__doc__
    for command, (positional, options, flags, _) in cli._COMMANDS.items():
        assert f"eqsing {command} " in out
        assert positional is None or positional.upper() in out
        for name in [*options, *flags]:
            assert name in out
    assert "monodromy.MAX_ROOT_ENTRIES" in out


def test_mu_command(tmp_path):
    f = tmp_path / "m5.poly"
    f.write_text("vars x:2 y:0\n1 x1^4\n1 x2^4\n1 x1^2*x2^2\n")
    code, out, _ = run_cli("mu", str(f))
    assert code == 0
    lines = dict(l.split("=", 1) for l in out.splitlines())
    assert lines["mu"] == "9"
    assert lines["isotypic.+"] == "5"
    assert lines["isotypic.-"] == "4"


def test_mu_corner(tmp_path):
    f = tmp_path / "m4.poly"
    f.write_text("vars x:2 y:0\n1 x1^4\n1 x2^4\n1 x1^2*x2^2\n")
    code, out, _ = run_cli("mu", str(f), "--corner")
    assert code == 0
    lines = dict(l.split("=", 1) for l in out.splitlines())
    assert lines["mu"] == "9"
    assert lines["isotypic.++"] == "4"


def test_mu_oracle(tmp_path):
    f = tmp_path / "a4.poly"
    f.write_text("vars x:0 y:1\n1 y1^5\n")
    code, out, _ = run_cli("mu", str(f), "--oracle", "1/5")
    assert code == 0
    assert "oracle.mu=4" in out
    assert "oracle.agrees=true" in out


def test_mu_not_certified(tmp_path):
    f = tmp_path / "bad.poly"
    f.write_text("vars x:1 y:1\n1 x1^2*y1\n")
    code, _, err = run_cli("mu", str(f), "--max-degree", "8")
    assert code == 2
    assert "not certified" in err


def test_mu_work_is_bounded_whatever_the_max_degree(tmp_path):
    # x1^2*y1 is not isolated, so no degree certifies it: the rows built
    # over all degrees stop it at localalg.MAX_ROWS, within seconds
    f = tmp_path / "bad.poly"
    f.write_text("vars x:1 y:1\n1 x1^2*y1\n")
    start = time.monotonic()
    code, _, err = run_cli("mu", str(f), "--max-degree", "1000000")
    assert code == 2
    assert "not certified at degree 548: degree 549 would take" in err
    assert time.monotonic() - start < 15


def test_mu_output_does_not_depend_on_a_large_max_degree(tmp_path):
    # the monomial keys are digits in base max_degree + 1
    target = tmp_path / "x9.poly"
    code, _, _ = run_cli(
        "catalog", "emit", "X9", "--poly", "--modulus", "1", "--out", str(target)
    )
    assert code == 0
    default = run_cli("mu", str(target))
    assert default[0] == 0
    assert run_cli("mu", str(target), "--max-degree", "1000000") == default


def test_mu_A4_trivial(tmp_path):
    f = tmp_path / "a4.poly"
    f.write_text("vars x:0 y:1\n1 y1^5\n")
    code, out, _ = run_cli("mu", str(f))
    assert code == 0
    assert "mu=4" in out


_A2_POLY = "vars x:0 y:1\n1 y1^3\n"
_X9_TERMS = "1 y1^4\n1 y2^4\n1 y1^2*y2^2\n"
_X9_POLY = "vars x:0 y:2\n" + _X9_TERMS
_M5_POLY = "vars x:2 y:0\n1 x1^4\n1 x2^4\n1 x1^2*x2^2\n"


# numbers that Python's int() or Fraction() reads but the file formats do
# not: each integer is ASCII [+-]?[0-9]+ and each coefficient
# [+-]?[0-9]+(/[0-9]+)?.  id: (argv, file text, the line at fault)
_LOOSE_NUMBERS = {
    "image-second-sign": (["analyze", "{file}"],
                          "vertex 1 self=-2\ngenerator s 1:-+1\ncharacter s=-1\n", 2),
    "vertex-underscore": (["analyze", "{file}"], "vertex 1_0 self=-2\n", 1),
    "vertex-arabic-indic": (["analyze", "{file}"], "vertex \u0661 self=-2\n", 1),
    "vars-underscore": (["mu", "{file}"], "vars x:0_0 y:1\n1 y1^3\n", 1),
    "exponent-arabic-indic": (["mu", "{file}"], "vars x:0 y:1\n1 y1^\u0663\n", 2),
    "coefficient-underscore": (["mu", "{file}"], "vars x:0 y:1\n1_0 y1^3\n", 2),
    "coefficient-exponent": (["mu", "{file}"], "vars x:0 y:1\n1e3 y1^3\n", 2),
    "coefficient-decimal": (["mu", "{file}"], "vars x:0 y:1\n.5 y1^3\n", 2),
    "coefficient-arabic-indic": (["mu", "{file}"], "vars x:0 y:1\n\u0661 y1^3\n", 2),
}

# the same numbers in options, refused by the same two readers
_LOOSE_OPTIONS = {
    "k-arabic-indic": ["catalog", "verdict", "A", "--k", "\u0661"],
    "emit-k-underscore": ["catalog", "emit", "A", "--k", "1_0"],
    "m-underscore": ["catalog", "emit", "A", "--k", "2", "--poly", "--m", "1_0"],
    "n-arabic-indic": ["catalog", "emit", "A", "--k", "2", "--poly", "--n", "\u0662"],
    "max-degree-underscore": ["mu", "{file}", "--max-degree", "2_4"],
    "oracle-decimal": ["mu", "{file}", "--oracle", ".5"],
    "oracle-arabic-indic": ["mu", "{file}", "--oracle", "\u0661/3"],
    "modulus-arabic-indic": ["catalog", "emit", "X9", "--poly", "--modulus", "\u0661/\u0662"],
    "modulus-zero-denominator": ["catalog", "emit", "X9", "--poly", "--modulus", "1/0"],
}


_V12 = "vertex 1 self=-2\nvertex 2 self=-2\n"
_SWAP = "generator s 1:+2 2:+1\n"

# the refusals of the two file readers that no other case reaches, each with
# its one error line.  id: (argv, file text, error line)
_READER_REFUSALS = {
    "vertex-malformed": (["analyze", "{file}"], "vertex 1\n",
                         "line 1: expected `vertex <id> self=<int>`"),
    "edge-malformed": (["analyze", "{file}"], _V12 + "edge 1 2\n",
                       "line 3: expected `edge <i> <j> w=<int>`"),
    "generator-malformed": (["analyze", "{file}"], _V12 + "generator s\n",
                            "line 3: expected `generator <name> <i>:<±j> ...`"),
    "generator-twice": (["analyze", "{file}"], _V12 + _SWAP + _SWAP,
                        "line 4: generator s already declared"),
    "image-token": (["analyze", "{file}"], _V12 + "generator s 1+2 2:+1\n",
                    "line 3: bad image token '1+2'"),
    "character-twice": (["analyze", "{file}"], _V12 + _SWAP + "character s=+1\n" * 2,
                        "line 5: character already declared"),
    "character-token": (["analyze", "{file}"], _V12 + _SWAP + "character s\n",
                        "line 4: bad character token 's'"),
    "character-value": (["analyze", "{file}"], _V12 + _SWAP + "character s=2\n",
                        "line 4: character value must be +1 or -1, got '2'"),
    "vars-twice": (["mu", "{file}"], "vars x:0 y:1\nvars x:0 y:1\n1 y1^3\n",
                   "line 2: duplicate vars header"),
    "vars-missing": (["mu", "{file}"], "# no header\n", "line 1: missing vars header"),
}


@pytest.mark.parametrize("argv, text, message", _READER_REFUSALS.values(),
                         ids=list(_READER_REFUSALS))
def test_reader_refusal_messages(tmp_path, argv, text, message):
    # exit 2 and exactly this one error line, as test_bad_input_exits_two
    # asks of every refusal, with the message pinned
    path = tmp_path / "probe"
    path.write_text(text)
    assert run_cli(*(a.format(file=path) for a in argv)) == (2, "", f"error: {message}\n")


def test_analyze_reports_the_residual_charpoly(tmp_path):
    # b^2 > ac on the weight-3 pair: an element with a real eigenvalue off
    # the unit circle, a root of x^2 - 7x + 1 (t = 4*9/4 - 2)
    f = tmp_path / "w3.diagram"
    f.write_text(_V12 + "edge 1 2 w=3\n")
    code, out, err = run_cli("analyze", str(f))
    assert (code, err) == (1, "")
    assert out.splitlines()[-5:-1] == [
        "verdict: Infinite",
        "  certificate g = h2*h1",
        "  charpoly factor x^2 - t x + 1, |t| > 2: [1, -7, 1]",
        "simple: NO",
    ]


def test_mu_oracle_disagreement_exits_two(monkeypatch, tmp_path):
    # only a defect in milnor_number or in the weight formula reaches this
    from eqsing import localalg

    monkeypatch.setattr(localalg, "quasihomogeneous_mu", lambda weights: 3)
    f = tmp_path / "a2.poly"
    f.write_text(_A2_POLY)
    assert run_cli("mu", str(f), "--oracle", "1/3") == (2, "", (
        "error: milnor_number gives mu=2 but the --oracle weights give 3\n"))


def _chain(n):
    return "".join(f"vertex {i} self=-2\n" for i in range(1, n + 1)) + "".join(
        f"edge {i} {i + 1} w=1\n" for i in range(1, n))


def test_diagram_size_bound_reads_the_root_entry_bound(monkeypatch, tmp_path):
    # with the bound patched to 100, a diagram of n <= 20 vertices is
    # analysed and stops at the search's cap 100 // n, one of 21 is refused;
    # every family at the largest k fixture_file takes, 10, is analysed
    from eqsing import monodromy

    monkeypatch.setattr(monodromy, "MAX_ROOT_ENTRIES", 100)
    f = tmp_path / "chain.diagram"
    f.write_text(_chain(20))
    code, out, err = run_cli("analyze", str(f), "--format", "machine")
    assert (code, err) == (3, "") and "monodromy.cap=5\n" in out
    f.write_text(_chain(21))
    assert run_cli("analyze", str(f)) == (2, "", (
        "error: diagram: n*n must be <= 4*monodromy.MAX_ROOT_ENTRIES (400), "
        "got n=21 vertices\n"))
    for symbol in ("A", "B", "C", "D"):
        code, _, err = run_cli("catalog", "verdict", symbol, "--k", "10")
        assert (code, err) == (3, ""), symbol


@pytest.mark.parametrize("argv, text", [
    (["mu", "{file}"], "vars x:0 y:1\n1 1\n1 y1^3\n"),
    (["mu", "{file}"], "vars x:-1 y:2\n1 y1^3\n"),
    (["mu", "{file}"], "vars x:0 y:1\n1/0 y1^3\n"),
    (["mu", "{file}", "--oracle", "1/0"], _A2_POLY),
    (["mu", "{file}", "--oracle", "abc"], _A2_POLY),
    (["mu", "{file}", "--oracle", "2/3"], _A2_POLY),
    (["mu", "{file}", "--oracle", "1/4,1/4,1/2"], _X9_POLY),
    (["mu", "{file}", "--oracle", "1/4"], _X9_POLY),
    (["mu", "{file}", "--oracle", "1/4,1/3"], _X9_POLY),
    (["mu", "{file}", "--character", "sigma=+1"], _M5_POLY),
    (["mu", "{file}"], b"\xff\xfe"),
    (["analyze", "{file}"], b"\xff\xfe"),
    (["mu", "{file}", "--max-degree", "-1"], _A2_POLY),
    (["mu", "{file}"], "vars x:0 y:30\n1 y1^2\n"),
    (["mu", "{file}"], "vars x:0 y:2 z:7\n" + _X9_TERMS),
    (["mu", "{file}"], "vars x:2 y:2 x:0\n" + _X9_TERMS),
    (["catalog", "emit", "X9", "--poly", "--modulus", "abc"], None),
    (["catalog", "emit", "A", "--k", "3", "--m", "5"], None),
    (["catalog", "emit", "A", "--k", "3", "--n", "2"], None),
    (["catalog", "emit", "A", "--k", "3", "--modulus", "7"], None),
    (["catalog", "verdict", "E6", "--cap", "-5"], None),
    (["analyze", str(FIXTURES / "m5.diagram"), "--cap", "-5"], None),
    (["catalog", "verdict", "A", "--k", "2", "--cap", "\u0661\u0660"], None),
    ([], None),
    (["frobnicate"], None),
    (["catalog"], None),
    (["catalog", "verdict"], None),
    (["analyze", "{file}", "--bogus"], _A2_POLY),
    (["analyze", "{file}", "--cap"], _A2_POLY),
    (["catalog", "emit", "A", "--k", "2", "--out", "--poly"], None),
    (["analyze", "{file}", "--format", "xml"], _A2_POLY),
    (["catalog", "emit", "A", "--k", "2", "--poly=1"], None),
    (["analyze", "{file}", "{file}"], _A2_POLY),
    (["catalog", "verdict", "E6", "--m", "1"], None),
    *((argv, text) for argv, text, _ in _LOOSE_NUMBERS.values()),
    *((argv, _A2_POLY) for argv in _LOOSE_OPTIONS.values()),
], ids=["constant-term", "negative-count", "zero-denominator", "oracle-1/0",
        "oracle-abc", "oracle-2/3", "oracle-too-many-weights", "oracle-too-few-weights",
        "oracle-term-degree-not-1", "mu-character-option", "mu-not-utf8", "analyze-not-utf8",
        "negative-max-degree", "mu-table-too-large", "vars-unknown-key",
        "vars-key-twice", "modulus-abc", "emit-m-without-poly",
        "emit-n-without-poly", "emit-modulus-without-poly", "verdict-negative-cap",
        "analyze-negative-cap", "cap-arabic-indic", "no-command", "unknown-command",
        "bare-catalog", "missing-positional", "unknown-option", "option-without-value",
        "option-value-is-an-option",
        "bad-format", "flag-with-value", "two-positionals", "verdict-emit-flag",
        *_LOOSE_NUMBERS, *_LOOSE_OPTIONS])
def test_bad_input_exits_two(tmp_path, argv, text):
    # a refused input is exit 2 with one error line: never a traceback, and
    # never an exit code that reads as a verdict
    path = tmp_path / "probe.poly"
    if text is not None:
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
    code, out, err = run_cli(*(a.format(file=path) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_one_number_grammar():
    # errors.parse_int and parse_rational read what the grammar spells and
    # nothing else that int() or Fraction() would take
    assert [parse_int(t) for t in ("0", "+7", "-12", "007")] == [0, 7, -12, 7]
    assert [parse_rational(t) for t in ("3", "-3/6", "+0/5")] == [3, Fraction(-1, 2), 0]
    for bad in ("", "+", "1_0", " 1", "1\n", "\u0661", "1.0", "1e3", "0x1", "+-1", "\u00b2"):
        with pytest.raises(ValueError):
            parse_int(bad)
    for bad in ("", "1/", "/2", "1/0", "1/-2", "1/+2", "1/2/3", ".5", "1e3", "1_0/2",
                "\u0661/2", "1/\u0662", " 1/2", "1 /2"):
        with pytest.raises(ValueError):
            parse_rational(bad)


@pytest.mark.parametrize("name", _LOOSE_NUMBERS)
def test_loose_integer_is_refused_on_its_line(tmp_path, name):
    argv, text, line = _LOOSE_NUMBERS[name]
    path = tmp_path / "probe"
    path.write_text(text)
    code, out, err = run_cli(*(a.format(file=path) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: line {line}: ")


@pytest.mark.parametrize("count", [99_999, 100_000_000])
def test_mu_refuses_a_huge_vars_header_at_once(tmp_path, count):
    # the degree-1 monomial table of the header alone is over the bound on
    # its entries, so the file is refused before any term is read
    path = tmp_path / "huge.poly"
    path.write_text(f"vars x:0 y:{count}\n1 y1^2\n")
    start = time.monotonic()
    code, out, err = run_cli("mu", str(path))
    assert time.monotonic() - start < 1
    assert code == 2 and out == ""
    assert len([l for l in err.splitlines() if "error:" in l]) == 1


def test_catalog_verdict_loads_resources_only_for_a_shipped_fixture():
    # without `site`, which may import it on its own, `catalog verdict E6`
    # builds its diagram and loads no `importlib.resources`; M5 is read
    # from the package's fixture files and does
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = ("import sys, eqsing.cli\n"
              "code = eqsing.cli.main(sys.argv[1:])\n"
              "print('importlib.resources' in sys.modules)\n")

    def loads_resources(*argv):
        run = subprocess.run([sys.executable, "-S", "-c", script, *argv], env=env,
                             capture_output=True, text=True, check=True)
        return run.stdout.splitlines()[-1]

    assert loads_resources("catalog", "verdict", "E6") == "False"
    assert loads_resources("catalog", "verdict", "M5") == "True"


def test_package_exports_resolve():
    # `from eqsing import *` raises on a name in __all__ that is gone
    import eqsing

    namespace = {}
    exec("from eqsing import *", namespace)
    assert set(eqsing.__all__) <= set(namespace)


def test_cli_import_does_not_load_numpy(tmp_path):
    # a fresh process loads the layers its subcommand runs and no others,
    # and no `dataclasses` or argument parser (`argparse`, with `gettext`
    # and `locale`); a lattice request loads no `fractions` and `analyze`
    # no family table: the modules it adds to a bare interpreter's
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = ("import sys, eqsing.cli\n"
              "if sys.argv[1:]: eqsing.cli.main(sys.argv[1:])\n"
              "print(*sys.modules)\n")

    def modules(code, *argv):
        run = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                             capture_output=True, text=True, check=True)
        return set(run.stdout.splitlines()[-1].split())

    bare = modules("import sys; print(*sys.modules)")

    def loaded(*argv):
        return modules(script, *argv) - bare

    parser = {"argparse", "gettext", "locale"}
    bare_cli = loaded()
    packages = {m for m in bare_cli if m.split(".")[0] in ("eqsing", "numpy")}
    assert packages == {"eqsing", "eqsing.cli", "eqsing.errors"}
    assert not bare_cli & parser
    poly = tmp_path / "x9.poly"
    poly.write_text(_X9_POLY)
    lattice_layers = {f"eqsing.{m}" for m in ("monodromy", "action", "diagram", "lattice")}
    rationals = {"fractions", "decimal", "numbers"}
    mu = loaded("mu", str(poly), "--oracle", "1/4,1/4")
    assert "eqsing.localalg" in mu
    assert not mu & (lattice_layers | {"eqsing.catalog", "eqsing.linalg", "numpy",
                                       "dataclasses"})
    analyze = loaded("analyze", str(FIXTURES / "m5.diagram"))
    verdict = loaded("catalog", "verdict", "E6")
    assert lattice_layers <= analyze and lattice_layers | {"eqsing.catalog"} <= verdict
    assert "eqsing.catalog" not in analyze
    for request in (analyze, verdict):
        assert not request & (rationals | {"eqsing.localalg", "numpy", "dataclasses"})
    for request in (mu, analyze, verdict):
        assert not request & parser
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    requirements = project["dependencies"] + [
        r for extra in project["optional-dependencies"].values() for r in extra
    ]
    assert not [r for r in requirements if r.startswith("numpy")]
