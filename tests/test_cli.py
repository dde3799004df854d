"""CLI: exit codes, machine-format golden output, file errors."""
import io
import contextlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from eqsing.cli import main

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

    def wrong_witness(matrix):
        v = (1,) + (0,) * (len(matrix) - 1)
        return v, v

    monkeypatch.setattr(monodromy, "_index2_witness", wrong_witness)
    code, out, err = run_cli("analyze", str(FIXTURES / "m5.diagram"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


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


def test_catalog_verdict_rejects_emit_flags():
    # --m/--n/--modulus belong to `catalog emit`; verdict does not accept them
    with pytest.raises(SystemExit) as exc:
        run_cli("catalog", "verdict", "E6", "--m", "1")
    assert exc.value.code == 2


def test_mu_command(tmp_path):
    f = tmp_path / "m5.poly"
    f.write_text("vars x:2 y:0\n1 x1^4\n1 x2^4\n1 x1^2*x2^2\n")
    code, out, _ = run_cli("mu", str(f), "--character", "sigma=+1")
    assert code == 0
    lines = dict(l.split("=", 1) for l in out.splitlines())
    assert lines["mu"] == "9"
    assert lines["isotypic.+"] == "5"
    assert lines["isotypic.-"] == "4"
    assert lines["character.dim"] == "5"


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


def test_mu_A4_trivial(tmp_path):
    f = tmp_path / "a4.poly"
    f.write_text("vars x:0 y:1\n1 y1^5\n")
    code, out, _ = run_cli("mu", str(f))
    assert code == 0
    assert "mu=4" in out


_A2_POLY = "vars x:0 y:1\n1 y1^3\n"


@pytest.mark.parametrize("argv, text", [
    (["mu", "{file}"], "vars x:0 y:1\n1 1\n1 y1^3\n"),
    (["mu", "{file}"], "vars x:-1 y:2\n1 y1^3\n"),
    (["mu", "{file}"], "vars x:0 y:1\n1/0 y1^3\n"),
    (["mu", "{file}", "--oracle", "1/0"], _A2_POLY),
    (["mu", "{file}", "--oracle", "abc"], _A2_POLY),
    (["mu", "{file}", "--oracle", "2/3"], _A2_POLY),
    (["mu", "{file}", "--character", "s9=-1"], _A2_POLY),
    (["mu", "{file}"], b"\xff\xfe"),
    (["analyze", "{file}"], b"\xff\xfe"),
    (["mu", "{file}", "--max-degree", "-1"], _A2_POLY),
    (["catalog", "emit", "X9", "--poly", "--modulus", "abc"], None),
    (["catalog", "verdict", "E6", "--cap", "-5"], None),
    (["analyze", str(FIXTURES / "m5.diagram"), "--cap", "-5"], None),
], ids=["constant-term", "negative-count", "zero-denominator", "oracle-1/0",
        "oracle-abc", "oracle-2/3", "unknown-generator", "mu-not-utf8",
        "analyze-not-utf8", "negative-max-degree", "modulus-abc", "verdict-negative-cap",
        "analyze-negative-cap"])
def test_bad_input_exits_two(tmp_path, argv, text):
    # a refused input is exit 2 with one error line: never a traceback, and
    # never an exit code that reads as a verdict
    path = tmp_path / "probe.poly"
    if text is not None:
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([a.format(file=path) for a in argv])
        except SystemExit as exc:  # argparse's exit on a usage error
            code = exc.code
    assert code == 2
    assert out.getvalue() == ""
    assert len([l for l in err.getvalue().splitlines() if "error:" in l]) == 1


def test_cli_import_does_not_load_numpy():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, "-c",
         "import eqsing.cli, sys; assert 'numpy' not in sys.modules"],
        env=env, check=True,
    )
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    requirements = project["dependencies"] + [
        r for extra in project["optional-dependencies"].values() for r in extra
    ]
    assert not [r for r in requirements if r.startswith("numpy")]
