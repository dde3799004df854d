"""CLI: exit codes, machine-format golden output, file errors."""
import io
import contextlib
import os
import subprocess
import sys
import time
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


def _verdict_transcript(cap):
    """`catalog verdict --format machine` on every bundled fixture at `cap`,
    each output under a header line with its arguments and exit code."""
    from eqsing.catalog import FAMILIES

    parts = []
    for entry in FAMILIES.values():
        if entry.fixture is None:
            continue
        lo, hi = entry.fixture_k or (None, None)
        for k in [None] if lo is None else range(lo, hi + 1):
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


def test_analyze_nullity_mismatch_exit_two(monkeypatch):
    # the zero squares of the inertia and the kernel rank come from two
    # independent eliminations; a kernel short of a vector is a fault
    from eqsing import catalog

    kernel_basis = catalog.kernel_basis
    monkeypatch.setattr(catalog, "kernel_basis", lambda lat: kernel_basis(lat)[1:])
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
    (["mu", "{file}", "--character", "s9=-1"], _A2_POLY),
    (["mu", "{file}", "--character", "sigma=+1,sigma=-1"], _M5_POLY),
    (["mu", "{file}", "--character", "sigma=+1"], _X9_POLY),
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
], ids=["constant-term", "negative-count", "zero-denominator", "oracle-1/0",
        "oracle-abc", "oracle-2/3", "oracle-too-many-weights", "oracle-too-few-weights",
        "oracle-term-degree-not-1", "unknown-generator", "generator-named-twice",
        "germ-without-generators", "mu-not-utf8", "analyze-not-utf8",
        "negative-max-degree", "mu-table-too-large", "vars-unknown-key",
        "vars-key-twice", "modulus-abc", "emit-m-without-poly",
        "emit-n-without-poly", "emit-modulus-without-poly", "verdict-negative-cap",
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


def test_mu_character_errors_name_the_fault(tmp_path):
    # the last value of a generator named twice does not silently win, and
    # a germ without generators says so instead of listing none
    m5, x9 = tmp_path / "m5.poly", tmp_path / "x9.poly"
    m5.write_text(_M5_POLY)
    x9.write_text(_X9_POLY)
    for spec in ("sigma=+1,sigma=-1", "sigma=-1,sigma=+1"):
        code, out, err = run_cli("mu", str(m5), "--character", spec)
        assert (code, out) == (2, "")
        assert err == "error: generator 'sigma' named twice in --character\n"
    code, out, err = run_cli("mu", str(x9), "--character", "sigma=+1")
    assert (code, out) == (2, "")
    assert err == "error: unknown generator 'sigma': the germ has no generators\n"


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


def test_package_exports_resolve():
    # `from eqsing import *` raises on a name in __all__ that is gone
    import eqsing

    namespace = {}
    exec("from eqsing import *", namespace)
    assert set(eqsing.__all__) <= set(namespace)


def test_cli_import_does_not_load_numpy(tmp_path):
    # a fresh process loads the layers its subcommand runs and no others,
    # and no `dataclasses`: the modules it adds to a bare interpreter's
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

    packages = {m for m in loaded() if m.split(".")[0] in ("eqsing", "numpy")}
    assert packages == {"eqsing", "eqsing.cli", "eqsing.errors"}
    poly = tmp_path / "x9.poly"
    poly.write_text(_X9_POLY)
    lattice_layers = {f"eqsing.{m}" for m in ("catalog", "monodromy", "action", "diagram",
                                               "lattice")}
    mu = loaded("mu", str(poly), "--oracle", "1/4,1/4")
    assert "eqsing.localalg" in mu
    assert not mu & (lattice_layers | {"eqsing.linalg", "numpy", "dataclasses"})
    for argv in (["analyze", str(FIXTURES / "m5.diagram")], ["catalog", "verdict", "E6"]):
        verdict = loaded(*argv)
        assert lattice_layers <= verdict
        assert not verdict & {"eqsing.localalg", "numpy", "dataclasses"}
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    requirements = project["dependencies"] + [
        r for extra in project["optional-dependencies"].values() for r in extra
    ]
    assert not [r for r in requirements if r.startswith("numpy")]
