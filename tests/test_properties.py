"""Property tests: reflections in random integral roots on random integral
forms, random small polynomial files through `eqsing mu`, and random
diagram+action files through `eqsing analyze` end in a checked answer or a
typed error, never a traceback."""
import contextlib
import io
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from eqsing.cli import main
from eqsing.diagram import parse_file, serialize
from eqsing.errors import EqsingError, InternalError
from eqsing.monodromy import Infinite, MonodromyElement, generate_group, run_analysis
from oracles import closure_naive, random_action_file


@st.composite
def reflection_groups(draw):
    """(gram, roots): a symmetric n x n form with even diagonal, 1 <= n <= 4,
    and 1 to 4 roots with small entries."""
    n = draw(st.integers(1, 4))
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = draw(st.sampled_from((-4, -2, 2, 4)))
        for j in range(i + 1, n):
            gram[i][j] = gram[j][i] = draw(st.integers(-2, 2))
    vector = st.lists(st.integers(-1, 1), min_size=n, max_size=n)
    roots = draw(st.lists(vector, min_size=1, max_size=4))
    return gram, roots


@settings(derandomize=True, deadline=None, max_examples=600)
@given(reflection_groups())
def test_random_reflection_groups_end_in_a_checked_verdict(case):
    gram, roots = case
    try:
        verdict = generate_group(gram, roots, cap=400)
    except EqsingError as exc:
        # a typed refusal of the input, not a failed invariant
        assert not isinstance(exc, InternalError), exc
        return
    if verdict.kind == "infinite":
        assert verdict.validate()
    elif verdict.kind == "finite" and verdict.order <= 200:
        assert verdict.order == closure_naive(gram, roots)


def _run_cli(argv_head, name, text, argv_tail):
    """(exit code, stdout, stderr) of `eqsing` on `text` written to a file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        with open(path, "w") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv_head + [path] + argv_tail)
    return code, out.getvalue(), err.getvalue()


def _ints(text):
    return tuple(int(x) for x in text.split(","))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.randoms(use_true_random=True))
def test_random_diagram_action_files_end_in_a_verdict_or_a_typed_error(rng):
    # -2 on every vertex on most examples, so that most get past the
    # refusal of other self-intersections and into the pipeline
    dfile = random_action_file(rng, (-2,)) if rng.random() < 0.9 else random_action_file(rng)
    text = serialize(dfile)
    code, out, err = _run_cli(["analyze"], "case.diagram", text,
                              ["--cap", "400", "--format", "machine"])
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        with pytest.raises(EqsingError) as info:
            run_analysis(parse_file(text), cap=400)
        assert not isinstance(info.value, InternalError), info.value
        return
    report = dict(line.split("=", 1) for line in out.splitlines())
    assert (code == 3) == (report["monodromy.verdict"] == "unknown")
    if report["monodromy.verdict"] != "infinite":
        return
    # rebuild the certificate from the printed lines alone and re-validate it
    rank = int(report["isotypic.rank"])
    rows = lambda key: tuple(_ints(report[f"{key}.{i}"]) for i in range(1, rank + 1))
    certificate = MonodromyElement(
        matrix=rows("monodromy.certificate.matrix"), gram=rows("gram"),
        word=tuple(report["monodromy.certificate.word"].split("*")))
    residual = report.get("monodromy.certificate.residual_charpoly")
    if residual is not None:
        verdict = Infinite(certificate, residual_charpoly=_ints(residual))
    else:
        verdict = Infinite(certificate, witness=_ints(report["monodromy.certificate.v"]),
                           increment=_ints(report["monodromy.certificate.w"]))
    assert verdict.validate()


@st.composite
def polynomial_files(draw):
    """The text of a small polynomial file: a `vars` header with counts in
    -1..2, a power of each variable, then up to three terms.  A coefficient
    may be 0 or 1/0, a variable out of range, a term odd in an x-block."""
    count = st.sampled_from((1, 2, 0, 1, 2, 1, 2, 0, 1, 2, 1, -1))
    m, n = draw(count), draw(count)
    names = [f"x{i}" for i in range(1, m + 1)] + [f"y{j}" for j in range(1, n + 1)]
    coef = st.sampled_from(("1", "-2", "1/3", "2", "-1", "1/2", "3", "5", "-3", "2/3",
                            "1", "7", "0", "1/0"))
    lines = [f"vars x:{m} y:{n}"]
    for name in names:
        power = draw(st.sampled_from((2, 4, 3) if name[0] == "x" else (2, 3, 5)))
        lines.append(f"{draw(coef)} {name}^{power}")
    factor = st.tuples(st.sampled_from(names * 4 + ["x3", "y3"]), st.integers(1, 3))
    for _ in range(draw(st.integers(0, 3))):
        factors = draw(st.lists(factor, min_size=1, max_size=2))
        mono = "*".join(f"{v}^{e}" for v, e in factors)
        lines.append(f"{draw(coef)} {mono}")
    return "\n".join(lines) + "\n"


@settings(derandomize=True, deadline=None, max_examples=200)
@given(polynomial_files(), st.booleans())
def test_random_polynomial_files_end_in_mu_or_a_typed_error(text, corner):
    code, out, err = _run_cli(["mu"], "germ.poly", text,
                              ["--max-degree", "8"] + (["--corner"] if corner else []))
    assert code in (0, 2)
    if code == 2:
        assert err.startswith("error: ")
        return
    lines = dict(line.split("=", 1) for line in out.splitlines())
    dims = [int(v) for k, v in lines.items() if k.startswith("isotypic.")]
    assert sum(dims) == int(lines["mu"])
