"""Acceptance criteria, one test per criterion, exact tolerances.

Each test prints one `ACCEPTANCE criterion N: PASS/FAIL` line (visible
with `pytest -s`) and then asserts that no sub-claim failed, so a failure
names the exact sub-claim.

Criterion 1 checks that the paper's element g = h5 h4 h1 has infinite
order on the invariant sublattice of M5 through the power law
g^s v = v + s*w with v = delta2+delta3.  The expected increment
w = 2*nabla - 2*nabla' is derived by hand from the restricted Gram matrix
(notes/decisions.md), not read off the program: reflections in delta1,
delta4, delta5 move v only inside span(delta1, delta4, delta5), so nabla
itself can never be the increment of this element.
"""
import itertools
import random
import time
from math import factorial

from eqsing import linalg
from eqsing.catalog import fixture_file, normal_form, quasihomogeneous_weights, weyl_order
from eqsing.diagram import DiagramFile, DynkinDiagram, parse_file, serialize, to_lattice
from eqsing.errors import EqsingError
from eqsing.lattice import IntLattice, inertia, kernel_basis
from eqsing.localalg import germ, milnor_number, quasihomogeneous_mu
from eqsing.monodromy import (
    action_from_file,
    equivariant_generators,
    power_law_check,
    run_analysis,
)
from oracles import (box_signs, mat_mul, mat_vec, pl_reflection, product, reflections,
                     word_element)


M5_NABLA = (2, 1, 1, 0, 0)  # 2 d1 + d2 + d3
M5_NABLA_P = (0, 1, 1, 1, 1)  # d2 + d3 + d4 + d5
M4_NABLA = (2, 1, 1, 0)
M4_NABLA_P = (0, 1, 1, 1)


def _report(criterion, failures, elapsed, detail=""):
    status = "PASS" if not failures else "FAIL"
    extra = f" — {detail}" if detail else ""
    print(f"\nACCEPTANCE criterion {criterion}: {status} ({elapsed:.2f}s){extra}")
    for f in failures:
        print(f"  sub-claim failed: {f}")


def _spans_same(vectors, expected):
    return linalg.hnf(vectors) == linalg.hnf(expected)


def test_criterion_1_m5_pipeline():
    t0 = time.monotonic()
    failures = []
    out = run_analysis(fixture_file("M5"))
    sub = out.sublattice
    if sub.rank != 5:
        failures.append(f"invariant rank {sub.rank} != 5")
    expected_basis = (
        (1, 0, 0, 0, 0, 0, 0, 0, 0),
        (0, 1, 0, 1, 0, 0, 0, 0, 0),
        (0, 0, 1, 0, 1, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 1, 0, 1, 0),
        (0, 0, 0, 0, 0, 0, 1, 0, 1),
    )
    if sub.basis != expected_basis:
        failures.append("basis does not match delta1..delta5")
    if sub.restricted_gram[1][1] != -4:
        failures.append(f"(delta2, delta2) = {sub.restricted_gram[1][1]} != -4")
    if out.inertia.as_tuple() != (0, 2, 3):
        failures.append(f"inertia {out.inertia.as_tuple()} != (0, 2, 3)")
    if not _spans_same(out.kernel, (M5_NABLA, M5_NABLA_P)):
        failures.append("kernel basis does not span {nabla, nabla'}")
    if out.verdict.kind != "infinite":
        failures.append(f"verdict {out.verdict} is not Infinite")
    else:
        try:
            out.verdict.validate()
        except AssertionError as exc:
            failures.append(f"certificate not self-validating: {exc}")
    # the power law of the paper's element g = h5 h4 h1 on v = delta2 + delta3:
    # the increment w = 2*nabla - 2*nabla' is derived by hand from the
    # restricted Gram matrix (notes/decisions.md), not taken from g
    gens = reflections(sub.restricted_gram, linalg.identity(sub.rank))
    g = word_element(gens, ("h5", "h4", "h1"))
    v = (0, 1, 1, 0, 0)
    w = tuple(2 * a - 2 * b for a, b in zip(M5_NABLA, M5_NABLA_P))
    gv_minus_v = tuple(a - b for a, b in zip(mat_vec(g.matrix, v), v))
    law_checks = (
        ("(g-I)v == w", gv_minus_v == w),
        ("w != 0", not linalg.is_zero_vec(w)),
        ("w in kernel of the restricted Gram matrix",
         linalg.is_zero_vec(mat_vec(sub.restricted_gram, w))),
        ("g^s v == v + s*w for s = 1..5", power_law_check(g, v, w, 5) is None),
    )
    for name, ok in law_checks:
        if not ok:
            failures.append(
                f"power law of g=h5*h4*h1 on v=delta2+delta3: check '{name}' fails; "
                f"expected w = 2*nabla - 2*nabla' = {w}, computed (g-I)v = {gv_minus_v}"
            )
    elapsed = time.monotonic() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 1 s")
    _report(1, failures, elapsed, "M5 pipeline, h5 h4 h1 increments by 2*nabla - 2*nabla'")
    assert not failures, "\n".join(failures)


def test_criterion_2_m4_pipeline():
    t0 = time.monotonic()
    failures = []
    out = run_analysis(fixture_file("M4"))
    sub = out.sublattice
    if sub.rank != 4:
        failures.append(f"invariant rank {sub.rank} != 4")
    if sub.basis[3] != (0, 0, 0, 0, 0, 1, 1, 1, 1):
        failures.append("delta4 != Delta6+Delta7+Delta8+Delta9")
    if not _spans_same(out.kernel, (M4_NABLA, M4_NABLA_P)):
        failures.append("kernel does not span {2d1+d2+d3, d2+d3+d4}")
    if out.verdict.kind != "infinite":
        failures.append(f"verdict {out.verdict} is not Infinite")
    else:
        out.verdict.validate()
    # infiniteness via the (h4 h1)^s law: the element shifts v = d2+d3 by a
    # fixed nonzero kernel vector at every step, s = 1..5 exactly
    gens = reflections(sub.restricted_gram, linalg.identity(sub.rank))
    g = word_element(gens, ("h4", "h1"))
    v = (0, 1, 1, 0)
    w = tuple(a - b for a, b in zip(mat_vec(g.matrix, v), v))
    if linalg.is_zero_vec(w):
        failures.append("(h4 h1) does not move delta2+delta3")
    if not linalg.is_zero_vec(mat_vec(sub.restricted_gram, w)):
        failures.append("increment of (h4 h1) is not a kernel vector")
    if power_law_check(g, v, w, 5) is not None:
        failures.append("(h4 h1)^s law fails for s in 1..5")
    elapsed = time.monotonic() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 1 s")
    _report(2, failures, elapsed, "M4 pipeline")
    assert not failures, "\n".join(failures)


def test_criterion_3_simple_catalog_orders():
    t0 = time.monotonic()
    failures = []
    cases = (
        [("A", k, factorial(k + 1)) for k in range(1, 7)]
        + [("D", 4, 192), ("D", 5, 1920), ("E6", None, 51840)]
        + [("B", k, 2**k * factorial(k)) for k in (2, 3, 4)]
        + [("C", 3, 48), ("C", 4, 384), ("F4", None, 1152)]
    )
    for sym, k, expected in cases:
        closed_form = weyl_order(sym, k)
        if closed_form != expected:
            failures.append(f"{sym}{k or ''}: closed form {closed_form} != {expected}")
        out = run_analysis(fixture_file(sym, k))
        if not out.inertia.negative_definite:
            failures.append(f"{sym}{k or ''}: form not negative definite")
        if out.verdict.kind != "finite" or out.verdict.order != expected:
            failures.append(
                f"{sym}{k or ''}: verdict {out.verdict} != Finite({expected})"
            )
    elapsed = time.monotonic() - t0
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 2 min")
    _report(3, failures, elapsed, "simple catalog BFS orders vs closed-form Weyl orders")
    assert not failures, "\n".join(failures)


def test_criterion_4_criterion_equivalence_all_fixtures():
    t0 = time.monotonic()
    failures = []
    fixtures = (
        [("A", k) for k in range(1, 9)]
        + [("D", k) for k in (4, 5, 6)]
        + [("B", k) for k in (2, 3, 4)]
        + [("C", k) for k in (2, 3, 4)]
        + [("E6", None), ("F4", None), ("M5", None), ("M4", None), ("X9", None)]
    )
    for sym, k in fixtures:
        out = run_analysis(fixture_file(sym, k))
        definite = out.inertia.negative_definite
        finite = out.verdict.kind == "finite"
        if out.verdict.kind == "unknown":
            failures.append(f"{sym}{k or ''}: verdict Unknown on a bundled fixture")
        elif definite != finite:
            failures.append(
                f"{sym}{k or ''}: negative definite = {definite} but finite = {finite}"
            )
    elapsed = time.monotonic() - t0
    _report(4, failures, elapsed,
            "negative definite <=> finite on every bundled fixture (E7/E8 excluded)")
    assert not failures, "\n".join(failures)


def test_criterion_5_local_algebra():
    t0 = time.monotonic()
    failures = []
    for k in range(1, 9):
        mu = milnor_number(normal_form("A", k=k)).mu
        if mu != k:
            failures.append(f"mu(A_{k}) = {mu} != {k}")
    rep_t = milnor_number(germ({(4, 0): 1, (0, 4): 1, (2, 2): 1}, 2, 0))
    if rep_t.mu != 9:
        failures.append(f"mu(x1^4+x2^4+x1^2x2^2) = {rep_t.mu} != 9")
    if rep_t.dim_of((1,)) != 5:
        failures.append(f"T_20 invariant dim = {rep_t.dim_of((1,))} != 5")
    rep_s = milnor_number(germ({(4, 0): 1, (0, 4): 1, (2, 2): 1}, 2, 0, corner=True))
    if rep_s.dim_of((1, 1)) != 4:
        failures.append(f"S_20 matching dim = {rep_s.dim_of((1, 1))} != 4")
    quasi = (
        [("A", k) for k in (1, 2, 3, 4, 5, 6, 7, 8)]
        + [("D", k) for k in (4, 5, 6)]
        + [("E6", None), ("E7", None), ("E8", None)]
        + [("B", k) for k in (2, 3, 4)]
        + [("C", k) for k in (2, 3, 4)]
        + [("F4", None)]
    )
    for sym, k in quasi:
        mu = milnor_number(normal_form(sym, k=k)).mu
        oracle = quasihomogeneous_mu(quasihomogeneous_weights(sym, k=k))
        if mu != oracle:
            failures.append(f"{sym}{k or ''}: mu {mu} != quasihomogeneous oracle {oracle}")
    for sym, a in [("P8", 0), ("X9", 1), ("J10", 1), ("F10", 1), ("K42", 1),
                   ("L6", 0), ("M5", 1), ("M4", 1)]:
        mu = milnor_number(normal_form(sym, modulus=a)).mu
        oracle = quasihomogeneous_mu(quasihomogeneous_weights(sym))
        if mu != oracle:
            failures.append(f"{sym}: mu {mu} != oracle {oracle}")
    elapsed = time.monotonic() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 10 s")
    _report(5, failures, elapsed, "local algebra and quasihomogeneous oracle")
    assert not failures, "\n".join(failures)


def test_criterion_6_fig1_encoding_gate():
    t0 = time.monotonic()
    failures = []
    nabla_amb = (2, 1, 1, 1, 1, 0, 0, 0, 0)
    nabla_p_amb = (0, 1, 1, 1, 1, 1, 1, 1, 1)

    def gate(dfile):
        lat = to_lattice(dfile.diagram)
        idx = {v: i for i, v in enumerate(dfile.diagram.vertex_ids())}
        if lat.gram[idx[2]][idx[4]] != 0:
            return False
        from eqsing.action import isotypic_sublattice

        action, chi = action_from_file(dfile)
        sub = isotypic_sublattice(action, chi)
        ok = all(
            product(lat.gram, v, b) == 0
            for v in (nabla_amb, nabla_p_amb)
            for b in sub.basis
        )
        return ok and product(lat.gram, sub.basis[1], sub.basis[1]) == -4

    for name in ("M5", "M4"):
        dfile = fixture_file(name)
        if not gate(dfile):
            failures.append(f"{name}: solid=+1/dotted=-1 gate fails")
        flipped = DiagramFile(
            diagram=DynkinDiagram(
                vertices=dfile.diagram.vertices,
                edges=tuple((i, j, -w) for i, j, w in dfile.diagram.edges),
            ),
            generators=dfile.generators,
            character=dfile.character,
        )
        if gate(flipped):
            failures.append(f"{name}: flipped sign convention wrongly passes the gate")
    elapsed = time.monotonic() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 1 s")
    _report(6, failures, elapsed, "fig1 sign-convention gate with negative test")
    assert not failures, "\n".join(failures)


def test_criterion_7_property_suites():
    t0 = time.monotonic()
    failures = []
    rng = random.Random(424242)

    # reflections: involutivity and form preservation on random lattices
    checked = 0
    while checked < 200:
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
        checked += 1
        if mat_mul(h.matrix, h.matrix) != linalg.identity(n):
            failures.append(f"reflection in {delta} on {lat.gram} not involutive")
            break
        G = lat.gram
        if mat_mul(mat_mul(linalg.transpose(h.matrix), G), h.matrix) != G:
            failures.append("reflection does not preserve the form")
            break

    # kernel fixed pointwise on both equivariant fixtures
    for name in ("M5", "M4", "X9"):
        action, chi = action_from_file(fixture_file(name))
        sub, roots = equivariant_generators(action, chi)
        ker = kernel_basis(sub.lattice())
        for g in reflections(sub.restricted_gram, roots):
            for v in ker:
                if mat_vec(g.matrix, v) != v:
                    failures.append(f"{name}: kernel vector {v} moved by {g.word}")

    # inertia vs brute force on >= 500 random small lattices
    boxes = 0
    for _ in range(500):
        n = rng.randint(1, 4)
        M = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                M[i][j] = M[j][i] = rng.randint(-3, 3)
        lat = IntLattice(linalg.freeze(M))
        sig = inertia(lat)
        pos, neg, zero = box_signs(lat)
        boxes += 1
        if pos and sig.n_plus == 0 or neg and sig.n_minus == 0:
            failures.append(f"brute-force sign missing from inertia for {lat.gram}")
            break
        if (sig.as_tuple() == (0, 0, n)) != (not pos and not zero):
            failures.append(f"negative-definiteness mismatch for {lat.gram}")
            break
        if (sig.as_tuple() == (n, 0, 0)) != (not neg and not zero):
            failures.append(f"positive-definiteness mismatch for {lat.gram}")
            break
        if sig.n_plus and not pos or sig.n_minus and not neg:
            failures.append(f"inertia sign without box witness for {lat.gram}")
            break
        if sig.n_zero and all(
            all(abs(x) <= 5 for x in kv) for kv in kernel_basis(lat)
        ) and not zero:
            failures.append(f"kernel in box but no zero value for {lat.gram}")
            break
    if boxes < 500:
        failures.append("fewer than 500 brute-force cases")

    # parse/serialize round trips: fixtures and random diagrams
    for name in ("m5", "m4", "x9"):
        df = fixture_file(name.upper())
        if parse_file(serialize(df)) != df:
            failures.append(f"{name} round trip failed")
    for _ in range(100):
        n = rng.randint(1, 6)
        vertices = tuple((i, rng.choice((-2, -4, 2))) for i in range(1, n + 1))
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        rng.shuffle(pairs)
        edges = tuple(
            (i, j, rng.choice((-2, -1, 1, 3))) for i, j in pairs[: rng.randint(0, len(pairs))]
        )
        d = DynkinDiagram(vertices=vertices, edges=edges)
        if parse_file(serialize(d)).diagram != d:
            failures.append(f"random diagram round trip failed: {d}")
            break
    elapsed = time.monotonic() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 30 s")
    _report(7, failures, elapsed, "property suites")
    assert not failures, "\n".join(failures)
