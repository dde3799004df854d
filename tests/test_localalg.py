"""Local algebra: Milnor numbers and isotypic dimensions."""
import random
import re
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings, strategies as st

from eqsing import localalg
from eqsing.catalog import normal_form
from eqsing.errors import DiagramError, EqsingError
from eqsing.localalg import (
    _reduce,
    germ,
    milnor_number,
    parse_germ,
    quasihomogeneous_mu,
)
from oracles import milnor_number_by_truncation, reduce_rational


def x9_member(a=1, corner=False):
    # x1^4 + x2^4 + a x1^2 x2^2
    return germ(
        {(4, 0): 1, (0, 4): 1, (2, 2): Fraction(a)}, m=2, n=0, corner=corner
    )


def test_a_k_series():
    for k in range(1, 9):
        f = germ({(k + 1,): 1}, m=0, n=1)
        assert milnor_number(f).mu == k


def test_m5_member_mu_and_isotypic_dims():
    rep = milnor_number(x9_member())
    assert rep.mu == 9
    # single Z2 negating both x's: invariant part has dimension 5
    assert rep.dim_of((1,)) == 5
    assert rep.dim_of((-1,)) == 4


def test_m4_member_corner_dims():
    rep = milnor_number(x9_member(corner=True))
    assert rep.mu == 9
    # corner action: the invariant part (matching the rank-4 homology
    # subspace through the local-algebra correspondence) has dimension 4
    assert rep.dim_of((1, 1)) == 4
    assert rep.dim_of((-1, -1)) == 1
    assert rep.dim_of((1, -1)) == 2
    assert rep.dim_of((-1, 1)) == 2


def test_isotypic_dims_sum_to_mu():
    for f in (x9_member(), x9_member(corner=True), germ({(5,): 1}, 0, 1)):
        rep = milnor_number(f)
        assert sum(d for _, d in rep.isotypic_dims) == rep.mu


def test_modulus_changes_nothing_generic():
    assert milnor_number(x9_member(a=Fraction(1, 3))).mu == 9
    assert milnor_number(x9_member(a=-5)).mu == 9


def test_non_isolated_not_certified():
    # x1^2 y1: the Jacobian ideal (x1 y1, x1^2) has infinite quotient
    f = germ({(2, 1): 1}, m=1, n=1)
    with pytest.raises(EqsingError, match="quotient not certified at degree 12$"):
        milnor_number(f, max_degree=12)


def test_monomial_table_is_bounded():
    # y1^2 in 30 variables is not isolated; the table of degree 5 would
    # hold C(35, 5) monomials, so the refusal comes before it is built
    f = germ({(2,) + (0,) * 29: 1}, m=0, n=30)
    with pytest.raises(EqsingError, match=f"degree 5 would hold {comb(35, 5)} "):
        milnor_number(f)


def test_invariance_checked():
    with pytest.raises(EqsingError, match=r"monomial \(3, 0\) is odd in the sigma-block"):
        germ({(3, 0): 1, (0, 2): 1}, m=1, n=1)  # x^3 is odd in x


def test_constant_term_rejected():
    with pytest.raises(EqsingError, match="germ must vanish at the origin"):
        germ({(0, 0): 1, (2, 0): 1}, m=1, n=1)


@pytest.mark.parametrize("coefficient", ["1_0", " 3 ", "\u0663", "1/0", "0.5", "x", "10"])
def test_string_coefficient_is_refused(coefficient):
    # the library takes numbers; a string, which Fraction would read with its
    # own grammar (underscores, spaces, non-ASCII digits), is refused
    with pytest.raises(EqsingError, match=f"^bad coefficient {re.escape(repr(coefficient))}$"):
        germ({(2,): coefficient}, 0, 1)
    assert germ({(2,): Fraction(-3, 6)}, 0, 1).terms == (((2,), Fraction(-1, 2)),)


def test_stabilization_consistency_y_square():
    base = milnor_number(x9_member())
    f2 = germ(
        {(4, 0, 0): 1, (0, 4, 0): 1, (2, 2, 0): 1, (0, 0, 2): 1}, m=2, n=1
    )
    rep = milnor_number(f2)
    assert rep.mu == base.mu
    assert [d for _, d in rep.isotypic_dims] == [d for _, d in base.isotypic_dims]


def test_stabilization_consistency_x_square_same_generator():
    base = milnor_number(x9_member())
    f2 = germ(
        {(4, 0, 0): 1, (0, 4, 0): 1, (2, 2, 0): 1, (0, 0, 2): 1}, m=3, n=0
    )
    rep = milnor_number(f2)
    assert rep.mu == base.mu
    assert [d for _, d in rep.isotypic_dims] == [d for _, d in base.isotypic_dims]


def test_stabilization_consistency_fresh_corner_generator():
    base = milnor_number(x9_member(corner=True))
    f2 = germ(
        {(4, 0, 0): 1, (0, 4, 0): 1, (2, 2, 0): 1, (0, 0, 2): 1},
        m=3,
        n=0,
        corner=True,
    )
    rep = milnor_number(f2)
    assert rep.mu == base.mu
    # old dims appear at the chi extended by +1 on the new generator
    for chi, d in base.isotypic_dims:
        assert rep.dim_of(chi + (1,)) == d
        assert rep.dim_of(chi + (-1,)) == 0


def test_scaling_invariance():
    f = germ({(4, 0): 1, (0, 4): 1, (2, 2): 1}, 2, 0)
    g = germ({(4, 0): Fraction(81), (0, 4): 1, (2, 2): Fraction(9)}, 2, 0)  # x -> 3x
    assert milnor_number(f).mu == milnor_number(g).mu
    # permutation of the two x variables
    h = germ({(0, 4): 1, (4, 0): 1, (2, 2): 1}, 2, 0)
    assert milnor_number(h).isotypic_dims == milnor_number(f).isotypic_dims


def test_quasihomogeneous_mu_examples():
    # A4 stabilized: weights (1/2, 1/5)
    assert quasihomogeneous_mu((Fraction(1, 2), Fraction(1, 5))) == 4
    # x^4 + y^4 type
    assert quasihomogeneous_mu((Fraction(1, 4), Fraction(1, 4))) == 9
    # F4 normal form x1^4 + x2^2 + y1^3
    assert (
        quasihomogeneous_mu((Fraction(1, 4), Fraction(1, 2), Fraction(1, 3))) == 6
    )
    f4 = germ({(4, 0, 0): 1, (0, 2, 0): 1, (0, 0, 3): 1}, m=2, n=1)
    assert milnor_number(f4).mu == 6


def test_quasihomogeneous_mu_rejects():
    with pytest.raises(EqsingError, match=r"weight 2/3 outside \(0, 1/2\]"):
        quasihomogeneous_mu((Fraction(2, 3),))  # weight > 1/2
    with pytest.raises(EqsingError, match="product formula gives non-integer 5/2"):
        quasihomogeneous_mu((Fraction(1, 2), Fraction(2, 7)))  # non-integer product
    # a weight is a finite number, as a coefficient of PolyGerm is: a string
    # is not read with Python's grammar, and NaN is no weight
    for weight in ("1_0/3_0", float("nan"), object()):
        with pytest.raises(EqsingError, match=f"^bad weight {re.escape(repr(weight))}$") as info:
            quasihomogeneous_mu((Fraction(1, 3), weight))
        assert type(info.value) is EqsingError


def test_parse_germ_format():
    f = parse_germ("vars x:2 y:0\n1 x1^4\n1 x2^4\n1 x1^2*x2^2\n")
    assert milnor_number(f).mu == 9
    f = parse_germ("vars x:0 y:1\n1 y1^5\n")
    assert milnor_number(f).mu == 4
    # rational coefficients and repeated monomials accumulate
    f = parse_germ("vars x:1 y:0\n1/2 x1^4\n1/2 x1^4\n")
    assert dict(f.terms) == {(4,): Fraction(1)}


def test_parse_germ_errors():
    with pytest.raises(DiagramError, match="line 1: term before vars header"):
        parse_germ("1 x1^4\n")  # term before header
    with pytest.raises(DiagramError, match="line 2: expected `<rational_coef> <monomial>`"):
        parse_germ("vars x:1 y:0\nbogus\n")
    with pytest.raises(DiagramError, match="line 2: x2 out of range"):
        parse_germ("vars x:1 y:0\n1 x2^2\n")  # out of range
    with pytest.raises(DiagramError, match="line 1: expected `vars x:<m> y:<n>`"):
        parse_germ("vars q:1\n")


def test_parse_germ_names_the_line():
    header = "expected `vars x:<m> y:<n>` with m, n >= 0"
    cases = [
        ("vars x:-1 y:2\n1 y1^3\n", 1, header),  # negative count
        ("vars x:0\n", 1, header),  # missing count
        ("# A2\nvars x:0 y:1\n1/0 y1^3\n", 3, "bad coefficient '1/0'"),  # zero denominator
        ("vars x:0 y:1\nabc y1^3\n", 2, "bad coefficient 'abc'"),
    ]
    for text, line, detail in cases:
        with pytest.raises(DiagramError) as exc:
            parse_germ(text)
        assert exc.value.line == line and exc.value.detail == detail


def test_truncation_degree_is_reported():
    rep = milnor_number(x9_member())
    assert rep.truncation_degree == 5


# (symbol, k, m, n, modulus) -> (mu, isotypic dims in binary character
# order, truncation degree): every family's normal form at its minimal
# (m, n), moduli as in acceptance criterion 5, then the stabilised forms
# of the benchmark's `mu` workload
PINNED = {
    ("A", 1, None, None, None): (1, (1,), 1),
    ("A", 8, None, None, None): (8, (8,), 8),
    ("D", 4, None, None, None): (4, (4,), 3),
    ("D", 6, None, None, None): (6, (6,), 5),
    ("E6", None, None, None, None): (6, (6,), 4),
    ("E7", None, None, None, None): (7, (7,), 5),
    ("E8", None, None, None, None): (8, (8,), 5),
    ("B", 2, None, None, None): (3, (2, 1), 3),
    ("B", 4, None, None, None): (7, (4, 3), 7),
    ("C", 2, None, None, None): (3, (2, 1), 3),
    ("C", 4, None, None, None): (5, (4, 1), 4),
    ("F4", None, None, None, None): (6, (4, 2), 4),
    ("P8", None, None, None, "0"): (8, (8,), 4),
    ("X9", None, None, None, "1"): (9, (9,), 5),
    ("J10", None, None, None, "1"): (10, (10,), 7),
    ("F10", None, None, None, "1"): (10, (6, 4), 7),
    ("K42", None, None, None, "1"): (9, (6, 3), 5),
    ("L6", None, None, None, "0"): (8, (6, 2), 4),
    ("M5", None, None, None, "1"): (9, (5, 4), 5),
    ("M4", None, None, None, "1"): (9, (4, 2, 2, 1), 5),
    ("A", 16, 1, 3, None): (16, (16, 0), 16),
    ("A", 20, 0, 4, None): (20, (20,), 20),
    ("D", 16, 1, 3, None): (16, (16, 0), 15),
    ("B", 8, 2, 2, None): (15, (8, 7), 15),
    ("J10", None, 2, 3, "1"): (10, (10, 0), 7),
    ("F10", None, 2, 3, "1"): (10, (6, 4), 7),
}

def _form_id(form):
    symbol, k, m, n, _ = form
    return f"{symbol}{k or ''}" + (f"(m={m},n={n})" if m is not None else "")


def _normal_form(form):
    # the moduli are written as the benchmark's specs write them, and read as
    # its worker reads them: the library takes numbers, not strings
    symbol, k, m, n, modulus = form
    modulus = None if modulus is None else Fraction(modulus)
    return normal_form(symbol, k=k, m=m, n=n, modulus=modulus)


@pytest.mark.parametrize("form", list(PINNED), ids=_form_id)
def test_pinned_reports(form):
    f = _normal_form(form)
    rep = milnor_number(f)
    dims = tuple(d for _, d in rep.isotypic_dims)
    assert (rep.mu, dims, rep.truncation_degree) == PINNED[form]
    assert rep == milnor_number_by_truncation(f)


def test_rows_are_bounded_over_all_degrees(monkeypatch):
    # MAX_ROWS counts every row built, whatever its degree: exactly the
    # rows X9 needs still certify, one fewer refuses at the degree below
    f = normal_form("X9", modulus=Fraction(1))
    built = []
    monkeypatch.setattr(localalg, "_reduce",
                        lambda pivots, row, _reduce=localalg._reduce:
                        built.append(row) or _reduce(pivots, row))
    report, rows = milnor_number(f), len(built)
    monkeypatch.setattr(localalg, "MAX_ROWS", rows)
    assert milnor_number(f) == report
    monkeypatch.setattr(localalg, "MAX_ROWS", rows - 1)
    degree = report.truncation_degree
    with pytest.raises(EqsingError, match=f"not certified at degree {degree - 1}: "
                                          f"degree {degree} would take"):
        milnor_number(f)


@pytest.mark.parametrize("form", list(PINNED), ids=_form_id)
def test_truncation_degree_is_minimal(form):
    # no lower degree certifies: the report's D is the first that does
    degree = PINNED[form][2]
    with pytest.raises(EqsingError, match=f"not certified at degree {degree - 1}$"):
        milnor_number(_normal_form(form), max_degree=degree - 1)


def _outcome(mu, f, max_degree):
    """The report, or the type and message of the error raised."""
    try:
        return mu(f, max_degree=max_degree)
    except EqsingError as exc:
        return type(exc), str(exc)


@st.composite
def random_germs(draw):
    """(germ, max_degree): m <= 2 x- and n <= 3 y-variables, each with a
    power or none, and up to three more terms with exponents up to 7, made
    invariant by raising an odd x-exponent; max_degree in 0..10."""
    m, n = draw(st.integers(0, 2)), draw(st.integers(0, 3))
    corner = draw(st.booleans())
    coef = st.sampled_from((1, -1, 2, 3, Fraction(1, 2), Fraction(-2, 3)))
    exponents = []
    for v in range(m + n):
        power = draw(st.sampled_from((None, 2, 4) if v < m else (None, 1, 2, 3, 5)))
        if power:
            exponents.append(tuple(power if w == v else 0 for w in range(m + n)))
    exponents += draw(st.lists(st.tuples(*[st.integers(0, 7)] * (m + n)), max_size=3))
    terms = {}
    for e in exponents:
        e = list(e)
        for i in range(m):  # even in each x (corner) or in x1 + ... + xm
            if e[i] % 2 and (corner or sum(e[:m]) % 2):
                e[i] += 1
        if any(e):
            terms[tuple(e)] = draw(coef)
    return germ(terms, m, n, corner=corner), draw(st.integers(0, 10))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(random_germs())
def test_random_germs_match_the_truncation_oracle(case):
    f, max_degree = case
    assert (_outcome(milnor_number, f, max_degree)
            == _outcome(milnor_number_by_truncation, f, max_degree))


def test_terms_above_max_degree_are_cut():
    # y1 y2^26 is above the default max_degree of 24, and so are the terms
    # of degree 26 of its partials; D4 is 3-determined, so they change nothing
    f = germ({(2, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1, (0, 1, 26): 1}, m=1, n=2)
    rep = milnor_number(f)
    assert (rep.mu, tuple(d for _, d in rep.isotypic_dims), rep.truncation_degree) == (
        4, (4, 0), 3)
    assert rep == milnor_number_by_truncation(f)


def test_reduce_keeps_primitive_integer_rows():
    # the kernel stays on integers: every reduced row has int entries with
    # gcd 1 (a stray Fraction would give the same answers, only slower),
    # and it is a multiple of the rational elimination's row, whose pivots
    # it shares
    rng = random.Random(1968)
    for _ in range(50):
        pivots, rational = {}, {}
        for _ in range(rng.randint(1, 12)):
            scale = rng.choice((1, 2, 6))
            row = {c: scale * rng.choice((-3, -2, -1, 1, 2, 3))
                   for c in rng.sample(range(10), rng.randint(1, 6))}
            out = _reduce(pivots, dict(row))
            ref = reduce_rational(rational, {c: Fraction(v) for c, v in row.items()})
            assert out.keys() == ref.keys()
            if out:
                assert all(type(v) is int for v in out.values())
                assert gcd(*out.values()) == 1
                lead = min(out)
                assert all(v * ref[lead] == ref[c] * out[lead] for c, v in out.items())
                pivots[lead] = out
                rational[lead] = ref
