"""The classification as data: one row per family in `FAMILIES`, and the
diagram/action fixtures.  The criterion a verdict runs,
`run_analysis`, is `monodromy`'s, so `analyze` never loads the family
table.  `fractions` is imported only by the three functions that read a
row's rationals, and one function, `_entry`, checks the (symbol, k) of
every call without reading a weight, so `catalog verdict` never loads it.

Simple families: A_k, D_k, E6, E7, E8, B_k, C_k, F4 (identical lists in
the single-Z2 and corner settings, up to renumbering of generators);
B_k, C_k and F4 are boundary singularities (Arnold 1978).  Confining
families: P8, X9, J10, F10, K42, L6, and M5 (single Z2) or M4 (corner),
each with its excluded modulus locus.

A row's weights are hand-written, not solved from its terms, so the
quasihomogeneous mu formula stays an independent check of each normal
form; the minimum numbers of x and y variables are the weight-block
lengths.  `weyl_order` is a separate closed-form oracle.

Folded fixtures realize B_k inside A_{2k-1}, C_k inside D_{k+1} and F4
inside E6 by a sign-lifted diagram automorphism; the chosen lifts are the
ones validated by the build-time oracle (isotypic rank, negative
definiteness, and Weyl group order) in the test suite.
"""
from math import factorial

from . import monodromy
from .diagram import DiagramFile, DynkinDiagram, parse_file
from .errors import EqsingError, is_int
from .monodromy import run_analysis
from .record import Record

# run_analysis is monodromy's; re-exported because perfbench/worker.py reads catalog.run_analysis
__all__ = ["FAMILIES", "SIMPLE_SYMBOLS", "FamilyEntry", "confining_list", "fixture_file",
           "normal_form", "quasihomogeneous_weights", "run_analysis", "weyl_order"]


# --------------------------------------------------------------------------
# fixture builders


def _diagram(n, edges):
    """n cycles of self-intersection -2 joined by the unit-weight `edges`."""
    vertices = tuple((i, -2) for i in range(1, n + 1))
    return DynkinDiagram(vertices=vertices, edges=tuple((i, j, 1) for i, j in edges))


def _chain(n):
    return _diagram(n, [(i, i + 1) for i in range(1, n)])


def _d_diagram(n):
    # chain 1..n-1 with vertex n forked off vertex n-2
    return _diagram(n, [(i, i + 1) for i in range(1, n - 1)] + [(n - 2, n)])


def _e_diagram(n):
    # Bourbaki: chain 1-3-4-...-n with vertex 2 attached to 4
    return _diagram(n, [(1, 3), (2, 4)] + [(i, i + 1) for i in range(3, n)])


def _folded(diagram, images):
    """The diagram with the sign-lifted automorphism sigma and chi(sigma) = -1."""
    return DiagramFile(diagram, (("sigma", images),), (("sigma", -1),))


def _b_fixture(k):
    # A_{2k-1} chain with -(chain reversal)
    nn = 2 * k - 1
    return _folded(_chain(nn), tuple((i, nn + 1 - i, -1) for i in range(1, nn + 1)))


def _c_fixture(k):
    # D_{k+1} with -(fork swap)
    nn = k + 1
    fixed = tuple((i, i, -1) for i in range(1, nn - 1))
    return _folded(_d_diagram(nn), fixed + ((nn - 1, nn, -1), (nn, nn - 1, -1)))


def _f4_fixture(k):
    # E6 with -(arm swap): 1<->6, 3<->5, fixing 2 and 4
    images = ((1, 6, -1), (6, 1, -1), (3, 5, -1), (5, 3, -1), (2, 2, -1), (4, 4, -1))
    return _folded(_e_diagram(6), images)


def _shipped(name):
    """The fixture shipped as `fixtures/<name>.diagram`.  `importlib.resources`
    is loaded here, for M5, M4 and X9 only: without `site` it is 63 modules."""
    from importlib import resources

    return parse_file((resources.files("eqsing") / "fixtures" / f"{name}.diagram").read_text())


# --------------------------------------------------------------------------
# the family table


class FamilyEntry(Record):
    """One family.  `terms(k, a)` gives the core terms as polynomial-file
    lines; `weights(k)` the hand-written weights of the core x- and
    y-variables as two space-separated strings; `excluded(a)` is true on
    the locus `modulus_rule` excludes; `fixture(k)` builds the
    DiagramFile.  An indexed family builds a fixture for every k from
    `k_min` on, up to the root search's entry bound (`fixture_file`).
    `kind` is "simple" or "confining", `setting` "z2", "corner" or
    "both", and `modulus_rule` the exclusion in words; the fields from
    `k_min` on are None when not given."""

    __slots__ = ("symbol", "kind", "setting", "template", "terms", "weights",
                 "k_min", "modulus_rule", "excluded", "fixture")
    _defaults = dict.fromkeys(__slots__[6:])

    def describe(self):
        out = self.symbol
        if self.k_min is not None:
            out += f"_k (k >= {self.k_min})"
        if self.modulus_rule:
            out += f" [{self.modulus_rule}]"
        return out

    def block_weights(self, k):
        """(x-block, y-block) weights of the core variables, as Fractions."""
        from fractions import Fraction

        return tuple(tuple(Fraction(w) for w in block.split()) for block in self.weights(k))

    @property
    def min_vars(self):
        """The fewest (m, n) the core terms need."""
        return tuple(len(block) for block in self.block_weights(self.k_min))


FAMILIES = {e.symbol: e for e in (
    FamilyEntry("A", "simple", "both", "x1^2+...+xm^2+y1^(k+1)", k_min=1,
                terms=lambda k, a: (f"1 y1^{k + 1}",), weights=lambda k: ("", f"1/{k + 1}"),
                fixture=lambda k: DiagramFile(_chain(k))),
    FamilyEntry("D", "simple", "both", "x1^2+...+xm^2+y1^2*y2+y2^(k-1)", k_min=4,
                terms=lambda k, a: ("1 y1^2*y2", f"1 y2^{k - 1}"),
                weights=lambda k: ("", f"{k - 2}/{2 * (k - 1)} 1/{k - 1}"),
                fixture=lambda k: DiagramFile(_d_diagram(k))),
    FamilyEntry("E6", "simple", "both", "x1^2+...+xm^2+y1^3+y2^4",
                terms=lambda k, a: ("1 y1^3", "1 y2^4"), weights=lambda k: ("", "1/3 1/4"),
                fixture=lambda k: DiagramFile(_e_diagram(6))),
    FamilyEntry("E7", "simple", "both", "x1^2+...+xm^2+y1^3+y1*y2^3",
                terms=lambda k, a: ("1 y1^3", "1 y1*y2^3"), weights=lambda k: ("", "1/3 2/9"),
                fixture=lambda k: DiagramFile(_e_diagram(7))),
    FamilyEntry("E8", "simple", "both", "x1^2+...+xm^2+y1^3+y2^5",
                terms=lambda k, a: ("1 y1^3", "1 y2^5"), weights=lambda k: ("", "1/3 1/5"),
                fixture=lambda k: DiagramFile(_e_diagram(8))),
    FamilyEntry("B", "simple", "both", "x1^(2k)+x2^2+...+xm^2", k_min=2,
                terms=lambda k, a: (f"1 x1^{2 * k}",), weights=lambda k: (f"1/{2 * k}", ""),
                fixture=_b_fixture),
    FamilyEntry("C", "simple", "both", "x1^2*y1+x2^2+...+xm^2+y1^k", k_min=2,
                terms=lambda k, a: ("1 x1^2*y1", f"1 y1^{k}"),
                weights=lambda k: (f"{k - 1}/{2 * k}", f"1/{k}"),
                fixture=_c_fixture),
    FamilyEntry("F4", "simple", "both", "x1^4+x2^2+...+xm^2+y1^3",
                terms=lambda k, a: ("1 x1^4", "1 y1^3"), weights=lambda k: ("1/4", "1/3"),
                fixture=_f4_fixture),
    FamilyEntry("P8", "confining", "both", "y1^3+y2^3+y3^3+a*y1*y2*y3",
                terms=lambda k, a: ("1 y1^3", "1 y2^3", "1 y3^3", f"{a} y1*y2*y3"),
                weights=lambda k: ("", "1/3 1/3 1/3"),
                modulus_rule="a^3+27 != 0", excluded=lambda a: a**3 + 27 == 0),
    FamilyEntry("X9", "confining", "both", "y1^4+y2^4+a*y1^2*y2^2",
                terms=lambda k, a: ("1 y1^4", "1 y2^4", f"{a} y1^2*y2^2"),
                weights=lambda k: ("", "1/4 1/4"), fixture=lambda k: _shipped("x9"),
                modulus_rule="a^2 != 4", excluded=lambda a: a * a == 4),
    FamilyEntry("J10", "confining", "both", "y1^3+y2^6+a*y1^2*y2^2",
                terms=lambda k, a: ("1 y1^3", "1 y2^6", f"{a} y1^2*y2^2"),
                weights=lambda k: ("", "1/3 1/6"),
                modulus_rule="4a^3+27 != 0", excluded=lambda a: 4 * a**3 + 27 == 0),
    FamilyEntry("F10", "confining", "both", "x1^6+y1^3+a*x1^2*y1^2",
                terms=lambda k, a: ("1 x1^6", "1 y1^3", f"{a} x1^2*y1^2"),
                weights=lambda k: ("1/6", "1/3"),
                modulus_rule="4a^3+27 != 0", excluded=lambda a: 4 * a**3 + 27 == 0),
    FamilyEntry("K42", "confining", "both", "x1^4+y1^4+a*x1^2*y1^2",
                terms=lambda k, a: ("1 x1^4", "1 y1^4", f"{a} x1^2*y1^2"),
                weights=lambda k: ("1/4", "1/4"),
                modulus_rule="a^2 != 4", excluded=lambda a: a * a == 4),
    FamilyEntry("L6", "confining", "both", "x1^2*y1+a*x1^2*y2+y1^3+y2^3",
                terms=lambda k, a: ("1 x1^2*y1", f"{a} x1^2*y2", "1 y1^3", "1 y2^3"),
                weights=lambda k: ("1/3", "1/3 1/3"),
                modulus_rule="a^3 != 1", excluded=lambda a: a**3 == 1),
    FamilyEntry("M5", "confining", "z2", "x1^4+x2^4+a*x1^2*x2^2",
                terms=lambda k, a: ("1 x1^4", "1 x2^4", f"{a} x1^2*x2^2"),
                weights=lambda k: ("1/4 1/4", ""), fixture=lambda k: _shipped("m5"),
                modulus_rule="a^2 != 4", excluded=lambda a: a * a == 4),
    FamilyEntry("M4", "confining", "corner", "x1^4+x2^4+a*x1^2*x2^2",
                terms=lambda k, a: ("1 x1^4", "1 x2^4", f"{a} x1^2*x2^2"),
                weights=lambda k: ("1/4 1/4", ""), fixture=lambda k: _shipped("m4"),
                modulus_rule="a^2 != 4", excluded=lambda a: a * a == 4),
)}

SIMPLE_SYMBOLS = tuple(s for s, e in FAMILIES.items() if e.kind == "simple")


def confining_list(setting):
    """Confining families for the requested setting, M5/M4 last."""
    if setting not in ("z2", "corner"):
        raise EqsingError(f"unknown setting {setting!r} (use z2 or corner)")
    return tuple(
        e for e in FAMILIES.values()
        if e.kind == "confining" and e.setting in (setting, "both")
    )


def _entry(symbol, k):
    """The row of `symbol`, for an index `k` that the row takes: the one
    check of (symbol, k) behind `normal_form`, `quasihomogeneous_weights`,
    `weyl_order` and `fixture_file`.  It reads no weights, so a verdict
    loads no `fractions`."""
    if not isinstance(symbol, str):
        raise EqsingError(f"unknown family symbol {symbol!r}")
    symbol = symbol.upper()
    entry = FAMILIES.get(symbol)
    if entry is None:
        raise EqsingError(f"unknown family symbol {symbol!r}")
    if entry.k_min is not None:
        if k is None:
            raise EqsingError(f"{symbol} requires the index k")
        if not is_int(k):
            raise EqsingError(f"{symbol}: k must be an integer, got {k!r}")
        if k < entry.k_min:
            raise EqsingError(f"{symbol}: k must be >= {entry.k_min}, got {k}")
    elif k is not None:
        raise EqsingError(f"{symbol} takes no index k")
    return entry


def _family(symbol, k, m, n):
    """(row, m, n) for checked arguments; m and n default to the minimum."""
    entry = _entry(symbol, k)
    mmin, nmin = entry.min_vars
    m = mmin if m is None else m
    n = nmin if n is None else n
    if m < mmin or n < nmin:
        raise EqsingError(f"{entry.symbol} needs at least m={mmin}, n={nmin} variables")
    return entry, m, n


def normal_form(symbol, k=None, m=None, n=None, modulus=None):
    """Instantiate a family's normal-form polynomial as a PolyGerm.

    Extra x/y variables beyond the template minimum are filled with
    squares (stabilization).  Confining families require their modulus, a
    number; a string is refused (the CLI reads one with `parse_rational`).
    M4 is built with the corner (Z2^m) block structure, everything else
    with the single-Z2 action negating all x's.
    """
    from fractions import Fraction

    entry, m, n = _family(symbol, k, m, n)
    a = None
    if entry.kind == "confining":
        if modulus is None:
            raise EqsingError(f"{entry.symbol} requires the modulus a")
        bad = EqsingError(f"{entry.symbol}: bad modulus {modulus!r}")
        if isinstance(modulus, str):
            raise bad
        try:
            a = Fraction(modulus)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            raise bad from None
        if entry.excluded(a):
            raise EqsingError(f"{entry.symbol}: modulus excluded by "
                              f"{entry.modulus_rule} (a={a})")
    elif modulus is not None:
        raise EqsingError(f"{entry.symbol} takes no modulus")
    from .localalg import _check_table, parse_germ  # verdicts never load localalg
    _check_table(m + n, 1)  # the header's bound, before m + n lines are built
    mmin, nmin = entry.min_vars
    lines = [f"vars x:{m} y:{n}", *entry.terms(k, a)]
    lines += [f"1 x{i}^2" for i in range(mmin + 1, m + 1)]
    lines += [f"1 y{j}^2" for j in range(nmin + 1, n + 1)]
    return parse_germ("\n".join(lines), corner=entry.setting == "corner")


def quasihomogeneous_weights(symbol, k=None, m=None, n=None):
    """Weight vector making the normal form quasihomogeneous of degree 1.

    Matches the variable order of normal_form (x-block then y-block);
    stabilization squares weigh 1/2.  This is the independent oracle for
    milnor_number on the catalog.
    """
    from fractions import Fraction

    entry, m, n = _family(symbol, k, m, n)
    core_x, core_y = entry.block_weights(k)
    half = (Fraction(1, 2),)
    return core_x + half * (m - len(core_x)) + core_y + half * (n - len(core_y))


def weyl_order(symbol, k=None):
    """Closed-form Weyl group orders (independent of the closure engine),
    for the simple families."""
    symbol = _entry(symbol, k).symbol
    if symbol == "A":
        return factorial(k + 1)
    if symbol in ("B", "C"):
        return 2**k * factorial(k)
    if symbol == "D":
        return 2 ** (k - 1) * factorial(k)
    orders = {"E6": 51840, "E7": 2903040, "E8": 696729600, "F4": 1152}
    if symbol not in orders:
        raise EqsingError(f"{symbol} has no Weyl group order in closed form")
    return orders[symbol]


def fixture_file(symbol, k=None):
    """The diagram/action fixture as a DiagramFile (serializable)."""
    entry = _entry(symbol, k)
    if entry.fixture is None:
        raise EqsingError(f"no bundled fixture for family {entry.symbol}")
    # an indexed fixture's isotypic sublattice has rank k, so its k generator
    # roots hold k*k entries; past the bound the verdict could only be Unknown
    if k is not None and k * k > monodromy.MAX_ROOT_ENTRIES:
        raise EqsingError(f"{entry.symbol}: k*k must be <= monodromy.MAX_ROOT_ENTRIES "
                          f"({monodromy.MAX_ROOT_ENTRIES}), got k={k}")
    return entry.fixture(k)
