"""The classification as data: normal forms, confining families, bundled
diagram/action fixtures, and the simplicity-verdict wiring.

Simple families: A_k, D_k, E6, E7, E8, B_k, C_k, F4 (identical lists in
the single-Z2 and corner settings, up to renumbering of generators).
Confining families: P8, X9, J10, F10, K42, L6, and M5 (single Z2) or M4
(corner), each with its excluded modulus locus.

Folded fixtures realize B_k inside A_{2k-1}, C_k inside D_{k+1} and F4
inside E6 by a sign-lifted diagram automorphism; the chosen lifts are the
ones validated by the build-time oracle (isotypic rank, negative
definiteness, and Weyl group order) in the test suite.
"""
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from math import factorial
from typing import Optional

from . import linalg
from .action import Character, GroupAction, signed_permutation_from_file
from .diagram import DiagramFile, DynkinDiagram, parse_file, serialize, to_lattice
from .errors import BadParameterError, CriterionMismatchError, NoFixtureError
from .lattice import Inertia, inertia, kernel_basis
from .localalg import germ
from .monodromy import equivariant_generators, generate_group


SIMPLE_SYMBOLS = ("A", "D", "E6", "E7", "E8", "B", "C", "F4")
CONFINING_Z2 = ("P8", "X9", "J10", "F10", "K42", "L6", "M5")
CONFINING_CORNER = ("P8", "X9", "J10", "F10", "K42", "L6", "M4")


@dataclass(frozen=True)
class FamilyEntry:
    symbol: str
    kind: str  # "simple" | "confining"
    setting: str  # "z2" | "corner" | "both"
    k_min: Optional[int] = None
    k_max: Optional[int] = None  # None = unbounded
    modulus_rule: Optional[str] = None  # human-readable exclusion
    template: str = ""

    def describe(self):
        out = self.symbol
        if self.k_min is not None:
            out += f"_k (k >= {self.k_min})"
        if self.modulus_rule:
            out += f" [{self.modulus_rule}]"
        return out


FAMILIES = {
    "A": FamilyEntry("A", "simple", "both", k_min=1, template="x1^2+...+xm^2+y1^(k+1)"),
    "D": FamilyEntry("D", "simple", "both", k_min=4, template="x1^2+...+xm^2+y1^2*y2+y2^(k-1)"),
    "E6": FamilyEntry("E6", "simple", "both", template="x1^2+...+xm^2+y1^3+y2^4"),
    "E7": FamilyEntry("E7", "simple", "both", template="x1^2+...+xm^2+y1^3+y1*y2^3"),
    "E8": FamilyEntry("E8", "simple", "both", template="x1^2+...+xm^2+y1^3+y2^5"),
    "B": FamilyEntry("B", "simple", "both", k_min=2, template="x1^(2k)+x2^2+...+xm^2"),
    "C": FamilyEntry("C", "simple", "both", k_min=2, template="x1^2*y1+x2^2+...+xm^2+y1^k"),
    "F4": FamilyEntry("F4", "simple", "both", template="x1^4+x2^2+...+xm^2+y1^3"),
    "P8": FamilyEntry("P8", "confining", "both", modulus_rule="a^3+27 != 0",
                      template="y1^3+y2^3+y3^3+a*y1*y2*y3"),
    "X9": FamilyEntry("X9", "confining", "both", modulus_rule="a^2 != 4",
                      template="y1^4+y2^4+a*y1^2*y2^2"),
    "J10": FamilyEntry("J10", "confining", "both", modulus_rule="4a^3+27 != 0",
                       template="y1^3+y2^6+a*y1^2*y2^2"),
    "F10": FamilyEntry("F10", "confining", "both", modulus_rule="4a^3+27 != 0",
                       template="x1^6+y1^3+a*x1^2*y1^2"),
    "K42": FamilyEntry("K42", "confining", "both", modulus_rule="a^2 != 4",
                       template="x1^4+y1^4+a*x1^2*y1^2"),
    "L6": FamilyEntry("L6", "confining", "both", modulus_rule="a^3 != 1",
                      template="x1^2*y1+a*x1^2*y2+y1^3+y2^3"),
    "M5": FamilyEntry("M5", "confining", "z2", modulus_rule="a^2 != 4",
                      template="x1^4+x2^4+a*x1^2*x2^2"),
    "M4": FamilyEntry("M4", "confining", "corner", modulus_rule="a^2 != 4",
                      template="x1^4+x2^4+a*x1^2*x2^2"),
}

# minimal (m, n) each template needs
_MIN_VARS = {
    "A": (0, 1), "D": (0, 2), "E6": (0, 2), "E7": (0, 2), "E8": (0, 2),
    "B": (1, 0), "C": (1, 1), "F4": (1, 1),
    "P8": (0, 3), "X9": (0, 2), "J10": (0, 2), "F10": (1, 1),
    "K42": (1, 1), "L6": (1, 2), "M5": (2, 0), "M4": (2, 0),
}


def confining_list(setting):
    """Confining families for the requested setting, M5/M4 last."""
    if setting == "z2":
        return tuple(FAMILIES[s] for s in CONFINING_Z2)
    if setting == "corner":
        return tuple(FAMILIES[s] for s in CONFINING_CORNER)
    raise BadParameterError(f"unknown setting {setting!r} (use z2 or corner)")


def _check_modulus(symbol, a):
    a = Fraction(a)
    if symbol in ("X9", "K42", "M5", "M4") and a * a == 4:
        raise BadParameterError(f"{symbol}: modulus excluded by a^2 != 4 (a={a})")
    if symbol == "P8" and a**3 + 27 == 0:
        raise BadParameterError(f"P8: modulus excluded by a^3+27 != 0 (a={a})")
    if symbol in ("J10", "F10") and 4 * a**3 + 27 == 0:
        raise BadParameterError(f"{symbol}: modulus excluded by 4a^3+27 != 0 (a={a})")
    if symbol == "L6" and a**3 == 1:
        raise BadParameterError(f"L6: modulus excluded by a^3 != 1 (a={a})")
    return a


def normal_form(symbol, k=None, m=None, n=None, modulus=None):
    """Instantiate a family's normal-form polynomial as a PolyGerm.

    Extra x/y variables beyond the template minimum are filled with
    squares (stabilization).  Confining families require their modulus.
    M4 is built with the corner (Z2^m) block structure, everything else
    with the single-Z2 action negating all x's.
    """
    symbol = symbol.upper()
    if symbol not in FAMILIES:
        raise BadParameterError(f"unknown family symbol {symbol!r}")
    entry = FAMILIES[symbol]
    if entry.k_min is not None:
        if k is None:
            raise BadParameterError(f"{symbol} requires the index k")
        if k < entry.k_min:
            raise BadParameterError(f"{symbol}: k must be >= {entry.k_min}, got {k}")
    elif k is not None:
        raise BadParameterError(f"{symbol} takes no index k")
    mmin, nmin = _MIN_VARS[symbol]
    m = mmin if m is None else m
    n = nmin if n is None else n
    if m < mmin or n < nmin:
        raise BadParameterError(
            f"{symbol} needs at least m={mmin}, n={nmin} variables"
        )
    if entry.kind == "confining":
        if modulus is None:
            raise BadParameterError(f"{symbol} requires the modulus a")
        a = _check_modulus(symbol, modulus)
    elif modulus is not None:
        raise BadParameterError(f"{symbol} takes no modulus")

    def mono(**powers):
        exps = [0] * (m + n)
        for var, p in powers.items():
            kind, idx = var[0], int(var[1:])
            exps[idx - 1 if kind == "x" else m + idx - 1] = p
        return tuple(exps)

    terms = {}

    def add(coef, **powers):
        key = mono(**powers)
        terms[key] = terms.get(key, Fraction(0)) + Fraction(coef)

    used_x, used_y = 0, 0
    if symbol == "A":
        add(1, y1=k + 1)
        used_y = 1
    elif symbol == "D":
        add(1, y1=2, y2=1)
        add(1, y2=k - 1)
        used_y = 2
    elif symbol == "E6":
        add(1, y1=3)
        add(1, y2=4)
        used_y = 2
    elif symbol == "E7":
        add(1, y1=3)
        add(1, y1=1, y2=3)
        used_y = 2
    elif symbol == "E8":
        add(1, y1=3)
        add(1, y2=5)
        used_y = 2
    elif symbol == "B":
        add(1, x1=2 * k)
        used_x = 1
    elif symbol == "C":
        add(1, x1=2, y1=1)
        add(1, y1=k)
        used_x, used_y = 1, 1
    elif symbol == "F4":
        add(1, x1=4)
        add(1, y1=3)
        used_x, used_y = 1, 1
    elif symbol == "P8":
        add(1, y1=3), add(1, y2=3), add(1, y3=3)
        add(a, y1=1, y2=1, y3=1)
        used_y = 3
    elif symbol == "X9":
        add(1, y1=4), add(1, y2=4), add(a, y1=2, y2=2)
        used_y = 2
    elif symbol == "J10":
        add(1, y1=3), add(1, y2=6), add(a, y1=2, y2=2)
        used_y = 2
    elif symbol == "F10":
        add(1, x1=6), add(1, y1=3), add(a, x1=2, y1=2)
        used_x, used_y = 1, 1
    elif symbol == "K42":
        add(1, x1=4), add(1, y1=4), add(a, x1=2, y1=2)
        used_x, used_y = 1, 1
    elif symbol == "L6":
        add(1, x1=2, y1=1), add(a, x1=2, y2=1), add(1, y1=3), add(1, y2=3)
        used_x, used_y = 1, 2
    elif symbol in ("M5", "M4"):
        add(1, x1=4), add(1, x2=4), add(a, x1=2, x2=2)
        used_x = 2
    # stabilization tails
    for i in range(used_x + 1, m + 1):
        add(1, **{f"x{i}": 2})
    for j in range(used_y + 1, n + 1):
        add(1, **{f"y{j}": 2})
    return germ(terms, m, n, corner=(symbol == "M4"))


def quasihomogeneous_weights(symbol, k=None, m=None, n=None):
    """Weight vector making the normal form quasihomogeneous of degree 1.

    Matches the variable order of normal_form (x-block then y-block);
    stabilization squares weigh 1/2.  This is the independent oracle for
    milnor_number on the catalog.
    """
    symbol = symbol.upper()
    mmin, nmin = _MIN_VARS[symbol]
    m = mmin if m is None else m
    n = nmin if n is None else n
    half = Fraction(1, 2)
    if symbol == "A":
        core_x, core_y = (), (Fraction(1, k + 1),)
    elif symbol == "D":
        core_x, core_y = (), (Fraction(k - 2, 2 * (k - 1)), Fraction(1, k - 1))
    elif symbol == "E6":
        core_x, core_y = (), (Fraction(1, 3), Fraction(1, 4))
    elif symbol == "E7":
        core_x, core_y = (), (Fraction(1, 3), Fraction(2, 9))
    elif symbol == "E8":
        core_x, core_y = (), (Fraction(1, 3), Fraction(1, 5))
    elif symbol == "B":
        core_x, core_y = (Fraction(1, 2 * k),), ()
    elif symbol == "C":
        core_x, core_y = (Fraction(k - 1, 2 * k),), (Fraction(1, k),)
    elif symbol == "F4":
        core_x, core_y = (Fraction(1, 4),), (Fraction(1, 3),)
    elif symbol == "P8":
        core_x, core_y = (), (Fraction(1, 3),) * 3
    elif symbol == "X9":
        core_x, core_y = (), (Fraction(1, 4),) * 2
    elif symbol == "J10":
        core_x, core_y = (), (Fraction(1, 3), Fraction(1, 6))
    elif symbol == "F10":
        core_x, core_y = (Fraction(1, 6),), (Fraction(1, 3),)
    elif symbol == "K42":
        core_x, core_y = (Fraction(1, 4),), (Fraction(1, 4),)
    elif symbol == "L6":
        core_x, core_y = (Fraction(1, 3),), (Fraction(1, 3),) * 2
    elif symbol in ("M5", "M4"):
        core_x, core_y = (Fraction(1, 4),) * 2, ()
    else:
        raise BadParameterError(f"unknown family symbol {symbol!r}")
    return core_x + (half,) * (m - len(core_x)) + core_y + (half,) * (n - len(core_y))


def weyl_order(symbol, k=None):
    """Closed-form Weyl group orders (independent of the closure engine)."""
    symbol = symbol.upper()
    if symbol == "A":
        return factorial(k + 1)
    if symbol in ("B", "C"):
        return 2**k * factorial(k)
    if symbol == "D":
        return 2 ** (k - 1) * factorial(k)
    return {"E6": 51840, "E7": 2903040, "E8": 696729600, "F4": 1152}[symbol]


# --------------------------------------------------------------------------
# fixtures


def _chain(n):
    vertices = tuple((i, -2) for i in range(1, n + 1))
    edges = tuple((i, i + 1, 1) for i in range(1, n))
    return DynkinDiagram(vertices=vertices, edges=edges)


def _d_diagram(n):
    # chain 1..n-1 with vertex n forked off vertex n-2
    vertices = tuple((i, -2) for i in range(1, n + 1))
    edges = tuple((i, i + 1, 1) for i in range(1, n - 1)) + ((n - 2, n, 1),)
    return DynkinDiagram(vertices=vertices, edges=edges)


def _e_diagram(n):
    # Bourbaki: chain 1-3-4-...-n with vertex 2 attached to 4
    vertices = tuple((i, -2) for i in range(1, n + 1))
    edges = [(1, 3, 1), (2, 4, 1)]
    for i in range(3, n):
        edges.append((i, i + 1, 1))
    return DynkinDiagram(vertices=vertices, edges=tuple(edges))


_FIXTURE_RANGES = {"A": (1, 8), "D": (4, 6), "B": (2, 4), "C": (2, 4)}


def fixture_file(symbol, k=None):
    """The diagram/action fixture as a DiagramFile (serializable)."""
    symbol = symbol.upper()
    if symbol in ("M5", "M4", "X9"):
        if k is not None:
            raise BadParameterError(f"{symbol} takes no index k")
        name = symbol.lower()
        text = (resources.files("eqsing") / "fixtures" / f"{name}.diagram").read_text()
        return parse_file(text)
    if symbol in _FIXTURE_RANGES:
        lo, hi = _FIXTURE_RANGES[symbol]
        if k is None or not lo <= k <= hi:
            raise NoFixtureError(
                f"{symbol} fixtures are bundled for {lo} <= k <= {hi} (got k={k})"
            )
    elif symbol in ("E6", "E7", "E8", "F4"):
        if k is not None:
            raise BadParameterError(f"{symbol} takes no index k")
    else:
        raise NoFixtureError(f"no bundled fixture for family {symbol}")
    if symbol == "A":
        return DiagramFile(diagram=_chain(k))
    if symbol == "D":
        return DiagramFile(diagram=_d_diagram(k))
    if symbol in ("E6", "E7", "E8"):
        return DiagramFile(diagram=_e_diagram(int(symbol[1])))
    if symbol == "B":
        # A_{2k-1} chain with -(chain reversal)
        nn = 2 * k - 1
        images = tuple((i, nn + 1 - i, -1) for i in range(1, nn + 1))
        return DiagramFile(
            diagram=_chain(nn),
            generators=(("sigma", images),),
            character=(("sigma", -1),),
        )
    if symbol == "C":
        # D_{k+1} with -(fork swap)
        nn = k + 1
        images = tuple((i, i, -1) for i in range(1, nn - 1)) + (
            (nn - 1, nn, -1),
            (nn, nn - 1, -1),
        )
        return DiagramFile(
            diagram=_d_diagram(nn),
            generators=(("sigma", images),),
            character=(("sigma", -1),),
        )
    if symbol == "F4":
        # E6 with -(arm swap): 1<->6, 3<->5, fixing 2 and 4
        images = ((1, 6, -1), (6, 1, -1), (3, 5, -1), (5, 3, -1), (2, 2, -1), (4, 4, -1))
        return DiagramFile(
            diagram=_e_diagram(6),
            generators=(("sigma", images),),
            character=(("sigma", -1),),
        )
    raise AssertionError("unreachable")


def action_from_file(dfile):
    """(GroupAction, Character) for a parsed diagram file; trivial when absent."""
    lat = to_lattice(dfile.diagram)
    ids = dfile.diagram.vertex_ids()
    gens = tuple(
        (name, signed_permutation_from_file(images, ids))
        for name, images in dfile.generators
    )
    action = GroupAction(generators=gens, lattice=lat)
    if dfile.character is not None:
        chi = Character(values=dfile.character)
    else:
        chi = Character(values=tuple((name, 1) for name, _ in gens))
    return action, chi


def fixture(symbol, k=None):
    """(DynkinDiagram, GroupAction, Character) for a bundled family fixture."""
    dfile = fixture_file(symbol, k)
    action, chi = action_from_file(dfile)
    return dfile.diagram, action, chi


# --------------------------------------------------------------------------
# the simplicity criterion


@dataclass(frozen=True)
class AnalysisOutcome:
    """Everything the criterion produces for one diagram+action input."""

    sublattice: object
    generators: tuple
    inertia: Inertia
    kernel: tuple  # sublattice coordinates
    kernel_ambient: tuple
    verdict: object
    simple: bool
    criteria_agree: bool


def run_analysis(dfile, cap=10**6):
    """Full pipeline: action validation, isotypic restriction, inertia and
    kernel, orbit reflections, finiteness with certificate.

    `simple` is the paper's criterion, negative definiteness of the
    restricted form; the monodromy verdict cross-checks it through
    `criteria_agree`, and may be Unknown at the cap.
    """
    action, chi = action_from_file(dfile)
    sub, gens = equivariant_generators(action, chi)
    sig = inertia(sub.lattice())
    ker = kernel_basis(sub.lattice())
    ker_amb = tuple(sub.embed(v) for v in ker)
    verdict = generate_group(gens, cap=cap)
    definite = sig.negative_definite
    finite = verdict.kind == "finite"
    if verdict.kind == "infinite":
        verdict.validate()
    agree = (definite == finite) or verdict.kind == "unknown"
    return AnalysisOutcome(
        sublattice=sub,
        generators=tuple(gens),
        inertia=sig,
        kernel=ker,
        kernel_ambient=ker_amb,
        verdict=verdict,
        simple=definite,
        criteria_agree=agree,
    )


def simplicity_verdict(symbol, k=None, cap=10**6):
    """Run the criterion on a catalog fixture.

    Negative definiteness and monodromy finiteness must coincide on every
    catalog entry; a disagreement raises CriterionMismatchError (internal
    error, never a verdict).
    """
    dfile = fixture_file(symbol, k)
    outcome = run_analysis(dfile, cap=cap)
    if not outcome.criteria_agree:
        raise CriterionMismatchError(
            f"fixture {symbol}{k or ''}: negative definiteness and finiteness "
            f"disagree (inertia {outcome.inertia.as_tuple()}, verdict {outcome.verdict})"
        )
    return outcome
