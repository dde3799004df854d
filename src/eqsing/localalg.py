"""Milnor numbers and Z2^m-isotypic dimensions of Jacobian local algebras.

The quotient dimension is computed by exact fraction-free row reduction,
on integer rows, of the products u * df/dv in one echelon, which step
D = 1, 2, ... extends by the products of order D.  Its pivots of degree
<= D are those of the row space truncated at D, which gives an explicit
finiteness certificate: once every monomial of degree D is a pivot, every
monomial of degree D lies in J + m^(D+1), so m^D is contained in the
ideal (Nakayama), and the count of standard monomials (the non-pivots)
below degree D is the exact Milnor number.  The Jacobian ideal of an invariant germ is group-stable, hence
the quotient splits by character and the split is read off the parity
classes of the standard monomials.
"""
import itertools
import re
from fractions import Fraction
from math import comb, gcd, lcm

from .errors import DiagramError, EqsingError, check_count, is_int, parse_int, parse_rational
from .record import Record

# The bound on the monomials listed up to degree D, counted as C(n + D, D)
# monomials of n exponents each.  The largest listing of any test or `mu`
# benchmark case counts 42,504 (A20: 10,626 monomials in 4 variables, degree 20).
MAX_TABLE_ENTRIES = 2_000_000

# The bound on the rows u * df/dv that `milnor_number` builds and reduces,
# counted over all degrees.  The most of any benchmark case is 26,566
# (A20 with m = 0, n = 4), of any catalog row from k_min to k_min + 4 at
# the default m and n 42.  The non-isolated x1^2*y1 reaches the bound at
# degree 549, after about 3 s on a 2-CPU x86-64 container.
MAX_ROWS = 300_000


class PolyGerm(Record):
    """Invariant polynomial germ in m x-variables and n y-variables.

    terms: exponent tuple (x-block first) -> rational coefficient, no
    constant term, as a mapping or pairs; an exponent is an int >= 0, a
    coefficient is a finite number, and a string is refused (a file's is
    read with `parse_rational`).  They are stored as ((exponents, Fraction),
    ...), sorted, so that the germ is hashable.  For corner=False the one
    generator `sigma` negates every x; for corner=True the generators
    s1..sm negate one x each.  `variables`, `blocks` and `nvars` are read
    off (m, n, corner).
    """

    __slots__ = ("terms", "m", "n", "corner")
    _defaults = {"corner": False}

    def __post_init__(self):
        if not all(is_int(k) and k >= 0 for k in (self.m, self.n)):
            raise EqsingError(f"variable counts must be integers >= 0, got {self.m!r}, {self.n!r}")
        try:
            items = dict(self.terms).items()
        except (TypeError, ValueError):
            raise EqsingError("terms must be a mapping or (exponents, coefficient) "
                              f"pairs, got {self.terms!r}") from None
        terms = []
        for exps, c in items:
            if not isinstance(exps, tuple):
                raise EqsingError(f"exponents must be a tuple, got {exps!r}")
            if not all(is_int(e) and e >= 0 for e in exps):
                raise EqsingError(f"exponents must be integers >= 0, got {exps!r}")
            c = _rational(c, "coefficient")
            if c == 0:
                continue
            if len(exps) != self.nvars:
                raise EqsingError("exponent length does not match variable count")
            if sum(exps) == 0:
                raise EqsingError("germ must vanish at the origin (no constant term)")
            terms.append((exps, c))
        object.__setattr__(self, "terms", tuple(sorted(terms)))
        # invariance: even degree inside each generator's block
        blocks = self.blocks
        for exps, _ in self.terms:
            for name, ix in blocks:
                if sum(exps[i] for i in ix) % 2 != 0:
                    raise EqsingError(
                        f"monomial {exps} is odd in the {name}-block"
                    )

    @property
    def variables(self):
        """Ordered names, x-block first ("x1".."xm"), then "y1".."yn"."""
        return (tuple(f"x{i + 1}" for i in range(self.m))
                + tuple(f"y{j + 1}" for j in range(self.n)))

    @property
    def blocks(self):
        """((generator name, (variable indices it negates)), ...)."""
        if self.m == 0:
            return ()
        if self.corner:
            return tuple((f"s{i + 1}", (i,)) for i in range(self.m))
        return (("sigma", tuple(range(self.m))),)

    @property
    def nvars(self):
        return self.m + self.n

    def character_of_monomial(self, exps):
        """Eigenvalue tuple of the monomial under each generator."""
        return tuple(
            -1 if sum(exps[i] for i in ix) % 2 else 1 for _, ix in self.blocks
        )


germ = PolyGerm


_TERM_RE = re.compile(r"^([xy])([0-9]+)(?:\^([0-9]+))?$")


def parse_germ(text, corner=False):
    """Parse the polynomial file format.

    `vars x:<m> y:<n>` header, naming x and y once each, then one term per line:
    `<rational_coef> <monomial>` with monomials like `x1^4`, `x1^2*x2^2`.
    Counts and coefficients follow `errors.parse_int` and `parse_rational`,
    and indices and exponents are [0-9]+.  A header whose monomials up to
    degree 1 are over the listing bound (`_check_table`) is refused before
    any term is read.
    """
    m = n = None
    terms = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if toks[0] == "vars":
            if m is not None:
                raise DiagramError("duplicate vars header", line=lineno)
            try:
                pairs = [t.split(":", 1) for t in toks[1:]]
                if sorted(p[0] for p in pairs) != ["x", "y"]:
                    raise ValueError
                spec = dict(pairs)
                m, n = parse_int(spec["x"]), parse_int(spec["y"])
                if m < 0 or n < 0:
                    raise ValueError
            except ValueError:
                raise DiagramError(
                    "expected `vars x:<m> y:<n>` with m, n >= 0", line=lineno
                )
            _check_table(m + n, 1)
            continue
        if m is None:
            raise DiagramError("term before vars header", line=lineno)
        if len(toks) != 2:
            raise DiagramError(
                "expected `<rational_coef> <monomial>`", line=lineno
            )
        try:
            coef = parse_rational(toks[0])
        except ValueError:
            raise DiagramError(f"bad coefficient {toks[0]!r}", line=lineno)
        exps = [0] * (m + n)
        if toks[1] != "1":
            for factor in toks[1].split("*"):
                match = _TERM_RE.match(factor)
                if not match:
                    raise DiagramError(f"bad monomial factor {factor!r}", line=lineno)
                kind, idx, power = match.group(1), int(match.group(2)), match.group(3)
                power = int(power) if power else 1
                if kind == "x":
                    if not 1 <= idx <= m:
                        raise DiagramError(f"x{idx} out of range", line=lineno)
                    exps[idx - 1] += power
                else:
                    if not 1 <= idx <= n:
                        raise DiagramError(f"y{idx} out of range", line=lineno)
                    exps[m + idx - 1] += power
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + coef
    if m is None:
        raise DiagramError("missing vars header", line=1)
    return PolyGerm(terms, m, n, corner=corner)


def serialize_germ(f):
    """The polynomial file format for a PolyGerm (inverse of parse_germ)."""
    names = f.variables
    lines = [f"vars x:{f.m} y:{f.n}"]
    for exps, c in sorted(f.terms, key=lambda t: (sum(t[0]), t[0])):
        factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(names, exps) if e]
        lines.append(f"{c} " + "*".join(factors))
    return "\n".join(lines) + "\n"


class LocalAlgebraReport(Record):
    """Per-character dimensions as ((character tuple, dim), ...) in binary
    order, and the certified truncation degree; `mu` is the sum of the
    dimensions."""

    __slots__ = ("isotypic_dims", "truncation_degree")

    @property
    def mu(self):
        return sum(d for _, d in self.isotypic_dims)

    def dim_of(self, character):
        for chi, d in self.isotypic_dims:
            if chi == tuple(character):
                return d
        raise EqsingError(f"no character {tuple(character)} in this report")


def _partial(terms, v):
    """d/dv of the terms, as (exponents, degree, coefficient) triples."""
    out = []
    for exps, c in terms:
        if exps[v] > 0:
            e = exps[:v] + (exps[v] - 1,) + exps[v + 1:]
            out.append((e, sum(e), c * exps[v]))
    return out


def _reduce(pivots, row):
    """Reduce `row` (column -> integer) in place by `pivots`, rows keyed by
    their least column, until its least column is no pivot, and divide it
    by the gcd of its entries.  Each step is row <- p*row - r*prow, with p
    and r the leading coefficients of prow and row over their gcd: fraction
    free, and a nonzero multiple of the rational step, so the row space and
    its least columns are the same (notes/decisions.md).  The result is
    empty exactly when the row lies in the span of the pivot rows."""
    while row:
        lead = min(row)
        prow = pivots.get(lead)
        if prow is None:
            break
        p = prow[lead]
        r = row[lead]
        g = gcd(p, r)
        p //= g
        r //= g
        if p != 1:
            for c in row:
                row[c] *= p
        for c, v in prow.items():
            v = row.get(c, 0) - r * v
            if v:
                row[c] = v
            else:
                del row[c]
    if row:
        g = gcd(*row.values())
        if g != 1:
            for c in row:
                row[c] //= g
    return row


def _check_table(nvars, D):
    """Refuse to list the monomials of degree D when the monomials up to
    degree D, nvars exponents each, would be over MAX_TABLE_ENTRIES entries."""
    monomials = comb(nvars + D, D)
    if monomials * nvars > MAX_TABLE_ENTRIES:
        raise EqsingError(
            f"the monomial table at degree {D} would hold {monomials} monomials "
            f"of {nvars} variables, {monomials * nvars} entries, over {MAX_TABLE_ENTRIES}"
        )


def milnor_number(f, max_degree=24):
    """Milnor number and isotypic dimensions of the Jacobian quotient.

    The columns are the monomials in (degree, lex) order, each keyed by the
    integer deg * B^n + sum e_i B^(n-1-i), B = max_degree + 1, so that the
    keys sort in that order and a product of monomials adds their keys.
    Step D adds the rows u * df/dv with deg u = D - ord(df/dv), cut above
    `max_degree` only, to one echelon.  D is certified when every degree-D
    monomial is a pivot; mu and the isotypic dimensions are then the
    non-pivot monomials, all of degree below D (notes/decisions.md).

    Refuses, with "not certified at degree max_degree", when finiteness
    cannot be certified by `max_degree`: a critical point that is not
    isolated and too small a `max_degree` are indistinguishable at a finite
    truncation.  Refuses before listing a degree whose monomials up to it
    would count more than MAX_TABLE_ENTRIES entries (`_check_table`), and
    before building the rows of a degree that would take the rows built
    over MAX_ROWS, with the same "not certified" error at the degree below.
    A `max_degree` that is no int >= 0 is refused.
    """
    check_count("max_degree", max_degree)
    n = f.nvars
    base = max_degree + 1

    def key(exps):
        k = sum(exps)
        for e in exps:
            k = k * base + e
        return k

    def monomials(d):
        """The exponents of the degree-d monomials."""
        return (tuple(c.count(v) for v in range(n))
                for c in itertools.combinations_with_replacement(range(n), d))

    gens = [g for g in (_partial(f.terms, v) for v in range(n)) if g]
    if not gens:
        raise EqsingError(
            f"finiteness of the Jacobian quotient not certified at degree {max_degree}")
    # each partial on integers, scaled by the lcm of its denominators
    scales = [lcm(*(c.denominator for _, _, c in g)) for g in gens]
    gens = [(min(d for _, d, _ in g), [(key(e), d, int(c * s)) for e, d, c in g])
            for g, s in zip(gens, scales)]
    layers = [[0]]  # layers[d]: the keys of the degree-d monomials, in order
    pivots = {}
    rows = 0
    # D = 0 adds rows only when a partial has a constant term (f is not singular)
    for D in range(max_degree + 1):
        if D:
            _check_table(n, D)
            layers.append(sorted(map(key, monomials(D))))
        rows += sum(len(layers[D - order]) for order, _ in gens if D >= order)
        if rows > MAX_ROWS:
            raise EqsingError(
                f"finiteness of the Jacobian quotient not certified at degree {D - 1}: "
                f"degree {D} would take the rows built to {rows}, over {MAX_ROWS}")
        for order, g in gens:
            du = D - order
            if du < 0:
                continue
            for u in layers[du]:
                # a term above max_degree takes no part in any certificate
                # up to it, and keys are one-to-one only up to max_degree
                row = {u + k: c for k, d, c in g if d + du <= max_degree}
                row = _reduce(pivots, row)
                if row:
                    pivots[min(row)] = row
        if D and all(k in pivots for k in layers[D]):
            dims = dict.fromkeys(itertools.product((1, -1), repeat=len(f.blocks)), 0)
            for d in range(D):
                for e in monomials(d):
                    if key(e) not in pivots:
                        dims[f.character_of_monomial(e)] += 1
            return LocalAlgebraReport(isotypic_dims=tuple(dims.items()),
                                      truncation_degree=D)
    raise EqsingError(
        f"finiteness of the Jacobian quotient not certified at degree {max_degree}")


def _rational(value, what):
    """`value` as a Fraction: a finite number, never a string, which a file
    spells for `parse_rational`; EqsingError names the `what` at fault."""
    if isinstance(value, str):
        raise EqsingError(f"bad {what} {value!r}")
    try:
        return Fraction(value)
    except (TypeError, ValueError, OverflowError):
        raise EqsingError(f"bad {what} {value!r}") from None


def quasihomogeneous_mu(weights):
    """Product formula prod(1/w_i - 1) for quasihomogeneous weights.

    Weights are finite numbers, as for `PolyGerm`'s coefficients, and
    rationals in (0, 1/2], normalized to degree 1; raises EqsingError
    when one is not, or when the product is not a positive integer.
    """
    total = Fraction(1)
    for w in weights:
        w = _rational(w, "weight")
        if not 0 < w <= Fraction(1, 2):
            raise EqsingError(f"weight {w} outside (0, 1/2]")
        total *= 1 / w - 1
    if total.denominator != 1 or total <= 0:
        raise EqsingError(f"product formula gives non-integer {total}")
    return int(total)
