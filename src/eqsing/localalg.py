"""Milnor numbers and Z2^m-isotypic dimensions of Jacobian local algebras.

The quotient dimension is computed by exact rational row reduction on
monomials of bounded degree, with an explicit finiteness certificate:
once every monomial of degree D lies in the truncated Jacobian row space,
m^D is contained in the ideal (Nakayama), so the count of standard
monomials below degree D is the exact Milnor number.  The Jacobian ideal
of an invariant germ is group-stable, hence the quotient splits by
character and the split is read off the parity classes of the standard
monomials.
"""
import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import linalg
from .errors import (
    DiagramSyntaxError,
    NotCertifiedError,
    NotIntegerError,
    NotInvariantError,
)


@dataclass(frozen=True)
class PolyGerm:
    """Polynomial germ with variable parities and a Z2^m block assignment.

    variables: ordered names, x-block first ("x1".."xm"), then y-block.
    terms: exponent tuple -> exact rational coefficient (no constant term).
    blocks: ((generator name, (variable indices it negates)), ...).
    """

    variables: tuple
    terms: tuple  # ((exponents, Fraction), ...) sorted for hashability
    blocks: tuple

    def __post_init__(self):
        terms = []
        for exps, c in dict(self.terms).items():
            c = Fraction(c)
            if c == 0:
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(self.variables):
                raise ValueError("exponent length does not match variable count")
            if sum(exps) == 0:
                raise ValueError("germ must vanish at the origin (no constant term)")
            terms.append((exps, c))
        object.__setattr__(self, "terms", tuple(sorted(terms)))
        object.__setattr__(self, "variables", tuple(self.variables))
        blocks = tuple((str(n), tuple(ix)) for n, ix in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        for _, ix in blocks:
            for i in ix:
                if not 0 <= i < len(self.variables):
                    raise ValueError("block index out of range")
        # invariance: even degree inside each generator's block
        for exps, _ in self.terms:
            for name, ix in blocks:
                if sum(exps[i] for i in ix) % 2 != 0:
                    raise NotInvariantError(
                        f"monomial {exps} is odd in the {name}-block"
                    )

    @property
    def nvars(self):
        return len(self.variables)

    @property
    def generator_names(self):
        return tuple(n for n, _ in self.blocks)

    def terms_dict(self):
        return dict(self.terms)

    def character_of_monomial(self, exps):
        """Eigenvalue tuple of the monomial under each generator."""
        return tuple(
            -1 if sum(exps[i] for i in ix) % 2 else 1 for _, ix in self.blocks
        )


def germ(terms, m, n, corner=False):
    """Convenience constructor for a germ in m x-variables and n y-variables.

    `terms` maps exponent tuples (length m+n, x-block first) to rational
    coefficients.  For corner=False the single generator `sigma` negates
    every x; for corner=True the generators s1..sm negate one x each.
    """
    names = tuple(f"x{i + 1}" for i in range(m)) + tuple(
        f"y{j + 1}" for j in range(n)
    )
    if m == 0:
        blocks = ()
    elif corner:
        blocks = tuple((f"s{i + 1}", (i,)) for i in range(m))
    else:
        blocks = (("sigma", tuple(range(m))),)
    return PolyGerm(variables=names, terms=tuple(terms.items()), blocks=blocks)


_TERM_RE = re.compile(r"^([xy])(\d+)(?:\^(\d+))?$")


def parse_germ(text, corner=False):
    """Parse the polynomial file format.

    `vars x:<m> y:<n>` header, then one term per line:
    `<rational_coef> <monomial>` with monomials like `x1^4`, `x1^2*x2^2`.
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
                raise DiagramSyntaxError("duplicate vars header", line=lineno)
            try:
                spec = dict(t.split(":", 1) for t in toks[1:])
                m, n = int(spec["x"]), int(spec["y"])
            except (KeyError, ValueError):
                raise DiagramSyntaxError("expected `vars x:<m> y:<n>`", line=lineno)
            continue
        if m is None:
            raise DiagramSyntaxError("term before vars header", line=lineno)
        if len(toks) != 2:
            raise DiagramSyntaxError(
                "expected `<rational_coef> <monomial>`", line=lineno
            )
        try:
            coef = Fraction(toks[0])
        except ValueError:
            raise DiagramSyntaxError(f"bad coefficient {toks[0]!r}", line=lineno)
        exps = [0] * (m + n)
        if toks[1] != "1":
            for factor in toks[1].split("*"):
                match = _TERM_RE.match(factor)
                if not match:
                    raise DiagramSyntaxError(f"bad monomial factor {factor!r}", line=lineno)
                kind, idx, power = match.group(1), int(match.group(2)), match.group(3)
                power = int(power) if power else 1
                if kind == "x":
                    if not 1 <= idx <= m:
                        raise DiagramSyntaxError(f"x{idx} out of range", line=lineno)
                    exps[idx - 1] += power
                else:
                    if not 1 <= idx <= n:
                        raise DiagramSyntaxError(f"y{idx} out of range", line=lineno)
                    exps[m + idx - 1] += power
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + coef
    if m is None:
        raise DiagramSyntaxError("missing vars header", line=1)
    return germ(terms, m, n, corner=corner)


def serialize_germ(f):
    """The polynomial file format for a PolyGerm (inverse of parse_germ)."""
    xs = sorted({i for _, ix in f.blocks for i in ix})
    m = len(xs)
    n = f.nvars - m
    lines = [f"vars x:{m} y:{n}"]
    for exps, c in sorted(f.terms, key=lambda t: (sum(t[0]), t[0])):
        factors = []
        for i, e in enumerate(exps):
            if e == 0:
                continue
            name = f.variables[i]
            factors.append(name if e == 1 else f"{name}^{e}")
        lines.append(f"{c} " + "*".join(factors))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class LocalAlgebraReport:
    """mu, per-character dimensions, and the certified truncation degree."""

    mu: int
    isotypic_dims: tuple  # ((character tuple, dim), ...) in binary order
    truncation_degree: int

    def dim_of(self, character):
        for chi, d in self.isotypic_dims:
            if chi == tuple(character):
                return d
        raise KeyError(character)


def _partial(terms, v):
    out = {}
    for exps, c in terms.items():
        if exps[v] > 0:
            e = list(exps)
            e[v] -= 1
            out[tuple(e)] = c * exps[v]
    return out


def _monomials_upto(nvars, D):
    if nvars == 0:
        return [()]
    out = []
    for exps in itertools.product(range(D + 1), repeat=nvars):
        if sum(exps) <= D:
            out.append(exps)
    return sorted(out, key=lambda e: (sum(e), e))


class _EchelonSpace:
    """Sparse exact row space with reduction, pivoting on the least column."""

    def __init__(self):
        self.pivots = {}

    def reduce(self, row):
        row = dict(row)
        while row:
            lead = min(row)
            if lead not in self.pivots:
                return row
            prow = self.pivots[lead]
            f = row[lead] / prow[lead]
            for c, v in prow.items():
                newv = row.get(c, Fraction(0)) - f * v
                if newv == 0:
                    row.pop(c, None)
                else:
                    row[c] = newv
        return row

    def insert(self, row):
        rem = self.reduce(row)
        if rem:
            self.pivots[min(rem)] = rem
            return True
        return False

    def contains(self, row):
        return not self.reduce(row)


def milnor_number(f, max_degree=24):
    """Milnor number and isotypic dimensions of the Jacobian quotient.

    Raises NotCertifiedError when finiteness cannot be certified by
    `max_degree` (non-isolated critical point, or cap too small).
    """
    terms = f.terms_dict()
    gens = [_partial(terms, v) for v in range(f.nvars)]
    gens = [g for g in gens if g]
    if not gens:
        raise NotCertifiedError(max_degree)
    min_ord = [min(sum(e) for e in g) for g in gens]
    for D in range(1, max_degree + 1):
        monos = _monomials_upto(f.nvars, D)
        index = {mm: i for i, mm in enumerate(monos)}
        space = _EchelonSpace()
        for g, og in zip(gens, min_ord):
            for u in _monomials_upto(f.nvars, D - og):
                row = {}
                for exps, c in g.items():
                    prod = tuple(a + b for a, b in zip(exps, u))
                    if sum(prod) <= D:
                        col = index[prod]
                        row[col] = row.get(col, Fraction(0)) + c
                if row:
                    space.insert(row)
        certified = all(
            space.contains({index[mm]: Fraction(1)})
            for mm in monos
            if sum(mm) == D
        )
        if not certified:
            continue
        standard = [mm for mm in monos if index[mm] not in space.pivots]
        assert all(sum(mm) < D for mm in standard)
        chars = list(itertools.product((1, -1), repeat=len(f.blocks)))
        dims = {chi: 0 for chi in chars}
        for mm in standard:
            dims[f.character_of_monomial(mm)] += 1
        report = LocalAlgebraReport(
            mu=len(standard),
            isotypic_dims=tuple((chi, dims[chi]) for chi in chars),
            truncation_degree=D,
        )
        assert sum(d for _, d in report.isotypic_dims) == report.mu
        return report
    raise NotCertifiedError(max_degree)


def quasihomogeneous_mu(weights):
    """Product formula prod(1/w_i - 1) for quasihomogeneous weights.

    Weights are rationals in (0, 1/2], normalized to degree 1; raises
    NotIntegerError when the product is not a positive integer.
    """
    total = Fraction(1)
    for w in weights:
        w = Fraction(w)
        if not 0 < w <= Fraction(1, 2):
            raise NotIntegerError(f"weight {w} outside (0, 1/2]")
        total *= 1 / w - 1
    if total.denominator != 1 or total <= 0:
        raise NotIntegerError(f"product formula gives non-integer {total}")
    return int(total)


def coranks(f):
    """Coranks (m1, n1) of the Hessian at 0 on the x-block and y-block.

    Invariance forces the mixed x-y second derivatives to vanish; this is
    re-checked here rather than assumed.
    """
    terms = f.terms_dict()
    xvars = sorted({i for _, ix in f.blocks for i in ix})
    yvars = [i for i in range(f.nvars) if i not in set(xvars)]

    def second(i, j):
        e = [0] * f.nvars
        e[i] += 1
        e[j] += 1
        c = terms.get(tuple(e), Fraction(0))
        return c * (2 if i == j else 1)

    for i in xvars:
        for j in yvars:
            if second(i, j) != 0:
                raise NotInvariantError(
                    f"mixed second derivative in {f.variables[i]}, {f.variables[j]} "
                    "is nonzero; germ is not invariant"
                )

    def corank(idx):
        if not idx:
            return 0
        H = [[second(i, j) for j in idx] for i in idx]
        den = lcm(*(c.denominator for row in H for c in row))
        return len(idx) - linalg.rank_of([[int(c * den) for c in row] for row in H])

    return corank(xvars), corank(yvars)
