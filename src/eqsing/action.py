"""Z2^m actions on the distinguished basis and their isotypic sublattices.

A generator is a signed permutation of the basis cycles, given as its
0-based image table ((j, s), ...) with sigma(e_i) = s e_j at entry i.  A
`GroupAction` checks as it is built that its generators are commuting
involutive isometries of the intersection form; the (-1)^bullet-isotypic
part for a character chi is the saturated sublattice
{a : sigma_i a = chi(sigma_i) a for every generator}.  A character is its
signs in generator order: chi = (chi(sigma_1), ..., chi(sigma_m)), each +-1,
for the generators of `GroupAction.generators`, the key
`LocalAlgebraReport.isotypic_dims` uses for the same character.

A signed permutation keeps the span of each orbit of basis cycles, so the
sublattice is a sum over the orbits.  On one orbit a chi-vector c satisfies
c(j) = chi(sigma) s c(i) whenever sigma(e_i) = s e_j: one walk over the
generators' image tables either fixes c up to sign or finds two paths that
give c(j) opposite signs, and then the orbit carries none
(`signed_orbits`; notes/decisions.md).
"""
import itertools

from .errors import EqsingError, is_int
from .lattice import Sublattice
from .record import Record


class GroupAction(Record):
    """Named commuting involutive isometries of `lattice`'s form: `generators`
    is ((name, images), ...) with `images` the image table.  The names are
    unique and each table is a bijection of range(rank) with signs +-1, all
    Python ints, or an EqsingError names the generator, or the entry of
    another shape.  Then isometry, involution and commutation are checked,
    in that order, and an error names the first entry at fault of its
    matrix identity (notes/decisions.md, "Checking an action ...")."""

    __slots__ = ("generators", "lattice")

    def __post_init__(self):
        gens = []
        entry = self.generators  # named when it is no sequence at all
        try:
            for entry in self.generators:
                name, images = entry
                gens.append((name, tuple((j, s) for j, s in images)))
        except (TypeError, ValueError):
            raise EqsingError(f"generator entry {entry!r} is not "
                              "(name, ((j, s), ...))") from None
        gens = tuple(gens)
        object.__setattr__(self, "generators", gens)
        names = [n for n, _ in gens]
        if len(set(names)) != len(names):
            raise EqsingError("generator names must be unique")
        cycles = list(range(self.lattice.rank))
        for name, images in gens:
            if not all(is_int(j) and is_int(s) for j, s in images):
                raise EqsingError(f"generator {name} has an image index or sign "
                                  "that is not an integer")
            if sorted(j for j, _ in images) != cycles:
                raise EqsingError(f"generator {name} is not a bijection of the "
                                  f"{len(cycles)} basis cycles")
            if any(s not in (1, -1) for _, s in images):
                raise EqsingError(f"generator {name} has a sign other than +1 or -1")
        G = self.lattice.gram
        for name, images in gens:
            for i, (pi, si) in enumerate(images):
                for j, (pj, sj) in enumerate(images):
                    # entry (i, j) of sigma^T G sigma against G[i][j]
                    if si * sj * G[pi][pj] != G[i][j]:
                        raise EqsingError(f"generator {name} does not preserve the "
                                          f"form (entry {(i, j)})")
        identity = tuple((j, 1) for j in cycles)
        for name, g in gens:
            bad = _first_difference(_compose(g, g), identity)
            if bad is not None:
                raise EqsingError(f"generator {name} is not an involution "
                                  f"(entry {bad} of sigma^2)")
        for (na, a), (nb, b) in itertools.combinations(gens, 2):
            bad = _first_difference(_compose(a, b), _compose(b, a))
            if bad is not None:
                raise EqsingError(f"generators {na}, {nb} do not commute (entry {bad})")


def _compose(a, b):
    """Image table of the product a b, which applies b first."""
    return tuple((a[k][0], s * a[k][1]) for k, s in b)


def _first_difference(p, q):
    """The first entry in row-major order at which the signed permutation
    matrices of the image tables p and q differ, or None.  Where column j
    differs, it differs at both rows p[j][0] and q[j][0], and nowhere else.
    """
    bad = []
    for j, (x, y) in enumerate(zip(p, q)):
        if x != y:
            bad += [(x[0], j), (y[0], j)]
    return min(bad, default=None)


def signed_orbits(action, chi):
    """((orbit, cycle), ...): each orbit of basis indices with its chi-vector.

    Orbits are sorted ascending and ordered by least index i0.  The walk
    sets c(i0) = +1 and c(j) = chi(sigma) s c(i) for each generator sigma
    with sigma(e_i) = s e_j; `cycle` is sum c(j) e_j in ambient coordinates,
    or None when two paths give some c(j) opposite signs.  O(n m) for n
    cycles and m generators; reads only the image tables.  EqsingError
    unless chi has one entry +-1 per generator.
    """
    if len(chi) != len(action.generators):
        raise EqsingError(f"character has {len(chi)} values for "
                          f"{len(action.generators)} generators")
    if any(c not in (1, -1) for c in chi):
        raise EqsingError("character values must be +1 or -1")
    moves = [(c, images) for c, (_, images) in zip(chi, action.generators)]
    n = action.lattice.rank
    sign = [0] * n
    out = []
    for start in range(n):
        if sign[start]:
            continue
        sign[start] = 1
        orbit, consistent = [start], True
        for i in orbit:
            for c, images in moves:
                j, s = images[i]
                value = c * s * sign[i]
                if not sign[j]:
                    sign[j] = value
                    orbit.append(j)
                elif sign[j] != value:
                    consistent = False
        orbit.sort()
        cycle = [0] * n
        for j in orbit:
            cycle[j] = sign[j]
        out.append((tuple(orbit), tuple(cycle) if consistent else None))
    return tuple(out)


def isotypic_sublattice(action, chi, orbits=None):
    """Saturated sublattice {a : sigma_i a = chi(sigma_i) a for all i}.

    Its basis is the cycles of the orbits that carry a chi-vector
    (`signed_orbits`, or `orbits` when the caller has walked them), by
    least index.  They have disjoint supports, entries +-1 and leading
    entry +1, so they span a saturated sublattice and are its Hermite
    normal form already, the basis `Sublattice` takes as given.  Raises
    EqsingError when no orbit carries one.
    """
    if orbits is None:
        orbits = signed_orbits(action, chi)
    basis = tuple(cycle for _, cycle in orbits if cycle is not None)
    if not basis:
        raise EqsingError("isotypic sublattice is zero; nothing to restrict to")
    return Sublattice(action.lattice, basis)
