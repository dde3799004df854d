"""Z2^m actions on the distinguished basis and their isotypic sublattices.

Generators are signed permutations of the basis cycles.  The action must
consist of commuting involutive isometries of the intersection form; the
(-1)^bullet-isotypic part for a character chi is the saturated sublattice
{a : sigma_i a = chi(sigma_i) a for every generator}.

A signed permutation keeps the span of each orbit of basis cycles, so the
sublattice is a sum over the orbits.  On one orbit a chi-vector c satisfies
c(j) = chi(sigma) s c(i) whenever sigma(e_i) = s e_j: one walk over the
generators' image tables either fixes c up to sign or finds two paths that
give c(j) opposite signs, and then the orbit carries none
(`signed_orbits`; notes/decisions.md).
"""
import itertools
from dataclasses import dataclass

from . import linalg
from .errors import (
    ActionDataError,
    NotCommutingError,
    NotFoundError,
    NotInvolutionError,
    NotIsometryError,
    ZeroSublatticeError,
)
from .lattice import Sublattice


@dataclass(frozen=True)
class SignedPermutation:
    """images[i] = (j, sign): basis vector i maps to sign * basis vector j (0-based)."""

    images: tuple

    def __post_init__(self):
        images = tuple((int(j), int(s)) for j, s in self.images)
        object.__setattr__(self, "images", images)
        targets = [j for j, _ in images]
        if sorted(targets) != list(range(len(images))):
            raise ActionDataError("underlying index map is not a bijection")
        if any(s not in (1, -1) for _, s in images):
            raise ActionDataError("signs must be +1 or -1")

    @property
    def size(self):
        return len(self.images)

    @property
    def matrix(self):
        n = self.size
        M = [[0] * n for _ in range(n)]
        for i, (j, s) in enumerate(self.images):
            M[j][i] = s
        return linalg.freeze(M)

    def apply(self, v):
        out = [0] * self.size
        for i, (j, s) in enumerate(self.images):
            out[j] += s * v[i]
        return tuple(out)


def signed_permutation_from_file(images_1based, vertex_ids):
    """Build a SignedPermutation from file-format image triples (i, j, sign)."""
    index = {v: k for k, v in enumerate(vertex_ids)}
    images = [None] * len(vertex_ids)
    for i, j, s in images_1based:
        if i not in index or j not in index:
            raise ActionDataError(f"image {i} -> {j} names a vertex the diagram lacks")
        images[index[i]] = (index[j], s)
    if any(im is None for im in images):
        raise ActionDataError("generator does not cover every vertex")
    return SignedPermutation(images=tuple(images))


@dataclass(frozen=True)
class Character:
    """Value +-1 per generator, keyed by generator name, in generator order."""

    values: tuple  # ((name, +1|-1), ...)

    def __post_init__(self):
        values = tuple((str(n), int(v)) for n, v in self.values)
        if any(v not in (1, -1) for _, v in values):
            raise ActionDataError("character values must be +1 or -1")
        object.__setattr__(self, "values", values)

    def of(self, name):
        for n, v in self.values:
            if n == name:
                return v
        raise NotFoundError(name)

    def names(self):
        return tuple(n for n, _ in self.values)

    def as_tuple(self):
        return tuple(v for _, v in self.values)


def z2_rule(m, name="sigma"):
    """The single-Z2 character (-1)^m selecting the invariant-cycle condition."""
    return Character(values=((name, (-1) ** m),))


def corner_rule(m, prefix="s"):
    """The corner character: anti-invariant under each of the m generators."""
    return Character(values=tuple((f"{prefix}{i + 1}", -1) for i in range(m)))


@dataclass(frozen=True)
class GroupAction:
    """Named commuting involutive isometries of `lattice`'s form."""

    generators: tuple  # ((name, SignedPermutation), ...)
    lattice: object

    def __post_init__(self):
        gens = tuple((str(n), g) for n, g in self.generators)
        object.__setattr__(self, "generators", gens)
        names = [n for n, _ in gens]
        if len(set(names)) != len(names):
            raise ActionDataError("generator names must be unique")
        for _, g in gens:
            if g.size != self.lattice.rank:
                raise ActionDataError("generator size does not match lattice rank")

    @property
    def names(self):
        return tuple(n for n, _ in self.generators)


def validate_action(action):
    """Check involution, commutation and isometry for every generator.

    Raises the typed error for the first violated identity, with witness
    indices in the message; returns None when everything holds.
    """
    G = action.lattice.gram
    n = action.lattice.rank
    I = linalg.identity(n)
    mats = [(name, g.matrix) for name, g in action.generators]
    for name, M in mats:
        MGM = linalg.mat_mul(linalg.mat_mul(linalg.transpose(M), G), M)
        if MGM != G:
            bad = next(
                (i, j) for i in range(n) for j in range(n) if MGM[i][j] != G[i][j]
            )
            raise NotIsometryError(
                f"generator {name} does not preserve the form (entry {bad})"
            )
    for name, M in mats:
        sq = linalg.mat_mul(M, M)
        if sq != I:
            bad = next(
                (i, j) for i in range(n) for j in range(n) if sq[i][j] != I[i][j]
            )
            raise NotInvolutionError(
                f"generator {name} is not an involution (entry {bad} of sigma^2)"
            )
    for (na, A), (nb, B) in itertools.combinations(mats, 2):
        AB = linalg.mat_mul(A, B)
        BA = linalg.mat_mul(B, A)
        if AB != BA:
            bad = next(
                (i, j) for i in range(n) for j in range(n) if AB[i][j] != BA[i][j]
            )
            raise NotCommutingError(f"generators {na}, {nb} do not commute (entry {bad})")
    return None


def signed_orbits(action, chi):
    """((orbit, cycle), ...): each orbit of basis indices with its chi-vector.

    Orbits are sorted ascending and ordered by least index i0.  The walk
    sets c(i0) = +1 and c(j) = chi(sigma) s c(i) for each generator sigma
    with sigma(e_i) = s e_j; `cycle` is sum c(j) e_j in ambient coordinates,
    or None when two paths give some c(j) opposite signs.  O(n m) for n
    cycles and m generators; reads only the image tables and does not
    validate the action.
    """
    moves = [(chi.of(name), g.images) for name, g in action.generators]
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


def isotypic_sublattice(action, chi):
    """Saturated sublattice {a : sigma_i a = chi(sigma_i) a for all i}.

    Its basis is the cycles of the orbits that carry a chi-vector
    (`signed_orbits`), by least index.  They have disjoint supports, entries
    +-1 and leading entry +1, so they span a saturated sublattice and are
    its Hermite normal form already.  Raises ZeroSublatticeError when no
    orbit carries one.
    """
    validate_action(action)
    basis = tuple(cycle for _, cycle in signed_orbits(action, chi) if cycle is not None)
    if not basis:
        raise ZeroSublatticeError("isotypic sublattice is zero; nothing to restrict to")
    return Sublattice._canonical(action.lattice, basis)
