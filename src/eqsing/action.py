"""Z2^m actions on the distinguished basis and their isotypic sublattices.

Generators are signed permutations of the basis cycles.  The action must
consist of commuting involutive isometries of the intersection form; the
(-1)^bullet-isotypic part for a character chi is the saturated sublattice
{a : sigma_i a = chi(sigma_i) a for every generator}.
"""
import itertools
from dataclasses import dataclass

from . import linalg
from .errors import (
    NotCommutingError,
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
            raise ValueError("underlying index map is not a bijection")
        if any(s not in (1, -1) for _, s in images):
            raise ValueError("signs must be +1 or -1")

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

    def unsigned(self):
        """The underlying permutation i -> j, signs dropped."""
        return tuple(j for j, _ in self.images)


def signed_permutation_from_file(images_1based, vertex_ids):
    """Build a SignedPermutation from file-format image triples (i, j, sign)."""
    index = {v: k for k, v in enumerate(vertex_ids)}
    images = [None] * len(vertex_ids)
    for i, j, s in images_1based:
        images[index[i]] = (index[j], s)
    if any(im is None for im in images):
        raise ValueError("generator does not cover every vertex")
    return SignedPermutation(images=tuple(images))


@dataclass(frozen=True)
class Character:
    """Value +-1 per generator, keyed by generator name, in generator order."""

    values: tuple  # ((name, +1|-1), ...)

    def __post_init__(self):
        values = tuple((str(n), int(v)) for n, v in self.values)
        if any(v not in (1, -1) for _, v in values):
            raise ValueError("character values must be +1 or -1")
        object.__setattr__(self, "values", values)

    def of(self, name):
        for n, v in self.values:
            if n == name:
                return v
        raise KeyError(name)

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
            raise ValueError("generator names must be unique")
        for _, g in gens:
            if g.size != self.lattice.rank:
                raise ValueError("generator size does not match lattice rank")

    @property
    def names(self):
        return tuple(n for n, _ in self.generators)

    def elements(self):
        """All 2^m group elements as (chi-evaluation order) matrices.

        Yields (subset, matrix) where subset is the tuple of generator
        names multiplied together; the empty subset is the identity.
        """
        n = self.lattice.rank
        mats = [(name, g.matrix) for name, g in self.generators]
        for r in range(len(mats) + 1):
            for combo in itertools.combinations(mats, r):
                M = linalg.identity(n)
                for _, gm in combo:
                    M = linalg.mat_mul(gm, M)
                yield tuple(name for name, _ in combo), M


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


def isotypic_sublattice(action, chi):
    """Saturated sublattice {a : sigma_i a = chi(sigma_i) a for all i}.

    Solved as the integer kernel of the stacked matrices sigma_i - chi_i I,
    which is saturated and in Hermite normal form already, so it becomes
    the sublattice basis as it is.  Equals the saturated image of the
    character projector sum_g chi(g) g (cross-checked in the test suite).
    """
    validate_action(action)
    n = action.lattice.rank
    if not action.generators:
        return Sublattice._canonical(action.lattice, linalg.identity(n))
    rows = []
    for name, g in action.generators:
        c = chi.of(name)
        M = g.matrix
        for i in range(n):
            rows.append(tuple(M[i][j] - (c if i == j else 0) for j in range(n)))
    ker = linalg.int_kernel(linalg.freeze(rows))
    if not ker:
        raise ZeroSublatticeError("isotypic sublattice is zero; nothing to restrict to")
    return Sublattice._canonical(action.lattice, ker)


def orbit_decomposition(action):
    """Orbits of basis indices under the unsigned permutation group.

    Each orbit is sorted ascending; orbits are ordered by least element.
    Indices are 0-based basis positions.  Reads only the unsigned
    permutations and does not validate the action: `equivariant_generators`
    validates it first, in `isotypic_sublattice`.
    """
    n = action.lattice.rank
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for _, g in action.generators:
        for i, j in enumerate(g.unsigned()):
            ra, rb = find(i), find(j)
            if ra != rb:
                parent[rb] = ra
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(sorted(v)) for _, v in sorted(groups.items()))


def character_projection(action, chi, v):
    """Apply the chi-projector (1/|G|) sum_g chi(g) g to v; exact rationals.

    Returns a tuple of Fractions (callers primitivize integer multiples).
    """
    from fractions import Fraction

    n = action.lattice.rank
    acc = [Fraction(0)] * n
    count = 0
    for subset, M in action.elements():
        c = 1
        for name in subset:
            c *= chi.of(name)
        img = linalg.mat_vec(M, v)
        for i in range(n):
            acc[i] += c * img[i]
        count += 1
    return tuple(x / count for x in acc)
