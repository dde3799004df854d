"""Integer symmetric bilinear forms: inertia, kernels, primitive sublattices.

An IntLattice is a free abelian group of finite rank with an integer
symmetric Gram matrix (the intersection form on a distinguished basis of
vanishing cycles).  All computations are exact; inertia is obtained by
symmetric congruence over the rationals, never by eigenvalues.
"""
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import linalg
from .errors import DependentBasisError, LatticeDataError


@dataclass(frozen=True)
class IntLattice:
    """Free Z-module of finite rank with a symmetric integer form."""

    gram: tuple
    labels: Optional[tuple] = None

    def __post_init__(self):
        gram = linalg.freeze(self.gram)
        object.__setattr__(self, "gram", gram)
        n = len(gram)
        for i, row in enumerate(gram):
            if len(row) != n:
                raise LatticeDataError("gram matrix must be square")
            for j in range(n):
                if gram[i][j] != gram[j][i]:
                    raise LatticeDataError(f"gram matrix not symmetric at ({i},{j})")
        if self.labels is not None:
            labels = tuple(self.labels)
            if len(labels) != n:
                raise LatticeDataError("labels length must equal rank")
            object.__setattr__(self, "labels", labels)

    @property
    def rank(self):
        return len(self.gram)

    def product(self, u, v):
        """Bilinear product (u, v) of two vectors in basis coordinates."""
        return sum(
            u[i] * self.gram[i][j] * v[j]
            for i in range(self.rank)
            for j in range(self.rank)
        )

    def basis_vector(self, i):
        return tuple(1 if j == i else 0 for j in range(self.rank))


@dataclass(frozen=True)
class Inertia:
    """Counts of positive, zero and negative squares of a symmetric form."""

    n_plus: int
    n_zero: int
    n_minus: int

    @property
    def rank(self):
        return self.n_plus + self.n_zero + self.n_minus

    @property
    def negative_definite(self):
        return self.n_plus == 0 and self.n_zero == 0

    @property
    def negative_semidefinite(self):
        return self.n_plus == 0

    def as_tuple(self):
        return (self.n_plus, self.n_zero, self.n_minus)


def inertia(lattice):
    """Exact signature of the form by symmetric congruence diagonalization.

    Nonzero diagonal entries are used as pivots (after congruence swaps);
    if the active block has an all-zero diagonal but a nonzero entry
    (i, j), that 2x2 block is hyperbolic and contributes one positive and
    one negative square.
    """
    n = lattice.rank
    M = [[Fraction(x) for x in row] for row in lattice.gram]

    def add_multiple(dst, src, f):
        # congruence: basis op v_dst += f*v_src, applied to rows then columns
        for c in range(n):
            M[dst][c] += f * M[src][c]
        for r in range(n):
            M[r][dst] += f * M[r][src]

    def swap(a, b):
        M[a], M[b] = M[b], M[a]
        for r in range(n):
            M[r][a], M[r][b] = M[r][b], M[r][a]

    n_plus = n_zero = n_minus = 0
    i = 0
    while i < n:
        p = next((j for j in range(i, n) if M[j][j] != 0), None)
        if p is not None:
            if p != i:
                swap(i, p)
            d = M[i][i]
            if d > 0:
                n_plus += 1
            else:
                n_minus += 1
            for j in range(i + 1, n):
                if M[j][i] != 0:
                    add_multiple(j, i, -M[j][i] / d)
            i += 1
            continue
        pair = next(
            ((j, k) for j in range(i, n) for k in range(j + 1, n) if M[j][k] != 0),
            None,
        )
        if pair is None:
            n_zero += n - i
            break
        j, k = pair
        if j != i:
            swap(i, j)
        if k != i + 1:
            swap(i + 1, k)
        b = M[i][i + 1]
        # hyperbolic block [[0, b], [b, 0]]: one square of each sign
        n_plus += 1
        n_minus += 1
        for l in range(i + 2, n):
            if M[i + 1][l] != 0:
                add_multiple(l, i, -M[i + 1][l] / b)
            if M[i][l] != 0:
                add_multiple(l, i + 1, -M[i][l] / b)
        i += 2
    return Inertia(n_plus, n_zero, n_minus)


def kernel_basis(lattice):
    """Primitive integer basis of {v : G v = 0} in canonical echelon form.

    Empty tuple for a nondegenerate form.  The basis is saturated by
    construction and deterministic across runs (Hermite normal form).
    """
    ker = linalg.int_kernel(lattice.gram)
    return tuple(ker)


@dataclass(frozen=True)
class Sublattice:
    """Primitive (saturated) sublattice with the restricted form.

    `basis` rows are ambient coordinates in canonical echelon form;
    `restricted_gram[i][j]` is the ambient product of basis[i], basis[j].
    """

    ambient: IntLattice
    basis: tuple
    restricted_gram: tuple = field(default=None)

    def __post_init__(self):
        basis = linalg.freeze(self.basis)
        if len(set(len(b) for b in basis)) > 1 or (
            basis and len(basis[0]) != self.ambient.rank
        ):
            raise LatticeDataError("basis vectors must have ambient rank length")
        canonical = linalg.hnf(basis)
        if len(canonical) != len(basis):
            raise DependentBasisError("basis vectors are rationally dependent")
        if canonical != linalg.saturation(basis):
            raise LatticeDataError("basis does not span a saturated sublattice")
        gram = _gram_on(self.ambient, basis)
        if self.restricted_gram is not None and linalg.freeze(self.restricted_gram) != gram:
            raise LatticeDataError("restricted_gram inconsistent with ambient products")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "restricted_gram", gram)

    @classmethod
    def _canonical(cls, ambient, basis):
        """The sublattice of a basis that is already saturated and in
        Hermite normal form, without re-running the checks."""
        sub = object.__new__(cls)
        object.__setattr__(sub, "ambient", ambient)
        object.__setattr__(sub, "basis", basis)
        object.__setattr__(sub, "restricted_gram", _gram_on(ambient, basis))
        return sub

    @property
    def rank(self):
        return len(self.basis)

    def lattice(self, label_prefix="δ"):
        """The restricted form as a standalone IntLattice (labels d1, d2, ...)."""
        labels = tuple(f"{label_prefix}{i + 1}" for i in range(self.rank))
        return IntLattice(self.restricted_gram, labels=labels)

    def embed(self, v):
        """Sublattice coordinates -> ambient coordinates."""
        out = (0,) * self.ambient.rank
        for c, b in zip(v, self.basis):
            out = linalg.vec_add(out, linalg.vec_scale(c, b))
        return out


def restrict(lattice, vectors):
    """Saturate the rational span of `vectors` and restrict the form to it.

    Raises DependentBasisError when the input is rationally dependent; the
    returned basis is the canonical one for the saturated sublattice, so
    restrict is idempotent on saturated spans.
    """
    vectors = linalg.freeze(vectors)
    if linalg.rank_of(vectors) != len(vectors):
        raise DependentBasisError("input vectors are rationally dependent")
    return Sublattice._canonical(lattice, linalg.saturation(vectors))


def _gram_on(lattice, basis):
    return linalg.freeze([[lattice.product(a, b) for b in basis] for a in basis])
