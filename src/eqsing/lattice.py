"""Integer symmetric bilinear forms: inertia, kernels, primitive sublattices.

An IntLattice is its Gram matrix: the integer symmetric intersection form
on a distinguished basis of vanishing cycles.  A Sublattice is a saturated
basis in Hermite normal form with the form restricted to it; the package
builds one only in `action.isotypic_sublattice`, which proves that form.
All computations are exact and run on integers.  The
inertia comes from scaled Schur complements and the kernel from Hermite
normal forms: two independent eliminations, so the count of zero squares
and the kernel rank check each other.
"""
from math import gcd

from . import linalg
from .errors import EqsingError
from .record import Record


class IntLattice(Record):
    """Free Z-module of finite rank with a symmetric integer form: its Gram
    matrix, a sequence of rows, square, symmetric and of Python ints, or an
    EqsingError names the first entry at fault."""

    __slots__ = ("gram",)

    def __post_init__(self):
        try:
            gram = linalg.freeze(self.gram)
        except TypeError:
            raise EqsingError(f"gram matrix must be a sequence of rows, "
                              f"got {self.gram!r}") from None
        object.__setattr__(self, "gram", gram)
        n = len(gram)
        if any(len(row) != n for row in gram):
            raise EqsingError("gram matrix must be square")
        for i, row in enumerate(gram):
            for j, x in enumerate(row):
                if not isinstance(x, int):
                    raise EqsingError(f"gram matrix entry ({i},{j}) is not an integer: {x!r}")
                if x != gram[j][i]:
                    raise EqsingError(f"gram matrix not symmetric at ({i},{j})")

    @property
    def rank(self):
        return len(self.gram)

    def basis_vector(self, i):
        return tuple(1 if j == i else 0 for j in range(self.rank))


class Inertia(Record):
    """Counts of positive, zero and negative squares of a symmetric form."""

    __slots__ = ("n_plus", "n_zero", "n_minus")

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
    """Exact inertia of the form, by fraction-free Schur complements.

    Each step takes a basis vector v of the block still to be diagonalised
    with d = (v, v) != 0, counts the sign of d, and replaces the rest of
    the block by |d| times the Schur complement of d, with entries
    |d| (v_j, v_k) - sign(d) f_j f_k, f_j = (v_j, v), and then divides it
    by the gcd of its entries.  When every norm in the block is zero but
    some (v_j, v_k) is not, v_j + v_k has norm 2(v_j, v_k) and is the
    pivot.  The all-zero block left at the end is the radical.  Every step
    is a change of basis or a positive scaling, so by Sylvester's law the
    counts are the inertia (notes/decisions.md, "Inertia by Schur
    complements").
    """
    M = [list(row) for row in lattice.gram]
    counts = [0, 0, 0]  # n_plus, n_zero, n_minus
    while M:
        p = next((j for j, row in enumerate(M) if row[j]), None)
        if p is None:
            pair = next(((j, k) for j, row in enumerate(M)
                         for k, x in enumerate(row) if x), None)
            if pair is None:
                break
            j, k = pair  # v_j <- v_j + v_k: add row k to row j, column k to column j
            M[j] = [a + b for a, b in zip(M[j], M[k])]
            for row in M:
                row[j] += row[k]
            p = j
        f = M.pop(p)
        d = f.pop(p)
        counts[0 if d > 0 else 2] += 1
        scale = abs(d)
        if d < 0:
            f = [-b for b in f]
        for row in M:
            fj = row.pop(p)
            if fj or scale != 1:
                row[:] = [scale * a - fj * b for a, b in zip(row, f)]
        g = gcd(*(a for row in M for a in row))
        if g > 1:
            M = [[a // g for a in row] for row in M]
    counts[1] = len(M)
    return Inertia(*counts)


def kernel_basis(lattice):
    """Primitive integer basis of {v : G v = 0} in canonical echelon form.

    Empty tuple for a nondegenerate form.  The basis is saturated by
    construction and deterministic across runs (Hermite normal form).
    """
    ker = linalg.int_kernel(lattice.gram)
    return tuple(ker)


class Sublattice(Record):
    """Primitive (saturated) sublattice with the restricted form.

    `basis` rows are ambient coordinates, saturated and in Hermite normal
    form, so two equal sublattices have equal bases.  The constructor
    trusts this: its one builder, `action.isotypic_sublattice`, proves it
    (notes/decisions.md, "The signed orbit sums are the Hermite normal
    form of L_chi").  `restricted_gram[i][j]` is the ambient product of
    basis[i], basis[j]; it is computed, never given.
    """

    __slots__ = ("ambient", "basis", "restricted_gram")

    def __init__(self, ambient, basis):
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "restricted_gram", _gram_on(ambient, basis))

    @property
    def rank(self):
        return len(self.basis)

    def lattice(self):
        """The restricted form as a standalone IntLattice."""
        return IntLattice(self.restricted_gram)

    def embed(self, v):
        """Sublattice coordinates -> ambient coordinates."""
        return tuple(sum(c * b[i] for c, b in zip(v, self.basis))
                     for i in range(self.ambient.rank))


def _gram_on(lattice, basis):
    """(b_j, b_k) for every pair of rows: G b_k once per row, read off the
    rows of G on the support of b_k (`linalg.form_vec`), then each entry
    summed over the support of b_j.  The orbit sums of
    `action.isotypic_sublattice` have disjoint supports, so this is O(n^2)
    in all, not O(r n^2)."""
    images = [linalg.form_vec(lattice.gram, b) for b in basis]
    return tuple(tuple(linalg.dot_on(g, s) for g in images) for s in map(linalg.support, basis))
