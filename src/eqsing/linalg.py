"""Exact integer matrix routines.

Matrices are tuples of tuples of Python ints, row-major.  Everything here
is exact; no floating point.  Sizes in this toolkit stay small (rank <=
~12), so the classical algorithm below is the right tool: Hermite normal
form with transform for integer kernels and saturations.
"""
from math import gcd

from .errors import InternalError, LatticeDataError


def freeze(rows):
    """Normalize a matrix-like into a tuple of tuples."""
    return tuple(tuple(row) for row in rows)


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(M):
    return tuple(zip(*M)) if M else ()


def mat_mul(A, B):
    Bt = tuple(zip(*B))
    return tuple(
        tuple(sum(a * b for a, b in zip(row, col)) for col in Bt) for row in A
    )


def mat_vec(M, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in M)


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(c, v):
    return tuple(c * x for x in v)


def is_zero_vec(v):
    return all(x == 0 for x in v)


def primitive(v):
    """Divide an integer vector by the gcd of its entries; sign-normalize
    so the first nonzero entry is positive.  Zero vector raises."""
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    if g == 0:
        raise LatticeDataError("zero vector has no primitive representative")
    w = tuple(x // g for x in v)
    for x in w:
        if x != 0:
            return w if x > 0 else tuple(-y for y in w)
    raise InternalError("unreachable: a nonzero vector has a nonzero entry")


def hnf(rows):
    """Row-style Hermite normal form of the lattice spanned by `rows`.

    Returns the canonical basis: pivots positive, entries above each pivot
    reduced into [0, pivot), zero rows dropped, rows ordered by pivot
    column.  The output depends only on the row lattice, which makes it a
    deterministic normal form for bases and kernels.
    """
    H, _ = hnf_with_transform(rows)
    return tuple(r for r in H if not is_zero_vec(r))


def hnf_with_transform(rows):
    """Return (H, U) with U unimodular and U @ rows == H in row HNF.

    H keeps zero rows (at the bottom) so that U stays square.
    """
    M = [list(r) for r in rows]
    n = len(M)
    U = [list(r) for r in identity(n)]
    ncols = len(M[0]) if n else 0
    r = 0
    for c in range(ncols):
        if r == n:
            break
        # gcd-eliminate column c below row r into row r
        piv = None
        for i in range(r, n):
            if M[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            M[r], M[piv] = M[piv], M[r]
            U[r], U[piv] = U[piv], U[r]
        for i in range(r + 1, n):
            while M[i][c] != 0:
                q = M[r][c] // M[i][c]
                if q:
                    M[r] = [a - q * b for a, b in zip(M[r], M[i])]
                    U[r] = [a - q * b for a, b in zip(U[r], U[i])]
                M[r], M[i] = M[i], M[r]
                U[r], U[i] = U[i], U[r]
        if M[r][c] == 0:
            continue
        if M[r][c] < 0:
            M[r] = [-a for a in M[r]]
            U[r] = [-a for a in U[r]]
        for i in range(r):
            q = M[i][c] // M[r][c]
            if q:
                M[i] = [a - q * b for a, b in zip(M[i], M[r])]
                U[i] = [a - q * b for a, b in zip(U[i], U[r])]
        r += 1
    return freeze(M), freeze(U)


def int_kernel(M):
    """Canonical basis of {x integer : M x = 0}, as rows.

    HNF with transform applied to M^T: rows of the transform matching zero
    rows of the HNF span the kernel lattice, which is automatically
    saturated.  Result is HNF-canonicalized.
    """
    Mt = transpose(M)
    if not Mt:
        n = len(M[0]) if M else 0
        return identity(n)
    H, U = hnf_with_transform(Mt)
    ker = [u for h, u in zip(H, U) if is_zero_vec(h)]
    return hnf(ker) if ker else ()


def saturation(rows):
    """Saturate the row lattice: (Q-span of rows) intersected with Z^n.

    Computed as the integer kernel of the integer kernel; kernels of
    integer matrices are saturated, so two applications land exactly on
    the primitive closure.  Returns the canonical (HNF) basis.
    """
    rows = freeze(rows)
    if not rows:
        return ()
    K = int_kernel(rows)
    if not K:
        return hnf(identity(len(rows[0])))
    return int_kernel(K)


def rank_of(rows):
    """Rank over the rationals."""
    return len(hnf(rows))
