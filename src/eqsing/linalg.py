"""Exact integer matrix routines.

Matrices are tuples of tuples of Python ints, row-major.  Everything here
is exact; no floating point.  Integer kernels come from the classical
Hermite normal form with transform.
"""
from math import gcd

from .errors import EqsingError


def freeze(rows):
    """Normalize a matrix-like into a tuple of tuples."""
    return tuple(tuple(row) for row in rows)


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(M):
    return tuple(zip(*M)) if M else ()


def form_vec(G, v):
    """G v for a symmetric G: the sum of v_i G[i] over the support of v.

    Column i of G is its row i, so the product reads |supp v| rows, in
    O(|supp v| n) instead of O(n^2); a unit vector's image is its row
    itself (notes/decisions.md, "A product with the form reads the rows
    on the vector's support").
    """
    out = None
    for i, x in enumerate(v):
        if x:
            row = G[i]
            if out is None:
                out = row if x == 1 else tuple(x * a for a in row)
            else:
                out = tuple(a + x * b for a, b in zip(out, row))
    return (0,) * len(v) if out is None else out


def support(v):
    """The nonzero entries of v as pairs (i, v_i)."""
    return tuple((i, x) for i, x in enumerate(v) if x)


def dot_on(u, support):
    """The dot product of u with the vector whose nonzero entries are
    `support`, pairs (i, v_i): O(|support|)."""
    total = 0
    for i, x in support:
        total += x * u[i]
    return total


def is_zero_vec(v):
    return all(x == 0 for x in v)


def primitive(v):
    """Divide an integer vector by the gcd of its entries; sign-normalize
    so the first nonzero entry is positive.  Zero vector raises."""
    g = gcd(*v)
    if g == 0:
        raise EqsingError("zero vector has no primitive representative")
    if next(filter(None, v)) < 0:
        g = -g
    return tuple(x // g for x in v)


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

