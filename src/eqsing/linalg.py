"""Exact integer and rational matrix routines.

Matrices are tuples of tuples of Python ints (or Fractions where noted),
row-major.  Everything here is exact; no floating point.  Sizes in this
toolkit stay small (rank <= ~12), so the classical algorithms below are
the right tool: Hermite normal form with transform for integer kernels
and saturations, fraction Gaussian elimination for solving, and
Faddeev-LeVerrier for characteristic polynomials.
"""
from fractions import Fraction
from functools import lru_cache
from math import gcd
from types import MappingProxyType


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
        raise ValueError("zero vector has no primitive representative")
    w = tuple(x // g for x in v)
    for x in w:
        if x != 0:
            return w if x > 0 else tuple(-y for y in w)
    raise AssertionError("unreachable")


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


def solve_rational(A, b):
    """Solve A x = b over Q. Returns a tuple of Fractions, or None if
    inconsistent.  When the solution is underdetermined, free variables
    are set to zero (callers here only use it on full-column-rank A)."""
    m = len(A)
    n = len(A[0]) if m else 0
    M = [[Fraction(x) for x in row] + [Fraction(bv)] for row, bv in zip(A, b)]
    piv_cols = []
    r = 0
    for c in range(n):
        p = None
        for i in range(r, m):
            if M[i][c] != 0:
                p = i
                break
        if p is None:
            continue
        M[r], M[p] = M[p], M[r]
        f = M[r][c]
        M[r] = [x / f for x in M[r]]
        for i in range(m):
            if i != r and M[i][c] != 0:
                g = M[i][c]
                M[i] = [a - g * bb for a, bb in zip(M[i], M[r])]
        piv_cols.append(c)
        r += 1
    for i in range(r, m):
        if M[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for ri, c in enumerate(piv_cols):
        x[c] = M[ri][n]
    return tuple(x)


def solve_integer(A, b):
    """Solve A x = b over Q and require an integer solution; None otherwise."""
    x = solve_rational(A, b)
    if x is None or any(v.denominator != 1 for v in x):
        return None
    return tuple(int(v) for v in x)


def charpoly(M):
    """Characteristic polynomial det(xI - M) of an integer matrix.

    Faddeev-LeVerrier over the integers: A_1 = M, c_k = -tr(A_k)/k and
    A_{k+1} = M (A_k + c_k I).  Every c_k is a coefficient of the monic
    integer characteristic polynomial, so every A_k is integral and the
    division by k is exact.  Coefficients highest degree first.
    """
    n = len(M)
    coeffs = [1]
    A = M
    for k in range(1, n + 1):
        if k > 1:
            c = coeffs[-1]
            A = mat_mul(M, tuple(
                tuple(x + c if i == j else x for j, x in enumerate(row))
                for i, row in enumerate(A)
            ))
        tr = sum(A[i][i] for i in range(n))
        assert tr % k == 0, "Faddeev-LeVerrier trace is not divisible by k"
        coeffs.append(-tr // k)
    return tuple(coeffs)


def _divmod_monic(num, den):
    """(quotient, remainder) of integer polynomials with `den` monic.

    Coefficient tuples, highest degree first; integer arithmetic only.
    """
    rem = list(num)
    quot = []
    for i in range(len(num) - len(den) + 1):
        c = rem[i]
        quot.append(c)
        if c:
            for j in range(1, len(den)):
                rem[i + j] -= c * den[j]
    return tuple(quot), tuple(rem[len(quot):])


def euler_phi(d):
    out = d
    p = 2
    dd = d
    while p * p <= dd:
        if dd % p == 0:
            while dd % p == 0:
                dd //= p
            out -= out // p
        p += 1
    if dd > 1:
        out -= out // dd
    return out


@lru_cache(maxsize=None)
def cyclotomic_polys(max_degree):
    """All cyclotomic polynomials Phi_d with phi(d) <= max_degree.

    Returns a read-only {d: coefficient tuple} in increasing d, computed
    once per degree bound by the exact division
    Phi_d = (x^d - 1) / prod_{e | d, e < d} Phi_e.
    """
    # phi(d) >= sqrt(d/2), so phi(d) <= D forces d <= 2 D^2 + 1
    bound = 2 * max_degree * max_degree + 1
    phis = {}
    for d in range(1, bound + 1):
        if euler_phi(d) > max_degree:
            continue
        poly = (1,) + (0,) * (d - 1) + (-1,)  # x^d - 1
        for e, pe in phis.items():
            if d % e == 0:
                poly, rem = _divmod_monic(poly, pe)
                assert not any(rem)
        phis[d] = poly
    return MappingProxyType(phis)


def strip_cyclotomic_factors(poly, max_degree):
    """Divide out every cyclotomic factor (with multiplicity).

    Returns (orders, residual): `orders` is the multiset of d's whose
    Phi_d divided the polynomial, `residual` the leftover integer-
    coefficient polynomial (constants mean all eigenvalues are roots of
    unity).  A nonconstant residual certifies an eigenvalue off the
    roots of unity, hence an infinite-order matrix.
    """
    cur = tuple(poly)
    orders = []
    for d, pe in cyclotomic_polys(max_degree).items():
        while len(cur) >= len(pe):
            q, rem = _divmod_monic(cur, pe)
            if any(rem):
                break
            cur = q
            orders.append(d)
    return tuple(orders), cur
