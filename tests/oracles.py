"""Test-only oracles: slow, independent ways to compute what the package
computes, for cross-checks on small inputs, and the random inputs they are
checked on."""
import itertools
from fractions import Fraction
from math import gcd

import pytest

from eqsing import linalg
from eqsing.action import validate_action
from eqsing.diagram import DiagramFile, DynkinDiagram
from eqsing.errors import (
    EqsingError,
    InternalError,
    IsotropicCycleError,
    NonIntegralReflectionError,
    NotCertifiedError,
    NotCommutingError,
    NotInvolutionError,
    NotIsometryError,
    OrbitNotOrthogonalError,
    ProjectsToZeroError,
    ZeroSublatticeError,
)
from eqsing.lattice import Inertia, Sublattice
from eqsing.localalg import LocalAlgebraReport, _check_table, _partial, _reduce
from eqsing.monodromy import MonodromyElement


def product(gram, u, v):
    """The product (u, v) on the form with Gram matrix `gram`, as the
    double sum of u_i G_ij v_j."""
    n = len(gram)
    return sum(u[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))


def pl_reflection(gram, delta, name=None):
    """The Picard-Lefschetz reflection in the cycle `delta` on the form
    with Gram matrix `gram`, as a MonodromyElement named `name`: the matrix
    the tests multiply, where the package applies the reflection formula.

    a |-> a - 2 (a, delta)/(delta, delta) * delta, entry by entry in
    Fractions.  Raises IsotropicCycleError when (delta, delta) = 0 and
    NonIntegralReflectionError at the first entry, in row-major order,
    that is not an integer; the element checks that it keeps the form.
    """
    n = len(gram)
    delta = tuple(delta)
    Gd = linalg.mat_vec(gram, delta)
    dd = sum(a * b for a, b in zip(delta, Gd))
    if dd == 0:
        raise IsotropicCycleError(f"cycle {delta} has self-intersection zero")
    rows = [[int(i == j) - Fraction(2 * Gd[j] * delta[i], dd) for j in range(n)]
            for i in range(n)]
    for i, j in itertools.product(range(n), repeat=2):
        if rows[i][j].denominator != 1:
            raise NonIntegralReflectionError(
                f"reflection in {delta} is not integral: "
                f"2(e_{j + 1}, delta) delta is not divisible by ({dd})"
            )
    word = (name,) if name is not None else ()
    return MonodromyElement(matrix=[[int(x) for x in row] for row in rows],
                            gram=gram, word=word)


def reflections(gram, roots):
    """The reflection matrices in `roots` on `gram`, root i named h{i+1}:
    what the words of `generate_group`'s certificates denote."""
    return [pl_reflection(gram, root, name=f"h{i + 1}") for i, root in enumerate(roots)]


def closure_naive(gram, roots, limit=100000):
    """Order of the group generated by the reflections in `roots`, by
    repeated pairwise products of their matrices until stable.

    Lists every element as a matrix, a different method from the
    orbit-stabiliser order on the roots, so the two can be cross-checked
    on small groups.
    """
    mats = {linalg.identity(len(gram))}
    mats.update(g.matrix for g in reflections(gram, roots))
    while True:
        new = set()
        for a in mats:
            for b in mats:
                p = linalg.mat_mul(a, b)
                if p not in mats:
                    new.add(p)
        if not new:
            return len(mats)
        mats |= new
        if len(mats) > limit:
            raise RuntimeError("naive closure limit exceeded")


def evaluate_word(generators, word):
    """The product of a certificate word, multiplied out left to right.

    `word` names generators by their labels ("h3"); the result is the
    matrix the word denotes, independent of how the search that produced
    it computed its certificate matrix.
    """
    by_name = {g.word[0]: g for g in generators if len(g.word) == 1}
    product = linalg.identity(generators[0].rank)
    for letter in word:
        product = linalg.mat_mul(product, by_name[letter].matrix)
    return product


def word_element(generators, word):
    """The product of `word` in the reflections `generators`, as a
    MonodromyElement, which checks that it keeps the form."""
    return MonodromyElement(matrix=evaluate_word(generators, word),
                            gram=generators[0].gram, word=word)


def isotypic_rank_rational(action, chi):
    """Rank of the chi-isotypic subspace over Q (projector route).

    Sums chi(g) g over every group element instead of walking the signed
    orbits `isotypic_sublattice` uses; does not saturate.  Used for the
    rank-additivity cross-check.
    """
    n = action.lattice.rank
    proj_cols = []
    for j in range(n):
        e = tuple(1 if t == j else 0 for t in range(n))
        acc = (0,) * n
        for subset, M in group_elements(action):
            c = 1
            for name in subset:
                c *= chi.of(name)
            acc = tuple(a + c * b for a, b in zip(acc, linalg.mat_vec(M, e)))
        proj_cols.append(acc)
    return len(linalg.hnf(proj_cols))


# --------------------------------------------------------------------------
# the action as matrices: validation, the isotypic sublattice and the orbit
# reflections by projector and ambient matrices


def permutation_matrix(sp):
    """The n x n matrix of a SignedPermutation: column i has sign s at row
    j when basis vector i maps to s times basis vector j."""
    n = sp.size
    M = [[0] * n for _ in range(n)]
    for i, (j, s) in enumerate(sp.images):
        M[j][i] = s
    return linalg.freeze(M)


def validate_action_by_matrices(action):
    """Check isometry, involution and commutation for every generator by
    multiplying n x n matrices: sigma^T G sigma = G, sigma^2 = I and
    sigma tau = tau sigma, each with the first entry at fault in row-major
    order as the witness.  The reference for `validate_action`, which
    reads the image tables."""
    G = action.lattice.gram
    n = action.lattice.rank
    I = linalg.identity(n)
    mats = [(name, permutation_matrix(g)) for name, g in action.generators]
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


def group_elements(action):
    """All 2^m products of subsets of the generators, as matrices.

    Yields (subset, matrix) where subset is the tuple of generator names
    multiplied together; the empty subset is the identity.
    """
    n = action.lattice.rank
    mats = [(name, permutation_matrix(g)) for name, g in action.generators]
    for r in range(len(mats) + 1):
        for combo in itertools.combinations(mats, r):
            M = linalg.identity(n)
            for _, gm in combo:
                M = linalg.mat_mul(gm, M)
            yield tuple(name for name, _ in combo), M


def character_projection(action, chi, v):
    """The chi-projector (1/2^m) sum_g chi(g) g applied to v, in Fractions."""
    n = action.lattice.rank
    acc = [Fraction(0)] * n
    count = 0
    for subset, M in group_elements(action):
        c = 1
        for name in subset:
            c *= chi.of(name)
        img = linalg.mat_vec(M, v)
        for i in range(n):
            acc[i] += c * img[i]
        count += 1
    return tuple(x / count for x in acc)


def coordinates(sub, ambient_vec):
    """Ambient vector -> coordinates in the basis of `sub`; None if outside.

    The basis is independent, so the integer kernel of the columns
    [basis | v] is zero (v off the rational span) or spanned by one
    primitive (x, c).  v lies in the lattice exactly when c = +-1, and then
    its coordinates are -c x.
    """
    ker = linalg.int_kernel(linalg.transpose(sub.basis + (tuple(ambient_vec),)))
    if not ker or ker[0][-1] not in (1, -1):
        return None
    *x, c = ker[0]
    return tuple(-c * xi for xi in x)


def orbit_decomposition(action):
    """Orbits of basis indices under the unsigned permutations, by
    union-find; each sorted, ordered by least element."""
    n = action.lattice.rank
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for _, g in action.generators:
        for i, (j, _) in enumerate(g.images):
            ra, rb = find(i), find(j)
            if ra != rb:
                parent[rb] = ra
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(sorted(v)) for _, v in sorted(groups.items()))


def isotypic_sublattice_by_kernel(action, chi):
    """The chi-isotypic sublattice as the integer kernel of the stacked
    matrices sigma_i - chi_i I, which is saturated and in Hermite normal
    form."""
    validate_action(action)
    n = action.lattice.rank
    if not action.generators:
        return Sublattice._canonical(action.lattice, linalg.identity(n))
    rows = []
    for name, g in action.generators:
        c = chi.of(name)
        M = permutation_matrix(g)
        for i in range(n):
            rows.append(tuple(M[i][j] - (c if i == j else 0) for j in range(n)))
    ker = linalg.int_kernel(linalg.freeze(rows))
    if not ker:
        raise ZeroSublatticeError("isotypic sublattice is zero; nothing to restrict to")
    return Sublattice._canonical(action.lattice, ker)


def orbit_generator_by_projector(action, chi, orbit, sub):
    """The primitive chi-projection of the orbit's least cycle, in the
    coordinates of `sub`, once the reflection matrix in it is checked
    against the product of the n x n ambient reflection matrices over the
    orbit."""
    G = action.lattice.gram
    for i, j in itertools.combinations(orbit, 2):
        if G[i][j] != 0:
            raise OrbitNotOrthogonalError(
                f"cycles {i + 1} and {j + 1} in one orbit have product {G[i][j]} != 0"
            )
    n = action.lattice.rank
    amb = linalg.identity(n)
    for i in orbit:
        H = pl_reflection(action.lattice.gram, action.lattice.basis_vector(i)).matrix
        amb = linalg.mat_mul(H, amb)
    rep = tuple(1 if i == min(orbit) else 0 for i in range(n))
    proj = character_projection(action, chi, rep)
    if all(x == 0 for x in proj):
        raise ProjectsToZeroError(
            f"orbit {tuple(i + 1 for i in orbit)} projects to zero under the character"
        )
    den = 1
    for x in proj:
        den = den * x.denominator // gcd(den, x.denominator)
    delta_sub = coordinates(sub, linalg.primitive(tuple(int(x * den) for x in proj)))
    if delta_sub is None:
        raise ProjectsToZeroError(
            "orbit cycle projection does not lie in the isotypic sublattice"
        )
    refl = pl_reflection(sub.restricted_gram, delta_sub)
    cols = linalg.transpose(sub.basis)
    if linalg.mat_mul(amb, cols) != linalg.mat_mul(cols, refl.matrix):
        raise InternalError(
            "restricted orbit product disagrees with the reflection in the "
            "projected cycle; action data is inconsistent"
        )
    return delta_sub


def equivariant_generators_by_projector(action, chi):
    """(sublattice, roots) by the stacked kernel, the union-find orbits and
    `orbit_generator_by_projector`."""
    sub = isotypic_sublattice_by_kernel(action, chi)
    return sub, [orbit_generator_by_projector(action, chi, orbit, sub)
                 for orbit in orbit_decomposition(action)]


def generator_outcome(construct, action, chi):
    """What `construct(action, chi)` gives, as plain data to compare: the
    sublattice basis, its Gram matrix and the matrices and words of the
    reflections in its roots, or the type and message of the EqsingError
    it raises."""
    try:
        sub, roots = construct(action, chi)
    except EqsingError as exc:
        return type(exc), str(exc)
    gens = reflections(sub.restricted_gram, roots)
    return sub.basis, sub.restricted_gram, tuple((h.matrix, h.word) for h in gens)


def random_action_file(rng, self_ints=(-4, -2, -2, -2, 0, 2)):
    """A random diagram+action file for the cross-checks, drawn from `rng`
    (a `random.Random`, or hypothesis's `st.randoms()`).

    m <= 3 generators act on 1 to 4 orbits of size 1, 2 or 4: orbit x in
    Z2^d moves to x + a_k under generator k, with a sign per generator and
    orbit and a random sign change of the basis on top.  Self-intersections
    are constant on orbits and drawn from `self_ints`; the other entries
    are spread over the group's orbits on pairs, so the form is invariant,
    unless one entry is then changed.  Now and then one generator is
    replaced by a random signed permutation or involution, and the form is
    then diagonal, so that it keeps the form and is no involution or does
    not commute with the rest.  The character is random.
    """
    m = rng.randint(0, 3)
    cells = []  # (orbit, position in Z2^d as an int) per basis cycle
    moves = [[] for _ in range(m)]  # per generator: (orbit, a_k, sign)
    for orbit in range(rng.randint(1, 4)):
        d = rng.choice([dd for dd in (0, 1, 1, 2, 2) if dd <= m])
        while True:
            shifts = [rng.randrange(2 ** d) for _ in range(m)]
            span = {0}
            for a in shifts:
                span |= {x ^ a for x in span}
            if len(span) == 2 ** d:
                break
        for k, a in enumerate(shifts):
            moves[k].append((orbit, a, rng.choice((1, -1))))
        cells.extend((orbit, x) for x in range(2 ** d))
    n = len(cells)
    order = list(range(n))
    rng.shuffle(order)
    index = {cell: order[t] for t, cell in enumerate(cells)}
    flip = [rng.choice((1, -1)) for _ in range(n)]
    gens = []
    for k in range(m):
        images = [None] * n
        for orbit, a, sign in moves[k]:
            for (o, x), i in index.items():
                if o == orbit:
                    j = index[(o, x ^ a)]
                    images[i] = (j, flip[i] * sign * flip[j])
        gens.append(images)
    junk = m and rng.random() < 0.15
    if junk:
        targets = list(range(n))
        rng.shuffle(targets)
        images = [(j, rng.choice((1, -1))) for j in targets]
        if rng.random() < 0.5:  # an involution: swap consecutive targets
            for a, b in zip(targets[::2], targets[1::2]):
                s = rng.choice((1, -1))
                images[a], images[b] = (b, s), (a, s)
            if len(targets) % 2:
                images[targets[-1]] = (targets[-1], rng.choice((1, -1)))
        gens[rng.randrange(m)] = images
    elements = [tuple((i, 1) for i in range(n))]
    for images in gens:
        elements += [tuple((images[j][0], s * images[j][1]) for j, s in g)
                     for g in elements]
    gram = [[None] * n for _ in range(n)]
    self_int = {}
    for (o, _), i in index.items():
        # one value for all, when a random generator should keep the form
        gram[i][i] = self_int.setdefault(0 if junk else o, rng.choice(self_ints))
    orbit_of = {i: o for (o, _), i in index.items()}
    for i, j in itertools.combinations(range(n), 2):
        if gram[i][j] is not None:
            continue
        if junk:  # a diagonal form, which every signed permutation keeps
            w = 0
        elif orbit_of[i] == orbit_of[j]:
            w = rng.choice((0, 0, 0, 0, 0, 0, 0, 0, 1, -1))
        else:
            w = rng.choice((0, 1, -1, 1, -1, 2))
        signs = {}
        for g in elements:
            (a, s), (b, t) = g[i], g[j]
            signs.setdefault((a, b), set()).add(s * t)
        if any(len(st) > 1 for st in signs.values()):
            w = 0  # an element maps the pair to itself with sign -1
        for (a, b), st in signs.items():
            gram[a][b] = gram[b][a] = st.pop() * w
    if rng.random() < 0.25:
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            gram[i][i] = rng.choice(self_ints)
        else:
            gram[i][j] = gram[j][i] = gram[i][j] + rng.choice((1, -1))
    vertices = tuple((i + 1, gram[i][i]) for i in range(n))
    edges = tuple((i + 1, j + 1, gram[i][j])
                  for i, j in itertools.combinations(range(n), 2) if gram[i][j])
    names = [f"g{k + 1}" for k in range(m)]
    generators = tuple(
        (name, tuple((i + 1, j + 1, s) for i, (j, s) in enumerate(images)))
        for name, images in zip(names, gens)
    )
    character = tuple((name, rng.choice((1, -1))) for name in names) if m else None
    return DiagramFile(DynkinDiagram(vertices, edges), generators, character)


def inverse_unimodular(U):
    """Integer inverse of a unimodular matrix, by Gauss-Jordan elimination
    over the rationals; ValueError when U is singular or its inverse is
    not integral."""
    n = len(U)
    M = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(U)]
    for c in range(n):
        p = next((i for i in range(c, n) if M[i][c] != 0), None)
        if p is None:
            raise ValueError("matrix is singular")
        M[c], M[p] = M[p], M[c]
        pivot = M[c][c]
        M[c] = [x / pivot for x in M[c]]
        for i in range(n):
            f = M[i][c]
            if i != c and f != 0:
                M[i] = [a - f * b for a, b in zip(M[i], M[c])]
    if any(x.denominator != 1 for row in M for x in row[n:]):
        raise ValueError("matrix is not unimodular")
    return tuple(tuple(int(x) for x in row[n:]) for row in M)


def charpoly_sympy(M):
    """Characteristic polynomial det(xI - M) by sympy, as integer
    coefficients, highest degree first; skips the test without sympy."""
    sympy = pytest.importorskip("sympy")
    return tuple(int(c) for c in sympy.Matrix(M).charpoly().all_coeffs())


def inertia_by_descartes(gram):
    """The inertia of a symmetric integer matrix from its characteristic
    polynomial p, by Descartes' rule of signs.

    The eigenvalues of a real symmetric matrix are real, and for a
    polynomial with only real roots the rule is exact: n_plus is the number
    of sign changes of p(x), n_minus that of p(-x), and n_zero the
    multiplicity of the root 0.
    """
    coeffs = charpoly_sympy(gram)
    n = len(coeffs) - 1

    def sign_changes(cs):
        signs = [c > 0 for c in cs if c]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    n_zero = 0
    while n_zero < n and coeffs[n - n_zero] == 0:
        n_zero += 1
    mirrored = [c if (n - k) % 2 == 0 else -c for k, c in enumerate(coeffs)]
    return Inertia(sign_changes(coeffs), n_zero, sign_changes(mirrored))


def box_signs(lattice, bound=5):
    """(pos, neg, zero): whether (v, v) is positive, negative or zero for
    some nonzero integer v with entries in [-bound, bound].  The scan stops
    once all three have been seen, since a flag never turns off again."""
    pos = neg = zero = False
    for v in itertools.product(range(-bound, bound + 1), repeat=lattice.rank):
        if not any(v):
            continue
        q = product(lattice.gram, v, v)
        pos |= q > 0
        neg |= q < 0
        zero |= q == 0
        if pos and neg and zero:
            break
    return pos, neg, zero


def milnor_number_by_truncation(f, max_degree=24):
    """`localalg.milnor_number` by a fresh elimination at every degree.

    At each D the columns are the monomials of degree <= D in (degree, lex)
    order, and the rows u * df/dv, truncated at degree D, are reduced from
    scratch.  D is certified when every degree-D column is a pivot; mu and
    the isotypic dimensions are the non-pivot columns below degree D.
    Same report, errors and messages as the package.
    """
    gens = [g for g in (_partial(f.terms, v) for v in range(f.nvars)) if g]
    if not gens:
        raise NotCertifiedError(max_degree)
    table = [(0,) * f.nvars]  # the monomials, in (degree, lex) order
    index = {table[0]: 0}
    size = [1]  # size[d]: the monomials of degree <= d, a prefix of table
    for D in range(1, max_degree + 1):
        _check_table(f.nvars, D)
        for mono in sorted(
            tuple(c.count(v) for v in range(f.nvars))
            for c in itertools.combinations_with_replacement(range(f.nvars), D)
        ):
            index[mono] = len(table)
            table.append(mono)
        size.append(len(table))
        pivots = {}
        for g in gens:
            top = D - min(d for _, d, _ in g)  # the multipliers' degree bound
            if top < 0:
                continue
            for u in table[:size[top]]:
                du = sum(u)
                row = {index[tuple(a + b for a, b in zip(e, u))]: c
                       for e, d, c in g if d + du <= D}
                row = _reduce(pivots, row)
                if row:
                    pivots[min(row)] = row
        if all(c in pivots for c in range(size[D - 1], size[D])):
            dims = dict.fromkeys(itertools.product((1, -1), repeat=len(f.blocks)), 0)
            for c in range(size[D - 1]):
                if c not in pivots:
                    dims[f.character_of_monomial(table[c])] += 1
            return LocalAlgebraReport(
                mu=sum(dims.values()),
                isotypic_dims=tuple(dims.items()),
                truncation_degree=D,
            )
    raise NotCertifiedError(max_degree)
