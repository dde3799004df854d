"""Test-only oracles: slow, independent ways to compute what the package
computes, for cross-checks on small inputs, and the random inputs they are
checked on."""
import itertools
from fractions import Fraction
from math import gcd, prod

import pytest

from eqsing import linalg
from eqsing.diagram import DiagramFile, DynkinDiagram, to_lattice
from eqsing.errors import EqsingError, InternalError
from eqsing.lattice import Inertia, IntLattice, Sublattice, inertia
from eqsing.localalg import LocalAlgebraReport, _check_table, _partial
from eqsing.monodromy import _dot, _reflect, action_from_file, power_law_check


def mat_vec(M, v):
    """The matrix product M v, row by row in O(n^2).  The package's one
    product, `linalg.form_vec`, reads only the rows of a symmetric form on
    the support of v; this is its dense reference, and the product for the
    tests' matrices that are no form."""
    return tuple(sum(a * b for a, b in zip(row, v)) for row in M)


def mat_mul(A, B):
    """The matrix product A B.  The package multiplies no two matrices: its
    one matrix, an Infinite certificate g, has g - I of rank at most two."""
    Bt = tuple(zip(*B))
    return tuple(
        tuple(sum(a * b for a, b in zip(row, col)) for col in Bt) for row in A
    )


class DenseElement:
    """An integer matrix that keeps the form `gram`, M^T G M = G, with its
    word label: a group element as the tests multiply it out, where the
    package holds its one element, a certificate, as a root pair."""

    __slots__ = ("matrix", "gram", "word")

    def __init__(self, matrix, gram, word=()):
        self.matrix, self.gram, self.word = linalg.freeze(matrix), linalg.freeze(gram), tuple(word)
        if mat_mul(mat_mul(linalg.transpose(self.matrix), self.gram), self.matrix) != self.gram:
            raise EqsingError("matrix does not preserve the bilinear form")

    @property
    def rank(self):
        return len(self.matrix)

    def _minus_identity(self, x):
        """(g - I) x by the dense product: the step `power_law_check` takes
        on a MonodromyElement from its root pair."""
        return tuple(a - b for a, b in zip(mat_vec(self.matrix, x), x))


def product(gram, u, v):
    """The product (u, v) on the form with Gram matrix `gram`, as the
    double sum of u_i G_ij v_j."""
    n = len(gram)
    return sum(u[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))


def pl_reflection(gram, delta, name=None):
    """The Picard-Lefschetz reflection in the cycle `delta` on the form
    with Gram matrix `gram`, as a DenseElement named `name`: the matrix
    the tests multiply, where the package applies the reflection formula.

    a |-> a - 2 (a, delta)/(delta, delta) * delta, entry by entry in
    Fractions.  Refuses, with the package's messages, a cycle with
    (delta, delta) = 0, and a reflection at its first entry, in row-major
    order, that is not an integer; the element checks that it keeps the
    form.
    """
    n = len(gram)
    delta = tuple(delta)
    Gd = mat_vec(gram, delta)
    dd = sum(a * b for a, b in zip(delta, Gd))
    if dd == 0:
        raise EqsingError(f"cycle {delta} has self-intersection zero")
    rows = [[int(i == j) - Fraction(2 * Gd[j] * delta[i], dd) for j in range(n)]
            for i in range(n)]
    for i, j in itertools.product(range(n), repeat=2):
        if rows[i][j].denominator != 1:
            raise EqsingError(
                f"reflection in {delta} is not integral: "
                f"2(e_{j + 1}, delta) delta is not divisible by ({dd})"
            )
    word = (name,) if name is not None else ()
    return DenseElement(matrix=[[int(x) for x in row] for row in rows],
                        gram=gram, word=word)


def reflections(gram, roots):
    """The reflection matrices in `roots` on `gram`, root i named h{i+1}:
    what the words of `generate_group`'s certificates denote."""
    return [pl_reflection(gram, root, name=f"h{i + 1}") for i, root in enumerate(roots)]


def closure_naive(gram, roots, limit=100000):
    """Order of the group generated by the reflections in `roots`, by
    multiplying each round's new elements by the generator matrices until
    no new element appears.

    Lists every element as a matrix, a different method from the order
    from root heights, so the two can be cross-checked on small groups.
    """
    gens = [g.matrix for g in reflections(gram, roots)]
    mats = {linalg.identity(len(gram))}
    new = mats
    while new:
        new = {p for a in new for g in gens if (p := mat_mul(a, g)) not in mats}
        mats |= new
        if len(mats) > limit:
            raise RuntimeError("naive closure limit exceeded")
    return len(mats)


def root_orbit(gram, roots):
    """(points, mirrors) for the reflections in `roots`: the signed roots
    of the group they generate, each with its image G r, found by applying
    the reflection matrices until nothing new appears, and the mirror of
    each generator root (`mirror_of`)."""
    mats = [g.matrix for g in reflections(gram, roots)]
    orbit = list(dict.fromkeys(linalg.primitive(r) for r in roots))
    seen = set(orbit)
    for r in orbit:
        for m in mats:
            q = mat_vec(m, r)
            if q not in seen:
                seen.add(q)
                orbit.append(q)
    points = [(r, mat_vec(gram, r)) for r in orbit]
    mirrors = [mirror_of(d, mat_vec(gram, d)) for d in map(linalg.primitive, roots)]
    return points, mirrors


def mirror_of(delta, g_delta):
    """(delta, G delta, (delta, delta), the support of delta), the mirror
    `_reflect` takes, from a root and its image given by the caller, with
    no check: `monodromy._mirror` computes the image itself and refuses a
    root whose reflection is not integral."""
    return delta, g_delta, _dot(delta, g_delta), linalg.support(delta)


def orbit_stabiliser_order(points, mirrors):
    """|W| for the finite group W generated by the reflections `mirrors`,
    with `points` the signed roots and their images, closed under W.

    Orbit-stabiliser on a root rho: |W| = |W rho| |W_rho|, and by
    Steinberg's theorem W_rho is generated by the reflections in the roots
    orthogonal to rho, which are again closed under it.  Each pass takes
    the orbit of the first root and keeps the roots orthogonal to it; from
    the second pass on the mirrors are one per pair +-r of the roots kept.
    Reflections keep the norm, so the orbit is complete once it holds
    every root of the norm of rho.  A different method from the package's
    order by root heights, so the two can be cross-checked.
    """
    roots = [mirror_of(*root) for root in points]
    order = 1
    while roots:
        rho, g_rho, norm, _ = roots[0]
        size = sum(1 for m in roots if m[2] == norm)
        orbit, members = [(rho, g_rho)], {rho}
        for root in orbit:
            if len(orbit) == size:
                break
            for mirror in mirrors:
                q = _reflect(root, mirror)
                if q is not root and q[0] not in members:
                    members.add(q[0])
                    orbit.append(q)
        order *= len(orbit)
        roots = [m for m in roots if not _dot(m[0], g_rho)]
        mirrors = [m for m in roots if m[0] > tuple(-x for x in m[0])]
    return order


def evaluate_word(generators, word):
    """The product of a certificate word, multiplied out left to right.

    `word` names generators by their labels ("h3"); the result is the
    matrix the word denotes, independent of how the search that produced
    it computed its certificate matrix.
    """
    by_name = {g.word[0]: g for g in generators if len(g.word) == 1}
    product = linalg.identity(generators[0].rank)
    for letter in word:
        product = mat_mul(product, by_name[letter].matrix)
    return product


def word_element(generators, word):
    """The product of `word` in the reflections `generators`, as a
    DenseElement, which checks that it keeps the form."""
    return DenseElement(matrix=evaluate_word(generators, word),
                        gram=generators[0].gram, word=word)


def minus_identity(matrix):
    """g - I for the square matrix g."""
    return tuple(tuple(x - int(i == j) for j, x in enumerate(row))
                 for i, row in enumerate(matrix))


def index2_witness_dense(matrix):
    """(v, w) with w = (g - I)v != 0 and (g - I)^2 v = 0 for a unipotent g:
    v the first vector of the Hermite normal form basis of the integer
    kernel of the dense (g - I)^2 that g moves.  The reference for the
    package's `_index2_witness`, which takes that kernel as the integer
    kernel of one row kappa, read off the root pair's factors."""
    U = minus_identity(matrix)
    for cand in linalg.int_kernel(mat_mul(U, U)):
        img = mat_vec(U, cand)
        if not linalg.is_zero_vec(img):
            return tuple(cand), img
    raise InternalError("no index-2 witness: element is not a nontrivial unipotent")


def certificate_holds_dense(matrix, gram, witness=None, increment=None,
                            residual_charpoly=None):
    """True when the integer matrix g, with the other fields of an Infinite
    verdict, proves infinite order by n x n products alone (a g that does
    not keep the form is refused as a DenseElement): g is not I, and
    either g^2 - t g + I has a nonzero integer kernel for the residual
    (1, -t, 1) with |t| > 2, or w = (g - I)v != 0,
    (g - I)w = 0 and g^s v = v + s w for s <= 5, and on a negative
    semidefinite form also (g - I)^2 = 0 and G w = 0.  The reference for
    `Infinite.validate`, which checks the law and the trace on the plane of
    the certificate's root pair, and no inertia: on a negative semidefinite
    form the law implies the last two checks, which are kept here so that
    a test can show it."""
    g = DenseElement(matrix, gram)
    n = g.rank
    U = minus_identity(g.matrix)
    if not any(any(row) for row in U):
        return False
    if residual_charpoly is not None:
        one, minus_t, last = residual_charpoly
        if (one, last) != (1, 1) or abs(minus_t) <= 2:
            return False
        M2 = mat_mul(g.matrix, g.matrix)
        Q = tuple(tuple(M2[i][j] + minus_t * g.matrix[i][j] + int(i == j) for j in range(n))
                  for i in range(n))
        return bool(linalg.int_kernel(Q))
    v, w = tuple(witness), tuple(increment)
    if (mat_vec(U, v) != w or linalg.is_zero_vec(w)
            or not linalg.is_zero_vec(mat_vec(U, w))
            or power_law_check(g, v, w, 5) is not None):
        return False
    if inertia(IntLattice(g.gram)).negative_semidefinite:
        return (not any(any(row) for row in mat_mul(U, U))
                and linalg.is_zero_vec(mat_vec(g.gram, w)))
    return True


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
            c = prod(chi[k] for k in subset)
            acc = tuple(a + c * b for a, b in zip(acc, mat_vec(M, e)))
        proj_cols.append(acc)
    return len(linalg.hnf(proj_cols))


# --------------------------------------------------------------------------
# the action as matrices: validation, the isotypic sublattice and the orbit
# reflections by projector and ambient matrices


def permutation_matrix(images):
    """The n x n matrix of an image table: column i has sign s at row j
    when images[i] = (j, s), basis vector i maps to s times basis vector j."""
    n = len(images)
    M = [[0] * n for _ in range(n)]
    for i, (j, s) in enumerate(images):
        M[j][i] = s
    return linalg.freeze(M)


def validate_action_by_matrices(generators, lattice):
    """Check isometry, involution and commutation for every generator of
    ((name, image table), ...) on `lattice` by multiplying n x n matrices:
    sigma^T G sigma = G, sigma^2 = I and sigma tau = tau sigma, each with
    the first entry at fault in row-major order as the witness.  The
    reference for `GroupAction`'s checks, which read the image tables."""
    G = lattice.gram
    n = lattice.rank
    I = linalg.identity(n)
    mats = [(name, permutation_matrix(g)) for name, g in generators]
    for name, M in mats:
        MGM = mat_mul(mat_mul(linalg.transpose(M), G), M)
        if MGM != G:
            bad = next(
                (i, j) for i in range(n) for j in range(n) if MGM[i][j] != G[i][j]
            )
            raise EqsingError(
                f"generator {name} does not preserve the form (entry {bad})"
            )
    for name, M in mats:
        sq = mat_mul(M, M)
        if sq != I:
            bad = next(
                (i, j) for i in range(n) for j in range(n) if sq[i][j] != I[i][j]
            )
            raise EqsingError(
                f"generator {name} is not an involution (entry {bad} of sigma^2)"
            )
    for (na, A), (nb, B) in itertools.combinations(mats, 2):
        AB = mat_mul(A, B)
        BA = mat_mul(B, A)
        if AB != BA:
            bad = next(
                (i, j) for i in range(n) for j in range(n) if AB[i][j] != BA[i][j]
            )
            raise EqsingError(f"generators {na}, {nb} do not commute (entry {bad})")
    return None


def group_elements(action):
    """All 2^m products of subsets of the generators, as matrices.

    Yields (subset, matrix) where subset is the tuple of the positions in
    `action.generators` of the generators multiplied together; the empty
    subset is the identity.
    """
    n = action.lattice.rank
    mats = [(k, permutation_matrix(g)) for k, (_, g) in enumerate(action.generators)]
    for r in range(len(mats) + 1):
        for combo in itertools.combinations(mats, r):
            M = linalg.identity(n)
            for _, gm in combo:
                M = mat_mul(gm, M)
            yield tuple(k for k, _ in combo), M


def character_projection(action, chi, v):
    """The chi-projector (1/2^m) sum_g chi(g) g applied to v, in Fractions."""
    n = action.lattice.rank
    acc = [Fraction(0)] * n
    count = 0
    for subset, M in group_elements(action):
        c = prod(chi[k] for k in subset)
        img = mat_vec(M, v)
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

    for _, images in action.generators:
        for i, (j, _) in enumerate(images):
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
    n = action.lattice.rank
    if not action.generators:
        return Sublattice(action.lattice, linalg.identity(n))
    rows = []
    for c, (_, g) in zip(chi, action.generators):
        M = permutation_matrix(g)
        for i in range(n):
            rows.append(tuple(M[i][j] - (c if i == j else 0) for j in range(n)))
    ker = linalg.int_kernel(linalg.freeze(rows))
    if not ker:
        raise EqsingError("isotypic sublattice is zero; nothing to restrict to")
    return Sublattice(action.lattice, ker)


def orbit_generator_by_projector(action, chi, orbit, sub):
    """The primitive chi-projection of the orbit's least cycle, in the
    coordinates of `sub`, once the reflection matrix in it is checked
    against the product of the n x n ambient reflection matrices over the
    orbit; None when the projection is zero, once that product is checked
    to fix every basis vector of `sub`."""
    G = action.lattice.gram
    for i, j in itertools.combinations(orbit, 2):
        if G[i][j] != 0:
            raise EqsingError(
                f"cycles {i + 1} and {j + 1} in one orbit have product {G[i][j]} != 0"
            )
    n = action.lattice.rank
    amb = linalg.identity(n)
    for i in orbit:
        H = pl_reflection(action.lattice.gram, tuple(int(j == i) for j in range(n))).matrix
        amb = mat_mul(H, amb)
    cols = linalg.transpose(sub.basis)
    rep = tuple(1 if i == min(orbit) else 0 for i in range(n))
    proj = character_projection(action, chi, rep)
    if all(x == 0 for x in proj):
        if mat_mul(amb, cols) != cols:
            raise InternalError("the product over an orbit that projects to zero "
                                "moves the isotypic sublattice")
        return None
    den = 1
    for x in proj:
        den = den * x.denominator // gcd(den, x.denominator)
    delta_sub = coordinates(sub, linalg.primitive(tuple(int(x * den) for x in proj)))
    if delta_sub is None:
        raise InternalError("orbit cycle projection does not lie in the isotypic sublattice")
    refl = pl_reflection(sub.restricted_gram, delta_sub)
    if mat_mul(amb, cols) != mat_mul(cols, refl.matrix):
        raise InternalError(
            "restricted orbit product disagrees with the reflection in the "
            "projected cycle; action data is inconsistent"
        )
    return delta_sub


def equivariant_generators_by_projector(action, chi):
    """(sublattice, roots) by the stacked kernel, the union-find orbits and
    `orbit_generator_by_projector`, over the orbits that do not project
    to zero."""
    sub = isotypic_sublattice_by_kernel(action, chi)
    roots = (orbit_generator_by_projector(action, chi, orbit, sub)
             for orbit in orbit_decomposition(action))
    return sub, [root for root in roots if root is not None]


def generator_outcome(construct, dfile, chi=None):
    """What `construct(action, chi)` gives on the action of `dfile`, and on
    the file's character unless `chi` is given, as plain data to compare:
    the sublattice basis, its Gram matrix and the matrices and words of
    the reflections in its roots, or the type and message of the
    EqsingError that building the action or the construction raises."""
    try:
        action, file_chi = action_from_file(dfile)
        sub, roots = construct(action, file_chi if chi is None else chi)
    except EqsingError as exc:
        return type(exc), str(exc)
    gens = reflections(sub.restricted_gram, roots)
    return sub.basis, sub.restricted_gram, tuple((h.matrix, h.word) for h in gens)


def action_tables(dfile):
    """(generators, lattice): the image tables of `dfile`'s generators and
    its lattice, from which `action_from_file` builds its GroupAction, for
    the tests that check an action built from them."""
    index = {v: k for k, v in enumerate(dfile.diagram.vertex_ids())}
    gens = tuple((name, tuple((index[j], s) for _, j, s in sorted(images)))
                 for name, images in dfile.generators)
    return gens, to_lattice(dfile.diagram)


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


def saturation(rows):
    """Saturate the row lattice: (Q-span of rows) intersected with Z^n.

    Computed as the integer kernel of the integer kernel; kernels of
    integer matrices are saturated, so two applications land exactly on
    the primitive closure.  Returns the canonical (HNF) basis: the
    reference for the bases the package proves saturated.
    """
    rows = linalg.freeze(rows)
    if not rows:
        return ()
    K = linalg.int_kernel(rows)
    if not K:
        return linalg.hnf(linalg.identity(len(rows[0])))
    return linalg.int_kernel(K)


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


def reduce_rational(pivots, row):
    """Reduce `row` (column -> Fraction) in place by `pivots`, rows keyed by
    their least column, until its least column is no pivot: rational
    elimination, independent of the package's fraction-free `_reduce`."""
    while row:
        lead = min(row)
        prow = pivots.get(lead)
        if prow is None:
            break
        f = row[lead] / prow[lead]
        for c, v in prow.items():
            v = row.get(c, 0) - f * v
            if v:
                row[c] = v
            else:
                del row[c]
    return row


def milnor_number_by_truncation(f, max_degree=24):
    """`localalg.milnor_number` by a fresh elimination at every degree.

    At each D the columns are the monomials of degree <= D in (degree, lex)
    order, and the rows u * df/dv, truncated at degree D, are reduced from
    scratch over the rationals (`reduce_rational`).  D is certified when
    every degree-D column is a pivot; mu and the isotypic dimensions are
    the non-pivot columns below degree D.  Same report, errors and
    messages as the package.
    """
    gens = [g for g in (_partial(f.terms, v) for v in range(f.nvars)) if g]
    if not gens:
        raise EqsingError(
            f"finiteness of the Jacobian quotient not certified at degree {max_degree}")
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
                row = reduce_rational(pivots, row)
                if row:
                    pivots[min(row)] = row
        if all(c in pivots for c in range(size[D - 1], size[D])):
            dims = dict.fromkeys(itertools.product((1, -1), repeat=len(f.blocks)), 0)
            for c in range(size[D - 1]):
                if c not in pivots:
                    dims[f.character_of_monomial(table[c])] += 1
            return LocalAlgebraReport(isotypic_dims=tuple(dims.items()),
                                      truncation_degree=D)
    raise EqsingError(
        f"finiteness of the Jacobian quotient not certified at degree {max_degree}")
