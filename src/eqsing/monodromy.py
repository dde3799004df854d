"""Equivariant generator roots and the finiteness decision procedure with
machine-checkable certificates.

The decision is one search, on every form: the orbit of the generator
roots, for two roots rho, rho' with b = (rho, rho') != 0 and
b^2 >= (rho, rho)(rho', rho'); then s_rho s_rho' has infinite order.  The
form chooses only the partner test and whether the Coxeter orbits run:

  - negative semidefinite, definite included: breadth-first over the
    generators, and the pair is a collision of root classes, a unipotent
    translation as in an affine Weyl group.  On a definite form the kernel
    is zero, no two roots share a class, none is tested, and it closes.
  - any other form: the Coxeter orbits c^k delta_i come first.  b^2 = ac
    gives a unipotent with a power-law witness, b^2 > ac an element with a
    real eigenvalue off the unit circle, a root of x^2 - t x + 1 with
    t = 4b^2/(ac) - 2.

A closure with no such pair is a finite group, and its order comes from
the heights of its positive roots, the exponents being the dual partition
of the height counts (Kostant).  Before Finite returns, the simple roots
must rebuild the recorded positive roots by root strings alone, with an
integral Cartan matrix and definite components, or InternalError is
raised.  The cap counts roots on every form: Unknown when the roots
exceed it, or exceed the MAX_ROOT_ENTRIES bound on the integers they are
held in.

The generators are held as roots only.  The pipeline's h_k is the
Picard-Lefschetz reflection in basis vector k of the isotypic sublattice
by construction, so `equivariant_generators` gives the unit vectors.
Every root r travels with its image G r, computed once per generator
root and then moved along with r, so every reflection is applied by its
formula (`_reflect`) with (r, delta) read off the image over the support
of delta: one entry for a unit generator root, and no vector update
when the reflection fixes r.  The one matrix is that of the certificate
of an infinite group, a MonodromyElement g = s_rho s_rho' built from its
root pair.  g - I has rank two, so the certificate is built and checked
in O(n^2) entry operations, with no matrix product.

Everything runs on tuples of Python ints, so no entry can overflow.

The last section is the simplicity criterion on one diagram+action file,
`run_analysis`: inertia of the restricted form, cross-checked by the
finiteness decision.  It lives here, not in `catalog`, so that `analyze`
does not load the family table.
"""
import itertools
from math import gcd, prod

from . import linalg
from .action import GroupAction, isotypic_sublattice, signed_orbits
from .diagram import to_lattice
from .errors import DiagramError, EqsingError, InternalError
from .lattice import IntLattice, inertia, kernel_basis
from .record import Record

# The bound on the roots the search records, counted as roots times rank
# entries.  E8 records 240 roots of rank 8 (1,920 entries), A60 3,660 of
# rank 60 (219,600); each entry of a root and of its image G r costs about
# 68 bytes.
MAX_ROOT_ENTRIES = 2_000_000


class MonodromyElement(Record):
    """g = s_rho s_rho', the product of the reflections in two roots on the
    form `gram`, with its word label: the certificate of an Infinite verdict.

    Each root is refused when its norm is 0 or its reflection is not
    integral (`_check_integral`), and is kept divided by the gcd of its
    entries, which leaves its reflection as it is.  `matrix` is g, computed
    from the pair, never given: column j is s_rho(s_rho'(e_j)) by
    `_reflect`.  A product of two integral reflections is an integral
    isometry, so nothing else is checked (notes/decisions.md, "An Infinite
    certificate is its root pair").
    """

    __slots__ = ("gram", "rho", "rho_p", "word", "matrix")

    def __init__(self, gram, rho, rho_p, word=()):
        gram = IntLattice(gram).gram
        n = len(gram)
        mirrors = []
        for name, root in (("rho", rho), ("rho_p", rho_p)):
            root = tuple(root)
            if len(root) != n or not all(isinstance(x, int) for x in root):
                raise EqsingError(f"{name} is no integer vector of length {n}: {root!r}")
            g_root = linalg.mat_vec(gram, root)
            _check_integral(root, g_root, _dot(root, g_root))
            k = gcd(*root)
            mirrors.append(_mirror((tuple(x // k for x in root),
                                    tuple(x // k for x in g_root))))
        mirror, mirror_p = mirrors
        columns = [_reflect(_reflect(e_j, mirror_p), mirror)[0]
                   for e_j in zip(linalg.identity(n), gram)]
        for name, value in (("gram", gram), ("rho", mirror[0]), ("rho_p", mirror_p[0]),
                            ("word", tuple(word)), ("matrix", tuple(zip(*columns)))):
            object.__setattr__(self, name, value)

    @property
    def rank(self):
        return len(self.matrix)

    @property
    def is_identity(self):
        return self.matrix == linalg.identity(self.rank)

    def _factors(self):
        """(alpha, beta) with g - I = rho alpha^T + rho' beta^T.

        With a = (rho, rho), b = (rho, rho') and c = (rho', rho'),
        beta = -2 G rho'/c and alpha = (-2c G rho + 4b G rho')/(ac), from
        the reflection formula.  Both are integer vectors: s_rho' - I =
        rho' beta^T and g - I - rho' beta^T = rho alpha^T are integer
        matrices, and rho and rho' are primitive.  `Infinite.validate`
        checks the matrix against them entry by entry.
        """
        g_rho = linalg.mat_vec(self.gram, self.rho)
        g_rho_p = linalg.mat_vec(self.gram, self.rho_p)
        a, b, c = _dot(self.rho, g_rho), _dot(self.rho, g_rho_p), _dot(self.rho_p, g_rho_p)
        alpha = tuple((-2 * c * x + 4 * b * y) // (a * c) for x, y in zip(g_rho, g_rho_p))
        return alpha, tuple(-2 * y // c for y in g_rho_p)

    def _minus_identity(self, factors, x):
        """(g - I) x = rho (alpha . x) + rho' (beta . x), in O(n), for
        `factors` = (alpha, beta) of `_factors`."""
        s, t = _dot(factors[0], x), _dot(factors[1], x)
        return tuple(s * r + t * q for r, q in zip(self.rho, self.rho_p))

    def _minus_identity_squared(self, factors):
        """(g - I)^2 = u alpha^T + u' beta^T, with u = (g - I) rho and
        u' = (g - I) rho', in O(n^2)."""
        alpha, beta = factors
        u, u_p = self._minus_identity(factors, self.rho), self._minus_identity(factors, self.rho_p)
        return tuple(tuple(x * a + y * b for a, b in zip(alpha, beta))
                     for x, y in zip(u, u_p))


def _check_integral(delta, Gd, dd):
    """Raise unless the reflection in delta, with Gd = G delta and
    dd = (delta, delta), is an integer matrix: dd != 0 and dd divides
    every 2 (e_j, delta) delta_i."""
    if dd == 0:
        raise EqsingError(f"cycle {delta} has self-intersection zero")
    for d in filter(None, delta):
        for j, x in enumerate(Gd):
            if 2 * x * d % dd:
                raise EqsingError(
                    f"reflection in {delta} is not integral: "
                    f"2(e_{j + 1}, delta) delta is not divisible by ({dd})"
                )


def equivariant_generators(action, chi):
    """(sublattice, (e_1, ..., e_r)) for the pipeline: one root per orbit.

    Each orbit is checked in turn: its cycles are pairwise orthogonal, and
    the ambient reflection in each is integral.  The k-th orbit with a
    chi-vector has basis vector k of the isotypic sublattice as its cycle,
    so its reflection h_k is the one in the unit vector e_k, the root
    `generate_group` takes for it.  The product of the ambient reflections
    over the orbit must restrict to h_k (`_check_orbit_product`), which
    is integral because they are.  An orbit
    with no chi-vector is orthogonal to the sublattice, so its product
    fixes the sublattice and it gives no root (notes/decisions.md).  The
    orbits are walked once and handed to `isotypic_sublattice`.
    """
    orbits = signed_orbits(action, chi)
    sub = isotypic_sublattice(action, chi, orbits)
    G = action.lattice.gram
    k = 0
    for orbit, cycle in orbits:
        for i, j in itertools.combinations(orbit, 2):
            if G[i][j] != 0:
                raise EqsingError(
                    f"cycles {i + 1} and {j + 1} in one orbit have product {G[i][j]} != 0"
                )
        for i in orbit:
            _check_integral(action.lattice.basis_vector(i), G[i], G[i][i])
        if cycle is not None:
            _check_orbit_product(G, orbit, cycle, sub, k)
            k += 1
        elif any(_dot(b, G[i]) for b in sub.basis for i in orbit):
            raise InternalError("an orbit with no chi-vector meets the isotypic "
                                "sublattice; action data is inconsistent")
    return sub, linalg.identity(sub.rank)


def _check_orbit_product(gram, orbit, cycle, sub, k):
    """Raise InternalError unless basis vector k of `sub` is the orbit's
    cycle c and the product of the ambient reflections in the orbit's
    cycles e_i restricts to the reflection in it on B = `restricted_gram`.

    The e_i are pairwise orthogonal, so on a basis vector b_j of `sub` the
    product subtracts 2(b_j, e_i)/(e_i, e_i) e_i for each i, and the
    reflection in b_k = c subtracts 2 B_jk/B_kk c(i) e_i: they agree when
    (b_j, e_i) B_kk = B_jk c(i) (e_i, e_i), checked in integers.
    """
    B = sub.restricted_gram
    if sub.basis[k] != cycle or any(
            _dot(b, gram[i]) * B[k][k] != B[j][k] * cycle[i] * gram[i][i]
            for j, b in enumerate(sub.basis) for i in orbit):
        raise InternalError("restricted orbit product disagrees with the reflection in the "
                            "projected cycle; action data is inconsistent")


# --------------------------------------------------------------------------
# verdicts


class Finite(Record):
    __slots__ = ("order",)

    kind = "finite"

    def __str__(self):
        return f"Finite(order={self.order})"


class Infinite(Record):
    """Self-validating witness of infinite order.

    certificate: a group element g = s_rho s_rho' != I of infinite order, a
    MonodromyElement; the other fields are None unless given.  Either a
    witness v and increment w satisfy w = (g - I)v != 0 and (g - I)w = 0,
    which forces g^s v = v + s w for every s >= 1 (a pair s_rho s_rho'
    with b^2 = ac, always the case on a negative semidefinite form, where
    also (g - I)^2 = 0).  Or `residual_charpoly` is (1, -t, 1) with
    |t| > 2, the factor x^2 - t x + 1 of the characteristic polynomial of
    a pair with b^2 > ac, whose roots are real and off the unit circle.
    """

    __slots__ = ("certificate", "witness", "increment", "residual_charpoly")
    _defaults = dict.fromkeys(__slots__[1:])

    kind = "infinite"

    def validate(self):
        """Re-verify the certificate independently of the search that found it.

        g - I has rank two: g - I = rho alpha^T + rho' beta^T, checked
        against the matrix entry by entry, so each check on g below takes
        O(n^2) or less (notes/decisions.md, "An Infinite certificate is its
        root pair").  The inertia of the whole form, which selects the
        negative semidefinite checks, is computed afresh.

        The witness law alone (w = (g-I)v != 0, (g-I)w = 0) proves infinite
        order: by induction g^s v = v + s w != v.  On a negative
        semidefinite form the stronger unipotent shape (g-I)^2 = 0 and the
        kernel membership of w are also required; that is what the
        semidefinite search path always produces.

        A residual (1, -t, 1) with |t| > 2 holds when (g^2 - t g + I) rho
        = 0: then a root of x^2 - t x + 1, real and off the unit circle, is
        an eigenvalue of g.  It holds for every pair with trace t on its
        plane P: g keeps P with determinant 1 there (Cayley-Hamilton).
        """
        g = self.certificate
        factors = g._factors()
        for i, row in enumerate(g.matrix):
            r, q = g.rho[i], g.rho_p[i]
            if any(x != int(i == j) + r * a + q * b
                   for j, (x, a, b) in enumerate(zip(row, *factors))):
                raise InternalError("certificate matrix is not I + rho alpha^T + rho' beta^T")
        if g.is_identity:
            raise InternalError("certificate element is the identity")
        if self.residual_charpoly is not None:
            r = tuple(self.residual_charpoly)
            if len(r) != 3 or r[0] != 1 or r[2] != 1 or abs(r[1]) <= 2:
                raise InternalError("residual charpoly is not x^2 - t x + 1 with |t| > 2")
            t = -r[1]
            g_rho = tuple(x + y for x, y in zip(g.rho, g._minus_identity(factors, g.rho)))
            g2_rho = tuple(x + y for x, y in zip(g_rho, g._minus_identity(factors, g_rho)))
            if any(x - t * y + z for x, y, z in zip(g2_rho, g_rho, g.rho)):
                raise InternalError("no root of the residual charpoly is an eigenvalue")
            return True
        v, w = self.witness, self.increment
        if v is None or w is None:
            raise InternalError("unipotent certificate lacks witness data")
        if g._minus_identity(factors, v) != tuple(w):
            raise InternalError("increment is not (g - I) v")
        if linalg.is_zero_vec(w):
            raise InternalError("increment vector is zero")
        if not linalg.is_zero_vec(g._minus_identity(factors, w)):
            raise InternalError("increment is not fixed by g")
        if power_law_check(self.certificate, v, w, 5) is not None:
            raise InternalError("power law fails on the certificate")
        if inertia(IntLattice(g.gram)).negative_semidefinite:
            if any(any(row) for row in g._minus_identity_squared(factors)):
                raise InternalError("(g - I)^2 != 0: certificate is not unipotent")
            if not linalg.is_zero_vec(linalg.mat_vec(g.gram, w)):
                raise InternalError("increment does not lie in the form kernel")
        return True

    def __str__(self):
        return f"Infinite(word={'*'.join(self.certificate.word) or '?'})"


class Unknown(Record):
    __slots__ = ("cap",)

    kind = "unknown"

    def __str__(self):
        return f"Unknown(cap={self.cap})"


def power_law_check(g, v, w, s_max):
    """Verify g^s v == v + s*w exactly for s = 1..s_max, for the
    MonodromyElement g.

    Returns None when the law holds, else the first failing s.
    """
    cur = tuple(v)
    for s in range(1, s_max + 1):
        cur = linalg.mat_vec(g.matrix, cur)
        expect = tuple(a + s * b for a, b in zip(v, w))
        if cur != expect:
            return s
    return None


# --------------------------------------------------------------------------
# closure and finiteness


def generate_group(gram, roots, cap=10**6, sig=None):
    """Decide finiteness of the group generated by the reflections in
    `roots` on the form `gram`.

    Returns Finite(order), Infinite(certificate...), or Unknown(cap); an
    Infinite certificate is re-validated before it is returned, and its
    word names the reflection in root i h{i+1}.  A root stands for its
    reflection, so it counts only up to sign and scale.  The cap bounds
    the roots the search records, on every form, and so does
    MAX_ROOT_ENTRIES // rank.  `sig` is the Inertia of the form when the
    caller has it already, and is computed otherwise.  A bad form or root
    is an EqsingError that names what is wrong with it (notes/decisions.md).
    """
    lattice = IntLattice(gram)
    gram = lattice.gram
    try:
        roots = [tuple(root) for root in roots]
    except TypeError:
        raise EqsingError(f"roots must be a sequence of integer vectors, "
                          f"got {roots!r}") from None
    if not roots:
        raise EqsingError("at least one root is required")
    mirrors = []
    for i, root in enumerate(roots):
        if len(root) != lattice.rank or not all(isinstance(x, int) for x in root):
            raise EqsingError(
                f"root h{i + 1} is no integer vector of length {lattice.rank}: {root!r}")
        delta = linalg.primitive(root)
        mirror = _mirror((delta, linalg.mat_vec(gram, delta)))
        _check_integral(*mirror[:3])
        mirrors.append(mirror)
    if sig is None:
        sig = inertia(lattice)
    return _generate_reflections(gram, mirrors, cap, sig)


def _root_class(g_root):
    """The image G root, given as `g_root`, divided by the gcd of its
    entries, sign kept.

    Two roots share a class exactly when their images in the definite
    quotient (the lattice modulo the form kernel) are positive multiples
    of each other.
    """
    g = 0
    for x in g_root:
        g = gcd(g, x)
    return tuple(x // g for x in g_root)


def _generate_reflections(gram, mirrors, cap, sig):
    """Search the orbit of the generator roots, given as `_mirror`s, for an
    infinite pair.

    The roots are signed vectors r, each carried with its image G r and a
    word for its reflection.  The generator roots come first.  On any form
    but a negative semidefinite one the Coxeter orbits follow
    (`_coxeter_orbits`).  A breadth-first search over the generators then
    takes every root seen so far as its first level: level k + 1 is h_a
    applied to level k, for each generator h_a in turn, so on a
    semidefinite form a root u delta_i is first reached by the
    shortlex-least word u h_i.  Roots move by the reflection formula
    (`_reflect`), which reads (r, delta_a) off the image: one entry for a
    unit generator root.  A reflection that fixes a root gives the root
    itself, and is skipped before the lookup.

    Each new root rho is tested against the roots already seen: on a
    semidefinite form by its class (`_root_class`), elsewhere by the pair
    test of `_pair_partner`, both read off the image.  On a definite form
    no two roots share a class, so none is tested, and the search always
    closes.  The first partner rho' gives the certificate g = s_rho s_rho'
    (`_pair_certificate`).  More than `cap` roots gives Unknown(cap); `cap`
    is first lowered to MAX_ROOT_ENTRIES // rank, once, so the bound costs
    nothing per root.  A closure with no partner is a finite group, and
    `_finite_order` gives its order from the heights of the roots
    recorded, once `_check_simple_system` has rebuilt them from their
    simple roots (notes/decisions.md).
    """
    cap = min(cap, MAX_ROOT_ENTRIES // len(gram))
    points, words, seen = [], [], set()
    if sig.negative_definite:  # the kernel is zero: no two roots share a class
        partner = lambda root: None
    elif sig.negative_semidefinite:
        partner = _class_partner()
    else:
        partner = _pair_partner()

    def add(root, word):
        """Record a new root; the verdict when it ends the search."""
        if len(points) >= cap:
            return Unknown(cap=cap)
        old = partner(root)
        if old is not None:
            return _pair_certificate(gram, root, word, points[old], words[old])
        seen.add(root[0])
        points.append(root)
        words.append(word)
        return None

    seeds = [(mirror[:2], (i,)) for i, mirror in enumerate(mirrors)]
    orbits = () if sig.negative_semidefinite else _coxeter_orbits(mirrors)
    for root, word in itertools.chain(seeds, orbits):
        if root[0] not in seen:
            verdict = add(root, word)
            if verdict is not None:
                return verdict
    lo, hi = 0, len(points)
    while lo < hi:
        for a, mirror in enumerate(mirrors):
            for p in range(lo, hi):
                root = points[p]
                q = _reflect(root, mirror)
                if q is root or q[0] in seen:
                    continue
                # s_{-r} = s_r, so -r keeps the word of r
                negated = all(x == -y for x, y in zip(q[0], root[0]))
                verdict = add(q, words[p] if negated else (a,) + words[p] + (a,))
                if verdict is not None:
                    return verdict
        lo, hi = hi, len(points)
    return Finite(order=_finite_order(points, mirrors))


def _finite_order(points, mirrors):
    """|W| for the finite group W generated by the reflections `mirrors`,
    with `points` the signed roots and their images, closed under W: from
    the heights of its positive roots, checked against its simple roots
    first.  The recorded roots must be closed under negation and hold every
    generator root.

    The positive roots are the lexicographically positive ones, an order
    compatible with addition.  In ascending order, a positive root alpha
    is simple when no simple root sigma found so far has alpha - sigma
    positive.  With c_k the number of positive roots of height k, the
    exponents m_j are the dual partition of (c_k), and |W| = prod(m_j + 1)
    (Kostant; Humphreys 1990, 3.20; notes/decisions.md).
    """
    zero = (0,) * len(points[0][0])
    positive = {r for r, _ in points if r > zero}
    if {tuple(-x for x in r) for r, _ in points if r < zero} != positive:
        raise InternalError("the recorded roots are not closed under negation")
    if any(max(m[0], tuple(-x for x in m[0])) not in positive for m in mirrors):
        raise InternalError("a generator root is not among the recorded roots")
    simple = []
    for root in sorted(p for p in points if p[0] > zero):
        if not any(tuple(a - b for a, b in zip(root[0], s)) in positive for s, _ in simple):
            simple.append(root)
    counts = _check_simple_system(simple, positive)
    return prod(1 + sum(c >= j for c in counts) for j in range(1, len(simple) + 1))


def _check_simple_system(simple, positive):
    """The number of positive roots of each height, built from the simple
    roots (with their images) alone; InternalError unless they build
    exactly the recorded positive roots `positive`.

    Every Cartan integer 2(s_i, s_j)/(s_j, s_j) must be an integer, at
    most 0 off the diagonal.  The root strings then build Phi+ by height:
    beta + s_i is a root exactly when p > <beta, s_i^v>, with p the
    largest k such that beta - k s_i is one.  They stop once they exceed
    the recorded count, so an affine Cartan matrix ends too.  Last, each
    connected component of the simple roots' Gram matrix must be definite,
    of either sign.  So the simple roots are independent, and roots that
    agree as vectors agree in simple-root coordinates.
    """
    gram = [[_dot(s, g_t) for _, g_t in simple] for s, _ in simple]
    if any(2 * x % gram[j][j] or (i != j and 2 * x // gram[j][j] > 0)
           for i, row in enumerate(gram) for j, x in enumerate(row)):
        raise InternalError("a Cartan integer of the simple roots is not an integer <= 0")
    level = [s for s, _ in simple]
    built, counts = set(level), []
    while level:
        counts.append(len(level))
        if len(built) > len(positive):
            raise InternalError("the simple roots' root strings exceed the recorded roots")
        following = []
        for beta in level:
            for i, (s, g_s) in enumerate(simple):
                p, lower = 0, tuple(a - b for a, b in zip(beta, s))
                while lower in built:
                    p, lower = p + 1, tuple(a - b for a, b in zip(lower, s))
                if p > 2 * _dot(beta, g_s) // gram[i][i]:
                    up = tuple(a + b for a, b in zip(beta, s))
                    if up not in built:
                        built.add(up)
                        following.append(up)
        level = following
    if built != positive:
        raise InternalError("the simple roots' root strings miss recorded roots")
    todo = set(range(len(simple)))
    while todo:
        component = [todo.pop()]
        for i in component:
            component += [j for j in todo if gram[i][j]]
            todo.difference_update(component)
        sig = inertia(IntLattice(tuple(tuple(gram[i][j] for j in component)
                                       for i in component)))
        if sig.n_zero or (sig.n_plus and sig.n_minus):
            raise InternalError("the simple roots' Gram matrix is not definite")
    return counts


def _mirror(root):
    """(delta, G delta, (delta, delta), the support of delta as pairs
    (i, delta_i)) for the root (delta, G delta): what `_reflect` needs."""
    delta, g_delta = root
    support = tuple((i, d) for i, d in enumerate(delta) if d)
    return delta, g_delta, sum(d * g_delta[i] for i, d in support), support


def _reflect(root, mirror):
    """s_delta (r, G r) = (r - k delta, G r - k G delta), with
    k = 2(r, delta)/(delta, delta); the root object itself when k = 0.

    G is symmetric, so (r, delta) is the sum of delta_i (G r)_i over the
    support of delta.  k is an integer: s_delta is integral, so k delta is
    an integer vector, and delta is primitive.
    """
    r, g_r = root
    delta, g_delta, dd, support = mirror
    k, rem = divmod(2 * sum(d * g_r[i] for i, d in support), dd)
    if rem:
        raise InternalError("a reflection moves a root by a non-integral multiple")
    if not k:
        return root
    return (tuple(x - k * d for x, d in zip(r, delta)),
            tuple(x - k * y for x, y in zip(g_r, g_delta)))


def _coxeter_orbits(mirrors):
    """(c^k delta_i with its image, its reflection word) for k = 1, 2, ...
    and each i, with c = h_1 h_2 ... h_n, until every orbit has returned to
    its delta_i.

    The reflection in c^k delta_i is c^k h_i c^-k, whose word is
    (h_1...h_n)^k h_i (h_n...h_1)^k because every h_j is an involution.
    """
    forward = tuple(range(len(mirrors)))
    backward = forward[::-1]
    current = {i: mirror[:2] for i, mirror in enumerate(mirrors)}
    k = 0
    while current:
        k += 1
        for i, root in list(current.items()):
            for mirror in reversed(mirrors):
                root = _reflect(root, mirror)
            if root[0] == mirrors[i][0]:
                del current[i]
            else:
                current[i] = root
                yield root, forward * k + (i,) + backward * k


def _class_partner():
    """Partner test of a semidefinite form: an earlier root of the same class.

    The returned function takes a root with its image and gives the index
    of the earlier root, or records the new root's class and gives None.
    """
    classes = {}

    def partner(root):
        key = _root_class(root[1])
        old = classes.get(key)
        if old is None:
            classes[key] = len(classes)
        return old

    return partner


def _pair_partner():
    """Partner test of any other form: an earlier root rho' != -rho with
    b = (rho, rho') != 0 and b^2 >= (rho, rho)(rho', rho').

    The returned function takes a root with its image, reads a and every b
    off the image, and gives the index of the first such root, or records
    the new root and gives None.
    """
    seen = []  # (r, its norm)

    def partner(root):
        r, g_r = root
        a = _dot(r, g_r)
        negative = tuple(-x for x in r)
        for j, (other, c) in enumerate(seen):
            b = _dot(other, g_r)
            if b and b * b >= a * c and other != negative:
                return j
        seen.append((r, a))
        return None

    return partner


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _pair_certificate(gram, rho, word, rho_p, word_p):
    """Validated Infinite with certificate g = s_rho s_rho'.

    rho and rho' come with their images.  On the plane of the pair, g has
    trace t = 4b^2/(ac) - 2 with a = (rho, rho), b = (rho, rho') and
    c = (rho', rho').  b^2 = ac makes g a nontrivial unipotent, certified
    by a power-law witness (`_index2_witness`); otherwise |t| > 2, and g
    has a real eigenvalue off the unit circle, a root of the factor
    x^2 - t x + 1 of its characteristic polynomial.
    """
    element = MonodromyElement(gram, rho[0], rho_p[0],
                               word=tuple(f"h{i + 1}" for i in word + word_p))
    a, b, c = _dot(rho[0], rho[1]), _dot(rho_p[0], rho[1]), _dot(rho_p[0], rho_p[1])
    if b * b == a * c:
        v, w = _index2_witness(element)
        verdict = Infinite(certificate=element, witness=v, increment=w)
    else:
        # g has integer trace (n - 2) + t, so the division is exact
        q, rem = divmod(4 * b * b, a * c)
        if rem:
            raise InternalError("trace 4b^2/(ac) - 2 of a root pair is not an integer")
        t = q - 2
        verdict = Infinite(certificate=element, residual_charpoly=(1, -t, 1))
    verdict.validate()
    return verdict


def _index2_witness(g):
    """(v, w) with w = (g - I)v != 0 and (g - I)^2 v = 0, for a unipotent
    MonodromyElement g: v the first vector of the Hermite normal form
    basis of the integer kernel of (g - I)^2 that g moves.

    When (g - I)^2 = 0 that basis is the identity, so v is the first e_j
    that g moves and w is column j of g - I, found in O(n^2); otherwise
    `int_kernel` runs on the rank-two (g - I)^2.
    """
    factors = g._factors()
    square = g._minus_identity_squared(factors)
    if any(any(row) for row in square):
        candidates = linalg.int_kernel(square)
    else:
        candidates = linalg.identity(g.rank)
    for cand in candidates:
        img = g._minus_identity(factors, cand)
        if not linalg.is_zero_vec(img):
            return tuple(cand), img
    raise InternalError("no index-2 witness: element is not a nontrivial unipotent")


# --------------------------------------------------------------------------
# the simplicity criterion


def action_from_file(dfile):
    """(GroupAction, chi) for a parsed diagram file: chi is the file's
    character as signs in generator order, all +1 when it names none; the
    action is trivial when the file declares no generator.  `DiagramFile`
    has checked each generator against the vertex set, so no lookup fails.
    No n x n form is built past n*n > 4*MAX_ROOT_ENTRIES (notes/decisions.md)."""
    if dfile.diagram.rank ** 2 > 4 * MAX_ROOT_ENTRIES:
        raise EqsingError(f"diagram: n*n must be <= 4*monodromy.MAX_ROOT_ENTRIES "
                          f"({4 * MAX_ROOT_ENTRIES}), got n={dfile.diagram.rank} vertices")
    index = {v: k for k, v in enumerate(dfile.diagram.vertex_ids())}
    gens = tuple((name, tuple((index[j], s) for _, j, s in sorted(images)))
                 for name, images in dfile.generators)
    action = GroupAction(generators=gens, lattice=to_lattice(dfile.diagram))
    if dfile.character is None:
        return action, (1,) * len(gens)
    return action, tuple(v for _, v in dfile.character)


class AnalysisOutcome(Record):
    """Everything the criterion produces for one diagram+action input.

    The orbit reflections h_1, ..., h_r are those in the unit vectors of
    the sublattice, r its rank (`equivariant_generators`), so the outcome
    holds no roots and no matrix is built for them.
    `kernel` is in sublattice coordinates, `kernel_ambient` in ambient ones.
    `criteria_agree` is always true: `run_analysis` raises InternalError
    instead of returning a disagreement.
    """

    __slots__ = ("sublattice", "inertia", "kernel", "verdict")

    criteria_agree = True

    @property
    def simple(self):
        return self.inertia.negative_definite

    @property
    def kernel_ambient(self):
        return tuple(self.sublattice.embed(v) for v in self.kernel)


def run_analysis(dfile, cap=10**6):
    """Full pipeline: action validation, isotypic restriction, inertia and
    kernel, orbit reflections, finiteness with certificate.

    The diagram must have self-intersection -2 on every vertex, the
    paper's convention, or DiagramError names the first vertex without.
    `simple` is the paper's criterion, negative definiteness of the
    restricted form.  The monodromy verdict, which may be Unknown at the
    cap, cross-checks it: on such a diagram a decided verdict is finite
    exactly when the form is negative definite (notes/decisions.md), and
    InternalError reports a disagreement as a defect, as it does one
    between the inertia's n_zero and the kernel rank.
    The inertia is computed once and handed to `generate_group`.
    """
    bad = next((v for v in dfile.diagram.vertices if v[1] != -2), None)
    if bad is not None:
        raise DiagramError(f"vertex {bad[0]} has self-intersection {bad[1]}; "
                           "the criterion takes -2 on every vertex")
    action, chi = action_from_file(dfile)
    sub, roots = equivariant_generators(action, chi)
    lattice = sub.lattice()
    sig = inertia(lattice)
    ker = kernel_basis(lattice)
    if sig.n_zero != len(ker):
        raise InternalError(f"inertia has {sig.n_zero} zero squares but the kernel "
                            f"has rank {len(ker)}")
    verdict = generate_group(sub.restricted_gram, roots, cap=cap, sig=sig)
    if verdict.kind != "unknown" and sig.negative_definite != (verdict.kind == "finite"):
        raise InternalError(
            f"negative definiteness and finiteness disagree "
            f"(inertia {sig.as_tuple()}, verdict {verdict})"
        )
    return AnalysisOutcome(sublattice=sub, inertia=sig, kernel=ker, verdict=verdict)
