"""Picard-Lefschetz operators, equivariant reflection generators, and the
finiteness decision procedure with machine-checkable certificates.

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

A closure with no such pair gives the exact order by orbit-stabiliser on
the roots: the orbit of one root, times the order of the group generated
by the reflections in the roots orthogonal to it (Steinberg).  The cap
counts roots on every form: Unknown when the roots exceed it.  The
decision takes the form and the generator roots, not matrices: the
pipeline's h_k is the reflection in basis vector k of the isotypic
sublattice by construction.

Everything runs on tuples of Python ints, so no entry can overflow.
"""
import itertools
from dataclasses import dataclass
from math import gcd
from typing import Optional

from . import linalg
from .action import isotypic_sublattice, signed_orbits
from .errors import (
    GeneratorError,
    InternalError,
    IsotropicCycleError,
    NonIntegralReflectionError,
    NotIsometryError,
    OrbitNotOrthogonalError,
    ProjectsToZeroError,
)
from .lattice import IntLattice, Sublattice, inertia


def _gram_of(lattice_or_sub):
    if isinstance(lattice_or_sub, Sublattice):
        return lattice_or_sub.restricted_gram
    if isinstance(lattice_or_sub, IntLattice):
        return lattice_or_sub.gram
    return linalg.freeze(lattice_or_sub)


@dataclass(frozen=True)
class MonodromyElement:
    """Integer matrix preserving a fixed symmetric form, with its word label."""

    matrix: tuple
    gram: tuple
    word: tuple = ()

    def __post_init__(self):
        M = linalg.freeze(self.matrix)
        G = linalg.freeze(self.gram)
        object.__setattr__(self, "matrix", M)
        object.__setattr__(self, "gram", G)
        object.__setattr__(self, "word", tuple(self.word))
        MGM = linalg.mat_mul(linalg.mat_mul(linalg.transpose(M), G), M)
        if MGM != G:
            raise NotIsometryError("matrix does not preserve the bilinear form")

    @property
    def rank(self):
        return len(self.matrix)

    @property
    def is_identity(self):
        return self.matrix == linalg.identity(self.rank)

    def __matmul__(self, other):
        if self.gram != other.gram:
            raise GeneratorError("elements live on different forms")
        return MonodromyElement(
            matrix=linalg.mat_mul(self.matrix, other.matrix),
            gram=self.gram,
            word=self.word + other.word,
        )

    def apply(self, v):
        return linalg.mat_vec(self.matrix, v)


def pl_reflection(lattice_or_sub, delta, name=None):
    """The Picard-Lefschetz reflection in the cycle `delta`.

    a |-> a - 2 (a, delta)/(delta, delta) * delta.  For self-intersection
    -2 this is a |-> a + (a, delta) delta.  Raises IsotropicCycleError when
    (delta, delta) = 0 and NonIntegralReflectionError when the map does
    not preserve the integer lattice.
    """
    G = _gram_of(lattice_or_sub)
    n = len(G)
    delta = tuple(delta)
    Gd = linalg.mat_vec(G, delta)
    dd = _dot(delta, Gd)
    _check_integral(delta, Gd, dd)
    rows = tuple(
        tuple((1 if i == j else 0) - 2 * Gd[j] * delta[i] // dd for j in range(n))
        for i in range(n)
    )
    word = (name,) if name is not None else ()
    return MonodromyElement(matrix=rows, gram=G, word=word)


def _check_integral(delta, Gd, dd):
    """Raise unless the reflection in delta, with Gd = G delta and
    dd = (delta, delta), is an integer matrix: dd != 0 and dd divides
    every 2 (e_j, delta) delta_i."""
    if dd == 0:
        raise IsotropicCycleError(f"cycle {delta} has self-intersection zero")
    for d in filter(None, delta):
        for j, x in enumerate(Gd):
            if 2 * x * d % dd:
                raise NonIntegralReflectionError(
                    f"reflection in {delta} is not integral: "
                    f"2(e_{j + 1}, delta) delta is not divisible by ({dd})"
                )


def equivariant_generators(action, chi):
    """(sublattice, [h_1, ..., h_r]) for the pipeline: one reflection per orbit.

    Orbit k's cycle is basis vector k of the isotypic sublattice, so h_k is
    the reflection in it.  Each orbit is checked in turn: its cycles are
    pairwise orthogonal (OrbitNotOrthogonalError), the ambient reflection
    in each is integral, and it carries a chi-vector (ProjectsToZeroError).
    h_k is then checked against the product of the ambient reflections
    over the orbit (`_check_orbit_product`).
    """
    sub = isotypic_sublattice(action, chi)
    G = action.lattice.gram
    gens = []
    for k, (orbit, cycle) in enumerate(signed_orbits(action, chi)):
        for i, j in itertools.combinations(orbit, 2):
            if G[i][j] != 0:
                raise OrbitNotOrthogonalError(
                    f"cycles {i + 1} and {j + 1} in one orbit have product {G[i][j]} != 0"
                )
        for i in orbit:
            _check_integral(action.lattice.basis_vector(i), G[i], G[i][i])
        if cycle is None:
            raise ProjectsToZeroError(
                f"orbit {tuple(i + 1 for i in orbit)} projects to zero under the character"
            )
        # every earlier orbit carries a chi-vector, so this one is basis vector k
        e_k = tuple(int(t == k) for t in range(sub.rank))
        h = pl_reflection(sub, e_k, name=f"h{k + 1}")
        _check_orbit_product(G, orbit, sub, h)
        gens.append(h)
    return sub, gens


def _check_orbit_product(gram, orbit, sub, h):
    """Raise InternalError unless h is the restriction to `sub` of the
    product of the ambient reflections in the orbit's cycles.

    The cycles are pairwise orthogonal, so the product is
    b |-> b - sum_i 2(b, e_i)/(e_i, e_i) e_i, in any order; it must map
    each basis vector b of `sub` to the embedding of h's column.
    """
    for b, col in zip(sub.basis, zip(*h.matrix)):
        image = list(b)
        for i in orbit:
            image[i] -= 2 * _dot(b, gram[i]) // gram[i][i]
        if tuple(image) != sub.embed(col):
            raise InternalError(
                "restricted orbit product disagrees with the reflection in the "
                "projected cycle; action data is inconsistent"
            )


# --------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True)
class Finite:
    order: int

    kind = "finite"

    def __str__(self):
        return f"Finite(order={self.order})"


@dataclass(frozen=True)
class Infinite:
    """Self-validating witness of infinite order.

    certificate: a group element g != I of infinite order.  Either a
    witness v and increment w satisfy w = (g - I)v != 0 and (g - I)w = 0,
    which forces g^s v = v + s w for every s >= 1 (a pair s_rho s_rho'
    with b^2 = ac, always the case on a negative semidefinite form, where
    also (g - I)^2 = 0).  Or `residual_charpoly` is (1, -t, 1) with
    |t| > 2, the factor x^2 - t x + 1 of the characteristic polynomial of
    a pair with b^2 > ac, whose roots are real and off the unit circle.
    """

    certificate: MonodromyElement
    witness: Optional[tuple] = None
    increment: Optional[tuple] = None
    residual_charpoly: Optional[tuple] = None

    kind = "infinite"

    def validate(self):
        """Re-verify the certificate independently of the search that found it.

        The witness law alone (w = (g-I)v != 0, (g-I)w = 0) proves infinite
        order: by induction g^s v = v + s w != v.  On a negative
        semidefinite form the stronger unipotent shape (g-I)^2 = 0 and the
        kernel membership of w are also required; that is what the
        semidefinite search path always produces.

        A residual (1, -t, 1) with |t| > 2 holds when g^2 - t g + I has a
        nonzero kernel: then a root of x^2 - t x + 1, real and off the unit
        circle, is an eigenvalue of g.
        """
        g = self.certificate
        if g.is_identity:
            raise InternalError("certificate element is the identity")
        if self.residual_charpoly is not None:
            r = tuple(self.residual_charpoly)
            if len(r) != 3 or r[0] != 1 or r[2] != 1 or abs(r[1]) <= 2:
                raise InternalError("residual charpoly is not x^2 - t x + 1 with |t| > 2")
            M, t, n = g.matrix, -r[1], g.rank
            M2 = linalg.mat_mul(M, M)
            Q = tuple(tuple(M2[i][j] - t * M[i][j] + int(i == j) for j in range(n))
                      for i in range(n))
            if not linalg.int_kernel(Q):
                raise InternalError("no root of the residual charpoly is an eigenvalue")
            return True
        I = linalg.identity(g.rank)
        U = linalg.freeze(
            tuple(a - b for a, b in zip(row, irow))
            for row, irow in zip(g.matrix, I)
        )
        v, w = self.witness, self.increment
        if v is None or w is None:
            raise InternalError("unipotent certificate lacks witness data")
        if linalg.mat_vec(U, v) != tuple(w):
            raise InternalError("increment is not (g - I) v")
        if linalg.is_zero_vec(w):
            raise InternalError("increment vector is zero")
        if not linalg.is_zero_vec(linalg.mat_vec(U, w)):
            raise InternalError("increment is not fixed by g")
        if power_law_check(self.certificate, v, w, 5) is not None:
            raise InternalError("power law fails on the certificate")
        if inertia(IntLattice(g.gram)).negative_semidefinite:
            UU = linalg.mat_mul(U, U)
            if any(any(x != 0 for x in row) for row in UU):
                raise InternalError("(g - I)^2 != 0: certificate is not unipotent")
            if not linalg.is_zero_vec(linalg.mat_vec(g.gram, w)):
                raise InternalError("increment does not lie in the form kernel")
        return True

    def __str__(self):
        return f"Infinite(word={'*'.join(self.certificate.word) or '?'})"


@dataclass(frozen=True)
class Unknown:
    cap: int

    kind = "unknown"

    def __str__(self):
        return f"Unknown(cap={self.cap})"


def power_law_check(g, v, w, s_max):
    """Verify g^s v == v + s*w exactly for s = 1..s_max.

    Returns None when the law holds, else the first failing s.
    """
    M = g.matrix if isinstance(g, MonodromyElement) else linalg.freeze(g)
    cur = tuple(v)
    for s in range(1, s_max + 1):
        cur = linalg.mat_vec(M, cur)
        expect = tuple(a + s * b for a, b in zip(v, w))
        if cur != expect:
            return s
    return None


# --------------------------------------------------------------------------
# closure and finiteness


def generate_group(gram, roots, cap=10**6):
    """Decide finiteness of the group generated by the reflections in
    `roots` on the form `gram`.

    Returns Finite(order), Infinite(certificate...), or Unknown(cap); an
    Infinite certificate is re-validated before it is returned, and its
    word names the reflection in root i h{i+1}.  A root stands for its
    reflection, so it counts only up to sign and scale.  The cap bounds
    the roots the search records, on every form.  A bad form or root is
    a LatticeDataError, GeneratorError, IsotropicCycleError or
    NonIntegralReflectionError (notes/decisions.md).
    """
    lattice = IntLattice(gram)
    gram = lattice.gram
    if not roots:
        raise GeneratorError("at least one root is required")
    mirrors = []
    for i, root in enumerate(roots):
        if len(root) != lattice.rank or not all(isinstance(x, int) for x in root):
            raise GeneratorError(
                f"root h{i + 1} is no integer vector of length {lattice.rank}: {root!r}")
        mirror = _mirror(gram, linalg.primitive(root))
        _check_integral(*mirror)
        mirrors.append(mirror)
    return _generate_reflections(gram, mirrors, cap, inertia(lattice))


def _root_class(gram, root):
    """gram * root divided by the gcd of its entries, sign kept.

    Two roots share a class exactly when their images in the definite
    quotient (the lattice modulo the form kernel) are positive multiples
    of each other.
    """
    v = linalg.mat_vec(gram, root)
    g = 0
    for x in v:
        g = gcd(g, x)
    return tuple(x // g for x in v)


def _generate_reflections(gram, mirrors, cap, sig):
    """Search the orbit of the generator roots, given as `_mirror`s, for an
    infinite pair.

    The roots are signed vectors, each with a word for its reflection.  The
    generator roots come first.  On any form but a negative semidefinite one
    the Coxeter orbits follow (`_coxeter_orbits`).  A breadth-first search
    over the generators then takes every root seen so far as its first
    level: level k + 1 is h_a applied to level k, for each generator h_a in
    turn, so on a semidefinite form a root u delta_i is first reached by the
    shortlex-least word u h_i.  Roots move by the reflection formula
    (`_reflect`).

    Each new root rho is tested against the roots already seen: on a
    semidefinite form by its class (`_root_class`), elsewhere by the pair
    test of `_pair_partner`.  On a definite form no two roots share a class,
    so none is tested, and the search always closes.  The first partner
    rho' gives the certificate g = s_rho s_rho' (`_pair_certificate`).
    More than `cap` roots gives Unknown.  A closure with no partner is a
    finite group, and `_reflection_group_order` gives its order from the
    roots recorded (notes/decisions.md).
    """
    points, words, seen = [], [], set()
    if sig.negative_definite:  # the kernel is zero: no two roots share a class
        partner = lambda root: None
    elif sig.negative_semidefinite:
        partner = _class_partner(gram)
    else:
        partner = _pair_partner(gram)

    def add(root, word):
        """Record a new root; the verdict when it ends the search."""
        if len(points) >= cap:
            return Unknown(cap=cap)
        old = partner(root)
        if old is not None:
            return _pair_certificate(gram, root, word, points[old], words[old])
        seen.add(root)
        points.append(root)
        words.append(word)
        return None

    seeds = [(mirror[0], (i,)) for i, mirror in enumerate(mirrors)]
    orbits = () if sig.negative_semidefinite else _coxeter_orbits(mirrors)
    for root, word in itertools.chain(seeds, orbits):
        if root not in seen:
            verdict = add(root, word)
            if verdict is not None:
                return verdict
    lo, hi = 0, len(points)
    while lo < hi:
        for a, mirror in enumerate(mirrors):
            for p in range(lo, hi):
                r = points[p]
                q = _reflect(r, mirror)
                if q not in seen:
                    # s_{-r} = s_r, so -r keeps the word of r
                    negated = all(x == -y for x, y in zip(q, r))
                    verdict = add(q, words[p] if negated else (a,) + words[p] + (a,))
                    if verdict is not None:
                        return verdict
        lo, hi = hi, len(points)
    return Finite(order=_reflection_group_order(points, mirrors, gram))


def _reflection_group_order(points, mirrors, gram):
    """|W| for the finite group W generated by the reflections `mirrors`,
    with `points` the signed roots, closed under W.

    Orbit-stabiliser on a root rho: |W| = |W rho| |W_rho|, and by
    Steinberg's theorem W_rho is generated by the reflections in the roots
    orthogonal to rho, which are again closed under it (notes/decisions.md).
    Each pass takes the orbit of the first root and keeps the roots
    orthogonal to it; from the second pass on the mirrors are one per pair
    +-r of the roots kept.  Reflections keep the norm, so the orbit is
    complete once it holds every root of the norm of rho.
    """
    roots = [_mirror(gram, r) for r in points]
    order = 1
    while roots:
        rho, g_rho, norm = roots[0]
        size = sum(1 for m in roots if m[2] == norm)
        orbit, members = [rho], {rho}
        for r in orbit:
            if len(orbit) == size:
                break
            for mirror in mirrors:
                q = _reflect(r, mirror)
                if q not in members:
                    members.add(q)
                    orbit.append(q)
        order *= len(orbit)
        roots = [m for m in roots if not _dot(m[0], g_rho)]
        mirrors = [m for m in roots if m[0] > tuple(-x for x in m[0])]
    return order


def _mirror(gram, delta):
    """(delta, G delta, (delta, delta)), what `_reflect` needs of a root."""
    g_delta = linalg.mat_vec(gram, delta)
    return delta, g_delta, _dot(delta, g_delta)


def _reflect(root, mirror):
    """s_delta(root) = root - k delta with k = 2(root, delta)/(delta, delta).

    k is an integer: s_delta is integral, so k delta is an integer vector,
    and delta is primitive.
    """
    delta, g_delta, dd = mirror
    k, rem = divmod(2 * _dot(root, g_delta), dd)
    if rem:
        raise InternalError("a reflection moves a root by a non-integral multiple")
    if not k:
        return root
    return tuple(x - k * d for x, d in zip(root, delta))


def _coxeter_orbits(mirrors):
    """(c^k delta_i, its reflection word) for k = 1, 2, ... and each i, with
    c = h_1 h_2 ... h_n, until every orbit has returned to its delta_i.

    The reflection in c^k delta_i is c^k h_i c^-k, whose word is
    (h_1...h_n)^k h_i (h_n...h_1)^k because every h_j is an involution.
    """
    forward = tuple(range(len(mirrors)))
    backward = forward[::-1]
    roots = [m[0] for m in mirrors]
    current = dict(enumerate(roots))
    k = 0
    while current:
        k += 1
        for i, root in list(current.items()):
            for mirror in reversed(mirrors):
                root = _reflect(root, mirror)
            if root == roots[i]:
                del current[i]
            else:
                current[i] = root
                yield root, forward * k + (i,) + backward * k


def _class_partner(gram):
    """Partner test of a semidefinite form: an earlier root of the same class.

    The returned function gives the index of the earlier root, or records
    the new root's class and gives None.
    """
    classes = {}

    def partner(root):
        key = _root_class(gram, root)
        old = classes.get(key)
        if old is None:
            classes[key] = len(classes)
        return old

    return partner


def _pair_partner(gram):
    """Partner test of any other form: an earlier root rho' != -rho with
    b = (rho, rho') != 0 and b^2 >= (rho, rho)(rho', rho').

    The returned function gives the index of the first such root, or
    records the new root and gives None.
    """
    seen = []  # (root, its norm)

    def partner(root):
        g_root = linalg.mat_vec(gram, root)
        a = _dot(root, g_root)
        negative = tuple(-x for x in root)
        for j, (other, c) in enumerate(seen):
            b = _dot(other, g_root)
            if b and b * b >= a * c and other != negative:
                return j
        seen.append((root, a))
        return None

    return partner


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _pair_certificate(gram, rho, word, rho_p, word_p):
    """Validated Infinite with certificate g = s_rho s_rho'.

    On the plane of the pair, g has trace 4b^2/(ac) - 2 with a = (rho, rho),
    b = (rho, rho') and c = (rho', rho').  b^2 = ac makes g a nontrivial
    unipotent, certified by a power-law witness; otherwise |t| > 2 for the
    trace t, and g has a real eigenvalue off the unit circle, a root of the
    factor x^2 - t x + 1 of its characteristic polynomial.
    """
    matrix = linalg.mat_mul(pl_reflection(gram, rho).matrix,
                            pl_reflection(gram, rho_p).matrix)
    element = MonodromyElement(matrix=matrix, gram=gram,
                               word=tuple(f"h{i + 1}" for i in word + word_p))
    g_rho = linalg.mat_vec(gram, rho)
    a, b, c = _dot(rho, g_rho), _dot(rho_p, g_rho), _dot(rho_p, linalg.mat_vec(gram, rho_p))
    if b * b == a * c:
        v, w = _index2_witness(matrix)
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


def _index2_witness(matrix):
    """Vector v with (g-I)v != 0 and (g-I)^2 v = 0, for unipotent g."""
    n = len(matrix)
    U = linalg.freeze(
        tuple(matrix[i][j] - (1 if i == j else 0) for j in range(n))
        for i in range(n)
    )
    U2 = linalg.mat_mul(U, U)
    for cand in linalg.int_kernel(U2):
        img = linalg.mat_vec(U, cand)
        if not linalg.is_zero_vec(img):
            return tuple(cand), img
    raise InternalError("no index-2 witness: element is not a nontrivial unipotent")
