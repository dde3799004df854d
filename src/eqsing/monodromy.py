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

A closure with no such pair gives the exact order by orbit-stabiliser on
the roots: the orbit of one root, times the order of the group generated
by the reflections in the roots orthogonal to it (Steinberg).  The cap
counts roots on every form: Unknown when the roots exceed it.

The generators are held as roots only.  The pipeline's h_k is the
Picard-Lefschetz reflection in basis vector k of the isotypic sublattice
by construction, so `equivariant_generators` gives the unit vectors.
Every root r travels with its image G r, computed once per generator
root and then moved along with r, so every reflection is applied by its
formula (`_reflect`) with (r, delta) read off the image over the support
of delta: one entry for a unit generator root, and no vector update
when the reflection fixes r.  The one matrix is the certificate of an
infinite group, a MonodromyElement.

Everything runs on tuples of Python ints, so no entry can overflow.

The last section is the simplicity criterion on one diagram+action file,
`run_analysis`: inertia of the restricted form, cross-checked by the
finiteness decision.  It lives here, not in `catalog`, so that `analyze`
does not load the family table.
"""
import itertools
from math import gcd

from . import linalg
from .action import GroupAction, isotypic_sublattice, signed_orbits
from .diagram import to_lattice
from .errors import (
    CriterionMismatchError,
    DiagramError,
    GeneratorError,
    InternalError,
    IsotropicCycleError,
    NonIntegralReflectionError,
    NotIsometryError,
    OrbitNotOrthogonalError,
)
from .lattice import IntLattice, inertia, kernel_basis
from .record import Record


class MonodromyElement(Record):
    """Integer matrix preserving a fixed symmetric form, with its word
    label: the certificate of an Infinite verdict."""

    __slots__ = ("matrix", "gram", "word")
    _defaults = {"word": ()}

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
    """(sublattice, (e_1, ..., e_r)) for the pipeline: one root per orbit.

    Each orbit is checked in turn: its cycles are pairwise orthogonal
    (OrbitNotOrthogonalError), and the ambient reflection in each is
    integral.  The k-th orbit with a chi-vector has basis vector k of the
    isotypic sublattice as its cycle, so its reflection h_k is the one in
    the unit vector e_k, the root `generate_group` takes for it.  The
    product of the ambient reflections over the orbit must restrict to h_k
    (`_check_orbit_product`), which is integral because they are.  An orbit
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
                raise OrbitNotOrthogonalError(
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

    certificate: a group element g != I of infinite order, a
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
    the roots the search records, on every form.  `sig` is the Inertia of
    the form when the caller has it already, and is computed otherwise.
    A bad form or root is a LatticeDataError, GeneratorError,
    IsotropicCycleError or NonIntegralReflectionError (notes/decisions.md).
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
    (`_pair_certificate`).  More than `cap` roots gives Unknown.  A closure
    with no partner is a finite group, and `_reflection_group_order` gives
    its order from the roots recorded (notes/decisions.md).
    """
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
    return Finite(order=_reflection_group_order(points, mirrors))


def _reflection_group_order(points, mirrors):
    """|W| for the finite group W generated by the reflections `mirrors`,
    with `points` the signed roots and their images, closed under W.

    Orbit-stabiliser on a root rho: |W| = |W rho| |W_rho|, and by
    Steinberg's theorem W_rho is generated by the reflections in the roots
    orthogonal to rho, which are again closed under it (notes/decisions.md).
    Each pass takes the orbit of the first root and keeps the roots
    orthogonal to it; from the second pass on the mirrors are one per pair
    +-r of the roots kept.  Reflections keep the norm, so the orbit is
    complete once it holds every root of the norm of rho.
    """
    roots = [_mirror(root) for root in points]
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

    rho and rho' come with their images.  Column j of g is
    s_rho(s_rho'(e_j)) by `_reflect`, with G e_j row j of the symmetric G:
    like every root of the search, rho and rho' are primitive with integral
    reflections.  On the plane of the pair, g has trace 4b^2/(ac) - 2 with
    a = (rho, rho), b = (rho, rho') and c = (rho', rho').  b^2 = ac makes g
    a nontrivial unipotent, certified by a power-law witness; otherwise
    |t| > 2 for the trace t, and g has a real eigenvalue off the unit
    circle, a root of the factor x^2 - t x + 1 of its characteristic
    polynomial.
    """
    mirror, mirror_p = _mirror(rho), _mirror(rho_p)
    columns = [_reflect(_reflect(e_j, mirror_p), mirror)[0]
               for e_j in zip(linalg.identity(len(gram)), gram)]
    matrix = tuple(zip(*columns))
    element = MonodromyElement(matrix=matrix, gram=gram,
                               word=tuple(f"h{i + 1}" for i in word + word_p))
    a, b, c = mirror[2], _dot(rho_p[0], rho[1]), mirror_p[2]
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


# --------------------------------------------------------------------------
# the simplicity criterion


def action_from_file(dfile):
    """(GroupAction, chi) for a parsed diagram file: chi is the file's
    character as signs in generator order, all +1 when it names none; the
    action is trivial when the file declares no generator.  `DiagramFile`
    has checked each generator against the vertex set, so no lookup fails."""
    index = {v: k for k, v in enumerate(dfile.diagram.vertex_ids())}
    gens = tuple((name, tuple((index[j], s) for _, j, s in sorted(images)))
                 for name, images in dfile.generators)
    action = GroupAction(generators=gens, lattice=to_lattice(dfile.diagram))
    if dfile.character is None:
        return action, (1,) * len(gens)
    return action, tuple(v for _, v in dfile.character)


class AnalysisOutcome(Record):
    """Everything the criterion produces for one diagram+action input.

    `generators` holds the roots e_1, ..., e_r of the orbit reflections
    h_1, ..., h_r, in sublattice coordinates; no matrix is built for them.
    `kernel` is in sublattice coordinates, `kernel_ambient` in ambient ones.
    `criteria_agree` is always true: `run_analysis` raises
    CriterionMismatchError instead of returning a disagreement.
    """

    __slots__ = ("sublattice", "generators", "inertia", "kernel", "verdict")

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
    CriterionMismatchError reports a disagreement as a defect, and
    InternalError one between the inertia's n_zero and the kernel rank.
    The inertia is computed once and handed to `generate_group`.
    """
    diagram = dfile.diagram
    if not diagram.all_self_minus_two():
        i, s = next(v for v in diagram.vertices if v[1] != -2)
        raise DiagramError(f"vertex {i} has self-intersection {s}; "
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
        raise CriterionMismatchError(
            f"negative definiteness and finiteness disagree "
            f"(inertia {sig.as_tuple()}, verdict {verdict})"
        )
    return AnalysisOutcome(sublattice=sub, generators=roots, inertia=sig, kernel=ker,
                           verdict=verdict)
