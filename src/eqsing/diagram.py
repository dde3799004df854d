"""Dynkin diagram codec (singularity-theory sense).

Vertices are distinguished basis vanishing cycles with their
self-intersection numbers; weighted edges carry the pairwise intersection
numbers.  The line-oriented file format also accepts an optional group
action block (signed-permutation generators plus a character), so one
file fully describes an analysis input:

    # comment
    vertex 1 self=-2
    edge 1 2 w=1
    generator sigma 1:+1 2:+4 ...
    character sigma=+1

Every integer is ASCII [+-]?[0-9]+ (`errors.parse_int`).  Vertex ids are
>= 0, so in an image token i:±j the one sign is the image's.

Serialization is byte-stable: vertices in ascending id order, edges in
lexicographic order, generators in declaration order.
"""
from .errors import DiagramError, is_int, parse_int
from .lattice import IntLattice
from .record import Record


def _rows(entries, what, fields, kind=None):
    """`entries` as a tuple of tuples, each with one value per name of
    `fields`; a DiagramError names `what` and the first entry of another
    shape, with its place (kind, k) when `kind` is DynkinDiagram's
    "vertices" or "edges", so that parse_file can name its line."""
    shape = f"({', '.join(fields)})"
    try:
        entries = tuple(entries)
    except TypeError:
        raise DiagramError(f"expected a sequence of {what} entries {shape}, "
                           f"got {entries!r}") from None
    rows = []
    for k, entry in enumerate(entries):
        try:
            row = tuple(entry)
        except TypeError:
            row = ()
        if len(row) != len(fields):
            raise DiagramError(f"{what} entry {entry!r} is not {shape}",
                               entry=(kind, k) if kind else None)
        rows.append(row)
    return tuple(rows)


class DynkinDiagram(Record):
    """vertices: ((id, self_intersection), ...) with ids >= 0; edges:
    ((i, j, weight), ...).  Every entry is a Python int, as in IntLattice,
    or a DiagramError names the vertex or edge; so does an entry of
    another shape."""

    __slots__ = ("vertices", "edges")

    def __post_init__(self):
        vertices = _rows(self.vertices, "vertex", ("id", "self_intersection"), "vertices")
        edges = _rows(self.edges, "edge", ("i", "j", "weight"), "edges")
        ids = set()
        for k, (i, s) in enumerate(vertices):
            if not (is_int(i) and is_int(s)):
                raise DiagramError(f"vertex {i!r} self={s!r}: entries must be integers",
                                   entry=("vertices", k))
            if i < 0:
                raise DiagramError(f"vertex {i}: ids must be >= 0",
                                   entry=("vertices", k))
            if i in ids:
                raise DiagramError(f"vertex {i} already declared",
                                   entry=("vertices", k))
            ids.add(i)
        object.__setattr__(self, "vertices", tuple(sorted(vertices)))
        norm = {}
        for k, (i, j, w) in enumerate(edges):
            at = ("edges", k)
            if not (is_int(i) and is_int(j) and is_int(w)):
                raise DiagramError(f"edge {i!r} {j!r} w={w!r}: entries must be integers",
                                   entry=at)
            if i == j:
                raise DiagramError(f"edge {i} {j}: loops are not allowed", entry=at)
            if w == 0:
                raise DiagramError(f"edge {i} {j}: weight must be nonzero", entry=at)
            key = (i, j) if i < j else (j, i)
            if key in norm:
                raise DiagramError(
                    f"more than one edge between {key[0]} and {key[1]}", entry=at)
            if i not in ids or j not in ids:
                raise DiagramError(f"edge {i} {j} references unknown vertex", entry=at)
            norm[key] = w
        object.__setattr__(self, "edges", tuple(sorted(k + (w,) for k, w in norm.items())))

    @property
    def rank(self):
        return len(self.vertices)

    def vertex_ids(self):
        return tuple(i for i, _ in self.vertices)


class DiagramFile(Record):
    """Parsed file: diagram plus optional action block (raw vertex ids).

    generators: ((name, ((i, j, sign), ...)), ...): generator `name` sends
    cycle i to sign*cycle j; its sources and its targets are each the vertex
    set.  character: ((name, +1|-1), ...), or None when the file carries no
    character line; it lists every generator, in declaration order, so its
    values are the character's signs in generator order.  Every source,
    target, sign and character value is a Python int, each sign and value
    +-1, so the file round-trips through `serialize` and `parse_file`.
    DiagramError otherwise, for a parsed file and a built one alike.
    """

    __slots__ = ("diagram", "generators", "character")
    _defaults = {"generators": (), "character": None}

    def __post_init__(self):
        if self.generators:
            ids = list(self.diagram.vertex_ids())
            for name, images in _rows(self.generators, "generator", ("name", "images")):
                images = _rows(images, f"generator {name} image", ("source", "target", "sign"))
                if not all(is_int(x) for image in images for x in image):
                    raise DiagramError(f"generator {name} has a source, target or sign "
                                       "that is not an integer")
                if any(s not in (1, -1) for _, _, s in images):
                    raise DiagramError(f"generator {name} has a sign other than +1 or -1")
                if (sorted(i for i, _, _ in images) != ids
                        or sorted(j for _, j, _ in images) != ids):
                    raise DiagramError(
                        f"generator {name} must map the vertex set bijectively onto itself"
                    )
        if self.character is None:
            return
        character = _rows(self.character, "character", ("name", "value"))
        if [n for n, _ in character] != [n for n, _ in self.generators]:
            raise DiagramError(
                "character must list every generator, in declaration order"
            )
        for name, value in character:
            if not is_int(value):
                raise DiagramError(f"character value of generator {name} is not an "
                                   f"integer: {value!r}")
            if value not in (1, -1):
                raise DiagramError(f"character value of generator {name} must be "
                                   f"+1 or -1, got {value}")


def _parse_int(tok, line, what):
    try:
        return parse_int(tok)
    except ValueError:
        raise DiagramError(f"expected integer {what}, got {tok!r}", line=line) from None


def parse_file(text):
    """Parse the full diagram(+action) file format; each check of one line
    carries its number, and DiagramFile checks the action block as a whole."""
    vertices = []
    edges = []
    generators = []
    character = None
    # the line of each vertex and edge, in declaration order
    lines = {"vertices": [], "edges": []}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        kind = toks[0]
        if kind == "vertex":
            if len(toks) != 3 or not toks[2].startswith("self="):
                raise DiagramError(
                    "expected `vertex <id> self=<int>`", line=lineno
                )
            vid = _parse_int(toks[1], lineno, "vertex id")
            s = _parse_int(toks[2][5:], lineno, "self-intersection")
            lines["vertices"].append(lineno)
            vertices.append((vid, s))
        elif kind == "edge":
            if len(toks) != 4 or not toks[3].startswith("w="):
                raise DiagramError("expected `edge <i> <j> w=<int>`", line=lineno)
            i = _parse_int(toks[1], lineno, "vertex id")
            j = _parse_int(toks[2], lineno, "vertex id")
            w = _parse_int(toks[3][2:], lineno, "edge weight")
            lines["edges"].append(lineno)
            edges.append((i, j, w))
        elif kind == "generator":
            if len(toks) < 3:
                raise DiagramError(
                    "expected `generator <name> <i>:<±j> ...`", line=lineno
                )
            name = toks[1]
            if any(name == g for g, _ in generators):
                raise DiagramError(f"generator {name} already declared", line=lineno)
            images = []
            for t in toks[2:]:
                if ":" not in t:
                    raise DiagramError(f"bad image token {t!r}", line=lineno)
                src, dst = t.split(":", 1)
                i = _parse_int(src, lineno, "source vertex")
                j = _parse_int(dst, lineno, "target vertex")
                images.append((i, abs(j), -1 if dst.startswith("-") else 1))
            generators.append((name, tuple(images)))
        elif kind == "character":
            if character is not None:
                raise DiagramError("character already declared", line=lineno)
            values = []
            for t in toks[1:]:
                if "=" not in t:
                    raise DiagramError(f"bad character token {t!r}", line=lineno)
                name, val = t.split("=", 1)
                if val not in ("+1", "-1", "1"):
                    raise DiagramError(
                        f"character value must be +1 or -1, got {val!r}", line=lineno
                    )
                values.append((name, 1 if val in ("+1", "1") else -1))
            character = tuple(values)
        else:
            raise DiagramError(f"unknown directive {kind!r}", line=lineno)
    if not vertices:
        raise DiagramError("file declares no vertices", line=1)
    try:
        diagram = DynkinDiagram(vertices=tuple(vertices), edges=tuple(edges))
    except DiagramError as err:
        kind, k = err.entry
        raise DiagramError(err.detail, line=lines[kind][k]) from None
    return DiagramFile(diagram=diagram, generators=tuple(generators), character=character)


def serialize(obj):
    """Byte-stable serialization of a DynkinDiagram or DiagramFile."""
    if isinstance(obj, DynkinDiagram):
        obj = DiagramFile(diagram=obj)
    lines = []
    for vid, s in obj.diagram.vertices:
        lines.append(f"vertex {vid} self={s}")
    for i, j, w in obj.diagram.edges:
        lines.append(f"edge {i} {j} w={w}")
    for name, images in obj.generators:
        toks = " ".join(f"{i}:{'+' if s > 0 else '-'}{j}" for i, j, s in sorted(images))
        lines.append(f"generator {name} {toks}")
    if obj.character is not None:
        toks = " ".join(f"{n}={v:+d}" for n, v in obj.character)
        lines.append(f"character {toks}")
    return "\n".join(lines) + "\n"


def to_lattice(diagram):
    """Intersection form of the diagram as an IntLattice.

    The basis is the vertices in ascending id order; gram off-diagonal
    entries are the edge weights, diagonal the self-intersections.
    """
    ids = diagram.vertex_ids()
    index = {v: k for k, v in enumerate(ids)}
    n = len(ids)
    gram = [[0] * n for _ in range(n)]
    for k, (_, s) in enumerate(diagram.vertices):
        gram[k][k] = s
    for i, j, w in diagram.edges:
        a, b = index[i], index[j]
        gram[a][b] = gram[b][a] = w
    return IntLattice(gram)
