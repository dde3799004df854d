"""Value semantics of the record classes: construction, equality, hashing,
repr and immutability, the same for every class built on `Record`.  The
tests read the fields from FIELDS, not from the classes, so they pin each
class's fields and their order."""
import copy
import importlib
import pickle
import pkgutil
import re

import pytest

import eqsing
from eqsing.action import GroupAction
from eqsing.catalog import FamilyEntry, fixture_file
from eqsing.diagram import DiagramFile, DynkinDiagram
from eqsing.errors import DiagramError, EqsingError
from eqsing.lattice import Inertia, IntLattice, Sublattice
from eqsing.localalg import LocalAlgebraReport, PolyGerm
from eqsing.monodromy import (Finite, Infinite, MonodromyElement, Unknown, generate_group,
                              run_analysis)
from eqsing.record import Record

A2_GRAM = ((-2, 1), (1, -2))
A2_DIAGRAM = DynkinDiagram(((1, -2), (2, -2)), ((1, 2, 1),))


def _terms(k, a):
    return ["1 y1^3"]


def _weights(k):
    return "", "1/3"


# each record class's fields, in constructor and repr order
FIELDS = {
    "GroupAction": ("generators", "lattice"),
    "IntLattice": ("gram",),
    "Inertia": ("n_plus", "n_zero", "n_minus"),
    "Sublattice": ("ambient", "basis", "restricted_gram"),
    "DynkinDiagram": ("vertices", "edges"),
    "DiagramFile": ("diagram", "generators", "character"),
    "FamilyEntry": ("symbol", "kind", "setting", "template", "terms", "weights", "k_min",
                    "modulus_rule", "excluded", "fixture"),
    "AnalysisOutcome": ("sublattice", "inertia", "kernel", "verdict"),
    "MonodromyElement": ("gram", "rho", "rho_p", "word", "generators", "factors"),
    "Finite": ("order",),
    "Infinite": ("certificate", "witness", "increment", "residual_charpoly"),
    "Unknown": ("cap",),
    "PolyGerm": ("terms", "m", "n", "corner"),
    "LocalAlgebraReport": ("isotypic_dims", "truncation_degree"),
}

# one builder per record class: each call builds a new instance from equal fields
BUILD = {
    "GroupAction": lambda: GroupAction(generators=(("sigma", ((1, -1), (0, -1))),),
                                       lattice=IntLattice(A2_GRAM)),
    "IntLattice": lambda: IntLattice(A2_GRAM),
    "Inertia": lambda: Inertia(0, 0, 3),
    "Sublattice": lambda: Sublattice(IntLattice(A2_GRAM), ((1, 1),)),
    "DynkinDiagram": lambda: DynkinDiagram(vertices=((2, -2), (1, -2)), edges=((2, 1, 1),)),
    "DiagramFile": lambda: DiagramFile(DynkinDiagram(((1, -2),), ()),
                                       (("sigma", ((1, 1, -1),)),), (("sigma", -1),)),
    "FamilyEntry": lambda: FamilyEntry("A", "simple", "both", "y1^3", _terms, _weights,
                                       k_min=1),
    "AnalysisOutcome": lambda: run_analysis(fixture_file("B", 2)),
    "MonodromyElement": lambda: MonodromyElement(A2_GRAM, (1, 0), (1, 0), ("h1", "h1"), ((1, 0),)),
    "Finite": lambda: Finite(order=6),
    "Infinite": lambda: Infinite(MonodromyElement(A2_GRAM, (1, 0), (1, 0)),
                                 witness=(1, 0), increment=(0, 1)),
    "Unknown": lambda: Unknown(cap=10),
    "PolyGerm": lambda: PolyGerm(terms=(((2, 0), 1), ((0, 3), 1)), m=1, n=1, corner=True),
    "LocalAlgebraReport": lambda: LocalAlgebraReport((((1,), 2),), 3),
}

# a record checks its integer entries and never converts them: each of these
# is refused (a diagram's with the DiagramError that names the entry)
NOT_INTEGERS = {
    "diagram-float-and-str": (
        lambda: DynkinDiagram(((1, -2.5), (2, "-2")), ((1, 2, 1.9),)),
        DiagramError, "vertex 1 self=-2.5: entries must be integers"),
    "diagram-float-id": (lambda: DynkinDiagram(((1.5, -2),), ()),
                         DiagramError, "vertex 1.5 self=-2: entries must be integers"),
    "diagram-float-weight": (lambda: DynkinDiagram(((1, -2), (2, -2)), ((1, 2, 1.9),)),
                             DiagramError, "edge 1 2 w=1.9: entries must be integers"),
    "germ-negative-exponent": (lambda: PolyGerm({(-2, 0): 1, (2, 0): 1, (0, 2): 1}, 1, 1),
                               EqsingError, "exponents must be integers >= 0, got (-2, 0)"),
    "germ-float-exponent": (lambda: PolyGerm({(2.5, 0): 1, (0, 2): 1}, 1, 1),
                            EqsingError, "exponents must be integers >= 0, got (2.5, 0)"),
    "action-float-index": (
        lambda: GroupAction((("s", ((1.0, 1), (0, 1))),), IntLattice(A2_GRAM)),
        EqsingError, "generator s has an image index or sign that is not an integer"),
    "action-float-sign": (
        lambda: GroupAction((("s", ((1, -1.0), (0, -1))),), IntLattice(A2_GRAM)),
        EqsingError, "generator s has an image index or sign that is not an integer"),
    # 1.0 == 1, so a float passes the vertex-set comparison; serialize would
    # write `generator s 1.0:+1 2:+2`, which parse_file refuses
    "file-float-source": (
        lambda: DiagramFile(A2_DIAGRAM, (("s", ((1.0, 1, 1), (2, 2, 1))),), (("s", 1.0),)),
        DiagramError, "generator s has a source, target or sign that is not an integer"),
    "file-float-target": (
        lambda: DiagramFile(A2_DIAGRAM, (("s", ((1, 2.0, 1), (2, 1, 1))),)),
        DiagramError, "generator s has a source, target or sign that is not an integer"),
    "file-float-sign": (
        lambda: DiagramFile(A2_DIAGRAM, (("s", ((1, 1, 1), (2, 2, -1.0))),)),
        DiagramError, "generator s has a source, target or sign that is not an integer"),
    "file-float-character": (
        lambda: DiagramFile(A2_DIAGRAM, (("s", ((1, 1, 1), (2, 2, 1))),), (("s", 1.0),)),
        DiagramError, "character value of generator s is not an integer: 1.0"),
    "element-float-root": (lambda: MonodromyElement(A2_GRAM, (1.0, 0), (0, 1)),
                           EqsingError, "rho is no integer vector of length 2: (1.0, 0)"),
    "element-float-generator": (
        lambda: MonodromyElement(A2_GRAM, (1, 0), (0, 1), ("h1", "h2"), ((1, 0), (0, 1.0))),
        EqsingError, "generator h2 is no integer vector of length 2: (0, 1.0)"),
}

# an entry of the wrong shape is refused with the package's error naming it,
# not with the ValueError or TypeError of a failed unpacking
MALFORMED = {
    "vertex-short": (lambda: DynkinDiagram(((1,),), ()), DiagramError,
                     "vertex entry (1,) is not (id, self_intersection)", ("vertices", 0)),
    "edge-short": (lambda: DynkinDiagram(((1, -2),), ((1, 1),)), DiagramError,
                   "edge entry (1, 1) is not (i, j, weight)", ("edges", 0)),
    "vertices-not-a-sequence": (
        lambda: DynkinDiagram(5, ()), DiagramError,
        "expected a sequence of vertex entries (id, self_intersection), got 5", None),
    "image-short": (lambda: GroupAction((("s", ((0,),)),), IntLattice(((-2,),))), EqsingError,
                    "generator entry ('s', ((0,),)) is not (name, ((j, s), ...))", None),
    "file-image-short": (
        lambda: DiagramFile(A2_DIAGRAM, (("s", ((1, 1), (2, 2, 1))),)), DiagramError,
        "generator s image entry (1, 1) is not (source, target, sign)", None),
    "file-character-short": (
        lambda: DiagramFile(A2_DIAGRAM, (("s", ((1, 1, 1), (2, 2, 1))),), (("s",),)),
        DiagramError, "character entry ('s',) is not (name, value)", None),
    "gram-not-a-sequence": (lambda: IntLattice(5), EqsingError,
                            "gram matrix must be a sequence of rows, got 5", None),
    "gram-row-not-a-sequence": (lambda: IntLattice((5,)), EqsingError,
                                "gram matrix must be a sequence of rows, got (5,)", None),
    "germ-terms-not-a-mapping": (
        lambda: PolyGerm(5, 1, 0), EqsingError,
        "terms must be a mapping or (exponents, coefficient) pairs, got 5", None),
    "germ-exponents-not-a-tuple": (lambda: PolyGerm({5: 1}, 1, 0), EqsingError,
                                   "exponents must be a tuple, got 5", None),
    "roots-not-a-sequence": (lambda: generate_group(((-2,),), 5), EqsingError,
                             "roots must be a sequence of integer vectors, got 5", None),
    "root-not-a-sequence": (lambda: generate_group(((-2,),), [5]), EqsingError,
                            "roots must be a sequence of integer vectors, got [5]", None),
    "element-root-short": (lambda: MonodromyElement(A2_GRAM, (1, 0), (1,)), EqsingError,
                           "rho_p is no integer vector of length 2: (1,)", None),
    "element-generator-short": (
        lambda: MonodromyElement(A2_GRAM, (1, 0), (0, 1), (), ((1,),)), EqsingError,
        "generator h1 is no integer vector of length 2: (1,)", None),
    "element-generator-zero": (
        lambda: MonodromyElement(A2_GRAM, (1, 0), (0, 1), (), ((1, 0), (0, 0))), EqsingError,
        "zero vector has no primitive representative", None),
}


@pytest.mark.parametrize("build, error, message", NOT_INTEGERS.values(), ids=list(NOT_INTEGERS))
def test_records_refuse_entries_that_are_not_ints(build, error, message):
    with pytest.raises(error, match=re.escape(message)):
        build()


@pytest.mark.parametrize("build, error, message, entry", MALFORMED.values(), ids=list(MALFORMED))
def test_records_refuse_entries_of_the_wrong_shape(build, error, message, entry):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        build()
    assert type(info.value) is error
    assert getattr(info.value, "entry", None) == entry


@pytest.mark.parametrize("name", BUILD)
def test_equal_fields_give_equal_records_and_hashes(name):
    a, b = BUILD[name](), BUILD[name]()
    assert type(a).__name__ == name
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", BUILD)
def test_fields_can_be_neither_assigned_nor_deleted(name):
    record = BUILD[name]()
    field = FIELDS[name][0]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) == before


@pytest.mark.parametrize("name", BUILD)
def test_repr_names_every_field(name):
    record = BUILD[name]()
    fields = ", ".join(f"{f}={getattr(record, f)!r}" for f in FIELDS[name])
    assert repr(record) == f"{name}({fields})"


@pytest.mark.parametrize("name", BUILD)
def test_copies_are_equal(name):
    record = BUILD[name]()
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record


def test_pickle_round_trip():
    record = BUILD["AnalysisOutcome"]()
    assert pickle.loads(pickle.dumps(record)) == record


def test_repr_and_str_literally():
    assert repr(Inertia(0, 0, 3)) == "Inertia(n_plus=0, n_zero=0, n_minus=3)"
    assert repr(Finite(6)) == str(Finite(6)) == "Finite(order=6)"
    assert str(Unknown(10)) == "Unknown(cap=10)"
    assert repr(IntLattice(((-2,),))) == "IntLattice(gram=((-2,),))"


def test_equality_needs_the_same_class():
    assert Finite(3) != Unknown(3) and Unknown(3) != Finite(3)
    assert Inertia(0, 0, 3) != (0, 0, 3) and (0, 0, 3) != Inertia(0, 0, 3)
    assert Inertia(0, 0, 3) != Inertia(0, 3, 0)
    assert Finite(3) == Finite(order=3)


def test_constructor_normalises_and_fills_defaults():
    # the class's own checks run on positional and keyword arguments alike
    assert GroupAction((("s", [(0, -1)]),), IntLattice([[-2]])) == GroupAction(
        generators=(("s", ((0, -1),)),), lattice=IntLattice(((-2,),)))
    assert DiagramFile(DynkinDiagram(((1, -2),), ())).generators == ()
    assert PolyGerm({(2,): 1}, 1, 0).corner is False
    entry = BUILD["FamilyEntry"]()
    assert entry.fixture is None and entry.k_min == 1
    assert Finite.kind == "finite" and Infinite.kind == "infinite" and Unknown.kind == "unknown"


@pytest.mark.parametrize("name", BUILD)
def test_missing_or_unknown_argument_is_a_type_error(name):
    record = BUILD[name]()
    cls = type(record)
    # the last field of these two is computed, never given
    fields = FIELDS[name][:-1] if cls in (Sublattice, MonodromyElement) else FIELDS[name]
    kwargs = {f: getattr(record, f) for f in fields}
    assert cls(**kwargs) == record
    with pytest.raises(TypeError):
        cls(**kwargs, bogus=1)
    del kwargs[fields[0]]
    with pytest.raises(TypeError):
        cls(**kwargs)


def test_too_many_or_repeated_arguments_are_type_errors():
    with pytest.raises(TypeError):
        Inertia(0, 0, 3, 4)
    with pytest.raises(TypeError):
        Inertia(0, 0, 3, n_plus=0)
    with pytest.raises(TypeError):
        Unknown(10, cap=10)


def test_sublattice_takes_no_restricted_gram():
    amb = IntLattice(A2_GRAM)
    sub = Sublattice(amb, basis=((1, 1),))
    assert sub.restricted_gram == ((-2,),)
    with pytest.raises(TypeError):
        Sublattice(amb, ((1, 1),), restricted_gram=((-2,),))
    with pytest.raises(TypeError):
        Sublattice(amb, ((1, 1),), ((-2,),))


def test_monodromy_element_takes_no_matrix():
    # the matrix is rendered from the pair, and the factors are computed
    g = MonodromyElement(A2_GRAM, (1, 0), (0, 1))
    assert g.matrix == ((0, -1), (1, -1))  # s_1 s_2 on A2, of order 3
    assert g.factors == ((-1, -1), (1, -2))  # g - I = rho alpha^T + rho' beta^T
    for name, value in (("matrix", g.matrix), ("factors", g.factors)):
        with pytest.raises(TypeError):
            MonodromyElement(A2_GRAM, (1, 0), (0, 1), **{name: value})
    with pytest.raises(TypeError):
        MonodromyElement(A2_GRAM, (1, 0), (0, 1), (), (), g.factors)


def test_every_record_class_is_pinned():
    # every Record subclass of the package is a row of FIELDS with its
    # slots, so a new or reshaped record cannot escape the table
    for module in pkgutil.iter_modules(eqsing.__path__):
        importlib.import_module(f"eqsing.{module.name}")
    found, todo = {}, [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("eqsing."):
                found[cls.__name__] = cls.__slots__
    assert found == FIELDS
