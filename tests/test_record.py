"""Value semantics of the record classes: construction, equality, hashing,
repr and immutability, the same for every class built on `Record`.  The
tests read the fields from FIELDS, not from the classes, so they pin each
class's fields and their order."""
import copy
import pickle

import pytest

from eqsing.action import GroupAction
from eqsing.catalog import FamilyEntry, fixture_file
from eqsing.diagram import DiagramFile, DynkinDiagram
from eqsing.lattice import Inertia, IntLattice, Sublattice
from eqsing.localalg import LocalAlgebraReport, PolyGerm
from eqsing.monodromy import Finite, Infinite, MonodromyElement, Unknown, run_analysis

A2_GRAM = ((-2, 1), (1, -2))


def _terms(k, a):
    return ["1 y1^3"]


def _weights(k):
    return "", "1/3"


# each record class's fields, in constructor and repr order
FIELDS = {
    "GroupAction": ("generators", "lattice"),
    "IntLattice": ("gram", "labels"),
    "Inertia": ("n_plus", "n_zero", "n_minus"),
    "Sublattice": ("ambient", "basis", "restricted_gram"),
    "DynkinDiagram": ("vertices", "edges"),
    "DiagramFile": ("diagram", "generators", "character"),
    "FamilyEntry": ("symbol", "kind", "setting", "template", "terms", "weights", "k_min",
                    "modulus_rule", "excluded", "fixture", "fixture_k"),
    "AnalysisOutcome": ("sublattice", "generators", "inertia", "kernel", "verdict"),
    "MonodromyElement": ("matrix", "gram", "word"),
    "Finite": ("order",),
    "Infinite": ("certificate", "witness", "increment", "residual_charpoly"),
    "Unknown": ("cap",),
    "PolyGerm": ("variables", "terms", "blocks"),
    "LocalAlgebraReport": ("mu", "isotypic_dims", "truncation_degree"),
}

# one builder per record class: each call builds a new instance from equal fields
BUILD = {
    "GroupAction": lambda: GroupAction(generators=(("sigma", ((1, -1), (0, -1))),),
                                       lattice=IntLattice(A2_GRAM)),
    "IntLattice": lambda: IntLattice(A2_GRAM, labels=("Δ1", "Δ2")),
    "Inertia": lambda: Inertia(0, 0, 3),
    "Sublattice": lambda: Sublattice(IntLattice(A2_GRAM), ((1, 1),)),
    "DynkinDiagram": lambda: DynkinDiagram(vertices=((2, -2), (1, -2)), edges=((2, 1, 1),)),
    "DiagramFile": lambda: DiagramFile(DynkinDiagram(((1, -2),), ()),
                                       (("sigma", ((1, 1, -1),)),), (("sigma", -1),)),
    "FamilyEntry": lambda: FamilyEntry("A", "simple", "both", "y1^3", _terms, _weights,
                                       k_min=1),
    "AnalysisOutcome": lambda: run_analysis(fixture_file("B", 2)),
    "MonodromyElement": lambda: MonodromyElement(((1, 0), (0, 1)), A2_GRAM, ("h1", "h1")),
    "Finite": lambda: Finite(order=6),
    "Infinite": lambda: Infinite(MonodromyElement(((1, 0), (0, 1)), A2_GRAM),
                                 witness=(1, 0), increment=(0, 1)),
    "Unknown": lambda: Unknown(cap=10),
    "PolyGerm": lambda: PolyGerm(variables=("x1", "y1"), terms=(((2, 0), 1), ((0, 3), 1)),
                                 blocks=(("sigma", (0,)),)),
    "LocalAlgebraReport": lambda: LocalAlgebraReport(2, (((1,), 2),), 3),
}


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
    assert repr(IntLattice(((-2,),))) == "IntLattice(gram=((-2,),), labels=None)"


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
    assert IntLattice([[-2]]).labels is None
    entry = BUILD["FamilyEntry"]()
    assert entry.fixture is None and entry.k_min == 1
    assert Finite.kind == "finite" and Infinite.kind == "infinite" and Unknown.kind == "unknown"


@pytest.mark.parametrize("name", BUILD)
def test_missing_or_unknown_argument_is_a_type_error(name):
    record = BUILD[name]()
    cls = type(record)
    fields = FIELDS[name][:2] if cls is Sublattice else FIELDS[name]
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
    assert Sublattice._canonical(amb, ((1, 1),)) == sub
