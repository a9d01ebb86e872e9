"""The value-class contract: construction, validation, equality, hashing,
immutability and repr of every record class in the package."""

import pytest

from quandlekit import (
    AbelianGroup,
    BraidWord,
    Cochain,
    Diagram,
    DomainError,
    ParseError,
    QuandleKitError,
    RackTable,
    boundary_matrix,
    chain_basis,
    cohomology,
    make_dihedral,
    parse_pd,
)
from quandlekit._util import Record
from quandlekit.algebra import AxiomCheck, GroupPresentation, RackWord
from quandlekit.coloring import Coloring, ShadowColoring, SurfaceColoring
from quandlekit.diagram import (
    Crossing,
    CrossingRelation,
    DiagramPresentation,
    RegionIncidence,
    SurfaceDiagramData,
)
from quandlekit.homology import (
    BoundaryMatrix,
    ChainBasis,
    CochainSpaces,
    CocycleCheck,
    StructureReport,
)
from quandlekit.invariant import GroupRingElement

R3 = make_dihedral(3)
TREFOIL = parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)")
D2 = boundary_matrix(R3, 2, "Q")

# Per record class: its fields in order with sample values, and the fields
# that have defaults with their default values.
SAMPLES = [
    (AxiomCheck, dict(rack_class="quandle", failed_axiom="K2", witness=(0, 1)), {}),
    (RackTable, dict(size=R3.size, table=R3.table, name="R3"), dict(name=None)),
    (RackWord, dict(base="a", letters=(("b", 1),)), dict(letters=())),
    (GroupPresentation, dict(generators=("a", "b"), relators=((("a", 1), ("b", -1)),)), {}),
    (Coloring, dict(colors=(0, 1, 2)), {}),
    (ShadowColoring, dict(colors=(0, 1), region_colors=(2, 0, 1)), {}),
    (SurfaceColoring, dict(colors=(1, 1)), {}),
    (Crossing, dict(quad=(0, 3, 1, 4), over_in=3, sign=-1), {}),
    (CrossingRelation, dict(over=0, from_under=1, to_under=2, sign=1), {}),
    (Diagram, dict(n_edges=TREFOIL.n_edges, crossings=TREFOIL.crossings, name="3_1"),
     dict(name=None)),
    (DiagramPresentation, dict(flavor="quandle", generators=("x0",), relations=()), {}),
    (RegionIncidence, dict(region=0, arc=1, inward=True), {}),
    (BraidWord, dict(strands=2, letters=((1, 1),), power=3), dict(power=1)),
    (SurfaceDiagramData, dict(n_sheets=1, relations=(), triple_points=(), name="sphere"),
     dict(name=None)),
    (ChainBasis, dict(degree=1, theory="Q", tuples=((0,), (1,), (2,))), {}),
    (BoundaryMatrix, dict(X=R3, degree=2, theory="Q", columns=D2.columns, domain=D2.domain,
                          codomain=D2.codomain), {}),
    (AbelianGroup, dict(rank=1, invariant_factors=(3,)), dict(invariant_factors=())),
    (Cochain, dict(degree=2, modulus=3, values={(0, 1): 1}), {}),
    (CocycleCheck, dict(ok=False, reason="coboundary is nonzero", witness=(0, 1)),
     dict(reason=None, witness=None)),
    (CochainSpaces, dict(X=R3, degree=1, modulus=3, theory="Q",
                         basis=chain_basis(R3, 1, "Q"), prime=True), {}),
    (StructureReport, dict(X=R3, n_max=1, groups={("Q", 1): AbelianGroup(1)},
                           checks=(("ok", True),)), {}),
    (GroupRingElement, dict(modulus=2, coeffs=(1, 0)), {}),
]
IDS = [cls.__name__ for cls, _, _ in SAMPLES]
UNHASHABLE = (Cochain, StructureReport)  # a dict field


@pytest.mark.parametrize("cls, fields, defaults", SAMPLES, ids=IDS)
def test_positional_keyword_and_default_construction(cls, fields, defaults):
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    mixed = cls(*list(fields.values())[:1], **dict(list(fields.items())[1:]))
    for obj in (by_position, by_keyword, mixed):
        assert obj == by_position
        assert list(vars(obj).items()) == list(fields.items())  # in order, nothing else
    required = {k: v for k, v in fields.items() if k not in defaults}
    with_defaults = cls(**required)
    assert {k: getattr(with_defaults, k) for k in defaults} == defaults
    assert cls(*required.values()) == with_defaults


@pytest.mark.parametrize("cls, fields, defaults", SAMPLES, ids=IDS)
def test_bad_argument_lists_raise_type_error(cls, fields, defaults):
    values = list(fields.values())
    with pytest.raises(TypeError):
        cls(*values, 0)
    with pytest.raises(TypeError):
        cls(*values[:-1 - len(defaults)])
    with pytest.raises(TypeError):
        cls(*values, **{next(iter(fields)): values[0]})
    with pytest.raises(TypeError):
        cls(**fields, no_such_field=0)


def test_post_init_validation_still_raises():
    with pytest.raises(DomainError, match="at least one element"):
        RackTable(0, ())
    with pytest.raises(ParseError, match="not 2x2"):
        RackTable(2, ((0, 1),))
    with pytest.raises(QuandleKitError):
        Diagram(2, ())
    with pytest.raises(DomainError, match="degree must be at least 1"):
        Cochain(0, 3, {})
    with pytest.raises(ParseError):
        Crossing((0, 3, 1, 4), 3, 1)
    with pytest.raises(ValueError, match="divisibility chain"):
        AbelianGroup(0, (3, 2))
    # __post_init__ may rewrite a field of a frozen record.
    assert dict(Cochain(2, 3, {(0, 1): 4, (1, 0): 3}).values) == {(0, 1): 1}


@pytest.mark.parametrize("cls, fields, defaults", SAMPLES, ids=IDS)
def test_equality_and_hash_follow_the_compared_fields(cls, fields, defaults):
    a, b = cls(**fields), cls(**fields)
    assert a == b and not a != b
    assert a != object() and a != tuple(fields.values())
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


def test_hash_is_that_of_the_compared_fields_tuple():
    assert hash(Coloring((0, 1))) == hash(((0, 1),))
    assert hash(RegionIncidence(0, 1, True)) == hash((0, 1, True))
    assert hash(R3) == hash((3, R3.table))
    assert hash(AbelianGroup(2)) == hash((2, ()))


def test_uncompared_fields_are_ignored():
    assert RackTable(3, R3.table, "one") == RackTable(3, R3.table, "two")
    assert hash(RackTable(3, R3.table, "one")) == hash(RackTable(3, R3.table))
    assert Diagram(TREFOIL.n_edges, TREFOIL.crossings, "a") == Diagram(
        TREFOIL.n_edges, TREFOIL.crossings
    )
    assert SurfaceDiagramData(1, (), (), "a") == SurfaceDiagramData(1, (), (), "b")
    other = BoundaryMatrix(R3, 2, "Q", (), D2.domain, D2.codomain)
    assert other == D2 and hash(other) == hash(D2)
    assert Coloring((0, 1)) != Coloring((1, 0))
    assert ShadowColoring((0,), (1,)) != ShadowColoring((0,), (2,))
    assert Coloring((0,)) != SurfaceColoring((0,))  # same fields, another class


@pytest.mark.parametrize("cls, fields, defaults", SAMPLES, ids=IDS)
def test_frozen_records_refuse_assignment_and_deletion(cls, fields, defaults):
    obj = cls(**fields)
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(obj, name, fields[name])
    with pytest.raises(AttributeError):
        delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1
    assert vars(obj) == fields


def test_records_take_no_class_options():
    # Every record is frozen: there is no option to declare a mutable one.
    with pytest.raises(TypeError):
        class Loose(Record, frozen=False):
            x: int


def test_cached_properties_work_on_frozen_records():
    spaces = cohomology(R3, 2, "Q", 3)
    assert spaces.coboundary_dimension == spaces.coboundary_dimension == 2
    assert "coboundary_dimension" in vars(spaces)
    assert R3.orbits is R3.orbits


def test_pinned_reprs():
    assert repr(R3) == (
        "RackTable(size=3, table=((0, 2, 1), (2, 1, 0), (1, 0, 2)), name='dihedral:3')"
    )
    assert repr(cohomology(R3, 1, "Q", 3)) == (
        "CochainSpaces(degree=1, modulus=3, theory='Q', basis=ChainBasis(degree=1, "
        "theory='Q', tuples=((0,), (1,), (2,))), prime=True)"
    )
    assert repr(D2).startswith("BoundaryMatrix(degree=2, theory='Q', columns=({0: 1, 2: -1},")
    assert repr(TREFOIL) == (
        "Diagram(n_edges=6, crossings=(Crossing(quad=(0, 3, 1, 4), over_in=3, sign=-1), "
        "Crossing(quad=(2, 5, 3, 0), over_in=5, sign=-1), "
        "Crossing(quad=(4, 1, 5, 2), over_in=1, sign=-1)), name=None)"
    )
    assert repr(BraidWord(2, ((1, 1),), 3)) == "BraidWord(strands=2, letters=((1, 1),), power=3)"
    assert repr(AbelianGroup(1, (3,))) == "AbelianGroup(rank=1, invariant_factors=(3,))"
    assert repr(Cochain(2, 3, {(0, 1): 1})) == "Cochain(degree=2, modulus=3, values={(0, 1): 1})"
    assert repr(CocycleCheck(True)) == "CocycleCheck(ok=True, reason=None, witness=None)"
    assert repr(ShadowColoring((0,), (1, 2))) == "ShadowColoring(colors=(0,), region_colors=(1, 2))"
