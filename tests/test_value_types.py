"""The ten value types: construction, repr, equality, hash and immutability.

Seven records and ``Bound`` are NamedTuples; ``CommunityGraph`` and
``QuotientGraph`` are ``graph.Frozen`` classes, which keep an instance
``__dict__`` for their cached properties.
"""

import pytest

from kintegration import InvalidParamsError
from kintegration.constructions import Construction, QuotientGraph
from kintegration.graph import CommunityGraph, EdgeCensus, Frozen
from kintegration.metrics import IntegrationReport, KVerdict
from kintegration.oracle import OracleVerdict, RowCheck
from kintegration.thresholds import Bound, SegregationVerdict, ThresholdRow

PATH = CommunityGraph(((1,), (0, 2), (1,)), (0, 0, 1), ("a", "b", "c"), ("x", "y"))
PATH_REPR = (
    "CommunityGraph(adjacency=((1,), (0, 2), (1,)), community_of=(0, 0, 1),"
    " tokens=('a', 'b', 'c'), community_tokens=('x', 'y'))"
)
VERDICT = OracleVerdict((2, 2), 2, ((0, 2), (1, 3)), 5, 1)
VERDICT_REPR = "OracleVerdict(sizes=(2, 2), min_bridges=2, witness=((0, 2), (1, 3)), sets_examined=5, exhausted_size=1)"

# (type, field values, the same type with one value changed, repr)
CASES = [
    (Bound, (3, 6), (3, 7), "Bound(lower=3, upper=6)"),
    (SegregationVerdict, (True, "why"), (False, None), "SegregationVerdict(provably_segregated=True, reason='why')"),
    (
        ThresholdRow,
        (4, Bound(3, 6), 4),
        (4, Bound(3, 6), 5),
        "ThresholdRow(k=4, bridges=Bound(lower=3, upper=6), centrals=4)",
    ),
    (
        KVerdict,
        (1, False, (0, 2), 2),
        (1, False, (0, 2), None),
        "KVerdict(k=1, integrated=False, witness=(0, 2), witness_distance=2)",
    ),
    (
        IntegrationReport,
        (2, (KVerdict(2, True),), {1: (2, 3, 2)}),
        (2, (KVerdict(2, True),), {1: (2, 3, 3)}),
        "IntegrationReport(k_star=2, per_k=(KVerdict(k=2, integrated=True, witness=None, witness_distance=None),),"
        " reach_profile={1: (2, 3, 2)})",
    ),
    (OracleVerdict, VERDICT[:], (*VERDICT[:4], 2), VERDICT_REPR),
    (RowCheck, (VERDICT, True), (VERDICT, None), f"RowCheck(verdict={VERDICT_REPR}, agrees=True)"),
    (
        Construction,
        (PATH, "path", 2, 1, 2),
        (PATH, "path", 3, 1, 2),
        f"Construction(graph={PATH_REPR}, family='path', claimed_k=2, claimed_b=1, claimed_c=2)",
    ),
    (
        CommunityGraph,
        (PATH.adjacency, (0, 0, 1), ("a", "b", "c"), ("x", "y")),
        (PATH.adjacency, (0, 1, 1), ("a", "b", "c"), ("x", "y")),
        PATH_REPR,
    ),
    (QuotientGraph, (3, ((0, 1), (1, 2))), (3, ((0, 1), (0, 2))), "QuotientGraph(r=3, edges=((0, 1), (1, 2)))"),
]
IDS = [case[0].__name__ for case in CASES]
FROZEN = [case for case in CASES if issubclass(case[0], Frozen)]
RECORDS = [case for case in CASES if issubclass(case[0], tuple)]


def test_every_type_is_a_record_or_frozen():
    assert len(FROZEN) == 2 and len(RECORDS) == 8


@pytest.mark.parametrize("cls, values, other, text", CASES, ids=IDS)
def test_built_by_position_or_keyword_alike(cls, values, other, text):
    by_keyword = cls(**dict(zip(cls._fields, values)))
    assert by_keyword == cls(*values)
    assert tuple(getattr(by_keyword, name) for name in cls._fields) == values


def test_defaults():
    assert KVerdict(2, True) == KVerdict(2, True, None, None)
    assert SegregationVerdict(False).reason is None


@pytest.mark.parametrize("cls, values, other, text", CASES, ids=IDS)
def test_repr_names_every_field(cls, values, other, text):
    assert repr(cls(*values)) == text


@pytest.mark.parametrize("cls, values, other, text", CASES, ids=IDS)
def test_equality_and_hash_go_by_value(cls, values, other, text):
    a, b = cls(*values), cls(*values)
    assert a == b and not a != b
    assert a != cls(*other)
    if cls is IntegrationReport:
        # its reach profile is a dict, so it has no hash
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b, cls(*other)}) == 2


@pytest.mark.parametrize("cls, values, other, text", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_added(cls, values, other, text):
    item = cls(*values)
    with pytest.raises(AttributeError):
        setattr(item, cls._fields[0], values[-1])
    with pytest.raises(AttributeError):
        item.extra = 1
    assert getattr(item, cls._fields[0]) == values[0]


@pytest.mark.parametrize("cls, values, other, text", FROZEN, ids=[case[0].__name__ for case in FROZEN])
def test_frozen_types_refuse_deletion_and_other_types(cls, values, other, text):
    item = cls(*values)
    with pytest.raises(AttributeError):
        delattr(item, cls._fields[0])
    # unlike a record, a frozen type equals only its own type
    assert item != values
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, extra=1)


@pytest.mark.parametrize("cls, values, other, text", RECORDS, ids=[case[0].__name__ for case in RECORDS])
def test_records_are_tuples_with_replace(cls, values, other, text):
    item = cls(*values)
    assert item == values and tuple(item) == values
    assert item._replace(**{cls._fields[-1]: other[-1]}) == cls(*values[:-1], other[-1])


def test_bound_checks_its_order_on_every_build():
    with pytest.raises(InvalidParamsError, match="bound lower 5 exceeds upper 3"):
        Bound(5, 3)
    with pytest.raises(InvalidParamsError):
        Bound(lower=5, upper=3)
    with pytest.raises(InvalidParamsError):
        Bound(3, 3)._replace(lower=4)
    assert Bound(3, 3).exact and not Bound(3, 4).exact


def test_quotient_normalises_and_validates_its_edges():
    q = QuotientGraph(4, [[3, 2], (2, 0), (1, 0)])
    assert q.edges == ((0, 1), (0, 2), (2, 3))
    assert q == QuotientGraph(4, ((0, 1), (0, 2), (2, 3)))
    assert q.replace(edges=((1, 0),)).edges == ((0, 1),)
    for bad in (((0, 1), (1, 0)), ((1, 1),), ((0, 4),), ((0, 1, 2),), ((-1, 0),)):
        with pytest.raises(InvalidParamsError):
            QuotientGraph(4, bad)
    with pytest.raises(InvalidParamsError):
        q.replace(r=2)


def test_community_graph_replace_keeps_names_and_takes_a_fresh_census():
    g = CommunityGraph(((1,), (0,), ()), (0, 0, 1), ("a", "b", "c"), ("x", "y"))
    assert g.census == EdgeCensus(0, 0, 1)
    assert g.census is g.census
    joined = g.replace(adjacency=((1,), (0, 2), (1,)))
    assert joined.community_of is g.community_of
    assert joined.tokens is g.tokens and joined.community_tokens is g.community_tokens
    assert "census" not in vars(joined)
    assert joined.census == EdgeCensus(1, 2, 1)
    assert g.census == EdgeCensus(0, 0, 1)
    with pytest.raises(TypeError):
        g.replace(nodes=())
