"""The nine value types: construction, repr, equality, hash and immutability.

Six records and ``Bound`` are NamedTuples; ``CommunityGraph`` and
``QuotientGraph`` are ``graph.Frozen`` classes, which keep an instance
``__dict__`` for their cached properties.
"""

import pytest

import kintegration
from kintegration import InvalidParamsError
from kintegration.constructions import Construction, QuotientGraph
from kintegration.graph import CommunityGraph, EdgeCensus, Frozen
from kintegration.metrics import IntegrationReport, KVerdict
from kintegration.oracle import OracleVerdict, RowCheck
from kintegration.thresholds import Bound, ThresholdRow

PATH = CommunityGraph(((1,), (0, 2), (1,)), (0, 0, 1), ("a", "b", "c"), ("x", "y"))
PATH_REPR = (
    "CommunityGraph(adjacency=((1,), (0, 2), (1,)), community_of=(0, 0, 1),"
    " tokens=('a', 'b', 'c'), community_tokens=('x', 'y'))"
)
VERDICT = OracleVerdict((2, 2), ((0, 2), (1, 3)), 5, 1)
VERDICT_REPR = "OracleVerdict(sizes=(2, 2), witness=((0, 2), (1, 3)), sets_examined=5, exhausted_size=1)"
ROW = ThresholdRow(2, Bound(2, 2), 3)
ROW_REPR = "ThresholdRow(k=2, bridges=Bound(lower=2, upper=2), centrals=3)"

# (type, field values, the same type with one value changed, repr)
CASES = [
    (Bound, (3, 6), (3, 7), "Bound(lower=3, upper=6)"),
    (
        ThresholdRow,
        (4, Bound(3, 6), 4),
        (4, Bound(3, 6), 5),
        "ThresholdRow(k=4, bridges=Bound(lower=3, upper=6), centrals=4)",
    ),
    (
        KVerdict,
        (1, (0, 2), 2),
        (1, (0, 2), None),
        "KVerdict(k=1, witness=(0, 2), witness_distance=2)",
    ),
    (
        IntegrationReport,
        (2, (KVerdict(2),), {1: (2, 3, 2)}),
        (2, (KVerdict(2),), {1: (2, 3, 3)}),
        "IntegrationReport(k_star=2, per_k=(KVerdict(k=2, witness=None, witness_distance=None),),"
        " reach_profile={1: (2, 3, 2)})",
    ),
    (OracleVerdict, VERDICT[:], (*VERDICT[:3], 2), VERDICT_REPR),
    (
        RowCheck,
        (ROW, VERDICT),
        (ROW._replace(centrals=5), VERDICT),
        f"RowCheck(row={ROW_REPR}, verdict={VERDICT_REPR})",
    ),
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
    # one row per exported record or frozen type: adding or removing one without its row fails here
    exported = [getattr(kintegration, name) for name in kintegration.__all__]
    kinds = (tuple, Frozen)
    wanted = {t for t in exported if isinstance(t, type) and issubclass(t, kinds) and not issubclass(t, BaseException)}
    assert len(CASES) == len(wanted) and {case[0] for case in CASES} == wanted


@pytest.mark.parametrize("cls, values, other, text", CASES, ids=IDS)
def test_built_by_position_or_keyword_alike(cls, values, other, text):
    by_keyword = cls(**dict(zip(cls._fields, values)))
    assert by_keyword == cls(*values)
    assert tuple(getattr(by_keyword, name) for name in cls._fields) == values


def test_defaults():
    assert KVerdict(2) == KVerdict(2, None, None)


def test_verdicts_are_read_from_the_witness():
    assert KVerdict(2).integrated and not KVerdict(2, (0, 5), 3).integrated and not KVerdict(2, (0, 5)).integrated
    for witness, minimum in ((VERDICT.witness, 2), ((), 0), (None, None)):
        verdict = VERDICT._replace(witness=witness)
        assert (verdict.min_bridges, verdict.certified) == (minimum, witness is not None)
    # None without a witness; otherwise the witness meets the row's counts and, being certified, its upper bound
    for row, verdict, agrees in ((ROW, VERDICT, True), (ROW, VERDICT._replace(witness=None), None),
                                 (ROW._replace(centrals=5), VERDICT, False),
                                 (ROW._replace(bridges=Bound(1, 1)), VERDICT, False)):
        assert RowCheck(row, verdict).agrees is agrees
    for item, name in ((KVerdict(2), "integrated"), (VERDICT, "min_bridges"), (VERDICT, "certified"),
                       (RowCheck(ROW, VERDICT), "agrees")):
        with pytest.raises(AttributeError):
            setattr(item, name, None)


# (type, its evidence, a verdict read from it, that verdict's value)
DERIVED = [
    (Bound, (3, 3), "exact", True),
    (KVerdict, (2, (0, 5), 3), "integrated", False),
    (OracleVerdict, VERDICT[:], "min_bridges", 2),
    (OracleVerdict, VERDICT[:], "certified", True),
    (RowCheck, (ROW, VERDICT), "agrees", True),
]


@pytest.mark.parametrize(
    "cls, values, name, value", DERIVED, ids=[f"{case[0].__name__}.{case[2]}" for case in DERIVED]
)
def test_a_derived_verdict_cannot_be_given_at_build(cls, values, name, value):
    # so no record says two things at once, as KVerdict(2, True, (0, 5), 3) could when it stored both
    assert name not in cls._fields and getattr(cls(*values), name) == value
    with pytest.raises(TypeError):
        cls(*values, **{name: not value})
    with pytest.raises(TypeError):
        cls(*values, value)


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
