"""``fibercomm.record`` against frozen ``dataclasses`` twins of each class."""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import pytest

from fibercomm.graph import MarkedGraph, OrientedEdge, graph_from_json_dict, graph_to_json_dict
from fibercomm.record import factory, record


@record
class Point:
    x: int
    y: int = 0
    tags: dict = factory(dict)

    @cached_property
    def norm1(self):
        return abs(self.x) + abs(self.y)


@dataclass(frozen=True)
class PointTwin:
    x: int
    y: int = 0
    tags: dict = field(default_factory=dict)


@record
class Pair:
    a: tuple
    b: Fraction = Fraction(1)


@dataclass(frozen=True)
class PairTwin:
    a: tuple
    b: Fraction = Fraction(1)


@record
class Single:
    value: object


@record
class Normalized:
    items: tuple

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(sorted(self.items)))


def _fields(obj, names):
    return tuple(getattr(obj, n) for n in names)


@pytest.mark.parametrize(
    "args, kwargs",
    [((1,), {}), ((1, 2), {}), ((), {"x": 1}), ((1,), {"y": 2}), ((), {"y": 2, "x": 1}),
     ((1, 2, {"k": 1}), {}), ((1,), {"tags": {"k": 1}})],
)
def test_construction_matches_twin(args, kwargs):
    p, q = Point(*args, **kwargs), PointTwin(*args, **kwargs)
    assert _fields(p, ("x", "y", "tags")) == _fields(q, ("x", "y", "tags"))
    assert repr(p) == repr(q).replace("PointTwin", "Point")


def test_factory_default_is_fresh_per_instance():
    p, q = Point(1), Point(1)
    assert p.tags == {} and p.tags is not q.tags
    p.tags["k"] = 1
    assert q.tags == {}
    assert MarkedGraph((), {}).basis_labels is not MarkedGraph((), {}).basis_labels


@pytest.mark.parametrize(
    "args, kwargs",
    [((), {}), ((), {"y": 1}), ((1, 2, {}, 4), {}), ((1,), {"z": 1}), ((1,), {"x": 2}),
     ((1, 2), {"y": 3})],
    ids=["missing", "missing-with-keyword", "too-many", "unknown-keyword", "duplicate-x",
         "duplicate-y"],
)
def test_bad_arguments_raise_type_error_like_twin(args, kwargs):
    with pytest.raises(TypeError):
        PointTwin(*args, **kwargs)
    with pytest.raises(TypeError):
        Point(*args, **kwargs)


def test_post_init_runs_after_fields_are_set():
    assert Normalized((3, 1, 2)).items == (1, 2, 3)
    assert Normalized(items=[2, 1]) == Normalized((1, 2))


def test_equality_is_per_class_and_field_by_field():
    assert Pair((1,)) == Pair((1,), Fraction(1))
    assert Pair((1,)) != Pair((1,), Fraction(2))
    assert not Pair((1,)) != Pair((1,))
    assert Pair((1,)) != PairTwin((1,))
    assert PairTwin((1,)) != Pair((1,))
    assert Pair((1,)).__eq__(PairTwin((1,))) is NotImplemented
    assert Pair((1,)) != ((1,), Fraction(1))
    assert Single(1) == Single(1) and Single(1) != Single(2)


def test_hash_is_the_hash_of_the_field_tuple():
    assert hash(Pair((1, 2), Fraction(3))) == hash(((1, 2), Fraction(3)))
    assert hash(Pair((1,))) == hash(PairTwin((1,)))
    assert hash(Single("s")) == hash(("s",))
    assert len({Pair((1,)), Pair((1,)), Pair((2,))}) == 2
    with pytest.raises(TypeError):
        hash(Point(1))
    with pytest.raises(TypeError):
        hash(PointTwin(1))
    with pytest.raises(TypeError):
        hash(MarkedGraph(("v",), {}))


def test_repr_matches_twin():
    for args in [((1, "a"),), ((), Fraction(1, 3))]:
        assert repr(Pair(*args)) == repr(PairTwin(*args)).replace("PairTwin", "Pair")
    assert repr(Single(None)) == "Single(value=None)"


def test_fields_can_be_neither_assigned_nor_deleted():
    p, q = Point(1), PointTwin(1)
    for obj in (p, q):
        with pytest.raises(AttributeError):
            obj.x = 2
        with pytest.raises(AttributeError):
            obj.other = 2
        with pytest.raises(AttributeError):
            del obj.x
    assert p.x == 1 and not hasattr(p, "other")


def test_cached_property_on_a_frozen_record():
    p = Point(3, -4)
    assert p.norm1 == 7
    assert p.norm1 == 7 and "norm1" in vars(p)
    assert p == Point(3, -4)


def test_oriented_edge_repr():
    e = OrientedEdge("a", "v0", "v1")
    assert repr(e) == "OrientedEdge(id='a', src='v0', dst='v1', length=Fraction(1, 1))"
    assert e == OrientedEdge("a", "v0", "v1", Fraction(1))
    assert hash(e) == hash(("a", "v0", "v1", Fraction(1)))


def test_marked_graph_json_round_trip_is_equal():
    edges = {
        "a": OrientedEdge("a", "v0", "v0"),
        "t": OrientedEdge("t", "v0", "v1", Fraction(1, 2)),
        "b": OrientedEdge("b", "v1", "v0"),
    }
    g = MarkedGraph(("v0", "v1"), edges, frozenset({"t"}))
    assert g.basis_labels == {"a": "a", "b": "b"}
    h = graph_from_json_dict(graph_to_json_dict(g))
    assert h == g and h is not g
    assert h != MarkedGraph(("v0", "v1"), edges, frozenset({"t"}), {"a": "x", "b": "y"})
