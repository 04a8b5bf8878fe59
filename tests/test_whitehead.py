import itertools

import pytest
from hypothesis import given, settings, strategies as st

from fibercomm.errors import NotRotationless
from fibercomm.graph import rose
from fibercomm.maps import GraphMap, map_power
from fibercomm.words import free_reduce, inv
from fibercomm.whitehead import (
    WhiteheadGraph,
    _principal,
    geometric_index,
    graph_automorphisms,
    is_asymmetric,
    periodic_directions,
    rotationless_power,
    saturated_turns,
    stable_whitehead_graphs,
)
from whitehead_oracle import brute_force_automorphisms, leaf_segments


def test_fib_periodic_directions(fib):
    periods = periodic_directions(fib)
    assert periods == {"a": 1, "~a": 2, "~b": 2}


def test_fib_principal_vertex(fib):
    assert _principal(fib)[1] == ["v0"]


def test_rotationless_powers(fib, plast):
    assert rotationless_power(fib, 12) == 2
    assert rotationless_power(plast, 12) == 6
    assert rotationless_power(plast, 5) is None


def test_leaf_segments_grow(fib):
    seg = leaf_segments(fib, "a", 2)
    assert seg.segment == ("a", "b", "a")


def test_stable_graph_requires_rotationless(fib):
    with pytest.raises(NotRotationless):
        stable_whitehead_graphs(fib)


def test_fib_squared_stable_graph_is_path(fib):
    graphs = stable_whitehead_graphs(map_power(fib, 2))
    assert len(graphs) == 1
    w = graphs[0]
    assert w.nodes == ("a", "~a", "~b")
    assert w.edges == frozenset(
        {frozenset({"a", "~a"}), frozenset({"a", "~b"})}
    )
    # a path with distinct-degree center: the only symmetry swaps the ends
    autos = graph_automorphisms(w)
    assert len(autos) == 2
    swap = next(m for m in autos if m != {d: d for d in w.nodes})
    assert swap == {"a": "a", "~a": "~b", "~b": "~a"}


def test_fib_squared_index_report(fib):
    report = geometric_index(map_power(fib, 2))
    assert report.fixed_direction_counts == (3,)
    assert report.index == 1
    assert report.rank == 2
    assert not report.ageometric
    assert not report.nielsen_free_within_bounds


def test_plast_sixth_index_report(plast):
    report = geometric_index(map_power(plast, 6))
    assert report.fixed_direction_counts == (5,)
    assert report.index == 3
    assert report.rank == 3
    assert not report.ageometric
    assert report.nielsen_free_within_bounds


def test_plast_sixth_stable_graph(plast):
    graphs = stable_whitehead_graphs(map_power(plast, 6))
    assert len(graphs) == 1
    w = graphs[0]
    assert w.nodes == ("a", "b", "c", "~b", "~c")
    assert len(w.edges) == 6


def _all_small_graphs(max_nodes):
    for n in range(1, max_nodes + 1):
        nodes = tuple(f"d{i}" for i in range(n))
        pairs = list(itertools.combinations(nodes, 2))
        for bits in range(2 ** len(pairs)):
            edges = frozenset(
                frozenset(p) for i, p in enumerate(pairs) if bits >> i & 1
            )
            yield WhiteheadGraph("v", nodes, edges)


def _key(mapping):
    return tuple(sorted(mapping.items()))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_automorphisms_match_brute_force_small(n):
    for w in _all_small_graphs(n) if n < 4 else _graphs_with_exactly(4):
        fast = {_key(m) for m in graph_automorphisms(w)}
        slow = {_key(m) for m in brute_force_automorphisms(w)}
        assert fast == slow


def _graphs_with_exactly(n):
    nodes = tuple(f"d{i}" for i in range(n))
    pairs = list(itertools.combinations(nodes, 2))
    for bits in range(2 ** len(pairs)):
        edges = frozenset(frozenset(p) for i, p in enumerate(pairs) if bits >> i & 1)
        yield WhiteheadGraph("v", nodes, edges)


def test_is_asymmetric_examples():
    # path of length 2 has the end swap
    path = WhiteheadGraph(
        "v", ("x", "y", "z"), frozenset({frozenset({"x", "y"}), frozenset({"y", "z"})})
    )
    assert not is_asymmetric(path)
    # a smallest asymmetric graph (6 vertices, trivial automorphism group)
    edges = [
        ("d0", "d2"), ("d0", "d3"), ("d0", "d5"),
        ("d1", "d2"), ("d1", "d4"), ("d2", "d3"),
    ]
    asym = WhiteheadGraph(
        "v",
        tuple(f"d{i}" for i in range(6)),
        frozenset(frozenset(e) for e in edges),
    )
    assert is_asymmetric(asym)
    assert len(brute_force_automorphisms(asym)) == 1


# --- turn saturation -----------------------------------------------------


def brute_force_turns(f):
    """Every taken turn with its images under the direction map, each orbit
    followed until it turns degenerate or has run past every possible turn."""
    dirs = f.directions()
    steps = len(dirs) ** 2
    turns = set()
    for t in f.taken_turns():
        turns.add(t)
        for _ in range(steps):
            t = frozenset(f.direction_map[d] for d in t)
            if len(t) != 2:
                break
            turns.add(t)
    return turns


@st.composite
def rose_self_maps(draw):
    symbols = ("a", "b", "c")[: draw(st.integers(2, 3))]
    letters = [x for s in symbols for x in (s, inv(s))]
    images = {}
    for s in symbols:
        w = free_reduce(tuple(draw(st.lists(st.sampled_from(letters), min_size=1, max_size=5))))
        images[s] = w or (s,)
    return GraphMap(rose(symbols), {"v0": "v0"}, images)


@given(rose_self_maps())
@settings(max_examples=80, deadline=None)
def test_saturated_turns_match_brute_force(f):
    assert saturated_turns(f) == brute_force_turns(f)


def test_saturation_runs_past_64_rounds():
    """x_i -> x_(i+1), x39 -> x00 x01: the one taken turn has an orbit of
    more than 64 turns, and each round of map-everything saturation adds
    only the next one."""
    symbols = tuple(f"x{i:02d}" for i in range(40))
    images = {s: (t,) for s, t in zip(symbols, symbols[1:])}
    images[symbols[-1]] = (symbols[0], symbols[1])
    f = GraphMap(rose(symbols), {"v0": "v0"}, images)
    assert f.taken_turns() == {frozenset({"~x00", "x01"})}
    turns = saturated_turns(f)
    assert len(turns) > 65
    assert turns == brute_force_turns(f)
