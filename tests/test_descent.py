"""Differential tests: quotient descent on the fibers of the covering
against the closure-based descent it replaced (``descent_oracle``).

Lifts are drawn from rose maps of rank 2 and 3 over covers of index 2 to
4, and from lifts of those lifts, whose base has several vertices.  Each
is descended with n in {1, 2}, once with the right base map h = f^(kn) and
once with a wrong one; some total edges are reversed so that the covering
projects them onto inverted base edges.
"""

from functools import lru_cache

from hypothesis import assume, given, reject, settings, strategies as st

import descent_oracle as old
from fibercomm.covers import CoveringMap, build_cover, enumerate_subgroups, lift_map
from fibercomm.descent import quotient_descent
from fibercomm.graph import MarkedGraph, OrientedEdge, rose
from fibercomm.maps import GraphMap, map_power
from fibercomm.words import base, free_reduce, inv, inverse

SETTINGS = settings(max_examples=60, deadline=None)
MAX_POWER = 6  # largest total power of the rose map that a draw descends


@lru_cache(maxsize=None)
def subgroups(symbols, m):
    return enumerate_subgroups(len(symbols), m, symbols=symbols)


def nonempty_word(symbols):
    letters = [x for s in symbols for x in (s, inv(s))]
    return (
        st.lists(st.sampled_from(letters), min_size=1, max_size=3)
        .map(lambda w: free_reduce(tuple(w)))
        .filter(bool)
    )


@st.composite
def rose_maps(draw):
    """A self-map of the rose of rank 2 or 3 whose powers up to MAX_POWER
    collapse no edge.  (The oracle fails with an IndexError on a collapsed
    edge; ``test_commensurability`` covers that case.)"""
    symbols = ("a", "b", "c")[: draw(st.integers(2, 3))]
    images = {s: draw(nonempty_word(symbols)) for s in symbols}
    f = GraphMap(rose(symbols), {"v0": "v0"}, images)
    assume(all(map_power(f, MAX_POWER).edge_map.values()))
    return f


def first_lift(f, cover, k_max):
    """``(k, lift of f^k)`` for the least k <= k_max that lifts, or None."""
    for k in range(1, k_max + 1):
        lifted = lift_map(f, cover, k)
        if lifted is not None:
            return k, lifted
    return None


def draw_cover(draw, graph, indices):
    symbols = tuple(sorted(graph.basis_symbols()))
    H = draw(st.sampled_from(subgroups(symbols, draw(st.sampled_from(indices)))))
    return build_cover(graph, H)


def reverse_edges(g, p, flipped):
    """The same lift and covering with the total edges in ``flipped``
    reversed, so that p sends each of them to an inverted base edge."""
    total = p.total

    def turn(path):
        return tuple(inv(x) if base(x) in flipped else x for x in path)

    edges = {}
    for e, data in total.edges.items():
        if e in flipped:
            data = OrientedEdge(e, data.dst, data.src, data.length)
        edges[e] = data
    graph = MarkedGraph(total.vertices, edges, total.spanning_tree, total.basis_labels)
    edge_map = {
        e: turn(inverse(img) if e in flipped else img) for e, img in g.edge_map.items()
    }
    projection = {
        e: inv(b) if e in flipped else b for e, b in p.edge_projection.items()
    }
    lifted = GraphMap(graph, dict(g.vertex_map), edge_map)
    cover = CoveringMap(
        graph, p.base, p.vertex_projection, projection, p.subgroup, p.fiber_state
    )
    return lifted, cover


def wrong_base_maps(f, power):
    """Base self-maps that the lift of f^power does not cover."""
    yield map_power(f, power + 1)
    swapped = dict(f.edge_map)
    a, b = sorted(swapped)[:2]
    swapped[a], swapped[b] = swapped[b], swapped[a]
    yield map_power(GraphMap(f.domain, dict(f.vertex_map), swapped), power)


def assert_same_descent(g, f, k, cover, n, flip_picks):
    flipped = {e for e, pick in zip(sorted(cover.total.edges), flip_picks) if pick}
    g, cover = reverse_edges(g, cover, flipped)
    for h in (map_power(f, k * n), *wrong_base_maps(f, k * n)):
        new, reference = quotient_descent(g, h, cover, n), old.quotient_descent(g, h, cover, n)
        assert new == reference
        assert repr(new) == repr(reference)  # dict orders too, which the CLI prints


flips = st.lists(st.booleans(), max_size=16)


@given(rose_maps(), st.data(), st.sampled_from((1, 2)), flips)
@SETTINGS
def test_descent_of_rose_lift_matches_oracle(f, data, n, flip_picks):
    cover = draw_cover(data.draw, f.domain, (2, 3, 4))
    lifted = first_lift(f, cover, MAX_POWER // n)
    if lifted is None:
        reject()
    k, g = lifted
    assert_same_descent(g, f, k, cover, n, flip_picks)


@given(rose_maps(), st.data(), st.sampled_from((1, 2)), flips)
@SETTINGS
def test_descent_over_multi_vertex_base_matches_oracle(f, data, n, flip_picks):
    """Lift f to a cover, then the lift to a cover of that cover, and
    descend the second lift onto the first cover's graph."""
    cover1 = draw_cover(data.draw, f.domain, (2, 3))
    first = first_lift(f, cover1, MAX_POWER // n)
    if first is None:
        reject()
    k1, g1 = first
    cover2 = draw_cover(data.draw, cover1.total, (2,))
    second = first_lift(g1, cover2, MAX_POWER // (k1 * n))
    if second is None:
        reject()
    k2, g2 = second
    assert len(cover2.base.vertices) > 1
    assert_same_descent(g2, g1, k2, cover2, n, flip_picks)


def test_descent_rejects_unequal_lengths_in_a_fiber(fib, fib3_lift, double_cover):
    """A caller-built covering whose fiber mixes edge lengths."""
    total = double_cover.total
    e = sorted(total.edges)[0]
    data = total.edges[e]
    edges = dict(total.edges)
    edges[e] = OrientedEdge(e, data.src, data.dst, data.length + 1)
    graph = MarkedGraph(total.vertices, edges, total.spanning_tree)
    cover = CoveringMap(
        graph,
        double_cover.base,
        double_cover.vertex_projection,
        double_cover.edge_projection,
        double_cover.subgroup,
        double_cover.fiber_state,
    )
    g = GraphMap(graph, fib3_lift.vertex_map, fib3_lift.edge_map)
    h3 = map_power(fib, 3)
    verdict = quotient_descent(g, h3, cover, 1)
    assert verdict == ("not_descendable", "edge lengths differ within a class")
    assert verdict == old.quotient_descent(g, h3, cover, 1)

