"""Differential tests: the invariant powers read off the permutation that
Phi^-1 makes of the subgroups, and the descent that reads its lift's own
table, against the folding and enumerating implementations they replaced
(``action_oracle``)."""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import action_oracle as old
from fibercomm import covers
from fibercomm.commensurability import from_graph_map
from fibercomm.covers import (
    SubgroupGraph,
    build_cover,
    enumerate_subgroups,
    full_group,
    invariant_powers,
    lift_map,
)
from fibercomm.descent import _try_descend
from fibercomm.graph import MarkedGraph, OrientedEdge, bfs_marked_graph, rank
from fibercomm.maps import GraphMap, induced_outer_automorphism
from fibercomm.words import base, inv, is_positive
from kernel_oracle import compose_images, identity_images
from test_kernels import irreducible_positive_maps

K_MAX = 8

# elementary Nielsen transformations of F(a, b)
NIELSEN = [
    {"a": ("a", "b"), "b": ("b",)},
    {"a": ("a", "~b"), "b": ("b",)},
    {"a": ("a",), "b": ("b", "a")},
    {"a": ("~a",), "b": ("b",)},
    {"a": ("b",), "b": ("a",)},
]


@lru_cache(maxsize=None)
def subgroups(symbols, m):
    if m == 1:
        return [full_group(symbols)]
    return enumerate_subgroups(len(symbols), m, symbols=symbols)


@pytest.fixture(scope="module")
def named_maps(fib, plast):
    b = GraphMap(fib.domain, {"v0": "v0"}, {"a": ("b", "a"), "b": ("a", "b", "a")})
    return {"FIB": fib, "B": b, "PLAST": plast, "A3": irreducible_positive_maps(1)[0]}


# --- invariant power ----------------------------------------------------


@pytest.mark.parametrize("name,index_max", [("FIB", 4), ("B", 4), ("PLAST", 3), ("A3", 3)])
def test_invariant_power_matches_oracle_on_every_small_subgroup(named_maps, name, index_max):
    f = named_maps[name]
    images = induced_outer_automorphism(f)
    symbols = tuple(sorted(images))
    seen = set()
    for m in range(1, index_max + 1):
        listed = subgroups(symbols, m)
        # the oracle's least k <= K_MAX decides every smaller bound too
        expected = [old.smallest_invariant_power(images, H, K_MAX) for H in listed]
        for k_max in range(1, K_MAX + 1):
            assert invariant_powers(images, listed, k_max) == [
                k if k is not None and k <= k_max else None for k in expected
            ]
        seen.update(expected)
        for H in listed:
            # the cover rank ``fibercomm cover`` reports, by Schreier's formula
            assert m * (len(images) - 1) + 1 == rank(build_cover(f.domain, H).total)
    # some subgroups move for several steps, and some stay out of reach
    assert None in seen and any(k and k > 1 for k in seen)


@given(
    st.lists(st.sampled_from(range(len(NIELSEN))), min_size=1, max_size=6),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0),
    st.integers(min_value=1, max_value=K_MAX),
)
@settings(max_examples=80, deadline=None)
def test_invariant_power_matches_oracle_on_nielsen_compositions(ms, m, which, k_max):
    images = identity_images(("a", "b"))
    for i in ms:
        images = compose_images(NIELSEN[i], images)
    listed = subgroups(("a", "b"), m)
    i = which % len(listed)
    assert invariant_powers(images, listed, k_max)[i] == old.smallest_invariant_power(
        images, listed[i], k_max
    )


# --- descent --------------------------------------------------------------


def lifts(f, m):
    """The lift of f^k to each index-m cover H, for each multiple k <= K_MAX
    of its least invariant power."""
    images = induced_outer_automorphism(f)
    listed = subgroups(tuple(sorted(images)), m)
    for H, k0 in zip(listed, invariant_powers(images, listed, K_MAX)):
        if k0 is None:
            continue
        for k in range(k0, K_MAX + 1, k0):
            lifted = lift_map(f, build_cover(f.domain, H), k)
            if lifted is not None:
                yield lifted


def rename(g: GraphMap, vertex, edge, label=lambda s: s):
    """g with its vertices, edges and basis symbols renamed."""
    d = g.domain
    edges = {edge(e): OrientedEdge(edge(e), vertex(x.src), vertex(x.dst), x.length)
             for e, x in d.edges.items()}
    domain = MarkedGraph(
        tuple(vertex(v) for v in d.vertices),
        edges,
        frozenset(edge(e) for e in d.spanning_tree),
        {edge(e): label(s) for e, s in d.basis_labels.items()},
    )

    def path(p):
        return tuple(edge(x) if is_positive(x) else inv(edge(base(x))) for x in p)

    return GraphMap(
        domain,
        {vertex(v): vertex(w) for v, w in g.vertex_map.items()},
        {edge(e): path(p) for e, p in g.edge_map.items()},
    )


@pytest.mark.parametrize("name,m", [("FIB", 2), ("FIB", 3), ("PLAST", 2), ("PLAST", 3)])
def test_descent_matches_oracle_on_lifts(named_maps, name, m):
    descended = 0
    for lifted in lifts(named_maps[name], m):
        phi = from_graph_map(lifted)
        for index_max in (m - 1, m):
            new = _try_descend(phi, index_max)
            assert new == old._try_descend(phi, K_MAX, index_max)
            descended += new is not None
    assert descended


def swap_1_2(name):
    """``name`` with the state after its last '@' swapped between 1 and 2."""
    head, at, state = name.rpartition("@")
    state = {"1": "2", "2": "1"}.get(state, state)
    return f"{head}{at}{state}" if at else name


def lifted_table(g: GraphMap):
    """(state, symbol) -> state read off the names of a lift's edges x@s."""
    return {
        tuple(reversed(e.split("@"))): x.dst.split("@")[1] for e, x in g.domain.edges.items()
    }


def test_descent_refuses_lifts_that_do_not_name_a_canonical_cover(named_maps):
    """Relabeled basis symbols, and states swapped in every name so that
    the table read off them is not the canonical one: neither descends."""
    relabeled = renumbered = 0
    for lifted in lifts(named_maps["FIB"], 3):
        phi = from_graph_map(lifted)
        assert _try_descend(phi, 3) is not None
        # basis symbol a@s becomes s@a
        moved = rename(lifted, str, str, lambda s: "@".join(reversed(s.split("@"))))
        phi = from_graph_map(moved)
        assert _try_descend(phi, 3) is None and old._try_descend(phi, K_MAX, 3) is None
        relabeled += 1
        # states 1 and 2 swap, in vertex and edge names
        moved = rename(lifted, swap_1_2, swap_1_2)
        if lifted_table(moved) == lifted_table(lifted):
            continue  # swapping 1 and 2 is a symmetry of this table
        phi = from_graph_map(moved)
        assert _try_descend(phi, 3) is None and old._try_descend(phi, K_MAX, 3) is None
        renumbered += 1
    assert relabeled and renumbered


def test_descent_builds_one_cover_and_enumerates_nothing(named_maps, monkeypatch):
    built = []

    def counted(base_graph, H):
        built.append(H)
        return build_cover(base_graph, H)

    def unreachable(*args, **kwargs):
        raise AssertionError("descent enumerated subgroups")

    monkeypatch.setattr(covers, "build_cover", counted)
    monkeypatch.setattr(covers, "enumerate_subgroups", unreachable)
    lifted = next(lifts(named_maps["PLAST"], 3))
    assert _try_descend(from_graph_map(lifted), 3) is not None
    assert len(built) == 1
    # x-edges a@0 and a@1 both end at v0@0: no table of a cover, so no cover is built
    edges = {
        "a@0": OrientedEdge("a@0", "v0@0", "v0@0"),
        "a@1": OrientedEdge("a@1", "v0@1", "v0@0"),
        "b@0": OrientedEdge("b@0", "v0@0", "v0@1"),
        "b@1": OrientedEdge("b@1", "v0@1", "v0@1"),
    }
    domain = bfs_marked_graph(("v0@0", "v0@1"), edges)
    identity = GraphMap(domain, {v: v for v in domain.vertices}, {e: (e,) for e in edges})
    phi = from_graph_map(identity)
    assert _try_descend(phi, 2) is None
    assert len(built) == 1
    monkeypatch.undo()
    assert old._try_descend(phi, K_MAX, 2) is None


def test_fib_descends_from_the_index_9_cover_past_the_subgroup_cap(fib):
    # ker(F2 -> (Z/3)^2) is characteristic, so FIB itself lifts; F2 has
    # 2 829 325 index-9 subgroups, more than SUBGROUP_CAP
    trans = {}
    for i in range(3):
        for j in range(3):
            trans[(3 * i + j, "a")] = 3 * ((i + 1) % 3) + j
            trans[(3 * i + j, "b")] = 3 * i + (j + 1) % 3
    H = SubgroupGraph(("a", "b"), tuple(range(9)), trans, 0).canonical()
    images = induced_outer_automorphism(fib)
    assert invariant_powers(images, [H], K_MAX) == [1]
    lifted = lift_map(fib, build_cover(fib.domain, H), 1)
    descended = _try_descend(from_graph_map(lifted), 9)
    assert descended is not None
    psi, info = descended
    assert info == {"from_rank": 10, "to_rank": 2, "index": 9}
    assert psi.stretch_factor().min_poly == (-1, -1, 1)
    assert _try_descend(from_graph_map(lifted), 8) is None
