"""Differential tests: the table-driven word and path kernels against the
letter-by-letter implementations they replaced (``kernel_oracle``), and
the eigen-metric in integer polynomials against the field solver it
replaced (``spectral_oracle``)."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import kernel_oracle as old
import spectral_oracle
from fibercomm import maps, searches, spectral, words
from fibercomm.covers import (
    SubgroupGraph,
    build_cover,
    enumerate_subgroups,
    fold_subgroup_graph,
    invariant_powers,
    lift_map,
)
from fibercomm.errors import UnknownEdge
from fibercomm.graph import MarkedGraph, OrientedEdge, bfs_marked_graph, rose, validate_graph
from fibercomm.maps import GraphMap, induced_outer_automorphism, map_power
from fibercomm.whitehead import rotationless_power

SETTINGS = settings(max_examples=60, deadline=None)
MAP_NAMES = ("FIB", "PLAST", "A3", "A3b", "FIB3_LIFT2")


def positive_automorphism(seed, moves=8):
    """Seeded composite of positive elementary moves x -> xy, x -> yx on F(a, b, c)."""
    rng = random.Random(seed)
    symbols = ("a", "b", "c")
    images = old.identity_images(symbols)
    for _ in range(moves):
        x, y = rng.sample(symbols, 2)
        move = old.identity_images(symbols)
        move[x] = (x, y) if rng.random() < 0.5 else (y, x)
        images = old.compose_images(move, images)
    return images


def irreducible_positive_maps(count):
    """The first ``count`` seeded positive rank-3 maps with an irreducible
    transition matrix."""
    found = []
    seed = 0
    while len(found) < count:
        f = GraphMap(rose(("a", "b", "c")), {"v0": "v0"}, positive_automorphism(seed))
        if maps.is_irreducible_matrix(maps.transition_matrix(f)):
            found.append(f)
        seed += 1
    return found


@pytest.fixture(scope="session")
def kernel_maps(fib, plast, fib3_lift):
    a3, a3b = irreducible_positive_maps(2)
    return {"FIB": fib, "PLAST": plast, "A3": a3, "A3b": a3b, "FIB3_LIFT2": fib3_lift}


def outcome(fn, *args):
    """A result, or the type and arguments of the error the kernels may raise."""
    try:
        return fn(*args)
    except (UnknownEdge, KeyError) as exc:
        return type(exc), exc.args


def reduced_path(g, choices):
    """The reduced edge path that follows ``choices`` through the directions
    of ``g`` (each choice picks an outgoing edge modulo the options)."""
    if not choices:
        return ()
    starts = sorted(g.oriented_edges())
    path = [starts[choices[0] % len(starts)]]
    for c in choices[1:]:
        options = [d for d in sorted(g.edges_at(g.edge_dst(path[-1]))) if d != words.inv(path[-1])]
        path.append(options[c % len(options)])
    return tuple(path)


choices = st.lists(st.integers(min_value=0, max_value=10**6), max_size=10)
indices = st.lists(st.integers(min_value=0, max_value=10**6), max_size=14)


def letters_of(alphabet, picks):
    """Arbitrary letter sequence (not necessarily reduced) over ``alphabet``."""
    return tuple(alphabet[i % len(alphabet)] for i in picks)


# --- paths ----------------------------------------------------------------


@pytest.mark.parametrize("name", MAP_NAMES)
@given(steps=choices, raw=indices)
@SETTINGS
def test_apply_map_matches_oracle(kernel_maps, name, steps, raw):
    f = kernel_maps[name]
    path = reduced_path(f.domain, steps)
    assert maps.apply_map(f, path) == old.apply_map(f, path)
    image = old.apply_map(f, path)
    assert maps.apply_map(f, image) == old.apply_map(f, image)
    alphabet = sorted(f.domain.oriented_edges()) + ["zz", "~zz"]
    letters = letters_of(alphabet, raw)
    assert outcome(maps.apply_map, f, letters) == outcome(old.apply_map, f, letters)


@pytest.mark.parametrize("name", MAP_NAMES)
def test_edge_image_matches_oracle(kernel_maps, name):
    f = kernel_maps[name]
    for e in list(f.domain.oriented_edges()) + ["zz", "~zz", "~~" + sorted(f.edge_map)[0]]:
        assert outcome(f.edge_image, e) == outcome(old.edge_image, f, e)


@pytest.mark.parametrize("name", MAP_NAMES)
def test_gate_partition_matches_oracle(kernel_maps, name):
    assert maps.gate_partition(kernel_maps[name]) == old.gate_partition(kernel_maps[name])
    assert maps.illegal_turns(kernel_maps[name]) == old.illegal_turns(kernel_maps[name])


@pytest.mark.parametrize("name", MAP_NAMES)
def test_graph_adjacency_matches_oracle(kernel_maps, name):
    g = kernel_maps[name].domain
    assert list(g.oriented_edges()) == old.oriented_edges(g)
    for v in list(g.vertices) + ["nowhere"]:
        assert list(g.edges_at(v)) == old.edges_at(g, v)


def test_edge_ends_match_oracle(kernel_maps):
    # ids "y" and "~y" side by side: "~~y" reads the record of "~y"
    odd = MarkedGraph(
        ("u", "v"), {"y": OrientedEdge("y", "u", "v"), "~y": OrientedEdge("~y", "v", "v")}
    )
    for g in [f.domain for f in kernel_maps.values()] + [odd]:
        letters = list(g.oriented_edges()) + ["x", "~x", "~~a", "~~y", "~~~y"]
        for e in letters:
            ends = outcome(g.edge_src, e), outcome(g.edge_dst, e)
            expected = outcome(old.edge_src, g, e), outcome(old.edge_dst, g, e)
            if any(isinstance(x, tuple) for x in expected):
                # a letter either oracle lookup refuses is unknown to both, by
                # its own name (the oracle's edge_dst read "~~a" as edge a)
                assert ends == ((UnknownEdge, (e,)),) * 2
            else:
                assert ends == expected
        for e in ("x", "~x"):
            assert outcome(g.edge_src, e)[0] is outcome(g.edge_dst, e)[0] is UnknownEdge


# --- words ----------------------------------------------------------------


@pytest.mark.parametrize("name", MAP_NAMES)
@given(raw=indices, more=st.lists(indices, max_size=4))
@SETTINGS
def test_word_kernels_match_oracle(kernel_maps, name, raw, more):
    images = induced_outer_automorphism(kernel_maps[name], check=False)
    symbols = sorted(images)
    alphabet = symbols + [words.inv(s) for s in symbols]
    w = letters_of(alphabet, raw)
    assert words.free_reduce(w) == old.free_reduce(w)
    assert words.cyclic_reduce(w) == old.cyclic_reduce(w)
    pieces = [w] + [letters_of(alphabet, m) for m in more]
    assert words.concat(*pieces) == old.concat(*pieces)
    for k in (1, 2):
        power = old.power_images(images, k)
        assert words.power_images(images, k) == power
        assert words.apply_images(power, w) == old.apply_images(power, w)
    missing = dict(images)
    del missing[symbols[-1]]
    assert outcome(words.apply_images, missing, w) == outcome(old.apply_images, missing, w)


@given(raw=indices, image_picks=st.lists(indices, min_size=2, max_size=2))
@SETTINGS
def test_apply_images_with_unreduced_images(raw, image_picks):
    alphabet = ["a", "b", "~a", "~b"]
    images = {s: letters_of(alphabet, p) for s, p in zip("ab", image_picks)}
    w = letters_of(alphabet, raw)
    assert words.apply_images(images, w) == old.apply_images(images, w)


# --- searches at the benchmark's bounds -------------------------------------

PERIOD_BOUND, LENGTH_BOUND, K_MAX, P_MAX = 2, 5, 6, 2


@pytest.mark.parametrize("name", MAP_NAMES)
def test_nielsen_search_matches_oracle(kernel_maps, name, monkeypatch):
    f = kernel_maps[name]
    fr = map_power(f, rotationless_power(f, K_MAX))
    new_vertex = searches._vertex_nielsen_paths(fr, PERIOD_BOUND, LENGTH_BOUND)
    new = maps.find_nielsen_paths(fr, PERIOD_BOUND, LENGTH_BOUND)
    assert new_vertex == old._vertex_nielsen_paths(fr, PERIOD_BOUND, LENGTH_BOUND)
    monkeypatch.setattr(maps, "apply_map", old.apply_map)
    monkeypatch.setattr(searches, "_vertex_nielsen_paths", old._vertex_nielsen_paths)
    assert new == maps.find_nielsen_paths(fr, PERIOD_BOUND, LENGTH_BOUND)


@pytest.mark.parametrize("name", MAP_NAMES)
def test_toroidality_search_matches_oracle(kernel_maps, name):
    f = kernel_maps[name]
    assert maps.is_atoroidal(f, P_MAX, LENGTH_BOUND) == old.is_atoroidal(f, P_MAX, LENGTH_BOUND)


# --- incremental searches on random inputs ----------------------------------


SYMBOLS = ("a", "b", "c", "x", "y0", "e@0", "e@1")


def least_rotations(symbols, n):
    """The oracle's cyclically reduced words of length n that are least
    among their rotations in the letter order a, ~a, b, ~b, ..."""
    letters = [x for s in sorted(symbols) for x in (s, words.inv(s))]
    rank = {x: i for i, x in enumerate(letters)}
    out = []
    for w in old.enumerate_reduced_words(symbols, n, cyclically_reduced=True):
        key = [rank[x] for x in w]
        if len(w) == n and all(key <= key[i:] + key[:i] for i in range(n)):
            out.append(w)
    return out


@given(
    symbols=st.sets(st.sampled_from(SYMBOLS), min_size=1, max_size=4),
    n=st.integers(min_value=1, max_value=5),
)
@SETTINGS
def test_necklace_walk_yields_the_least_rotations(symbols, n):
    # each state is the word spelled so far, grown one letter at a time
    walked = list(searches._necklaces(symbols, n, lambda word, x: word + (x,), ()))
    assert [w for w, _ in walked] == least_rotations(symbols, n)
    assert all(state == w for w, state in walked)


def test_necklace_walk_keeps_periodic_words():
    # (a b)^2 and a^4 are least rotations with a period that divides n
    walked = [w for w, _ in searches._necklaces(("a", "b"), 4, lambda word, x: None, None)]
    assert ("a", "b", "a", "b") in walked and ("a", "a", "a", "a") in walked
    assert ("a", "b", "a", "~b") in walked and ("a", "~b", "a", "b") not in walked
    assert ("b", "a", "b", "a") not in walked


def _walk(g, start, picks):
    """Reduced edge path from ``start`` that follows ``picks`` (modulo the options)."""
    path, v = [], start
    for c in picks:
        options = [d for d in sorted(g.edges_at(v)) if not path or d != words.inv(path[-1])]
        if not options:
            break
        path.append(options[c % len(options)])
        v = g.edge_dst(path[-1])
    return tuple(path)


@st.composite
def marked_graphs(draw):
    """Connected graph on 1-3 vertices: a spanning tree t1.. plus 1-3 loops or
    links x1..; at most three edges in all, so paths of length 6 stay few."""
    n = draw(st.integers(min_value=1, max_value=3))
    vertices = [f"v{i}" for i in range(n)]
    edges = {}
    for i in range(1, n):
        ends = (vertices[i], vertices[draw(st.integers(min_value=0, max_value=i - 1))])
        src, dst = ends if draw(st.booleans()) else ends[::-1]
        edges[f"t{i}"] = OrientedEdge(f"t{i}", src, dst)
    for i in range(1, draw(st.integers(min_value=1, max_value=4 - n)) + 1):
        src, dst = (vertices[draw(st.integers(min_value=0, max_value=n - 1))] for _ in "sd")
        edges[f"x{i}"] = OrientedEdge(f"x{i}", src, dst)
    return MarkedGraph(tuple(vertices), edges, frozenset(e for e in edges if e[0] == "t"))


@st.composite
def graph_maps(draw):
    """Identity maps, signed petal permutations of a rose, and arbitrary
    graph maps (each edge to a reduced path between the image vertices,
    train track or not)."""
    kind = draw(st.sampled_from(("identity", "permutation", "arbitrary")))
    if kind == "permutation":
        petals = ("a", "b", "c")[: draw(st.integers(min_value=1, max_value=3))]
        order = draw(st.permutations(petals))
        signs = draw(st.lists(st.booleans(), min_size=len(petals), max_size=len(petals)))
        images = {p: (q if s else words.inv(q),) for p, q, s in zip(petals, order, signs)}
        return GraphMap(rose(petals), {"v0": "v0"}, images)
    g = draw(marked_graphs())
    if kind == "identity":
        return GraphMap(g, {v: v for v in g.vertices}, {e: (e,) for e in g.edges})
    vertex_map = {v: draw(st.sampled_from(g.vertices)) for v in g.vertices}
    loop_edge = next(e for e in sorted(g.edges) if e[0] == "x")
    edge_map = {}
    for e in sorted(g.edges):
        start, end = vertex_map[g.edge_src(e)], vertex_map[g.edge_dst(e)]
        walk = _walk(g, start, draw(st.lists(st.integers(min_value=0, max_value=9), max_size=3)))
        image = words.free_reduce(walk + g.tree_path(g.path_dst(walk) or start, end))
        if not image:  # a closed walk that cancelled: go round a non-tree edge instead
            image = words.free_reduce(
                g.tree_path(start, g.edge_src(loop_edge))
                + (loop_edge,)
                + g.tree_path(g.edge_dst(loop_edge), start)
            )
        edge_map[e] = image
    return GraphMap(g, vertex_map, edge_map)


@given(
    f=graph_maps(),
    period_bound=st.integers(min_value=1, max_value=3),
    length_bound=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=80, deadline=None)
def test_nielsen_search_matches_oracle_on_random_maps(f, period_bound, length_bound):
    assert f.validate() == []
    new = searches._vertex_nielsen_paths(f, period_bound, length_bound)
    assert new == old._vertex_nielsen_paths(f, period_bound, length_bound)
    found = maps.find_nielsen_paths(f, period_bound, length_bound)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(maps, "apply_map", old.apply_map)
        patch.setattr(searches, "_vertex_nielsen_paths", old._vertex_nielsen_paths)
        assert found == maps.find_nielsen_paths(f, period_bound, length_bound)


@given(
    f=graph_maps(),
    power_bound=st.integers(min_value=1, max_value=3),
    length_bound=st.integers(min_value=1, max_value=5),
)
@SETTINGS
def test_toroidality_search_matches_oracle_on_random_maps(f, power_bound, length_bound):
    assert maps.is_atoroidal(f, power_bound, length_bound) == old.is_atoroidal(
        f, power_bound, length_bound
    )


@given(f=graph_maps())
@SETTINGS
def test_power_table_matches_iterated_map_on_random_maps(f):
    for p in range(1, 5):
        level = f._images.power(p)
        for d in f.domain.oriented_edges():
            assert level[d] == old.iterate_map(f, (d,), p)
        assert map_power(f, p).edge_map == {e: level[e] for e in f.domain.edges}
    assert f._images.power(2) is f._images.power(2)
    identity = map_power(f, 0)
    assert identity.vertex_map == {v: v for v in f.domain.vertices}
    assert identity.edge_map == {e: (e,) for e in f.domain.edges}


def test_nielsen_search_builds_each_power_once(kernel_maps, monkeypatch):
    # the vertex and interior searches read one table of the map: periods
    # 1..3 build two composed levels, not two per search
    levels = []

    class Counted(words._Power):
        def __init__(self, first, below):
            levels.append(1)
            super().__init__(first, below)

    monkeypatch.setattr(words, "_Power", Counted)
    plast = kernel_maps["PLAST"]
    f = GraphMap(plast.domain, plast.vertex_map, plast.edge_map)
    maps.find_nielsen_paths(f, 3, LENGTH_BOUND)
    assert len(levels) == 2


FIXED_TOROIDALITY_MAPS = {
    # symbols created in the order h00, a@1, which sorts as a@1, h00
    "relabeled-FIB": ({"h00": ("h00", "a@1"), "a@1": ("h00",)}, 2, 5, True),
    # the plastic map, atoroidal: the search runs to its bound
    "PLAST": ({"a": ("b",), "b": ("c",), "c": ("a", "b")}, 3, 5, False),
    # a -> b -> c -> d -> a b in rank 4, created in reverse sort order;
    # no class is fixed within the bound either
    "rank-4": ({"d": ("a", "b"), "c": ("d",), "b": ("c",), "a": ("b",)}, 3, 5, False),
}


@pytest.mark.parametrize("name", sorted(FIXED_TOROIDALITY_MAPS))
def test_toroidality_search_matches_oracle_at_its_bound(name):
    images, power_bound, length_bound, toroidal = FIXED_TOROIDALITY_MAPS[name]
    f = GraphMap(rose(tuple(images)), {"v0": "v0"}, images)
    verdict = maps.is_atoroidal(f, power_bound, length_bound)
    assert verdict == old.is_atoroidal(f, power_bound, length_bound)
    assert verdict.toroidal == toroidal


@given(f=graph_maps())
@SETTINGS
def test_gate_partition_matches_oracle_on_random_maps(f):
    assert maps.gate_partition(f) == old.gate_partition(f)


def test_gates_whose_orbits_meet_late():
    # x0 -> x1 -> ... -> x9 -> c and y -> c, c -> c on a rose: the orbits of
    # x0 and y first meet at step 10 (of 24 directions)
    xs = [f"x{i}" for i in range(10)]
    images = {x: (nxt,) for x, nxt in zip(xs, xs[1:] + ["c"])}
    images.update(y=("c",), c=("c",))
    f = GraphMap(rose(sorted(images)), {"v0": "v0"}, images)
    gates = maps.gate_partition(f)
    assert gates == old.gate_partition(f)
    assert frozenset(xs + ["y", "c"]) in gates


def assert_graph_walkers_match_oracle(g):
    """Tree paths, connectivity, validation and the breadth-first marking of
    ``g`` against the walkers with their own adjacency."""
    for u in g.vertices:
        for v in g.vertices:
            assert g.tree_path(u, v) == old.tree_path(g, u, v)
    assert g.is_connected() == old.is_connected(g)
    assert validate_graph(g) == old.validate_graph(g)
    marked = bfs_marked_graph(g.vertices, g.edges)
    assert marked.spanning_tree == old._bfs_tree(g.vertices, g.edges)
    assert (marked.vertices, marked.edges) == (g.vertices, g.edges)


@pytest.mark.parametrize(
    "name,m",
    [("FIB", 2), ("FIB", 3), ("PLAST", 2), ("PLAST", 3), ("A3", 2), ("A3", 3)],
)
def test_gate_partition_matches_oracle_on_lifts(kernel_maps, name, m):
    # multi-vertex maps: the lift of f^k to every index-m cover H with f^k(H) = H;
    # A3's lifts at k = 6 take half a minute each, so its index-3 covers stop at 4
    f = kernel_maps[name]
    images = induced_outer_automorphism(f)
    lifts = 0
    subgroups = enumerate_subgroups(len(images), m, symbols=sorted(images))
    powers = invariant_powers(images, subgroups, 4 if (name, m) == ("A3", 3) else 7)
    for H, k in zip(subgroups, powers):
        cover = build_cover(f.domain, H)
        lifted = None if k is None else lift_map(f, cover, k)
        if lifted is not None:
            assert maps.gate_partition(lifted) == old.gate_partition(lifted)
            assert maps.illegal_turns(lifted) == old.illegal_turns(lifted)
            lifts += 1
        total = cover.total
        assert total.spanning_tree == old._bfs_tree(total.vertices, total.edges)
        assert_graph_walkers_match_oracle(total)
    assert lifts


@given(f=graph_maps())
@settings(max_examples=200, deadline=None)
def test_illegal_turns_and_graph_walkers_match_oracle_on_random_maps(f):
    assert maps.illegal_turns(f) == old.illegal_turns(f)
    assert_graph_walkers_match_oracle(f.domain)


def _graph(vertices, edges, tree):
    return MarkedGraph(
        tuple(vertices),
        {e: OrientedEdge(e, src, dst) for e, (src, dst) in edges.items()},
        frozenset(tree),
    )


TRIANGLE = {"t1": ("u", "v"), "t2": ("v", "w"), "x": ("w", "u"), "y": ("u", "u")}
DAMAGED_GRAPHS = {
    "tree-missing-a-vertex": _graph("uvw", TRIANGLE, {"t1"}),
    "tree-with-a-cycle": _graph("uvw", {**TRIANGLE, "t0": ("v", "u")}, {"t0", "t1"}),
    "tree-edge-not-an-edge": _graph("uvw", TRIANGLE, {"t1", "t2", "zz"}),
    "disconnected": _graph(
        "uvwz", {**TRIANGLE, "z1": ("z", "z"), "z2": ("z", "z")}, {"t1", "t2"}
    ),
    "sound": _graph("uvw", TRIANGLE, {"t1", "t2"}),
}


@pytest.mark.parametrize("name", sorted(DAMAGED_GRAPHS))
def test_validate_graph_matches_oracle_on_damaged_graphs(name):
    g = DAMAGED_GRAPHS[name]
    verdict = validate_graph(g)
    assert verdict == old.validate_graph(g)
    assert g.is_connected() == old.is_connected(g)
    assert bool(verdict) == (name != "sound")


@st.composite
def relabeled_subgroup_graphs(draw):
    """A folded subgroup graph of F(a, b, c) with its states renamed and
    its basepoint moved to an arbitrary state."""
    letters = ("a", "b", "c", "~a", "~b", "~c")
    word = st.lists(st.sampled_from(letters), max_size=8).map(tuple)
    sg = fold_subgroup_graph(draw(st.lists(word, max_size=4)), ("a", "b", "c"))
    names = dict(zip(sg.states, draw(st.permutations([f"s{i}" for i in sg.states]))))
    trans = {(names[s], x): names[t] for (s, x), t in sg.trans.items()}
    basepoint = names[draw(st.sampled_from(sg.states))]
    return SubgroupGraph(sg.symbols, tuple(names.values()), trans, basepoint)


@given(sg=relabeled_subgroup_graphs())
@settings(max_examples=200, deadline=None)
def test_canonical_matches_oracle_on_random_subgroup_graphs(sg):
    new, ref = sg.canonical(), old.canonical(sg)
    assert (new.symbols, new.states, new.trans, new.basepoint) == (
        ref.symbols, ref.states, ref.trans, ref.basepoint
    )


@given(
    raw=st.lists(st.lists(st.sampled_from(("a", "~a", "b", "~b")), max_size=8), max_size=8)
)
@SETTINGS
def test_push_spells_the_reduced_products(raw):
    # each push spells the reduced product so far, and every earlier top
    # still spells its own word
    top, spelled, earlier = searches._ROOT, (), []
    for letters in raw:
        word = old.free_reduce(letters)
        top = searches._push(top, word)
        spelled = old.free_reduce(spelled + word)
        earlier.append((top, spelled))
        for t, w in earlier:
            assert searches._spelled(t) == w and t[4] == len(w)


def test_prune_keeps_a_bound_equal_to_the_length_bound():
    # |f_#(sigma)| = 7, one edge left, edge images of length <= 2: the
    # extension could still have an image of length 7 - 2 = 5 = L.
    assert not searches._beyond_reach([7], [2], 1, 5)
    assert searches._beyond_reach([8], [2], 1, 5)
    # every period must be out of reach, not just one
    assert not searches._beyond_reach([8, 9], [2, 4], 1, 5)
    assert searches._beyond_reach([8, 10], [2, 4], 1, 5)


def test_nielsen_search_at_a_large_period_bound():
    # a -> b, b -> a: every path returns after two steps; 3000 levels must
    # not recurse
    swap = GraphMap(rose(("a", "b")), {"v0": "v0"}, {"a": ("b",), "b": ("a",)})
    found = searches._vertex_nielsen_paths(swap, 3000, 2)
    assert found == old._vertex_nielsen_paths(swap, 3000, 2)
    assert {p for _, p, _ in found} == {2}


@given(g=marked_graphs())
@SETTINGS
def test_tree_path_is_the_reduced_tree_path(g):
    # in a tree the reduced path between two vertices is unique
    for u in g.vertices:
        for v in g.vertices:
            path = g.tree_path(u, v)
            assert all(words.base(d) in g.spanning_tree for d in path)
            assert words.free_reduce(path) == path
            g.check_path(path)
            assert (g.path_src(path), g.path_dst(path)) == ((u, v) if path else (None, None))
            assert bool(path) == (u != v)


# --- Q(lambda): the eigen-metric and the interior search --------------------

ABABB = {"a": ("a", "b", "a", "b", "b"), "b": ("a", "b")}  # interior paths at period 2
TWO_FIB = {"a": ("a", "b"), "b": ("a",), "c": ("c", "d"), "d": ("c",)}  # lam twice


def in_field(field, poly):
    """An integer or Fraction polynomial as an element of the oracle's field."""
    return tuple(Fraction(c) for c in poly) + (Fraction(0),) * (field.degree - len(poly))


def oracle_metric(f, sf):
    """The oracle's field and eigen-metric, normalized as its search does."""
    mat = maps.transition_matrix(f)
    field = spectral_oracle.RootField(sf.min_poly, sf.enclosure)
    lengths = spectral_oracle.pf_left_eigenvector(mat, field)
    if field.sign(lengths[0]) < 0:
        lengths = [field.neg(x) for x in lengths]
    return field, dict(zip(maps.orbit_order(f.domain), lengths))


def assert_interior_search_matches_oracle(f, period_bound, length_bound):
    """Equal carriers, periods, endpoint kinds and edges, and each interior
    point at the same share of its edge as the oracle's point, exactly."""
    new = searches._interior_nielsen_paths(f, period_bound, length_bound)
    ref = spectral_oracle._interior_nielsen_paths(f, period_bound, length_bound)
    assert [(s, p, tuple(end[:2] for end in ends)) for s, p, ends in new] == [
        (s, p, tuple(end[:2] for end in ends)) for s, p, ends in ref
    ]
    if new:
        field, ell = oracle_metric(f, spectral.pf_data(maps.transition_matrix(f))[0])
    for (_, _, ends), (_, _, ref_ends) in zip(new, ref):
        for end, ref_end in zip(ends, ref_ends):
            if end[0] == "interior":
                # share = num/den = t/ell(edge), t the oracle's offset from the same end
                num, den = ([int(c) for c in part.split(",")] for part in end[2].split("/"))
                t = in_field(field, [Fraction(c) for c in ref_end[2].split(",")])
                lhs = field.mul(in_field(field, num), ell[words.base(end[1])])
                assert field.sign(field.sub(lhs, field.mul(t, in_field(field, den)))) == 0


def repeated_pf_root(sf):
    """Whether the PF root is a repeated root of the characteristic
    polynomial.  Its eigenspace can then have dimension 2 or more, and the
    eigen-metric is a choice of vector in it: the oracle's eigenvector has
    the shortest support among the first edges, this package's comes from
    adj(xI - M).  The two agree on direct sums whose blocks are consecutive
    in edge order (``doubled_maps``)."""
    quotient, _ = spectral._divmod_monic(list(sf.char_poly), sf.min_poly)
    return not spectral._divmod_monic(quotient, sf.min_poly)[1]


def simple_pf_root(f):
    mat = maps.transition_matrix(f)
    return not any(map(any, mat)) or not repeated_pf_root(spectral.pf_data(mat)[0])


@pytest.mark.parametrize("name", MAP_NAMES + ("ABABB",))
def test_interior_search_matches_oracle(kernel_maps, name):
    if name == "ABABB":
        f = GraphMap(rose(("a", "b")), {"v0": "v0"}, ABABB)
    else:
        f = kernel_maps[name]
    for g in (f, map_power(f, rotationless_power(f, K_MAX))):
        assert_interior_search_matches_oracle(g, PERIOD_BOUND, LENGTH_BOUND)
    if name == "ABABB":
        found = searches._interior_nielsen_paths(f, 2, 5)
        assert [(s, p, tuple(e[0] for e in ends)) for s, p, ends in found] == [
            (("a", "~b"), 2, ("interior", "interior"))
        ]


@given(
    f=graph_maps(),
    period_bound=st.integers(min_value=1, max_value=3),
    length_bound=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=100, deadline=None)
def test_interior_search_matches_oracle_on_random_maps(f, period_bound, length_bound):
    assume(simple_pf_root(f))
    assert_interior_search_matches_oracle(f, period_bound, length_bound)


@st.composite
def positive_rose_maps(draw, petals=("a", "b", "c")):
    """Roses on two or more of ``petals``, each petal to a positive word of
    length <= 5."""
    petals = petals[: draw(st.integers(min_value=2, max_value=len(petals)))]
    word = st.lists(st.sampled_from(petals), min_size=1, max_size=5).map(tuple)
    return GraphMap(rose(petals), {"v0": "v0"}, {p: draw(word) for p in petals})


@given(f=positive_rose_maps(), period_bound=st.integers(min_value=1, max_value=3))
@settings(max_examples=80, deadline=None)
def test_interior_search_matches_oracle_on_positive_roses(f, period_bound):
    assume(simple_pf_root(f))
    assert_interior_search_matches_oracle(f, period_bound, 6)


@st.composite
def doubled_maps(draw):
    """A positive rose map on a, b beside its copy on c, d: the PF root is
    repeated and its eigenspace is a plane."""
    f = draw(positive_rose_maps(petals=("a", "b")))
    copy = {"a": "c", "b": "d"}
    images = dict(f.edge_map)
    images.update({copy[e]: tuple(copy[x] for x in w) for e, w in f.edge_map.items()})
    return GraphMap(rose(("a", "b", "c", "d")), {"v0": "v0"}, images)


@given(f=doubled_maps(), period_bound=st.integers(min_value=1, max_value=2))
@settings(max_examples=40, deadline=None)
def test_interior_search_matches_oracle_on_doubled_maps(f, period_bound):
    assert_interior_search_matches_oracle(f, period_bound, 5)


def test_a_repeated_pf_root_takes_the_first_block_eigenvector():
    # two disjoint FIB blocks: lam's eigenspace is a plane and
    # adj(lam I - M) = 0; the next Taylor coefficient gives the golden
    # eigenvector on a, b, as the oracle's solver does
    f = GraphMap(rose(("a", "b", "c", "d")), {"v0": "v0"}, TWO_FIB)
    mat = maps.transition_matrix(f)
    sf, _ = spectral.pf_data(mat)
    lengths = spectral.pf_left_eigenvector(mat, sf)
    assert lengths[2:] == [[], []]
    assert spectral._divmod_monic(spectral._mul(lengths[1], [0, 1]), sf.min_poly)[1] == lengths[0]
    assert spectral._sign(lengths[1], sf) == 1
    assert_interior_search_matches_oracle(f, PERIOD_BOUND, LENGTH_BOUND)
    assert searches._interior_nielsen_paths(f, PERIOD_BOUND, LENGTH_BOUND) == []


def square_matrices(max_size, max_entry):
    return st.integers(min_value=1, max_value=max_size).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=0, max_value=max_entry), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )


@given(mat=square_matrices(5, 3))
@settings(max_examples=200, deadline=None)
def test_pf_left_eigenvector_is_a_positive_multiple_of_the_oracles(mat):
    assume(any(map(any, mat)))
    sf, _ = spectral.pf_data(mat)
    v = spectral.pf_left_eigenvector(mat, sf)
    n = len(mat)
    # a nonzero, nonnegative vM = lam v, exactly, in Z[lam] modulo the minimal polynomial
    for j in range(n):
        vm = []
        for i in range(n):
            vm = spectral._add(vm, [mat[i][j] * c for c in v[i]])
        assert vm == spectral._divmod_monic(spectral._mul([0, 1], v[j]), sf.min_poly)[1]
    assert any(v) and all(spectral._sign(x, sf) >= 0 for x in v)
    if repeated_pf_root(sf):
        return  # the eigenvector is a choice (see repeated_pf_root)
    # v = kappa w for the oracle's w, with kappa > 0
    field = spectral_oracle.RootField(sf.min_poly, sf.enclosure)
    w = spectral_oracle.pf_left_eigenvector(mat, field)
    k = next(i for i, x in enumerate(w) if any(x))
    vf = [in_field(field, x) for x in v]
    for i in range(n):
        assert field.sign(field.sub(field.mul(vf[i], w[k]), field.mul(vf[k], w[i]))) == 0
    assert field.sign(vf[k]) == field.sign(w[k]) == 1
