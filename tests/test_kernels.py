"""Differential tests: the table-driven word and path kernels against the
letter-by-letter implementations they replaced (``kernel_oracle``)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import kernel_oracle as old
from fibercomm import maps, words
from fibercomm.errors import UnknownEdge
from fibercomm.graph import rose
from fibercomm.maps import GraphMap, induced_outer_automorphism, map_power
from fibercomm.whitehead import rotationless_power

SETTINGS = settings(max_examples=60, deadline=None)
MAP_NAMES = ("FIB", "PLAST", "A3", "A3b", "FIB3_LIFT2")


def positive_automorphism(seed, moves=8):
    """Seeded composite of positive elementary moves x -> xy, x -> yx on F(a, b, c)."""
    rng = random.Random(seed)
    symbols = ("a", "b", "c")
    images = words.identity_images(symbols)
    for _ in range(moves):
        x, y = rng.sample(symbols, 2)
        move = words.identity_images(symbols)
        move[x] = (x, y) if rng.random() < 0.5 else (y, x)
        images = words.compose_images(move, images)
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
def test_graph_adjacency_matches_oracle(kernel_maps, name):
    g = kernel_maps[name].domain
    assert list(g.oriented_edges()) == old.oriented_edges(g)
    for v in list(g.vertices) + ["nowhere"]:
        assert list(g.edges_at(v)) == old.edges_at(g, v)


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
    new_vertex = maps._vertex_nielsen_paths(fr, PERIOD_BOUND, LENGTH_BOUND)
    new = maps.find_nielsen_paths(fr, PERIOD_BOUND, LENGTH_BOUND)
    assert new_vertex == old._vertex_nielsen_paths(fr, PERIOD_BOUND, LENGTH_BOUND)
    monkeypatch.setattr(maps, "apply_map", old.apply_map)
    monkeypatch.setattr(maps, "_vertex_nielsen_paths", old._vertex_nielsen_paths)
    assert new == maps.find_nielsen_paths(fr, PERIOD_BOUND, LENGTH_BOUND)


@pytest.mark.parametrize("name", MAP_NAMES)
def test_toroidality_search_matches_oracle(kernel_maps, name):
    f = kernel_maps[name]
    assert maps.is_atoroidal(f, P_MAX, LENGTH_BOUND) == old.is_atoroidal(f, P_MAX, LENGTH_BOUND)
