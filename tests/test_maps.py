import pytest

from fibercomm import spectral
from fibercomm.errors import NotHomotopyEquivalence
from fibercomm.graph import MarkedGraph, rose
from fibercomm.maps import (
    GraphMap,
    apply_map,
    compose,
    find_nielsen_paths,
    gate_partition,
    illegal_turns,
    induced_outer_automorphism,
    is_atoroidal,
    is_train_track,
    iterate_map,
    map_power,
    transition_matrix,
)
from fibercomm.words import apply_images, inverse, power_images


def test_edge_image_reversal(fib):
    assert fib.edge_image("a") == ("a", "b")
    assert fib.edge_image("~a") == ("~b", "~a")


def test_apply_map_tightens(fib):
    # g(b ~a) = a ~b ~a
    assert apply_map(fib, ("b", "~a")) == ("a", "~b", "~a")
    assert apply_map(fib, ("a", "~a")) == ()


def test_compose_matches_power(fib):
    f2 = compose(fib, fib)
    assert f2.edge_map == map_power(fib, 2).edge_map
    assert f2.edge_image("a") == ("a", "b", "a")


def test_transition_matrix(fib):
    mat = transition_matrix(fib)
    assert mat == [[1, 1], [1, 0]]


def test_fib_is_train_track(fib):
    verdict = is_train_track(fib)
    assert verdict.is_train_track
    assert verdict.irreducible


def test_plast_is_train_track(plast):
    verdict = is_train_track(plast)
    assert verdict.is_train_track and verdict.irreducible


def test_foldme_is_train_track_with_expected_illegal_turns(foldme):
    verdict = is_train_track(foldme)
    assert verdict.is_train_track and verdict.irreducible
    assert illegal_turns(foldme) == frozenset(
        {frozenset({"e1", "e2"}), frozenset({"~c1", "~c2"})}
    )


def test_gates_are_invariant_under_direction_map(fib):
    gates = gate_partition(fib)
    dmap = {d: fib.direction_map[d] for d in fib.directions()}
    gate_of = {d: i for i, gate in enumerate(gates) for d in gate}
    for d1 in dmap:
        for d2 in dmap:
            if gate_of[d1] == gate_of[d2]:
                assert gate_of[dmap[d1]] == gate_of[dmap[d2]]


def test_induced_outer_automorphism(fib):
    images = induced_outer_automorphism(fib)
    assert images == {"a": ("a", "b"), "b": ("a",)}


def test_induced_rejects_non_equivalence():
    g = rose(("a", "b"))
    collapse = GraphMap(g, {"v0": "v0"}, {"a": ("a",), "b": ("a",)})
    with pytest.raises(NotHomotopyEquivalence):
        induced_outer_automorphism(collapse)


def test_fib_toroidal_commutator(fib):
    verdict = is_atoroidal(fib, 2, 6)
    assert verdict.toroidal
    assert verdict.witness_word == ("a", "b", "~a", "~b")
    assert verdict.witness_power == 2


def test_toroidal_witness_verifies_directly(fib):
    images = power_images(induced_outer_automorphism(fib), 2)
    from conjugates import conjugate_classes_equal
    from fibercomm.words import cyclic_reduce

    w = ("a", "b", "~a", "~b")
    img, _ = cyclic_reduce(apply_images(images, w))
    assert conjugate_classes_equal(w, img)


def test_fib_nielsen_path(fib):
    paths = find_nielsen_paths(fib, 2, 8)
    indivisible = [p for p in paths if p.indivisible]
    assert len(indivisible) == 1
    np_ = indivisible[0]
    assert np_.path in (("~a", "~b", "a", "b"), inverse(("~a", "~b", "a", "b")))
    assert np_.period == 2
    # fixed up to homotopy: g^2(sigma) tightens back to sigma
    assert iterate_map(fib, np_.path, 2) == np_.path


def test_nielsen_square_is_divisible(fib):
    paths = find_nielsen_paths(fib, 2, 8)
    divisible = [p for p in paths if not p.indivisible]
    assert divisible
    for p in divisible:
        assert iterate_map(fib, p.path, p.period) == p.path


def test_plast_nielsen_free_at_small_bounds(plast):
    assert find_nielsen_paths(plast, 2, 6) == []


def test_validate_reports_images_that_are_not_paths():
    g = rose(("a", "b"))
    f = GraphMap(g, {"v0": "v0"}, {"a": ("a", "zz"), "b": ("a",)})
    assert "image of a is not a path" in f.validate()


def test_validate_propagates_unexpected_errors(fib, monkeypatch):
    def broken(self, path):
        raise RuntimeError("bug in check_path")

    monkeypatch.setattr(MarkedGraph, "check_path", broken)
    with pytest.raises(RuntimeError, match="bug in check_path"):
        fib.validate()


def test_zero_transition_matrix_has_no_interior_nielsen_paths():
    g = rose(("a", "b"))
    collapse = GraphMap(g, {"v0": "v0"}, {"a": (), "b": ()})
    assert find_nielsen_paths(collapse, 2, 3) == []


def test_nielsen_search_propagates_unexpected_pf_errors(fib, monkeypatch):
    def broken(mat):
        raise RuntimeError("bug in pf_data")

    monkeypatch.setattr(spectral, "pf_data", broken)
    with pytest.raises(RuntimeError, match="bug in pf_data"):
        find_nielsen_paths(fib, 2, 3)
