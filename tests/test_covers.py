import json

import pytest
from hypothesis import given, settings, strategies as st

from fibercomm.covers import (
    build_cover,
    check_automorphism,
    enumerate_subgroups,
    extend_restriction,
    fold_subgroup_graph,
    full_group,
    hall_count,
    image_subgroup,
    kernel_of_coset_action,
    lift_map,
    lift_path,
    restriction_images,
    smallest_invariant_power,
    solve_conjugacy,
    subgroup_from_json_dict,
    subgroup_intersection,
    subgroup_to_json_dict,
    subgroups_equal,
)
from fibercomm.graph import rank, rose
from fibercomm.maps import induced_outer_automorphism, map_power
from fibercomm.words import (
    apply_images,
    concat,
    free_reduce,
    inverse,
    power_images,
)

letters = st.sampled_from(["a", "b", "~a", "~b"])
words = st.lists(letters, max_size=8).map(tuple)


# --- subgroup graphs -----------------------------------------------------


def test_hall_counts():
    # M. Hall's recursion for subgroups of index m in F_r
    assert hall_count(2, 2) == 3
    assert hall_count(2, 3) == 13
    assert hall_count(3, 2) == 7
    assert hall_count(3, 3) == 97


@pytest.mark.parametrize("r,m", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_enumeration_matches_hall(r, m):
    subs = enumerate_subgroups(r, m)
    assert len(subs) == hall_count(r, m)
    keys = {H.key() for H in subs}
    assert len(keys) == len(subs)
    assert all(H.index() == m for H in subs)


def test_parity_subgroup_membership(parity_subgroup):
    H = parity_subgroup
    assert H.contains(("a",))
    assert H.contains(("b", "b"))
    assert H.contains(("b", "a", "~b"))
    assert not H.contains(("b",))
    assert not H.contains(("a", "b"))


def test_parity_basis_and_rank(parity_subgroup):
    H = parity_subgroup.canonical()
    assert H.rank() == 3  # Nielsen-Schreier: 2*(2-1)+1
    basis = H.basis()
    assert len(basis) == 3
    for w in basis:
        assert H.contains(w)


def test_express_in_basis_round_trip(parity_subgroup):
    H = parity_subgroup.canonical()
    basis = H.basis()
    gen_symbols = [f"x{i}" for i in range(len(basis))]
    translate = dict(zip(gen_symbols, basis))
    for w in [("a",), ("b", "b"), ("a", "b", "b", "a"), ("b", "a", "a", "~b")]:
        expr = H.express_in_basis(w, gen_symbols=gen_symbols)
        assert free_reduce(apply_images(translate, expr)) == free_reduce(w)


def test_fold_full_group():
    sg = fold_subgroup_graph([("a",), ("b",)], ("a", "b"))
    assert subgroups_equal(sg, full_group(("a", "b")))
    assert sg.index() == 1


@given(words, words)
@settings(max_examples=50, deadline=None)
def test_membership_by_folding_generators(w1, w2):
    sg = fold_subgroup_graph([w1, w2], ("a", "b"))
    for w in (w1, w2, free_reduce(concat(w1, w2)), inverse(w1)):
        assert sg.contains(w)


def test_json_round_trip(parity_subgroup):
    d = subgroup_to_json_dict(parity_subgroup)
    H2 = subgroup_from_json_dict(json.loads(json.dumps(d)))
    assert subgroups_equal(parity_subgroup, H2)


# --- covers --------------------------------------------------------------


def test_double_cover_shape(double_cover):
    c = double_cover
    assert sorted(c.total.vertices) == ["v0@0", "v0@1"]
    assert sorted(c.total.edges) == ["a@0", "a@1", "b@0", "b@1"]
    assert rank(c.total) == 3
    assert c.degree() == 2


def test_euler_scaling_small():
    for r, symbols in ((2, ("a", "b")), (3, ("a", "b", "c"))):
        g = rose(symbols)
        for m in (2, 3):
            for H in enumerate_subgroups(r, m):
                cover = build_cover(g, H)
                assert rank(cover.total) - 1 == m * (rank(g) - 1)


def test_lift_path_projects_back(double_cover):
    c = double_cover
    path, end = lift_path(c, ("a", "b", "b"), "v0@0")
    assert c.project_path(path) == ("a", "b", "b")
    assert len(path) == 3
    assert end == "v0@0"  # a b b has even b-count, so the loop closes up


def test_identification_words(double_cover):
    words_ = double_cover.identification_words(basepoint="v0@0")
    assert words_ == {
        "a@0": ("a",),
        "a@1": ("b", "a", "~b"),
        "b@1": ("b", "b"),
    }


# --- invariance and lifting ----------------------------------------------


def test_smallest_invariant_power_is_three(fib, parity_subgroup):
    images = induced_outer_automorphism(fib)
    assert smallest_invariant_power(images, parity_subgroup, 4) == 3
    # directly: Phi^3(H) = H
    H3 = image_subgroup(power_images(images, 3), parity_subgroup)
    assert subgroups_equal(H3, parity_subgroup)


def test_no_lift_below_invariant_power(fib, double_cover):
    assert lift_map(fib, double_cover, 1) is None
    assert lift_map(fib, double_cover, 2) is None


def test_lift_exists_at_power_three(fib3_lift, double_cover, fib):
    lifted = fib3_lift
    assert not lifted.validate()
    f3 = map_power(fib, 3)
    for e in lifted.domain.edges:
        projected = double_cover.project_path(lifted.edge_image(e))
        assert projected == f3.edge_image(double_cover.edge_projection[e])


def test_lift_induces_restriction(fib, fib3_lift, parity_subgroup, double_cover):
    base_images = power_images(induced_outer_automorphism(fib), 3)
    restricted = restriction_images(base_images, parity_subgroup)
    ident = double_cover.identification_words(basepoint="v0@0")
    lifted_images = induced_outer_automorphism(fib3_lift, basepoint="v0@0")
    # transport the lift's images through the cover identification
    for s, img in lifted_images.items():
        transported = free_reduce(apply_images(ident, img))
        restricted_word = apply_images(
            dict(zip(sorted(restricted), [ident[t] for t in sorted(ident)])),
            restricted[dict(zip(sorted(ident), sorted(restricted)))[s]],
        )
        assert transported == free_reduce(restricted_word)


# --- intersections and kernels -------------------------------------------


def test_subgroup_intersection_index(parity_subgroup):
    H_a = fold_subgroup_graph([("a",), ("b", "a", "~b"), ("b", "b")], ("a", "b"))
    meet = subgroup_intersection(parity_subgroup, H_a)
    assert subgroups_equal(meet, parity_subgroup)
    other = fold_subgroup_graph([("b",), ("a", "b", "~a"), ("a", "a")], ("a", "b"))
    meet2 = subgroup_intersection(parity_subgroup, other)
    assert meet2.index() == 4


def test_kernel_is_normal_and_finite_index(parity_subgroup):
    N = kernel_of_coset_action(parity_subgroup)
    assert N.index() >= 2
    for w in [("a",), ("b",)]:
        conjugated = [
            free_reduce(concat(w, bw, inverse(w))) for bw in N.canonical().basis()
        ]
        for cw in conjugated:
            assert N.contains(cw)


# --- conjugacy solver ----------------------------------------------------


def test_solve_conjugacy_finds_conjugator():
    z = ("a", "b")
    u = ("b", "a", "~b")
    w = free_reduce(concat(u, z, inverse(u)))
    sol = solve_conjugacy(z, w)
    assert sol is not None
    u0, c = sol
    assert free_reduce(concat(u0, z, inverse(u0))) == w
    # centralizer element commutes with z
    assert free_reduce(concat(c, z, inverse(c))) == tuple(z)


def test_solve_conjugacy_negative():
    assert solve_conjugacy(("a",), ("b",)) is None
    assert solve_conjugacy(("a",), ("a", "a")) is None


# --- restriction and extension -------------------------------------------


def test_extend_restriction_recovers_power(fib, parity_subgroup):
    images = power_images(induced_outer_automorphism(fib), 3)
    restricted = restriction_images(images, parity_subgroup)
    verdict = extend_restriction(restricted, parity_subgroup)
    assert verdict.found
    assert verdict.images == images


@pytest.mark.parametrize(
    "images",
    [
        {"a": ("a",), "b": ("b",) + ("a",) * 70},
        {"a": ("a",), "b": ("a",) * 70 + ("b",) + ("~a",) * 70},
    ],
    ids=["b-to-ba70", "inner-by-a70"],
)
def test_extend_restriction_recovers_far_conjugators(images):
    # each image of a is pinned 70 powers out along the centralizer of a,
    # past the old scan's cap of 64
    for H in enumerate_subgroups(2, 2):
        verdict = extend_restriction(restriction_images(images, H), H)
        assert verdict.found
        assert verdict.images == images


def test_extend_restriction_identity(parity_subgroup):
    from fibercomm.words import identity_images

    H = parity_subgroup.canonical()
    gen_symbols = tuple(sorted(f"x{i}" for i in range(H.rank())))
    verdict = extend_restriction(identity_images(gen_symbols), parity_subgroup)
    assert verdict.found
    assert verdict.images == identity_images(("a", "b"))
