"""Randomized property suites tying the modules together."""

import pytest
from hypothesis import given, settings, strategies as st

from action_oracle import image_subgroup
from extension_oracle import extend_restriction, restriction_images
from fibercomm.covers import (
    build_cover,
    enumerate_subgroups,
    invariant_powers,
    lift_map,
)
from fibercomm.graph import rank
from fibercomm.maps import induced_outer_automorphism
from fibercomm.words import power_images
from kernel_oracle import compose_images, identity_images

# elementary Nielsen transformations of F(a, b)
NIELSEN = [
    {"a": ("a", "b"), "b": ("b",)},
    {"a": ("a", "~b"), "b": ("b",)},
    {"a": ("a",), "b": ("b", "a")},
    {"a": ("~a",), "b": ("b",)},
    {"a": ("b",), "b": ("a",)},
]

moves = st.lists(st.sampled_from(range(len(NIELSEN))), min_size=1, max_size=6)


def compose_moves(ms):
    images = identity_images(("a", "b"))
    for i in ms:
        images = compose_images(NIELSEN[i], images)
    return images


@given(moves)
@settings(max_examples=60, deadline=None)
def test_nielsen_compositions_are_automorphisms(ms):
    images = compose_moves(ms)
    from fibercomm.covers import check_automorphism

    assert check_automorphism(images, ("a", "b"))


@given(moves, st.integers(min_value=0, max_value=2))
@settings(max_examples=40, deadline=None)
def test_extension_recovers_restricted_automorphism(ms, which):
    images = compose_moves(ms)
    H = enumerate_subgroups(2, 2)[which]
    k = invariant_powers(images, enumerate_subgroups(2, 2), 6)[which]
    if k is None:
        return
    powered = power_images(images, k)
    restricted = restriction_images(powered, H)
    verdict = extend_restriction(restricted, H)
    assert verdict.found
    assert verdict.images == powered


@given(st.lists(st.sampled_from(range(len(NIELSEN))), min_size=1, max_size=4),
       st.integers(min_value=0, max_value=2))
@settings(max_examples=30, deadline=None)
def test_image_subgroup_respects_invariance(ms, which):
    images = compose_moves(ms)
    H = enumerate_subgroups(2, 2)[which]
    k = invariant_powers(images, enumerate_subgroups(2, 2), 4)[which]
    if k is None:
        return
    assert image_subgroup(power_images(images, k), H).key() == H.key()
    # smaller powers genuinely move the subgroup
    for j in range(1, k):
        assert image_subgroup(power_images(images, j), H).key() != H.key()


@pytest.mark.parametrize("which", [0, 1, 2])
def test_lift_exists_iff_invariant_power_divides(fib, which):
    H = enumerate_subgroups(2, 2)[which]
    images = induced_outer_automorphism(fib)
    k0 = invariant_powers(images, enumerate_subgroups(2, 2), 6)[which]
    assert k0 == 3
    cover = build_cover(fib.domain, H)
    for k in range(1, 7):
        lifted = lift_map(fib, cover, k)
        if k % k0 == 0:
            assert lifted is not None
            assert rank(lifted.domain) == 3
        else:
            assert lifted is None
