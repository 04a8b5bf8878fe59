from hypothesis import given, settings, strategies as st

from fibercomm.words import (
    _OrientedImages,
    apply_images,
    base,
    concat,
    cyclic_reduce,
    format_word,
    free_reduce,
    inv,
    inverse,
    parse_word,
    power_images,
)
from conjugates import conjugate_classes_equal
import kernel_oracle as old
from kernel_oracle import (
    compose_images,
    cyclic_rotations,
    enumerate_reduced_words,
    identity_images,
    is_cyclically_reduced,
    is_reduced,
)

SYMBOLS = ("a", "b")
letters = st.sampled_from(["a", "b", "~a", "~b"])
words = st.lists(letters, max_size=12).map(tuple)


def test_inv_and_base():
    assert inv("a") == "~a"
    assert inv("~a") == "a"
    assert base("~a") == "a"
    assert base("a") == "a"


def test_free_reduce_cancels_adjacent_pairs():
    assert free_reduce(("a", "~a")) == ()
    assert free_reduce(("a", "b", "~b", "~a", "a")) == ("a",)
    assert free_reduce(("a", "b")) == ("a", "b")


def test_concat_reduces_at_the_seam():
    assert concat(("a", "b"), ("~b", "a")) == ("a", "a")
    assert concat((), ("a",), ()) == ("a",)


def test_cyclic_reduce_example():
    # u w' u^-1 with w' = b, u = a
    core, conj = cyclic_reduce(("a", "b", "~a"))
    assert core == ("b",)
    assert conj == ("a",)


def test_conjugacy_rotation_only():
    assert conjugate_classes_equal(("a", "b"), ("b", "a"))
    # a class and its inverse are distinct
    assert not conjugate_classes_equal(("a", "b"), inverse(("a", "b")))


def rotation_classes_equal(w1, w2):
    """The rotation-set definition: equal cyclic cores up to rotation."""
    c1, _ = cyclic_reduce(free_reduce(w1))
    c2, _ = cyclic_reduce(free_reduce(w2))
    return len(c1) == len(c2) and c2 in cyclic_rotations(c1)


@given(words, words, words, st.integers(min_value=0, max_value=11))
def test_conjugacy_matches_rotation_sets(w1, w2, u, shift):
    core, _ = cyclic_reduce(w1)
    i = shift % max(1, len(core))
    conjugate = concat(u, core[i:] + core[:i], inverse(u))
    for x, y in ((w1, w2), (w1, conjugate), (conjugate, w1), (w1, inverse(w1)), ((), u)):
        assert conjugate_classes_equal(x, y) == rotation_classes_equal(x, y)
    assert conjugate_classes_equal(w1, conjugate)


def test_conjugacy_of_a_long_fibonacci_word():
    w = power_images({"a": ("a", "b"), "b": ("a",)}, 17)["a"]  # 4181 letters
    assert conjugate_classes_equal(w, w[-3:] + w[:-3])
    assert not conjugate_classes_equal(w, w[-3:] + w[:-4] + ("~a",))
    assert not conjugate_classes_equal(w, inverse(w))


def test_parse_format_round_trip():
    w = ("a", "~b", "a")
    assert parse_word(format_word(w)) == w
    assert parse_word("a b ~a") == ("a", "b", "~a")


def test_apply_images_homomorphism():
    images = {"a": ("a", "b"), "b": ("a",)}
    assert apply_images(images, ("a",)) == ("a", "b")
    assert apply_images(images, ("~a",)) == ("~b", "~a")
    assert apply_images(images, ("a", "~a")) == ()


def test_power_images_matches_repeated_composition():
    images = {"a": ("a", "b"), "b": ("a",)}
    twice = compose_images(images, images)
    assert power_images(images, 2) == twice
    assert power_images(images, 0) == identity_images(("a", "b"))


RANK3 = ("a", "b", "c")


@st.composite
def automorphisms(draw):
    """Composites of up to six elementary Nielsen moves of F(a, b, c):
    x -> x y, x -> y x (y a letter other than x or x^-1) and x -> x^-1."""
    images = identity_images(RANK3)
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        x, y = draw(st.permutations(RANK3))[:2]
        y = draw(st.sampled_from((y, inv(y))))
        move = identity_images(RANK3)
        move[x] = draw(st.sampled_from(((x, y), (y, x), (inv(x),))))
        images = compose_images(move, images)
    return images


@given(automorphisms())
@settings(max_examples=60, deadline=None)
def test_power_table_matches_oracle_on_automorphisms(images):
    table = _OrientedImages(images)
    for p in range(1, 5):
        expected = old.power_images(images, p)
        for s in RANK3:
            assert table.power(p)[s] == expected[s]
            assert table.power(p)[inv(s)] == old.inverse(expected[s])
        assert power_images(images, p) == expected
    assert table.power(3) is table.power(3)
    assert power_images(images, 0) == identity_images(RANK3)


def test_a_deep_power_level_fills_without_recursion():
    # level 5001 is looked up before any level below it holds a letter
    swap = {"a": ("b",), "b": ("a",)}
    assert power_images(swap, 5001) == {"a": ("b",), "b": ("a",)}
    assert _OrientedImages(swap).power(5000)["~a"] == ("~a",)


def test_enumerate_reduced_words_counts():
    # 4 + 12 reduced words of length <= 2 in rank 2
    ws = list(enumerate_reduced_words(SYMBOLS, 2))
    assert len(ws) == 16
    assert all(is_reduced(w) for w in ws)
    assert len(ws) == len(set(ws))


@given(words)
def test_free_reduce_idempotent(w):
    r = free_reduce(w)
    assert free_reduce(r) == r
    assert is_reduced(r)


@given(words)
def test_cyclic_reduce_round_trip(w):
    core, conj = cyclic_reduce(w)
    assert is_cyclically_reduced(core)
    assert free_reduce(concat(conj, core, inverse(conj))) == free_reduce(w)


@given(words)
def test_inverse_involution(w):
    assert inverse(inverse(w)) == w
    assert free_reduce(concat(w, inverse(w))) == ()


@given(words)
def test_rotations_stay_in_class(w):
    core, _ = cyclic_reduce(w)
    for rot in cyclic_rotations(core):
        assert conjugate_classes_equal(core, rot)
