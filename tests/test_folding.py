"""Worklist Stallings folding against the rescanning folder it replaced
(``fold_oracle``), and the shared union–find."""

import pytest
from hypothesis import given, settings, strategies as st

import fold_oracle as old
from fibercomm import covers
from fibercomm.errors import NotAnAutomorphism
from fibercomm.unionfind import UnionFind
from fibercomm.words import power_images

FIB = {"a": ("a", "b"), "b": ("a",)}


@st.composite
def generator_lists(draw, max_words=5):
    """Unreduced words over a basis of rank 2–4, empty and one-letter words
    included."""
    symbols = tuple("abcd"[: draw(st.integers(2, 4))])
    letters = symbols + tuple("~" + x for x in symbols)
    word = st.lists(st.sampled_from(letters), max_size=10).map(tuple)
    return symbols, draw(st.lists(word, max_size=max_words))


def fields(sg):
    return sg.symbols, sg.states, sg.trans, sg.basepoint


@given(generator_lists())
@settings(max_examples=300, deadline=None)
def test_fold_matches_oracle(drawn):
    symbols, gens = drawn
    assert fields(covers.fold_subgroup_graph(gens, symbols)) == fields(
        old.fold_subgroup_graph(gens, symbols)
    )


def test_fib_twentieth_power_images_fold_to_full_group():
    images = power_images(FIB, 20)
    assert sum(len(w) for w in images.values()) == 28657
    folded = covers.fold_subgroup_graph(list(images.values()), ("a", "b"))
    assert fields(folded) == fields(covers.full_group(("a", "b")))


def test_invariant_powers_check_the_automorphism_once(monkeypatch, parity_subgroup):
    calls = []
    check = covers.check_automorphism

    def counted(images, symbols):
        calls.append(symbols)
        return check(images, symbols)

    monkeypatch.setattr(covers, "check_automorphism", counted)
    subgroups = covers.enumerate_subgroups(2, 2)
    powers = covers.invariant_powers(FIB, subgroups, 6)
    assert powers[subgroups.index(parity_subgroup)] == 3
    assert len(calls) == 1
    with pytest.raises(NotAnAutomorphism):
        covers.invariant_powers({"a": ("a", "a"), "b": ("b",)}, subgroups, 6)


def test_union_find_keeps_the_second_representative():
    sets = UnionFind()
    assert sets.find("x") == "x"
    assert sets.union("x", "y") and sets.union("z", "y")
    assert not sets.union("x", "z")
    assert {sets.find(v) for v in "xyz"} == {"y"}
    assert sets.union("y", "w") and sets.find("x") == "w"
