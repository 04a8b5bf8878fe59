"""Conjugacy of two words, for assertions."""

from fibercomm.covers import solve_conjugacy
from fibercomm.words import free_reduce


def conjugate_classes_equal(w1, w2):
    """Whether two words define the same conjugacy class; a class and its
    inverse are not identified.  ``solve_conjugacy`` needs a nontrivial
    first word, so the trivial class is decided here."""
    if not free_reduce(w1):
        return not free_reduce(w2)
    return solve_conjugacy(w1, w2) is not None
