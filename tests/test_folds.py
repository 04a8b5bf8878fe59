from fractions import Fraction

import pytest

from fibercomm.errors import PreconditionFailed
from fibercomm.folds import stallings_fold, subdivide_map
from fibercomm.graph import rank
from fibercomm.maps import is_train_track, transition_matrix
from fibercomm.spectral import pf_data
from fibercomm.whitehead import principal_vertices
from fibercomm.words import base, inv, is_positive


def _push(event, path):
    out = []
    for d in path:
        q = event.quotient[base(d)] if is_positive(d) else inv(event.quotient[base(d)])
        out.append(q)
    from fibercomm.words import free_reduce

    return free_reduce(tuple(out))


def test_fold_commutes_edge_by_edge(foldme):
    folded, event = stallings_fold(foldme, "e1", "e2")
    assert not folded.validate()
    for e in foldme.domain.edges:
        lhs = _push(event, foldme.edge_image(e))
        target = event.quotient[e]
        rhs = folded.edge_image(target)
        assert lhs == rhs


def test_fold_preserves_stretch_factor(foldme):
    folded, _ = stallings_fold(foldme, "e1", "e2")
    before, _ = pf_data(transition_matrix(foldme))
    after, _ = pf_data(transition_matrix(folded))
    # both enclosures trap the same algebraic number
    assert max(before.enclosure[0], after.enclosure[0]) <= min(
        before.enclosure[1], after.enclosure[1]
    )
    assert before.min_poly == after.min_poly


def test_fold_result_is_train_track(foldme):
    folded, event = stallings_fold(foldme, "e1", "e2")
    assert event.train_track
    verdict = is_train_track(folded)
    assert verdict.is_train_track and verdict.irreducible
    assert rank(folded.domain) == rank(foldme.domain)


def test_fold_principal_vertices_biject(foldme):
    folded, event = stallings_fold(foldme, "e1", "e2")
    before, _ = principal_vertices(foldme)
    after, _ = principal_vertices(folded)
    assert sorted({event.vertex_quotient[v] for v in before}) == sorted(after)


def test_fold_rejects_mismatched_images(fib):
    with pytest.raises(PreconditionFailed):
        stallings_fold(fib, "a", "b")


def test_subdivide_map_stays_valid(fib):
    f2, pieces = subdivide_map(fib, ["a"], Fraction(1, 2), 1)
    assert not f2.validate()
    assert len(pieces["a"]) == 2
    assert rank(f2.domain) == 2

