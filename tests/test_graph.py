import json
from fractions import Fraction

import pytest

from fibercomm.errors import NotALoop, UnknownEdge
from fibercomm.graph import (
    MarkedGraph,
    OrientedEdge,
    graph_from_json_dict,
    graph_to_json_dict,
    loop_to_word,
    rank,
    rose,
    validate_graph,
    word_to_loop,
)


def theta_graph():
    edges = {
        "p": OrientedEdge("p", "u", "v"),
        "q": OrientedEdge("q", "u", "v"),
        "r": OrientedEdge("r", "u", "v"),
    }
    return MarkedGraph(("u", "v"), edges, frozenset({"p"}))


def test_rose_shape():
    g = rose(("a", "b"))
    assert g.vertices == ("v0",)
    assert rank(g) == 2
    assert g.basis_symbols() == ("a", "b")


def test_a_letter_with_two_tildes_has_no_ends():
    # edge_dst once read "~~a" as the inverse of "~a", that is as edge a
    g = rose(("a", "b"))
    assert (g.edge_src("~a"), g.edge_dst("~a")) == ("v0", "v0")
    for end in (g.edge_src, g.edge_dst):
        with pytest.raises(UnknownEdge):
            end("~~a")


def test_theta_rank_and_validation():
    g = theta_graph()
    assert rank(g) == 2
    assert validate_graph(g) == []


def test_validate_flags_valence_one():
    edges = {
        "a": OrientedEdge("a", "v0", "v0"),
        "t": OrientedEdge("t", "v0", "v1"),
    }
    g = MarkedGraph(("v0", "v1"), edges, frozenset({"t"}))
    problems = validate_graph(g)
    assert any("valence" in p for p in problems)


def test_validate_reports_a_tree_edge_with_an_unknown_endpoint():
    # the tree walk reads the graph's own adjacency, so an endpoint outside
    # the vertex list is reported rather than raised as a KeyError
    edges = {
        "a": OrientedEdge("a", "v0", "v0"),
        "t": OrientedEdge("t", "v0", "nowhere"),
    }
    g = MarkedGraph(("v0", "v1"), edges, frozenset({"t"}))
    problems = validate_graph(g)
    assert "edge t has unknown endpoint" in problems
    assert "spanning tree does not touch every vertex" in problems


def test_loop_word_round_trip_on_theta():
    g = theta_graph()
    loop = ("q", "~p")  # loop at u through v
    w = loop_to_word(g, loop, "u")
    assert w == ("q",)
    path = word_to_loop(g, w, "u")
    g.check_path(path)
    assert path == loop


def test_word_to_loop_rejects_non_vertex():
    g = theta_graph()
    with pytest.raises(Exception):
        word_to_loop(g, ("missing",), "u")


def test_loop_to_word_rejects_non_loop():
    g = theta_graph()
    with pytest.raises(NotALoop):
        loop_to_word(g, ("p",), "u")


def test_json_round_trip():
    g = theta_graph()
    g2 = graph_from_json_dict(json.loads(json.dumps(graph_to_json_dict(g))))
    assert g2.vertices == g.vertices
    assert set(g2.edges) == set(g.edges)
    assert g2.spanning_tree == g.spanning_tree
    assert g2.basis_labels == g.basis_labels


def test_fractional_lengths_survive_json():
    edges = {"a": OrientedEdge("a", "v0", "v0", Fraction(2, 3))}
    g = MarkedGraph(("v0",), edges)
    g2 = graph_from_json_dict(json.loads(json.dumps(graph_to_json_dict(g))))
    assert g2.edge_length("a") == Fraction(2, 3)
