"""Reference helpers for the Whitehead-graph layer that only the tests use.

``brute_force_automorphisms`` checks every node bijection, the oracle for
``fibercomm.whitehead.graph_automorphisms``; ``leaf_segments`` is the window
g^n(e) into a stable lamination leaf.  Both lived in ``fibercomm.whitehead``
and are kept here unchanged.
"""

from itertools import permutations

from fibercomm.maps import GraphMap, iterate_map
from fibercomm.record import record
from fibercomm.whitehead import WhiteheadGraph


@record
class LeafSegments:
    edge: str
    power: int
    segment: tuple


def leaf_segments(f: GraphMap, e, n):
    """The tightened iterate g^n(e): a finite window into the stable
    lamination leaves."""
    return LeafSegments(e, n, iterate_map(f, (e,), n))


def brute_force_automorphisms(w: WhiteheadGraph):
    """Oracle: exhaustive check of all node bijections."""
    nodes = list(w.nodes)
    adj = w.adjacency()
    autos = []
    for perm in permutations(nodes):
        m = dict(zip(nodes, perm))
        if all((m[d1] in adj[m[d2]]) == (d1 in adj[d2]) for d1 in nodes for d2 in nodes):
            autos.append(m)
    return autos
