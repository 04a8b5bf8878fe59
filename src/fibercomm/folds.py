"""Stallings folds and subdivisions of train track maps.

A fold identifies two edges that leave a common vertex and carry the same
image; partial folds are realized as exact rational subdivision followed by
a full-edge fold, so every step stays combinatorial.
"""

from .errors import PreconditionFailed
from .graph import MarkedGraph, OrientedEdge, bfs_marked_graph
from .maps import GraphMap, is_train_track
from .record import record
from .words import base, free_reduce, inv, is_positive


@record
class FoldEvent:
    e1: str
    e2: str
    quotient: dict  # old oriented edge -> new oriented edge
    vertex_quotient: dict  # old vertex -> new vertex
    train_track: bool = True


def _quotient_letter(q, d):
    return q[d] if is_positive(d) else inv(q[inv(d)])


def stallings_fold(f: GraphMap, e1, e2, require_train_track=True):
    """Fold two edges with a common initial vertex and equal images.

    Returns ``(f', event)`` where f' is the induced map on the folded graph
    and p∘f = f'∘p holds by construction (p the quotient map).
    """
    g = f.domain
    if base(e1) == base(e2):
        raise PreconditionFailed("cannot fold an edge with itself")
    if g.edge_src(e1) != g.edge_src(e2):
        raise PreconditionFailed("edges do not share an initial vertex")
    if f.edge_image(e1) != f.edge_image(e2):
        raise PreconditionFailed("edge images differ")
    if g.edge_length(e1) != g.edge_length(e2):
        raise PreconditionFailed("edge lengths differ")
    if require_train_track:
        verdict = is_train_track(f)
        if not (verdict.is_train_track and verdict.irreducible):
            raise PreconditionFailed("map is not an irreducible train track map")

    t1, t2 = g.edge_dst(e1), g.edge_dst(e2)
    vq = {v: v for v in g.vertices}
    if t1 != t2:
        vq[t2] = t1
    # oriented-edge quotient: e2 collapses onto e1
    eq = {}
    for e in g.edges:
        eq[e] = e
    eq[base(e2)] = e2 if is_positive(e2) else inv(e2)
    # the orbit of e2 maps onto the orbit of e1 respecting the given orientations
    eq[base(e2)] = e1 if is_positive(e2) else inv(e1)

    new_vertices = tuple(sorted({vq[v] for v in g.vertices}))
    new_edges = {}
    for e, data in g.edges.items():
        if e == base(e2):
            continue
        new_edges[e] = OrientedEdge(e, vq[data.src], vq[data.dst], data.length)
    folded = bfs_marked_graph(new_vertices, new_edges)

    def push(path):
        return free_reduce(tuple(_quotient_letter(eq, d) for d in path))

    vertex_map = {}
    for v in g.vertices:
        vertex_map[vq[v]] = vq[f.vertex_map[v]]
    edge_map = {}
    for e in new_edges:
        edge_map[e] = push(f.edge_image(e))
    f2 = GraphMap(folded, vertex_map, edge_map)
    problems = f2.validate()
    if problems:
        raise PreconditionFailed(f"fold does not yield a topological map: {problems}")
    tt = is_train_track(f2)
    event = FoldEvent(e1, e2, eq, vq, train_track=tt.is_train_track)
    return f2, event


# --- subdivision ---------------------------------------------------------


def subdivide_map(f: GraphMap, edges, t, split_index):
    """Subdivide each listed edge at parameter t, splitting each image path
    at ``split_index``; returns the induced map on the subdivided graph."""
    g = f.domain
    for e in edges:
        if len(f.edge_image(e)) < 2:
            raise PreconditionFailed("image too short to split combinatorially")
        if not (0 < split_index < len(f.edge_image(e))):
            raise PreconditionFailed("split index out of range")
    graph = g
    pieces = {}
    from .graph import subdivide

    for e in edges:
        graph, pid = subdivide(graph, e, 2)
        # re-apportion piece lengths to the requested parameter
        ln = g.edge_length(e)
        new_edges = dict(graph.edges)
        d0, d1 = new_edges[pid[0]], new_edges[pid[1]]
        new_edges[pid[0]] = OrientedEdge(d0.id, d0.src, d0.dst, ln * t)
        new_edges[pid[1]] = OrientedEdge(d1.id, d1.src, d1.dst, ln * (1 - t))
        graph = MarkedGraph(graph.vertices, new_edges, graph.spanning_tree, graph.basis_labels)
        pieces[e] = pid

    def expand(path):
        out = []
        for d in path:
            b = base(d)
            if b in pieces:
                p0, p1 = pieces[b]
                out.extend((p0, p1) if is_positive(d) else (inv(p1), inv(p0)))
            else:
                out.append(d)
        return tuple(out)

    vertex_map = {}
    for v in g.vertices:
        vertex_map[v] = f.vertex_map[v]
    edge_map = {}
    for e in g.edges:
        img = expand(f.edge_image(e))
        if e in pieces:
            # the split index is in original letters; recount after expansion
            head = expand(f.edge_image(e)[:split_index])
            p0, p1 = pieces[e]
            edge_map[p0] = head
            edge_map[p1] = img[len(head):]
            mid_vertex = graph.edge_dst(p0)
            vertex_map[mid_vertex] = graph.path_dst(head)
        else:
            edge_map[e] = img
    f2 = GraphMap(graph, vertex_map, edge_map)
    problems = f2.validate()
    if problems:
        raise PreconditionFailed(f"subdivision broke the map: {problems}")
    return f2, pieces

