"""Stallings folds of train track maps and the fold-to-identify procedure.

A fold identifies two edges that leave a common vertex and carry the same
image; partial folds are realized as exact rational subdivision followed by
a full-edge fold, so every step stays combinatorial.
"""

import json
from fractions import Fraction

from .errors import PreconditionFailed
from .graph import MarkedGraph, OrientedEdge, bfs_marked_graph
from .maps import GraphMap, apply_map, is_train_track
from .record import factory, record
from .words import base, free_reduce, inv, is_positive


@record
class FoldEvent:
    e1: str
    e2: str
    quotient: dict  # old oriented edge -> new oriented edge
    vertex_quotient: dict  # old vertex -> new vertex
    train_track: bool = True

    def to_json_dict(self):
        return {
            "kind": "fold",
            "e1": self.e1,
            "e2": self.e2,
            "quotient": {k: v for k, v in sorted(self.quotient.items())},
            "vertex_quotient": dict(sorted(self.vertex_quotient.items())),
            "train_track": self.train_track,
        }


@record
class SubdivisionEvent:
    edges: tuple  # positive edge ids subdivided in this step
    parameter: Fraction  # split point along each edge
    split_choice: int  # image-path split index (lexicographically least viable)

    def to_json_dict(self):
        return {
            "kind": "subdivide",
            "edges": list(self.edges),
            "parameter": str(self.parameter),
            "split_choice": self.split_choice,
        }


@record
class FoldSequence:
    events: list = factory(list)
    result: GraphMap = None

    def to_json(self):
        return json.dumps(
            {"events": [ev.to_json_dict() for ev in self.events]},
            sort_keys=True,
            indent=2,
        )


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


# --- points and subdivision ---------------------------------------------


def normalize_point(g: MarkedGraph, pt):
    """Canonical form of a point: a vertex name or ``(positive edge, t)``
    with 0 < t < 1."""
    if isinstance(pt, str):
        if pt not in g.vertices:
            raise ValueError(f"unknown vertex {pt}")
        return pt
    e, t = pt
    t = Fraction(t)
    if not is_positive(e):
        e, t = base(e), 1 - t
    if t == 0:
        return g.edge_src(e)
    if t == 1:
        return g.edge_dst(e)
    if not (0 < t < 1):
        raise ValueError("edge parameter out of range")
    return (e, t)


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


# --- fold-to-identify ----------------------------------------------------


def _candidate_paths(g: MarkedGraph, x, y, max_len, cap=20000):
    """Reduced edge paths from x to y by (length, lex) order, bounded."""
    frontier = [((), x)]
    count = 0
    for _ in range(max_len):
        nxt = []
        for path, v in frontier:
            for d in sorted(g.edges_at(v)):
                if path and d == inv(path[-1]):
                    continue
                newp = path + (d,)
                w = g.edge_dst(d)
                if w == y:
                    yield newp
                count += 1
                if count > cap:
                    return
                nxt.append((newp, w))
        frontier = nxt


def _collapses(f: GraphMap, path, k_max):
    """Least k <= k_max with the tightened g^k-image of the path trivial."""
    for k in range(1, k_max + 1):
        path = apply_map(f, path)
        if not path:
            return k
    return None


def fold_to_identify(f: GraphMap, x, y, k_max):
    """Subdivide and fold until the two points are identified, if some
    iterate of the map collapses the segment between them.

    Returns a FoldSequence on success, None (not identifiable within the
    bounds) otherwise.  The procedure folds innermost edge pairs of the
    connecting path whose images share a prefix, taking the lexicographically
    least viable split and recording every choice in the event log.
    """
    x = normalize_point(f.domain, x)
    y = normalize_point(f.domain, y)
    if x == y:
        return FoldSequence([], f)

    events = []
    current = f

    # interior pair at the same parameter on edges with a common initial
    # vertex and equal images: one joint subdivision, one fold
    if (
        isinstance(x, tuple)
        and isinstance(y, tuple)
        and x[0] != y[0]
        and x[1] == y[1]
        and current.domain.edge_src(x[0]) == current.domain.edge_src(y[0])
        and current.edge_image(x[0]) == current.edge_image(y[0])
        and current.domain.edge_length(x[0]) == current.domain.edge_length(y[0])
    ):
        try:
            f2, pieces = subdivide_map(current, [x[0], y[0]], x[1], 1)
        except PreconditionFailed:
            return None
        events.append(SubdivisionEvent((x[0], y[0]), x[1], 1))
        d1, d2 = pieces[x[0]][0], pieces[y[0]][0]
        f3, ev = stallings_fold(f2, d1, d2, require_train_track=False)
        events.append(ev)
        return FoldSequence(events, f3)

    # realize interior points as vertices first
    try:
        current, x = _vertexify(current, x, events)
        if isinstance(y, tuple):
            y = _transport_point(events, y)
        current, y = _vertexify(current, y, events)
    except PreconditionFailed:
        return None

    for _ in range(4 * len(current.domain.edges) + 4):
        if x == y:
            return FoldSequence(events, current)
        collapsing = None
        for path in _candidate_paths(
            current.domain, x, y, 2 * len(current.domain.edges) + 2
        ):
            if _collapses(current, path, k_max) is not None:
                collapsing = path
                break
        if collapsing is None:
            return None
        step = _fold_step(current, collapsing, events)
        if step is None:
            return None
        current, x, y = step[0], _transport(step[1], x), _transport(step[1], y)
    return None


def _transport_point(events, pt):
    """Re-express an interior point after the subdivisions recorded so far."""
    e, t = pt
    for ev in events:
        if not isinstance(ev, SubdivisionEvent) or e not in ev.edges:
            continue
        t0 = ev.parameter
        if t == t0:
            return pt  # becomes the new vertex; caller resolves via normalize
        if t < t0:
            e, t = f"{e}.0", t / t0
        else:
            e, t = f"{e}.1", (t - t0) / (1 - t0)
    return (e, t)


def _vertexify(f, pt, events):
    if isinstance(pt, str):
        return f, pt
    pt = normalize_point(f.domain, pt)
    if isinstance(pt, str):
        return f, pt
    e, t = pt
    img = f.edge_image(e)
    if len(img) < 2:
        raise PreconditionFailed("interior point on an edge with single-edge image")
    f2, pieces = subdivide_map(f, [e], t, 1)
    events.append(SubdivisionEvent((e,), t, 1))
    return f2, f2.domain.edge_dst(pieces[e][0])


def _transport(vq, v):
    return vq.get(v, v)


def _fold_step(f: GraphMap, path, events):
    """One fold along the connecting path; returns (new map, vertex quotient)."""
    g = f.domain
    for i in range(len(path) - 1):
        d1, d2 = inv(path[i]), path[i + 1]
        if base(d1) == base(d2):
            continue
        im1, im2 = f.edge_image(d1), f.edge_image(d2)
        if im1 == im2 and g.edge_length(d1) == g.edge_length(d2):
            f2, ev = stallings_fold(f, d1, d2, require_train_track=False)
            events.append(ev)
            return f2, ev.vertex_quotient
    # no direct fold: split a pair with a shared image prefix
    for i in range(len(path) - 1):
        d1, d2 = inv(path[i]), path[i + 1]
        if base(d1) == base(d2):
            continue
        im1, im2 = f.edge_image(d1), f.edge_image(d2)
        c = _common_prefix(im1, im2)
        if not c:
            continue
        split = len(c)
        f2 = f
        vq = {}
        new_d1, new_d2 = d1, d2
        # subdivide whichever edges map beyond the common prefix
        ln = min(g.edge_length(d1), g.edge_length(d2))
        t = Fraction(1, 2)
        for d, im in ((d1, im1), (d2, im2)):
            if len(im) > split:
                f2, pieces = subdivide_map(
                    f2, [base(d)], t if is_positive(d) else 1 - t, split if is_positive(d) else len(im) - split
                )
                events.append(
                    SubdivisionEvent((base(d),), t if is_positive(d) else 1 - t, split)
                )
                p0, p1 = pieces[base(d)]
                if d == d1:
                    new_d1 = p0 if is_positive(d) else inv(p1)
                else:
                    new_d2 = p0 if is_positive(d) else inv(p1)
        # lengths must agree for a full-edge fold; rescale is not allowed, so
        # only fold when the pieces now match
        if f2.domain.edge_length(new_d1) != f2.domain.edge_length(new_d2):
            f2 = _match_lengths(f2, new_d1, new_d2)
            if f2 is None:
                return None
        if f2.edge_image(new_d1) != f2.edge_image(new_d2):
            return None
        f3, ev = stallings_fold(f2, new_d1, new_d2, require_train_track=False)
        events.append(ev)
        return f3, ev.vertex_quotient
    return None


def _match_lengths(f, d1, d2):
    """Equalize two edge lengths by rebuilding one edge's metric; safe because
    edge lengths do not affect the combinatorics of folding."""
    g = f.domain
    target = min(g.edge_length(d1), g.edge_length(d2))
    edges = dict(g.edges)
    for d in (d1, d2):
        data = edges[base(d)]
        edges[base(d)] = OrientedEdge(data.id, data.src, data.dst, target)
    g2 = MarkedGraph(g.vertices, edges, g.spanning_tree, g.basis_labels)
    return GraphMap(g2, f.vertex_map, f.edge_map)


def _common_prefix(p1, p2):
    out = []
    for a, b in zip(p1, p2):
        if a != b:
            break
        out.append(a)
    return tuple(out)
