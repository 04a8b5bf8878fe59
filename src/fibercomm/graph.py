"""Finite marked metric graphs with an oriented-edge involution.

Oriented edges use the same ``~`` convention as words: each unoriented edge
is a pair ``e`` / ``~e`` of mutually reverse oriented edges.  All lengths are
exact rationals.  A marking is a spanning tree plus labels on the non-tree
edge orbits identifying the fundamental group with a free basis.
"""

from functools import cached_property
from fractions import Fraction

from .errors import DisconnectedGraph, NonIncidentEdges, NotALoop, UnknownEdge
from .record import factory, record
from .words import base, free_reduce, inv, inverse, is_positive


@record
class OrientedEdge:
    id: str
    src: str
    dst: str
    length: Fraction = Fraction(1)


@record
class MarkedGraph:
    """Connected graph with spanning tree marking.

    ``edges`` maps positive edge ids to their data; reversed edges are
    implicit (``~e`` has swapped endpoints and the same length).
    ``basis_labels`` maps each non-tree positive edge id to its basis symbol.
    """

    vertices: tuple
    edges: dict
    spanning_tree: frozenset = frozenset()
    basis_labels: dict = factory(dict)

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "spanning_tree", frozenset(self.spanning_tree))
        if not self.basis_labels:
            labels = {e: e for e in sorted(self.edges) if e not in self.spanning_tree}
            object.__setattr__(self, "basis_labels", labels)

    # --- incidence -----------------------------------------------------

    @cached_property
    def _ends(self):
        """Oriented edge -> (edge_src, edge_dst), for each letter d such that
        d and inv(d) both name an end of an edge: ``edge_dst(d)`` is
        ``edge_src(inv(d))``, and a letter one of them refuses is unknown
        to both."""
        src = {}
        for e, data in self.edges.items():
            if is_positive(e):
                src[e] = data.src
            src["~" + e] = data.dst
        return {d: (v, src[inv(d)]) for d, v in src.items() if inv(d) in src}

    def edge_src(self, e):
        ends = self._ends.get(e)
        if ends is None:
            raise UnknownEdge(e)
        return ends[0]

    def edge_dst(self, e):
        ends = self._ends.get(e)
        if ends is None:
            raise UnknownEdge(e)
        return ends[1]

    def edge_length(self, e):
        data = self.edges.get(base(e))
        if data is None:
            raise UnknownEdge(e)
        return data.length

    @cached_property
    def _oriented(self):
        return tuple(d for e in sorted(self.edges) for d in (e, inv(e)))

    @cached_property
    def _out_of(self):
        table = {}
        for d in self._oriented:
            table.setdefault(self.edge_src(d), []).append(d)
        return {v: tuple(ds) for v, ds in table.items()}

    def oriented_edges(self):
        return self._oriented

    def edges_at(self, v):
        """Oriented edges emanating from vertex v (directions at v)."""
        return self._out_of.get(v, ())

    def valence(self, v):
        return len(self.edges_at(v))

    # --- basics --------------------------------------------------------

    def is_connected(self):
        if not self.vertices:
            return True
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            for d in self.edges_at(stack.pop()):
                w = self.edge_dst(d)
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)

    def basis_symbols(self):
        return tuple(sorted(self.basis_labels.values()))

    # --- paths ---------------------------------------------------------

    def path_src(self, path):
        return self.edge_src(path[0]) if path else None

    def path_dst(self, path):
        return self.edge_dst(path[-1]) if path else None

    def check_path(self, path):
        for i in range(len(path) - 1):
            if self.edge_dst(path[i]) != self.edge_src(path[i + 1]):
                raise NonIncidentEdges(f"{path[i]} -> {path[i + 1]}")

    # --- marking -------------------------------------------------------

    @cached_property
    def _root_paths(self):
        """Vertex -> the spanning-tree path to it from ``vertices[0]``, for
        every vertex the tree reaches from there."""
        if not self.vertices:
            return {}
        paths = {self.vertices[0]: ()}
        stack = [self.vertices[0]]
        while stack:
            v = stack.pop()
            for d in self.edges_at(v):
                w = self.edge_dst(d)
                if w not in paths and base(d) in self.spanning_tree:
                    paths[w] = paths[v] + (d,)
                    stack.append(w)
        return paths

    def tree_path(self, u, v):
        """Reduced edge path from u to v inside the spanning tree."""
        paths = self._root_paths
        if u not in paths or v not in paths:
            raise DisconnectedGraph(f"no tree path {u} -> {v}")
        return free_reduce(inverse(paths[u]) + paths[v])


# --- operations --------------------------------------------------------


def validate_graph(g: MarkedGraph):
    """Report-style validation of all MarkedGraph invariants."""
    violations = []
    for e, data in g.edges.items():
        if data.length <= 0:
            violations.append(f"nonpositive length on edge {e}")
        if data.src not in g.vertices or data.dst not in g.vertices:
            violations.append(f"edge {e} has unknown endpoint")
    if not g.is_connected():
        violations.append("graph is disconnected")
    for v in g.vertices:
        if g.valence(v) < 2:
            violations.append(f"valence < 2 at vertex {v}")
    for e in g.spanning_tree:
        if e not in g.edges:
            violations.append(f"tree edge {e} is not an edge")
    # the tree must be a spanning tree
    if g.spanning_tree <= set(g.edges):
        if any(v not in g._root_paths for v in g.vertices):
            violations.append("spanning tree does not touch every vertex")
        if len(g.spanning_tree) != max(0, len(g.vertices) - 1):
            violations.append("spanning tree has wrong edge count")
    nontree = set(g.edges) - g.spanning_tree
    if set(g.basis_labels) != nontree:
        violations.append("basis labels do not match non-tree edges")
    elif len(set(g.basis_labels.values())) != len(nontree):
        violations.append("basis labels are not distinct")
    return violations


def rank(g: MarkedGraph):
    """First Betti number |edge orbits| - |vertices| + 1."""
    if not g.is_connected():
        raise DisconnectedGraph()
    return len(g.edges) - len(g.vertices) + 1


def bfs_marked_graph(vertices, edges):
    """The graph on ``edges`` marked by its breadth-first spanning tree from
    the least vertex, taking the edges at each vertex in sorted order."""
    g = MarkedGraph(vertices, edges)
    root = min(g.vertices)
    seen = {root}
    tree = set()
    queue = [root]
    for v in queue:
        for d in g.edges_at(v):
            w = g.edge_dst(d)
            if w not in seen:
                seen.add(w)
                tree.add(base(d))
                queue.append(w)
    return MarkedGraph(g.vertices, edges, frozenset(tree))


def loop_to_word(g: MarkedGraph, path, basepoint):
    """Word of a based loop in the marking basis (tree edges contribute nothing)."""
    if path:
        g.check_path(path)
        if g.path_src(path) != basepoint or g.path_dst(path) != basepoint:
            raise NotALoop(f"path is not a loop at {basepoint}")
    out = []
    for e in path:
        b = base(e)
        if b in g.spanning_tree:
            continue
        symbol = g.basis_labels[b]
        out.append(symbol if is_positive(e) else inv(symbol))
    return free_reduce(tuple(out))


def word_to_loop(g: MarkedGraph, word, basepoint):
    """Reduced based loop realizing a word via tree-path conjugation."""
    label_edge = {s: e for e, s in g.basis_labels.items()}
    segments = []
    for x in word:
        e = label_edge[base(x)]
        if not is_positive(x):
            e = inv(e)
        u, v = g.edge_src(e), g.edge_dst(e)
        segments.append(g.tree_path(basepoint, u) + (e,) + g.tree_path(v, basepoint))
    return free_reduce(tuple(y for seg in segments for y in seg))


def rose(symbols, vertex="v0", lengths=None):
    """Wedge of circles with the identity marking."""
    lengths = lengths or {}
    edges = {
        s: OrientedEdge(s, vertex, vertex, Fraction(lengths.get(s, 1)))
        for s in symbols
    }
    return MarkedGraph((vertex,), edges)


# --- JSON interchange ---------------------------------------------------


def graph_to_json_dict(g: MarkedGraph):
    return {
        "vertices": sorted(g.vertices),
        "edges": [
            {
                "id": e,
                "from": data.src,
                "to": data.dst,
                "length": str(data.length),
            }
            for e, data in sorted(g.edges.items())
        ],
        "tree": sorted(g.spanning_tree),
        "basis": {e: s for e, s in sorted(g.basis_labels.items())},
    }


def check_json(value, kind, message):
    """``value`` when it has the JSON type ``kind``; ValueError(message) otherwise."""
    if not isinstance(value, kind):
        raise ValueError(message)
    return value


def _names(values, message):
    """A JSON list of strings as a tuple; ValueError(message) otherwise."""
    return tuple(check_json(x, str, message) for x in check_json(values, list, message))


def graph_from_json_dict(d):
    """The graph of a ``graph_to_json_dict`` object.  A missing key raises
    KeyError, a value of the wrong JSON type ValueError."""
    check_json(d, dict, "a graph must be a JSON object")
    edges = {}
    for ed in check_json(d["edges"], list, "graph edges must be a list"):
        check_json(ed, dict, "each graph edge must be a JSON object")
        e, src, dst = _names([ed["id"], ed["from"], ed["to"]], "edge ids and ends must be strings")
        length = ed.get("length", "1")
        check_json(length, (str, int, float), f"length of edge {e} must be a string or a number")
        edges[e] = OrientedEdge(e, src, dst, Fraction(length))
    message = "graph basis must map edges to symbols"
    basis = check_json(d.get("basis", {}), dict, message)
    _names(list(basis.values()), message)
    return MarkedGraph(
        _names(d["vertices"], "graph vertices must be a list of strings"),
        edges,
        frozenset(_names(d.get("tree", []), "graph tree must be a list of edge ids")),
        dict(basis),
    )
