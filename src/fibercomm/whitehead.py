"""Periodic directions, principal vertices, stable Whitehead graphs,
geometric index, and asymmetry certification.

The ideal Whitehead graph is realized by its stable local-graph proxy at
principal vertices: vertices are the periodic directions, edges are the
taken turns of the leaf segments saturated under the direction map.
"""

from collections import Counter
from math import lcm

from .errors import NotRotationless
from .graph import rank
from .maps import GraphMap, find_nielsen_paths
from .record import record


# --- direction orbits ----------------------------------------------------


def _period(step, x):
    """The least p >= 1 with step^p(x) = x, for the self-map ``step`` (a
    dict) of a finite set; None when x is not periodic."""
    seen, cur = {x}, step[x]
    while cur not in seen:
        seen.add(cur)
        cur = step[cur]
    return len(seen) if cur == x else None


def periodic_directions(f: GraphMap):
    """Map direction -> period for the Dg-periodic directions."""
    dmap = f.direction_map
    periods = {d: _period(dmap, d) for d in dmap}
    return {d: p for d, p in periods.items() if p}


def _principal(f: GraphMap):
    """The periodic directions and the sorted vertices with >= 3 of them."""
    periods = periodic_directions(f)
    count = Counter(map(f.domain.edge_src, periods))
    return periods, sorted(v for v in f.domain.vertices if count[v] >= 3)


def rotationless_power(f: GraphMap, k_max):
    """Least k <= k_max making every principal vertex and periodic direction
    there fixed; None when lcm of the periods exceeds the bound."""
    periods, verts = _principal(f)
    relevant = [p for d, p in periods.items() if f.domain.edge_src(d) in verts]
    k = lcm(*relevant, *_vertex_periods(f, verts))
    return k if k <= k_max else None


def _vertex_periods(f: GraphMap, verts):
    periods = (_period(f.vertex_map, v) for v in verts)
    return [p for p in periods if p] or [1]


# --- stable Whitehead graphs ---------------------------------------------


@record
class WhiteheadGraph:
    vertex: str  # the principal vertex this local graph lives at
    nodes: tuple  # periodic directions at the vertex, sorted
    edges: frozenset  # frozensets {d1, d2}

    def adjacency(self):
        adj = {d: set() for d in self.nodes}
        for e in self.edges:
            d1, d2 = sorted(e)
            adj[d1].add(d2)
            adj[d2].add(d1)
        return adj

    def to_dot(self, name="whitehead"):
        lines = [f"graph {name} {{"]
        for d in self.nodes:
            lines.append(f'  "{d}";')
        for e in sorted(self.edges, key=sorted):
            d1, d2 = sorted(e)
            lines.append(f'  "{d1}" -- "{d2}";')
        lines.append("}")
        return "\n".join(lines)


def _is_rotationless(f: GraphMap, periods, verts):
    """Whether f fixes each principal vertex and each periodic direction there."""
    return all(f.vertex_map[v] == v for v in verts) and all(
        p == 1 for d, p in periods.items() if f.domain.edge_src(d) in verts
    )


def saturated_turns(f: GraphMap):
    """The taken turns closed under the direction map.

    A worklist holds the turns not yet mapped; each new nondegenerate image
    joins it once.  The turn set is finite, so the closure is exact.
    """
    dmap = f.direction_map
    turns = set(f.taken_turns())
    work = list(turns)
    while work:
        image = frozenset(dmap[d] for d in work.pop())
        if len(image) == 2 and image not in turns:
            turns.add(image)
            work.append(image)
    return turns


def stable_whitehead_graphs(f: GraphMap):
    """One local stable graph per principal vertex.

    Edges are the taken turns between periodic directions, saturated under
    the direction map (``saturated_turns``).
    """
    periods, verts = _principal(f)
    if not _is_rotationless(f, periods, verts):
        raise NotRotationless()
    g = f.domain
    turns = saturated_turns(f)
    graphs = []
    for v in verts:
        nodes = tuple(sorted(d for d in periods if g.edge_src(d) == v and periods[d] == 1))
        local = frozenset(
            t for t in turns if all(d in nodes for d in t)
        )
        graphs.append(WhiteheadGraph(v, nodes, local))
    return graphs


# --- geometric index -----------------------------------------------------


@record
class IndexReport:
    fixed_direction_counts: tuple  # per principal vertex, counts >= 3 only contribute
    index: int
    rank: int
    ageometric: bool
    nielsen_free_within_bounds: bool = None


def geometric_index(f: GraphMap, nielsen_bounds=(2, 6)):
    """Geometric index proxy: sum of (fixed directions - 2) over principal
    vertices, with the ageometricity inequality index < rank - 2."""
    periods, verts = _principal(f)
    if not _is_rotationless(f, periods, verts):
        raise NotRotationless()
    g = f.domain
    counts = []
    for v in verts:
        counts.append(sum(1 for d in periods if g.edge_src(d) == v and periods[d] == 1))
    total = sum(c - 2 for c in counts if c >= 3)
    r = rank(g)
    inp_free = not any(
        np_.indivisible for np_ in find_nielsen_paths(f, *nielsen_bounds)
    )
    return IndexReport(
        fixed_direction_counts=tuple(counts),
        index=total,
        rank=r,
        ageometric=total < r - 2,
        nielsen_free_within_bounds=inp_free,
    )


# --- graph automorphisms and asymmetry -----------------------------------


def graph_automorphisms(w: WhiteheadGraph):
    """All automorphisms of the (simple) graph, as node bijections."""
    nodes = list(w.nodes)
    adj = w.adjacency()
    degree = {d: len(adj[d]) for d in nodes}
    autos = []

    def backtrack(assigned, remaining):
        if not remaining:
            autos.append(dict(assigned))
            return
        d = remaining[0]
        for target in nodes:
            if target in assigned.values():
                continue
            if degree[target] != degree[d]:
                continue
            ok = True
            for prev, image in assigned.items():
                linked = prev in adj[d]
                linked_img = image in adj[target]
                if linked != linked_img:
                    ok = False
                    break
            if ok:
                assigned[d] = target
                backtrack(assigned, remaining[1:])
                del assigned[d]

    backtrack({}, nodes)
    return autos


def is_asymmetric(w: WhiteheadGraph):
    return len(graph_automorphisms(w)) == 1
