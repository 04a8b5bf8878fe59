"""Topological representatives g: G -> G and train track verification.

Turn legality is read off the gates of the direction map, which its finite
orbits decide, so every verdict here is exact.  Stretch-factor data for the
transition matrix lives in :mod:`fibercomm.spectral`.  The kernels of the
bounded Nielsen-path and toroidality searches live in
:mod:`fibercomm.searches`, which the two entry points here import when
called.
"""

from functools import cached_property
from itertools import combinations

from .errors import NonIncidentEdges, NotHomotopyEquivalence, UnknownEdge
from .graph import MarkedGraph, loop_to_word, word_to_loop
from .record import record
from .words import (
    _cyclic_start,
    _Inverses,
    _OrientedImages,
    _tighten,
    base,
    free_reduce,
    inv,
    inverse,
)


class _EdgeImages(_OrientedImages):
    """Oriented edge -> image path under an edge map; an edge outside the
    map is an ``UnknownEdge``."""

    def __missing__(self, e):
        if base(e) not in self.images:
            raise UnknownEdge(e)
        return super().__missing__(e)


@record
class GraphMap:
    """Vertex map plus edge -> reduced edge path assignment."""

    domain: MarkedGraph
    vertex_map: dict
    edge_map: dict  # positive edge id -> tuple of oriented edge ids

    @cached_property
    def _images(self):
        """Images of both orientations of every edge, each built once per map."""
        return _EdgeImages(self.edge_map)

    @cached_property
    def _inverses(self):
        return _Inverses()

    def edge_image(self, e):
        return self._images[e]

    def validate(self):
        g = self.domain
        problems = []
        for v in g.vertices:
            if self.vertex_map.get(v) not in g.vertices:
                problems.append(f"vertex {v} has no image vertex")
        for e in g.edges:
            img = self.edge_map.get(e)
            if not img:
                problems.append(f"edge {e} has empty image")
                continue
            try:
                g.check_path(img)
            except (NonIncidentEdges, UnknownEdge):
                problems.append(f"image of {e} is not a path")
                continue
            if free_reduce(img) != tuple(img):
                problems.append(f"image of {e} is not reduced")
            # .get: an endpoint outside the vertex list has no image
            if g.path_src(img) != self.vertex_map.get(g.edge_src(e)):
                problems.append(f"image of {e} starts at wrong vertex")
            if g.path_dst(img) != self.vertex_map.get(g.edge_dst(e)):
                problems.append(f"image of {e} ends at wrong vertex")
        return problems

    # --- directions ----------------------------------------------------

    def directions(self):
        return self.domain.oriented_edges()

    @cached_property
    def direction_map(self):
        """The direction map Dg: direction -> first direction of its image."""
        return {d: self._images[d][0] for d in self.directions()}

    def taken_turns(self):
        """Turns crossed by edge images: pairs (rev(e_i), e_{i+1})."""
        turns = set()
        for e in self.domain.edges:
            img = self.edge_image(e)
            for i in range(len(img) - 1):
                turns.add(frozenset((inv(img[i]), img[i + 1])))
        return turns


def identity_map(g: MarkedGraph):
    return GraphMap(g, {v: v for v in g.vertices}, {e: (e,) for e in g.edges})


def apply_map(f: GraphMap, path):
    """Tightened image g(p)_#."""
    return _tighten(map(f._images.__getitem__, path), f._inverses)


def iterate_map(f: GraphMap, path, n):
    for _ in range(n):
        path = apply_map(f, path)
    return path


def compose(f: GraphMap, g: GraphMap):
    """The map f after g (both self-maps of the same graph)."""
    return GraphMap(
        g.domain,
        {v: f.vertex_map[g.vertex_map[v]] for v in g.domain.vertices},
        {e: apply_map(f, g.edge_map[e]) for e in g.domain.edges},
    )


def map_power(f: GraphMap, n):
    result = identity_map(f.domain)
    for _ in range(n):
        result = compose(f, result)
    return result


def orbit_order(g: MarkedGraph):
    """Fixed ordering of unoriented edge orbits used for matrix indexing."""
    return sorted(g.edges)


def transition_matrix(f: GraphMap):
    """Occurrence counts per unoriented edge orbit (entry[i][j] = #i in image
    of j), as lists of ints."""
    order = orbit_order(f.domain)
    index = {e: i for i, e in enumerate(order)}
    mat = [[0] * len(order) for _ in order]
    for j, e in enumerate(order):
        for x in f.edge_image(e):
            mat[index[base(x)]][j] += 1
    return mat


def is_irreducible_matrix(mat):
    """Strong connectivity of the digraph of a nonnegative matrix (a nested
    sequence)."""
    n = len(mat)
    if n == 0:
        return False
    out = [[j for j in range(n) if mat[i][j]] for i in range(n)]
    into = [[i for i in range(n) if mat[i][j]] for j in range(n)]

    def reachable(adj):
        seen = {0}
        stack = [0]
        while stack:
            for j in adj[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return len(seen) == n

    return reachable(out) and reachable(into)


# --- train track verification ------------------------------------------


@record
class TrainTrackVerdict:
    is_train_track: bool
    irreducible: bool


def illegal_turns(f: GraphMap):
    """Turns whose Dg-orbit reaches a degenerate turn: the pairs of
    directions inside one gate (Bestvina and Handel, Ann. of Math. 1992)."""
    return frozenset(
        frozenset(pair) for gate in gate_partition(f) for pair in combinations(gate, 2)
    )


def gate_partition(f: GraphMap):
    """Directions at a common vertex identified by eventual Dg-collision.

    Two Dg-orbits that meet stay together, and they first meet within N
    steps, N the number of directions: Dg is injective on its cycles, so of
    the two paths before the meeting one lies off the cycles, and it visits
    distinct directions.  So the gates are the classes of
    (vertex, Dg^N(d)).
    """
    dmap = f.direction_map
    classes = {}
    for d in dmap:
        image = d
        for _ in range(len(dmap)):
            image = dmap[image]
        classes.setdefault((f.domain.edge_src(d), image), []).append(d)
    return tuple(sorted(frozenset(c) for c in classes.values()))


def is_train_track(f: GraphMap):
    """Exact train track verdict: no taken turn lies inside a gate."""
    return TrainTrackVerdict(
        is_train_track=not (illegal_turns(f) & f.taken_turns()),
        irreducible=is_irreducible_matrix(transition_matrix(f)),
    )


# --- induced outer automorphism ----------------------------------------


def induced_outer_automorphism(f: GraphMap, check=True):
    """Images of the marking basis under f, via tree-path conjugation.

    The image of a basis loop sigma is closed up with the tree path from
    the image of the basepoint, the first vertex, back to the basepoint.
    """
    g = f.domain
    basepoint = g.vertices[0]
    bp_image = f.vertex_map[basepoint]
    back = g.tree_path(bp_image, basepoint)
    out = g.tree_path(basepoint, bp_image)
    images = {}
    for e, symbol in sorted(g.basis_labels.items()):
        loop = word_to_loop(g, (symbol,), basepoint)
        image_loop = free_reduce(out + apply_map(f, loop) + back)
        images[symbol] = loop_to_word(g, image_loop, basepoint)
    if check:
        from .covers import check_automorphism  # local: avoids cycle

        if not check_automorphism(images, g.basis_symbols()):
            raise NotHomotopyEquivalence("basis images do not generate the full group")
    return images


# --- Nielsen paths ------------------------------------------------------


@record
class NielsenPath:
    """A path with g^p-invariant homotopy class rel endpoints.

    ``path`` carries the full-edge support; an interior endpoint lies inside
    the first/last edge.  Its exact position is the share of that edge's
    eigen-metric length between the point and the edge's end nearer the
    illegal turn, written "n0,n1,.../d0,d1,..." with the coefficients in
    lambda, lowest degree first, of its numerator and denominator.
    """

    path: tuple
    period: int
    endpoints: tuple  # two of ("vertex", v) or ("interior", edge, str exact)
    indivisible: bool = True


def find_nielsen_paths(f: GraphMap, period_bound, length_bound):
    """Bounded search for periodic Nielsen paths g^p_#(sigma) = sigma.

    Candidates are reduced paths with vertex endpoints (direct iteration)
    plus the classical two-legal-legs shape with exact eigen-metric interior
    endpoints.  Absence within bounds is just an empty list, never a proof.
    """
    from .searches import _interior_nielsen_paths, _vertex_nielsen_paths

    raw = _vertex_nielsen_paths(f, period_bound, length_bound)
    raw.extend(_interior_nielsen_paths(f, period_bound, length_bound))
    # dedupe by carrier up to reversal, keep the least period
    best = {}
    for sigma, p, ends in raw:
        key = min(sigma, inverse(sigma))
        if key not in best or p < best[key][1]:
            best[key] = (sigma, p, ends)
    chosen = [best[k] for k in sorted(best)]
    vertex_paths = {
        s for s, _, ends in chosen if all(e[0] == "vertex" for e in ends)
    }
    out = []
    for sigma, p, ends in chosen:
        divisible = False
        for cut in range(1, len(sigma)):
            left, right = sigma[:cut], sigma[cut:]
            if _known(left, vertex_paths) and _known(right, vertex_paths):
                divisible = True
                break
        out.append(NielsenPath(sigma, p, ends, indivisible=not divisible))
    return out


def _known(path, vertex_paths):
    return path in vertex_paths or inverse(path) in vertex_paths


# --- toroidality -------------------------------------------------------


@record
class ToroidalityVerdict:
    toroidal: bool
    witness_word: tuple = None
    witness_power: int = None


def is_atoroidal(f: GraphMap, power_bound, length_bound):
    """Bounded search for a conjugacy class fixed by a power of the map.

    Classes are compared by cyclic reduction plus rotation; a class and its
    inverse are not identified.  Returns the lexicographically least witness
    in (length, word, power) order.

    Only one word per class is walked: the cyclically reduced words that
    are least among their rotations (``_necklaces``).  Whether the cyclic
    core of phi^k(w) is a rotation of w does not depend on which rotation w
    is, so the least hit in (length, word) order is the least rotation of
    its class, and the witness word and power are those of the search over
    every cyclically reduced word.  Each word carries its images phi, ...,
    phi^P as the persistent tightening stacks of ``_append``, so one more
    letter costs only the letters it adds.
    """
    from .searches import _append, _is_rotation, _necklaces, _spelled

    images = _OrientedImages(induced_outer_automorphism(f, check=False))
    if power_bound < 1:
        return ToroidalityVerdict(False)
    inverse_of = _Inverses()
    root = None
    for _ in range(power_bound):
        root = [None, None, 0, root]

    def grow(top, x):
        return _append(top, images[x], power_bound, images, inverse_of)

    symbols = f.domain.basis_symbols()
    for n in range(1, length_bound + 1):
        for w, top in _necklaces(symbols, n, grow, root):
            level = top
            for k in range(1, power_bound + 1):
                excess = level[2] - n
                if excess >= 0 and not excess % 2:
                    img = _spelled(level)
                    i = excess // 2
                    if _cyclic_start(img, inverse_of) == i and _is_rotation(img[i : i + n], w):
                        return ToroidalityVerdict(True, w, k)
                level = level[3]
    return ToroidalityVerdict(False)


# --- interchange -------------------------------------------------------


def map_to_json_dict(f: GraphMap):
    from .graph import graph_to_json_dict
    from .words import format_word

    return {
        "graph": graph_to_json_dict(f.domain),
        "vertex_map": {v: f.vertex_map[v] for v in sorted(f.domain.vertices)},
        "edge_map": {e: format_word(f.edge_map[e]) for e in sorted(f.domain.edges)},
    }


def map_from_json_dict(d):
    """The map of a ``map_to_json_dict`` object.  A missing key raises
    KeyError, a value of the wrong JSON type ValueError."""
    from .graph import check_json, graph_from_json_dict
    from .words import parse_word

    check_json(d, dict, "a map must be a JSON object")
    g = graph_from_json_dict(d["graph"])
    edge_map = check_json(d["edge_map"], dict, "edge_map must map edges to words")
    edge_map = {e: parse_word(w) for e, w in edge_map.items()}
    vertex_map = check_json(d["vertex_map"], dict, "vertex_map must map vertices to vertices")
    return GraphMap(g, dict(vertex_map), edge_map)
