"""Reference copies of the letter-by-letter word and path kernels.

These are the implementations the table-driven kernels and the incremental
searches in ``fibercomm.words`` and ``fibercomm.maps`` replaced, kept
unchanged as a test oracle, with ``gate_partition``, the union-find over
2N rounds of the direction map that one grouping by (vertex, Dg^N(d))
replaced, and ``cyclic_rotations``, which the package no longer uses.
The only edits: ``GraphMap.edge_image``,
``MarkedGraph.oriented_edges`` and ``MarkedGraph.edges_at`` became module
functions taking the map or graph, and the functions call each other by
their names here.  The helpers these functions call and that did not change
(``path_src``, ``edge_dst``, ``induced_outer_automorphism`` and
``UnionFind``) come from the package; ``GraphMap.direction_image``, the
first letter of an edge image, is read as ``edge_image(f, d)[0]`` since
the package dropped it, and ``is_atoroidal`` lost its ``basepoint``
parameter, which no caller set and the package's
``induced_outer_automorphism`` no longer takes.

The second part keeps the walkers that each built their own adjacency or
orbit before the graph's ``edges_at``, its cached root paths and the map's
gates served them: ``illegal_turns`` with ``_all_turns`` (one Dg-orbit walk
per turn), the depth-first ``tree_path``, ``is_connected`` and
``validate_graph`` with their private adjacencies, the covering's
``_bfs_tree``, and the breadth-first ``SubgroupGraph.canonical``.  Methods
became module functions taking the graph; nothing else changed.

The third part keeps the endpoint lookups that one cached table of
(src, dst) per graph replaced: ``edge_src`` reads the record of base(e),
and ``edge_dst`` inverts e and calls it.  They became module functions
taking the graph.
"""

from itertools import product

from fibercomm.covers import SubgroupGraph
from fibercomm.errors import DisconnectedGraph, UnknownEdge
from fibercomm.maps import ToroidalityVerdict, induced_outer_automorphism
from fibercomm.unionfind import UnionFind


def inv(letter):
    """Inverse of a single oriented letter."""
    return letter[1:] if letter.startswith("~") else "~" + letter


def base(letter):
    """Underlying symbol of an oriented letter (strips the ``~``)."""
    return letter[1:] if letter.startswith("~") else letter


def is_positive(letter):
    return not letter.startswith("~")


def inverse(word):
    return tuple(inv(x) for x in reversed(word))


def free_reduce(word):
    """Reduce a word by cancelling adjacent inverse pairs."""
    out = []
    for x in word:
        if out and out[-1] == inv(x):
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def concat(*words):
    out = []
    for w in words:
        for x in w:
            if out and out[-1] == inv(x):
                out.pop()
            else:
                out.append(x)
    return tuple(out)


def cyclic_reduce(word):
    """Return ``(core, conjugator)`` with ``word = conjugator * core * conjugator^-1``.

    The input is freely reduced first.
    """
    w = list(free_reduce(word))
    pre = []
    while len(w) >= 2 and w[0] == inv(w[-1]):
        pre.append(w[0])
        w = w[1:-1]
    return tuple(w), tuple(pre)


def is_reduced(word):
    return all(word[i + 1] != inv(word[i]) for i in range(len(word) - 1))


def is_cyclically_reduced(word):
    if not is_reduced(word):
        return False
    return not (len(word) >= 2 and word[0] == inv(word[-1]))


def cyclic_rotations(word):
    return [word[i:] + word[:i] for i in range(max(1, len(word)))]


def enumerate_reduced_words(symbols, max_len, cyclically_reduced=False):
    """All nonempty reduced words up to ``max_len``, ordered by (length, lex)."""
    letters = []
    for s in sorted(symbols):
        letters.append(s)
        letters.append(inv(s))
    for n in range(1, max_len + 1):
        for combo in product(letters, repeat=n):
            if not is_reduced(combo):
                continue
            if cyclically_reduced and not is_cyclically_reduced(combo):
                continue
            yield combo


def apply_images(images, word):
    """Substitute basis letters by their image words and freely reduce.

    ``images`` maps basis symbols to words; inverse letters use the inverse
    image.
    """
    out = []
    for x in word:
        img = images[base(x)]
        if not is_positive(x):
            img = inverse(img)
        for y in img:
            if out and out[-1] == inv(y):
                out.pop()
            else:
                out.append(y)
    return tuple(out)


def compose_images(outer, inner):
    """Basis images of the composite ``outer after inner``."""
    return {s: apply_images(outer, w) for s, w in inner.items()}


def identity_images(symbols):
    return {s: (s,) for s in symbols}


def power_images(images, n):
    symbols = sorted(images)
    result = identity_images(symbols)
    for _ in range(n):
        result = compose_images(images, result)
    return result


def edge_image(f, e):
    b = base(e)
    if b not in f.edge_map:
        raise UnknownEdge(e)
    img = f.edge_map[b]
    if not is_positive(e):
        img = tuple(inv(x) for x in reversed(img))
    return img


def apply_map(f, path):
    """Tightened image g(p)_#."""
    out = []
    for e in path:
        for y in edge_image(f, e):
            if out and out[-1] == inv(y):
                out.pop()
            else:
                out.append(y)
    return tuple(out)


def oriented_edges(g):
    out = []
    for e in sorted(g.edges):
        out.append(e)
        out.append(inv(e))
    return out


def edges_at(g, v):
    """Oriented edges emanating from vertex v (directions at v)."""
    return [e for e in oriented_edges(g) if g.edge_src(e) == v]


def _edge_paths(g, max_len):
    """All nonempty reduced edge paths up to max_len, (length, lex) ordered."""
    frontier = [((d,), g.edge_dst(d)) for d in sorted(oriented_edges(g))]
    while frontier:
        for path, _ in frontier:
            yield path
        if len(frontier[0][0]) == max_len:
            return
        nxt = []
        for path, v in frontier:
            for d in sorted(edges_at(g, v)):
                if d != inv(path[-1]):
                    nxt.append((path + (d,), g.edge_dst(d)))
        frontier = nxt


def _vertex_nielsen_paths(f, period_bound, length_bound):
    found = {}
    for sigma in _edge_paths(f.domain, length_bound):
        if inverse(sigma) in found:
            continue
        path = sigma
        for p in range(1, period_bound + 1):
            path = apply_map(f, path)
            if path == sigma:
                found[sigma] = p
                break
    out = []
    for sigma, p in found.items():
        u, v = f.domain.path_src(sigma), f.domain.path_dst(sigma)
        out.append((sigma, p, (("vertex", u), ("vertex", v))))
    return out


def is_atoroidal(f, power_bound, length_bound):
    """Bounded search for a conjugacy class fixed by a power of the map.

    Classes are compared by cyclic reduction plus rotation; a class and its
    inverse are not identified.  Returns the lexicographically least witness
    in (length, word, power) order.
    """
    images = induced_outer_automorphism(f, check=False)
    symbols = f.domain.basis_symbols()
    powers = [power_images(images, k) for k in range(1, power_bound + 1)]
    for w in enumerate_reduced_words(symbols, length_bound, cyclically_reduced=True):
        rotations = set(cyclic_rotations(w))
        for k, imgs in enumerate(powers, start=1):
            img, _ = cyclic_reduce(apply_images(imgs, w))
            if img in rotations:
                return ToroidalityVerdict(True, w, k)
    return ToroidalityVerdict(False)


def gate_partition(f):
    """Directions at a common vertex identified by eventual Dg-collision."""
    g = f.domain
    dirs = oriented_edges(g)
    dmap = {d: edge_image(f, d)[0] for d in dirs}
    sets = UnionFind()
    images = {d: d for d in dirs}
    for _ in range(2 * len(dirs)):
        images = {d: dmap[images[d]] for d in dirs}
        for v in g.vertices:
            at_v = edges_at(g, v)
            by_image = {}
            for d in at_v:
                by_image.setdefault(images[d], []).append(d)
            for group in by_image.values():
                for d in group[1:]:
                    sets.union(group[0], d)
    classes = {}
    for d in dirs:
        classes.setdefault(sets.find(d), []).append(d)
    return tuple(sorted(frozenset(c) for c in classes.values()))


# --- walkers with their own adjacency or orbit ---------------------------


def _all_turns(g):
    turns = []
    for v in g.vertices:
        dirs = g.edges_at(v)
        for i in range(len(dirs)):
            for j in range(i + 1, len(dirs)):
                turns.append(frozenset((dirs[i], dirs[j])))
    return turns


def illegal_turns(f):
    """Turns whose direction-map orbit reaches a degenerate turn."""
    dmap = {d: edge_image(f, d)[0] for d in f.directions()}
    result = set()
    for turn in _all_turns(f.domain):
        d1, d2 = tuple(turn) if len(turn) == 2 else (next(iter(turn)),) * 2
        seen = set()
        cur = (d1, d2)
        while frozenset(cur) not in seen:
            seen.add(frozenset(cur))
            cur = (dmap[cur[0]], dmap[cur[1]])
            if cur[0] == cur[1]:
                result.add(turn)
                break
    return frozenset(result)


def _tree_adjacency(g):
    """Vertex -> sorted (oriented tree edge, far end) pairs."""
    adj = {v: [] for v in g.vertices}
    for e in g.spanning_tree:
        data = g.edges[e]
        adj[data.src].append((e, data.dst))
        adj[data.dst].append((inv(e), data.src))
    return {v: sorted(out) for v, out in adj.items()}


def tree_path(g, u, v):
    """Reduced edge path from u to v inside the spanning tree."""
    if u == v:
        return ()
    adj = _tree_adjacency(g)
    prev = {u: None}
    stack = [u]
    while stack:
        x = stack.pop()
        for e, y in adj[x]:
            if y not in prev:
                prev[y] = (x, e)
                stack.append(y)
    if v not in prev:
        raise DisconnectedGraph(f"no tree path {u} -> {v}")
    path = []
    x = v
    while prev[x] is not None:
        px, e = prev[x]
        path.append(e)
        x = px
    return tuple(reversed(path))


def is_connected(g):
    if not g.vertices:
        return True
    seen = {g.vertices[0]}
    stack = [g.vertices[0]]
    adjacency = {}
    for e, data in g.edges.items():
        adjacency.setdefault(data.src, []).append(data.dst)
        adjacency.setdefault(data.dst, []).append(data.src)
    while stack:
        v = stack.pop()
        for w in adjacency.get(v, []):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(g.vertices)


def validate_graph(g):
    """Report-style validation of all MarkedGraph invariants."""
    violations = []
    for e, data in g.edges.items():
        if data.length <= 0:
            violations.append(f"nonpositive length on edge {e}")
        if data.src not in g.vertices or data.dst not in g.vertices:
            violations.append(f"edge {e} has unknown endpoint")
    if not is_connected(g):
        violations.append("graph is disconnected")
    for v in g.vertices:
        if g.valence(v) < 2:
            violations.append(f"valence < 2 at vertex {v}")
    for e in g.spanning_tree:
        if e not in g.edges:
            violations.append(f"tree edge {e} is not an edge")
    # the tree must be a spanning tree
    if g.spanning_tree <= set(g.edges):
        tree_graph = {v: [] for v in g.vertices}
        for e in g.spanning_tree:
            data = g.edges[e]
            tree_graph[data.src].append(data.dst)
            tree_graph[data.dst].append(data.src)
        if g.vertices:
            seen = {g.vertices[0]}
            stack = [g.vertices[0]]
            while stack:
                v = stack.pop()
                for w in tree_graph[v]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) != len(g.vertices):
                violations.append("spanning tree does not touch every vertex")
        if len(g.spanning_tree) != max(0, len(g.vertices) - 1):
            violations.append("spanning tree has wrong edge count")
    nontree = set(g.edges) - g.spanning_tree
    if set(g.basis_labels) != nontree:
        violations.append("basis labels do not match non-tree edges")
    elif len(set(g.basis_labels.values())) != len(nontree):
        violations.append("basis labels are not distinct")
    return violations


def _bfs_tree(vertices, edges):
    """Deterministic spanning tree (sorted BFS) over an edge dict."""
    adjacency = {v: [] for v in vertices}
    for e, data in sorted(edges.items()):
        adjacency[data.src].append((e, data.dst))
        adjacency[data.dst].append((e, data.src))
    root = sorted(vertices)[0]
    seen = {root}
    tree = set()
    queue = [root]
    while queue:
        v = queue.pop(0)
        for e, w in sorted(adjacency[v]):
            if w not in seen:
                seen.add(w)
                tree.add(e)
                queue.append(w)
    return tree


def canonical(sg):
    """Canonically relabeled copy (BFS from the basepoint, fixed letter
    order); two graphs are equal as subgroups iff canonical forms match."""
    inn = sg._in_map
    order = {sg.basepoint: 0}
    queue = [sg.basepoint]
    letters = []
    for s in sg.symbols:
        letters.append((s, True))
        letters.append((s, False))
    while queue:
        state = queue.pop(0)
        for sym, fwd in letters:
            nxt = sg.trans.get((state, sym)) if fwd else inn.get((state, sym))
            if nxt is not None and nxt not in order:
                order[nxt] = len(order)
                queue.append(nxt)
    trans = {
        (order[s], x): order[t] for (s, x), t in sg.trans.items() if s in order
    }
    return SubgroupGraph(sg.symbols, tuple(range(len(order))), trans, 0)


def edge_src(g, e):
    data = g.edges.get(base(e))
    if data is None:
        raise UnknownEdge(e)
    return data.src if is_positive(e) else data.dst


def edge_dst(g, e):
    return edge_src(g, inv(e))
