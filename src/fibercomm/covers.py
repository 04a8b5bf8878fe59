"""Stallings subgroup graphs, finite covers, lifts, and extensions.

Subgroups of a free group are represented by based, folded core graphs
whose transitions are labeled by basis symbols.  Subgroups are tracked up
to equality (canonical coset-table form), not conjugacy.
"""

from functools import cached_property
from itertools import permutations, product

from .errors import (
    InfiniteIndex,
    NotAnAutomorphism,
    PreconditionFailed,
    ResourceBound,
    SolverBound,
)
from .graph import MarkedGraph, OrientedEdge, loop_to_word
from .record import record
from .unionfind import UnionFind
from .words import (
    apply_images,
    base,
    concat,
    cyclic_reduce,
    free_reduce,
    inv,
    inverse,
    is_positive,
)


@record
class SubgroupGraph:
    """Based folded core graph; ``trans[(state, symbol)] = state`` for
    positive symbols only (inverse transitions are implicit)."""

    symbols: tuple
    states: tuple
    trans: dict
    basepoint: object = 0

    @cached_property
    def _in_map(self):
        return {(t, x): s for (s, x), t in self.trans.items()}

    def trace(self, word, start=None):
        """Endpoint of the word read from ``start``; None if it leaves the graph."""
        inn = self._in_map
        state = self.basepoint if start is None else start
        for letter in word:
            if is_positive(letter):
                state = self.trans.get((state, letter))
            else:
                state = inn.get((state, base(letter)))
            if state is None:
                return None
        return state

    def contains(self, word):
        return self.trace(free_reduce(word)) == self.basepoint

    def is_complete(self):
        return len(self.trans) == len(self.states) * len(self.symbols)

    def index(self):
        if not self.is_complete():
            raise InfiniteIndex()
        return len(self.states)

    def rank(self):
        return len(self.trans) - len(self.states) + 1

    # --- canonical form -------------------------------------------------

    def canonical(self):
        """Canonically relabeled copy (BFS from the basepoint, fixed letter
        order); two graphs are equal as subgroups iff canonical forms match."""
        inn = self._in_map
        order = {self.basepoint: 0}
        queue = [self.basepoint]
        letters = []
        for s in self.symbols:
            letters.append((s, True))
            letters.append((s, False))
        while queue:
            state = queue.pop(0)
            for sym, fwd in letters:
                nxt = self.trans.get((state, sym)) if fwd else inn.get((state, sym))
                if nxt is not None and nxt not in order:
                    order[nxt] = len(order)
                    queue.append(nxt)
        trans = {
            (order[s], x): order[t] for (s, x), t in self.trans.items() if s in order
        }
        return SubgroupGraph(self.symbols, tuple(range(len(order))), trans, 0)

    def key(self):
        c = self.canonical()
        return (c.symbols, len(c.states), tuple(sorted(c.trans.items())))

    # --- spanning tree and basis ----------------------------------------

    @cached_property
    def _tree(self):
        """BFS tree: maps state -> (parent state, oriented letter from parent)."""
        inn = self._in_map
        parent = {self.basepoint: None}
        queue = [self.basepoint]
        letters = []
        for s in self.symbols:
            letters.append((s, True))
            letters.append((s, False))
        tree_transitions = set()
        while queue:
            state = queue.pop(0)
            for sym, fwd in letters:
                nxt = self.trans.get((state, sym)) if fwd else inn.get((state, sym))
                if nxt is not None and nxt not in parent:
                    parent[nxt] = (state, sym if fwd else inv(sym))
                    tree_transitions.add((state, sym, nxt) if fwd else (nxt, sym, state))
                    queue.append(nxt)
        return parent, tree_transitions

    @cached_property
    def _generator_index(self):
        """Transitions off the BFS tree, in sorted order, each numbered by
        the position of its basis word."""
        _, tree = self._tree
        off_tree = [
            (s, x, t) for (s, x), t in sorted(self.trans.items()) if (s, x, t) not in tree
        ]
        return {edge: i for i, edge in enumerate(off_tree)}

    def path_from_base(self, state):
        parent, _ = self._tree
        path = []
        while parent[state] is not None:
            prev, letter = parent[state]
            path.append(letter)
            state = prev
        return tuple(reversed(path))

    def basis(self):
        """Free basis of the subgroup as ambient words, in canonical order."""
        return [
            concat(self.path_from_base(s), (x,), inverse(self.path_from_base(t)))
            for s, x, t in self._generator_index
        ]

    def express_in_basis(self, word, gen_symbols=None):
        """Rewrite a member word over the subgroup basis.

        Returns a word over ``gen_symbols`` (defaults to ``x0, x1, ...`` in
        the order of :meth:`basis`).  Raises ValueError for non-members.
        """
        gen_index = self._generator_index
        if gen_symbols is None:
            gen_symbols = [f"x{i}" for i in range(len(gen_index))]
        inn = self._in_map
        out = []
        state = self.basepoint
        for letter in free_reduce(word):
            if is_positive(letter):
                nxt = self.trans.get((state, letter))
                edge = (state, letter, nxt)
                sign = 1
            else:
                nxt = inn.get((state, base(letter)))
                edge = (nxt, base(letter), state)
                sign = -1
            if nxt is None:
                raise ValueError("word leaves the subgroup graph")
            if edge in gen_index:
                sym = gen_symbols[gen_index[edge]]
                out.append(sym if sign > 0 else inv(sym))
            state = nxt
        if state != self.basepoint:
            raise ValueError("word is not a member of the subgroup")
        return free_reduce(tuple(out))


# --- folding ------------------------------------------------------------


def fold_subgroup_graph(generators, symbols):
    """Folded core graph of the subgroup generated by the given words.

    Worklist folding (Stallings, "Topology of finite graphs", 1983;
    Touikan, "A fast algorithm for Stallings' folding process", 2006): each
    generator enters through ``_Folder.add_loop``, and the folder merges
    the vertices it has to identify as it goes, so the work is near-linear
    in the number of letters.  No core trim is needed: a folded graph reads
    each reduced generator along a reduced loop at the basepoint, so every
    other vertex lies on at least two edges.
    """
    symbols = tuple(sorted(symbols))
    folder = _Folder()
    for w in generators:
        folder.add_loop(free_reduce(tuple(w)))
    return folder.graph(symbols).canonical()


class _Folder:
    """Labelled graph, folded again after each loop is added.

    ``out[v][x]`` and ``inn[v][x]`` hold the far end of v's outgoing and
    incoming x-edge, for representative vertices v; a stored far end may
    since have been merged, so it is read through ``find``.  An edge that
    clashes with a stored one, same vertex and label but another far end,
    puts the two far ends on ``pending``; ``_drain`` merges such pairs, the
    vertex with fewer edges into the other, and moving its edges may push
    further pairs.
    """

    def __init__(self):
        self.out = [{}]
        self.inn = [{}]
        self.sets = UnionFind()
        self.pending = []

    def add_loop(self, word):
        """Add a loop at the basepoint reading the reduced ``word``.  The
        longest prefix and suffix the folded graph already reads are
        followed, not added; only the letters between them get edges."""
        start = self.sets.find(0)
        u, i = start, 0
        while i < len(word):
            far = self._step(u, word[i])
            if far is None:
                break
            u, i = far, i + 1
        v, j = start, len(word)
        while j > i:
            far = self._step(v, inv(word[j - 1]))
            if far is None:
                break
            v, j = far, j - 1
        if i == j:
            self.pending.append((u, v))
        for k in range(i, j):
            far = v if k == j - 1 else self._new_vertex()
            self._add_edge(u, word[k], far)
            u = far
        self._drain()

    def _step(self, v, letter):
        if is_positive(letter):
            far = self.out[v].get(letter)
        else:
            far = self.inn[v].get(base(letter))
        return None if far is None else self.sets.find(far)

    def _new_vertex(self):
        self.out.append({})
        self.inn.append({})
        return len(self.out) - 1

    def _add_edge(self, u, letter, v):
        """An edge reading ``letter`` from u to v."""
        if not is_positive(letter):
            u, letter, v = v, base(letter), u
        find = self.sets.find
        u, v = find(u), find(v)
        self._attach(self.out[u], letter, v)
        self._attach(self.inn[v], letter, u)

    def _attach(self, table, x, far):
        held = table.get(x)
        if held is None:
            table[x] = far
        elif self.sets.find(held) != far:
            self.pending.append((held, far))

    def _drain(self):
        find, out, inn = self.sets.find, self.out, self.inn
        while self.pending:
            a, b = self.pending.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            if len(out[a]) + len(inn[a]) > len(out[b]) + len(inn[b]):
                a, b = b, a
            self.sets.union(a, b)
            moved_out, moved_in = out[a], inn[a]
            out[a] = inn[a] = None
            for x, w in moved_out.items():
                self._attach(out[b], x, find(w))
            for x, u in moved_in.items():
                self._attach(inn[b], x, find(u))

    def graph(self, symbols):
        """The folded graph, on its representative vertices."""
        find = self.sets.find
        states = [v for v, table in enumerate(self.out) if table is not None]
        trans = {(u, x): find(w) for u in states for x, w in self.out[u].items()}
        return SubgroupGraph(symbols, tuple(states), trans, find(0))


def full_group(symbols):
    symbols = tuple(sorted(symbols))
    return SubgroupGraph(symbols, (0,), {(0, s): 0 for s in symbols}, 0)


def subgroups_equal(h1: SubgroupGraph, h2: SubgroupGraph):
    return h1.key() == h2.key()


# --- enumeration --------------------------------------------------------


def hall_count(r, m):
    """Number of index-m subgroups of F_r (Hall's recursion); test oracle."""
    from math import factorial

    memo = {1: 1}

    def n(k):
        if k in memo:
            return memo[k]
        total = k * factorial(k) ** (r - 1)
        for i in range(1, k):
            total -= factorial(k - i) ** (r - 1) * n(i)
        memo[k] = total
        return total

    return n(m)


def enumerate_subgroups(r, m, symbols=None, cap=2_000_000):
    """All index-m subgroups of F_r via basepointed transitive actions."""
    if r < 1 or m < 1:
        raise ValueError("rank and index must be positive")
    symbols = tuple(sorted(symbols)) if symbols else tuple(
        f"a{i}" if r > 26 else chr(ord("a") + i) for i in range(r)
    )
    from math import factorial

    if factorial(m) ** r > cap:
        raise ResourceBound(f"{factorial(m) ** r} permutation tuples exceed cap")
    perms = list(permutations(range(m)))
    seen = {}
    for assignment in product(perms, repeat=r):
        # transitivity
        reached = {0}
        frontier = [0]
        while frontier:
            s = frontier.pop()
            for p in assignment:
                for t in (p[s], p.index(s)):
                    if t not in reached:
                        reached.add(t)
                        frontier.append(t)
        if len(reached) != m:
            continue
        trans = {}
        for sym, p in zip(symbols, assignment):
            for s in range(m):
                trans[(s, sym)] = p[s]
        sg = SubgroupGraph(symbols, tuple(range(m)), trans, 0).canonical()
        seen.setdefault(sg.key(), sg)
    return [seen[k] for k in sorted(seen)]


# --- covers -------------------------------------------------------------


@record
class CoveringMap:
    total: MarkedGraph
    base: MarkedGraph
    vertex_projection: dict  # total vertex -> base vertex
    edge_projection: dict  # total positive edge -> base positive edge
    subgroup: SubgroupGraph
    fiber_state: dict  # total vertex -> subgroup-graph state

    def degree(self):
        return len(self.subgroup.states)

    @cached_property
    def _lifts_from(self):
        """(base oriented edge, total vertex) -> the lifted oriented edge there."""
        table = {}
        for eid, data in self.total.edges.items():
            table.setdefault((self.edge_projection[eid], data.src), eid)
            table.setdefault((inv(self.edge_projection[eid]), data.dst), inv(eid))
        return table

    def project_path(self, path):
        out = []
        for e in path:
            b = self.edge_projection[base(e)]
            out.append(b if is_positive(e) else inv(b))
        return tuple(out)

    def identification_words(self, basepoint=None):
        """Map from total-graph basis symbols to ambient (base) words."""
        from .graph import word_to_loop

        basepoint = basepoint or self.total.vertices[0]
        words = {}
        for e, symbol in sorted(self.total.basis_labels.items()):
            loop = word_to_loop(self.total, (symbol,), basepoint)
            words[symbol] = loop_to_word(
                self.base, self.project_path(loop), self.vertex_projection[basepoint]
            )
        return words


def _edge_state_action(g: MarkedGraph, H: SubgroupGraph):
    """State transport along each positive base edge (tree edges act trivially)."""
    action = {}
    for e in g.edges:
        if e in g.spanning_tree:
            action[e] = None
        else:
            action[e] = g.basis_labels[e]
    return action


def build_cover(base_graph: MarkedGraph, H: SubgroupGraph):
    """Finite cover of a marked graph associated with a finite-index subgroup."""
    if set(H.symbols) != set(base_graph.basis_symbols()):
        raise ValueError("subgroup symbols do not match the marking basis")
    if not H.is_complete():
        raise InfiniteIndex()
    H = H.canonical()
    action = _edge_state_action(base_graph, H)
    vertices = []
    fiber_state = {}
    vertex_projection = {}
    for v in sorted(base_graph.vertices):
        for s in H.states:
            name = f"{v}@{s}"
            vertices.append(name)
            fiber_state[name] = s
            vertex_projection[name] = v
    edges = {}
    edge_projection = {}
    for e, data in sorted(base_graph.edges.items()):
        for s in H.states:
            t = s if action[e] is None else H.trans[(s, action[e])]
            eid = f"{e}@{s}"
            edges[eid] = OrientedEdge(eid, f"{data.src}@{s}", f"{data.dst}@{t}", data.length)
            edge_projection[eid] = e
    tree = _bfs_tree(vertices, edges)
    total = MarkedGraph(tuple(vertices), edges, frozenset(tree))
    return CoveringMap(total, base_graph, vertex_projection, edge_projection, H, fiber_state)


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


# --- automorphism action on subgroups -----------------------------------


def check_automorphism(images, symbols):
    sg = fold_subgroup_graph(list(images.values()), symbols)
    return sg.is_complete() and sg.index() == 1


def image_subgroup(images, H: SubgroupGraph):
    """Folded graph of Phi(H) for an automorphism given by basis images."""
    if not check_automorphism(images, H.symbols):
        raise NotAnAutomorphism()
    return _fold_image(images, H)


def _fold_image(images, H: SubgroupGraph):
    gens = [apply_images(images, w) for w in H.basis()]
    return fold_subgroup_graph(gens, H.symbols)


def smallest_invariant_power(images, H: SubgroupGraph, k_max):
    """Least k <= k_max with Phi^k(H) = H (exact equality), else None."""
    target = H.key()
    current = H
    for k in range(1, k_max + 1):
        # the first step checks that Phi is an automorphism; later ones only fold
        current = (image_subgroup if k == 1 else _fold_image)(images, current)
        if current.key() == target:
            return k
    return None


# --- map lifting --------------------------------------------------------


def lift_path(cover: CoveringMap, base_path, start_vertex):
    """Unique lift of a base edge path starting at a total-graph vertex."""
    lifts_from = cover._lifts_from
    out = []
    v = start_vertex
    for e in base_path:
        lift = lifts_from.get((e, v))
        if lift is None:
            raise RuntimeError("covering is not locally bijective")
        out.append(lift)
        v = cover.total.edge_dst(lift)
    return tuple(out), v


def lift_map(f, cover: CoveringMap, k):
    """All lifts of f^k to the total graph; None when no lift exists.

    Returns the lexicographically least lift (by its edge map) or None.
    """
    from .maps import GraphMap, map_power

    fk = map_power(f, k)
    lifts = []
    for s0 in _basepoint_fiber_choices(cover, fk):
        lifted = _try_lift(cover, fk, s0)
        if lifted is not None:
            lifts.append(lifted)
    if not lifts:
        return None
    lifts.sort(key=lambda m: sorted(m.edge_map.items()))
    return lifts[0]


def _basepoint_fiber_choices(cover, fk):
    v0 = sorted(cover.total.vertices)[0]
    target = fk.vertex_map[cover.vertex_projection[v0]]
    return [v for v in sorted(cover.total.vertices) if cover.vertex_projection[v] == target]


def _try_lift(cover, fk, image_v0):
    total = cover.total
    v0 = sorted(total.vertices)[0]
    vertex_map = {v0: image_v0}
    queue = [v0]
    edge_map = {}
    seen_edges = set()
    while queue:
        v = queue.pop(0)
        for e in sorted(total.edges_at(v)):
            if base(e) in seen_edges:
                continue
            seen_edges.add(base(e))
            base_image = fk.edge_image(cover.edge_projection[base(e)])
            if not is_positive(e):
                base_image = tuple(inv(x) for x in reversed(base_image))
            lifted, endpoint = lift_path(cover, base_image, vertex_map[v])
            if is_positive(e):
                edge_map[base(e)] = lifted
            else:
                edge_map[base(e)] = tuple(inv(x) for x in reversed(lifted))
            w = total.edge_dst(e)
            if w in vertex_map:
                if vertex_map[w] != endpoint:
                    return None
            else:
                vertex_map[w] = endpoint
                queue.append(w)
    from .maps import GraphMap

    candidate = GraphMap(total, vertex_map, edge_map)
    return candidate if not candidate.validate() else None


# --- intersections ------------------------------------------------------


def subgroup_intersection(h1: SubgroupGraph, h2: SubgroupGraph):
    """Folded core of the fiber product (basepoint pair)."""
    if h1.symbols != h2.symbols:
        raise ValueError("subgroups live over different bases")
    inn1, inn2 = h1._in_map, h2._in_map
    start = (h1.basepoint, h2.basepoint)
    seen = {start}
    queue = [start]
    trans = {}
    while queue:
        s1, s2 = queue.pop(0)
        for sym in h1.symbols:
            t1, t2 = h1.trans.get((s1, sym)), h2.trans.get((s2, sym))
            if t1 is not None and t2 is not None:
                trans[((s1, s2), sym)] = (t1, t2)
                if (t1, t2) not in seen:
                    seen.add((t1, t2))
                    queue.append((t1, t2))
            u1, u2 = inn1.get((s1, sym)), inn2.get((s2, sym))
            if u1 is not None and u2 is not None and (u1, u2) not in seen:
                seen.add((u1, u2))
                queue.append((u1, u2))
    sg = SubgroupGraph(h1.symbols, tuple(sorted(seen)), trans, start)
    return _trim_core(sg).canonical()


def _trim_core(sg: SubgroupGraph):
    """Drop, one after another, the states other than the basepoint that
    lie on at most one transition (a loop counts twice)."""
    incident = {s: [] for s in sg.states}
    for key, t in sg.trans.items():
        incident[key[0]].append(key)
        incident[t].append(key)
    degree = {s: len(keys) for s, keys in incident.items()}
    stack = [s for s, d in degree.items() if d <= 1 and s != sg.basepoint]
    removed = set(stack)
    trans = dict(sg.trans)
    while stack:
        s = stack.pop()
        for key in incident[s]:
            t = trans.pop(key, None)
            if t is None:
                continue
            other = t if key[0] == s else key[0]
            degree[other] -= 1
            if degree[other] <= 1 and other != sg.basepoint and other not in removed:
                removed.add(other)
                stack.append(other)
    states = tuple(s for s in sg.states if s not in removed)
    return SubgroupGraph(sg.symbols, states, trans, sg.basepoint)


# --- unique extension (finite-index rigidity) ---------------------------


def kernel_of_coset_action(H: SubgroupGraph):
    """Kernel of the action on cosets of H: a normal finite-index subgroup of
    the ambient group contained in H."""
    if not H.is_complete():
        raise InfiniteIndex()
    H = H.canonical()
    perms = {}
    for sym in H.symbols:
        perms[sym] = tuple(H.trans[(s, sym)] for s in H.states)
    # group generated by the permutations
    identity = tuple(range(len(H.states)))
    elements = {identity: 0}
    queue = [identity]
    while queue:
        g = queue.pop(0)
        for sym in H.symbols:
            h = tuple(perms[sym][g[i]] for i in range(len(g)))
            if h not in elements:
                elements[h] = len(elements)
                queue.append(h)
    trans = {}
    for g, i in elements.items():
        for sym in H.symbols:
            h = tuple(perms[sym][g[j]] for j in range(len(g)))
            trans[(i, sym)] = elements[h]
    return SubgroupGraph(H.symbols, tuple(range(len(elements))), trans, 0).canonical()


def _primitive_root(word):
    """Primitive root of a cyclically reduced word: (root, exponent)."""
    n = len(word)
    for d in range(1, n + 1):
        if n % d:
            continue
        if word == word[:d] * (n // d):
            return word[:d], n // d
    return word, 1


def solve_conjugacy(z, w):
    """One solution u of u z u^-1 = w plus the centralizer generator of z.

    Returns ``(u0, c)`` with general solution ``u0 * c^k``; None when z and w
    are not conjugate.  With z = p z' p^-1 and z' cyclically reduced,
    c = p r p^-1 for the primitive root r of z'.  z must be nontrivial:
    every u solves u 1 u^-1 = 1, and that solution set is not of this form.
    """
    z, w = free_reduce(z), free_reduce(w)
    if not z:
        raise ValueError("the trivial word has no cyclic centralizer")
    zc, p = cyclic_reduce(z)
    wc, q = cyclic_reduce(w)
    if len(zc) != len(wc):
        return None
    for i in range(len(zc)):
        if zc[i:] + zc[:i] == wc:
            z1 = zc[:i]
            u0 = concat(tuple(q), inverse(z1), inverse(tuple(p)))
            root, _ = _primitive_root(zc)
            c = concat(tuple(p), root, inverse(tuple(p)))
            return (u0, c)
    return None


def solve_conjugacy_system(equations):
    """The u with u z u^-1 = w for every pair ``(z, w)`` of words, or None.

    Lyndon and Schupp, *Combinatorial Group Theory*, ch. I.  The first
    equation with z != 1 is the pivot; its solutions are u0 c^j
    (``solve_conjugacy``).  The first equation whose z does not commute
    with c holds for at most one j, which ``_axis_shift`` reads off.  When
    every z commutes with c, each equation holds for all j or for none,
    and u0 (j = 0) is the answer.  The one candidate is then checked
    against every equation, so nothing is scanned and no bound can turn a
    solvable system into None.
    """
    equations = [(free_reduce(z), free_reduce(w)) for z, w in equations]
    pivot = next(((z, w) for z, w in equations if z), None)
    u = ()
    if pivot is not None:
        sol = solve_conjugacy(*pivot)
        if sol is None:
            return None
        u0, c = sol
        j = 0
        for z, w in equations:
            if concat(c, z) != concat(z, c):
                r, p = cyclic_reduce(c)
                t = concat(inverse(u0), w, u0)
                j = _axis_shift(r, concat(inverse(p), z, p), concat(inverse(p), t, p))
                if j is None:
                    return None
                break
        u = concat(u0, *[c if j > 0 else inverse(c)] * abs(j))
    if all(concat(u, z, inverse(u)) == w for z, w in equations):
        return u
    return None


def _axis_shift(r, z, t):
    """The one j that can give r^j z r^-j = t, for r cyclically reduced
    and primitive and z outside <r>; None when no j can.

    In the Cayley tree, m -> |r^m x r^-m| is convex, and it grows by
    exactly 2|r| per step (no cancellation at either end) once m|r| passes
    |x| + 2|r|: the axis of r passes through 1, and it overlaps the axis of
    x r x^-1 in less than 2|r| unless x commutes with r.  So if
    t = r^j z r^-j, conjugating z and t by one r^m past both thresholds
    gives lengths exactly 2|r| j apart.
    """
    n = len(r)
    rm = r * (max(len(z), len(t)) // n + 3)
    gap = len(concat(rm, t, inverse(rm))) - len(concat(rm, z, inverse(rm)))
    j, rest = divmod(gap, 2 * n)
    return None if rest else j


@record
class ExtensionVerdict:
    found: bool
    images: dict = None


def restriction_images(images, H: SubgroupGraph, gen_symbols=None):
    """Restriction of an H-invariant automorphism to H, over H's basis."""
    if gen_symbols is None:
        gen_symbols = [f"x{i}" for i in range(H.rank())]
    out = {}
    for sym, w in zip(gen_symbols, H.basis()):
        out[sym] = H.express_in_basis(apply_images(images, w), gen_symbols)
    return out


def _ambient_restriction(psi_on_H, H: SubgroupGraph):
    """psi given over H's basis, as a map on ambient member words."""
    gen_symbols = [f"x{i}" for i in range(H.rank())]
    basis = H.basis()
    subst = {s: w for s, w in zip(gen_symbols, basis)}
    images = {s: psi_on_H[s] for s in gen_symbols}

    def act(word):
        in_basis = H.express_in_basis(word, gen_symbols)
        return apply_images(subst, apply_images(images, in_basis))

    return act


def extend_restriction(psi_on_H, H: SubgroupGraph):
    """The unique ambient automorphism restricting to psi on H, if any.

    Each ambient basis letter a is pinned by the equations
    ``Phi(a) psi(x) Phi(a)^-1 = psi(a x a^-1)`` over a basis of the coset
    kernel N, solved exactly by ``solve_conjugacy_system``.
    """
    symbols = H.symbols
    act = _ambient_restriction(psi_on_H, H)
    n_basis = kernel_of_coset_action(H).basis()
    if len(n_basis) < 2:
        raise SolverBound("kernel subgroup has rank < 2; equations underdetermined")
    images = {}
    for a in symbols:
        u = solve_conjugacy_system(
            [(act(x), act(concat((a,), x, (inv(a),)))) for x in n_basis]
        )
        if u is None:
            return ExtensionVerdict(False)
        images[a] = u
    if not check_automorphism(images, symbols):
        return ExtensionVerdict(False)
    # replay: the candidate must preserve H and restrict to psi
    if image_subgroup(images, H).key() != H.canonical().key():
        return ExtensionVerdict(False)
    gen_symbols = [f"x{i}" for i in range(H.rank())]
    subst = {s: w for s, w in zip(gen_symbols, H.basis())}
    for s in gen_symbols:
        expected = apply_images(subst, psi_on_H[s])
        if apply_images(images, subst[s]) != expected:
            return ExtensionVerdict(False)
    return ExtensionVerdict(True, images)


# --- interchange --------------------------------------------------------


def subgroup_to_json_dict(sg: SubgroupGraph):
    return {
        "symbols": list(sg.symbols),
        "vertices": [str(s) for s in sg.states],
        "edges": [
            {"id": f"{s}:{x}", "from": str(s), "to": str(t), "label": x}
            for (s, x), t in sorted(sg.trans.items())
        ],
        "basepoint": str(sg.basepoint),
    }


def subgroup_from_json_dict(d):
    trans = {}
    for ed in d["edges"]:
        trans[(ed["from"], ed["label"])] = ed["to"]
    return SubgroupGraph(
        tuple(d["symbols"]), tuple(d["vertices"]), trans, d["basepoint"]
    ).canonical()
