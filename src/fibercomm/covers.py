"""Stallings subgroup graphs, finite covers, lifts, and conjugacy equations.

Subgroups of a free group are represented by based, folded core graphs
whose transitions are labeled by basis symbols.  Subgroups are tracked up
to equality (canonical coset-table form), not conjugacy.
"""

from functools import cached_property

from .errors import (
    InfiniteIndex,
    NotAnAutomorphism,
    ResourceBound,
)
from .graph import MarkedGraph, OrientedEdge, bfs_marked_graph, loop_to_word
from .record import record
from .unionfind import UnionFind
from .words import (
    _OrientedImages,
    _substitute,
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
        """Canonically relabeled copy (states numbered in the BFS order of
        ``_tree``); two graphs are equal as subgroups iff canonical forms match."""
        order = {state: i for i, state in enumerate(self._tree[0])}
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


# --- enumeration --------------------------------------------------------


def hall_count(r, m):
    """Number of index-m subgroups of F_r (Hall's recursion)."""
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


# Most subgroups enumerate_subgroups will list; Hall's count is checked
# before any work.
SUBGROUP_CAP = 2_000_000


def check_subgroup_cap(r, m):
    """ResourceBound when F_r has more than ``SUBGROUP_CAP`` index-m subgroups."""
    count = hall_count(r, m)
    if count > SUBGROUP_CAP:
        raise ResourceBound(f"{count} index-{m} subgroups exceed cap")


def enumerate_subgroups(r, m, symbols=None):
    """All index-m subgroups of F_r as canonical coset tables, sorted by key.

    Low-index enumeration (Sims, *Computation with Finitely Presented
    Groups*, 1994).  The table is filled depth first, slot by slot,
    in the order ``SubgroupGraph.canonical`` numbers states: states
    ascending, letters a, ~a, b, ~b, ....  Each free slot goes to an
    existing state whose opposite slot is free, or to the next new state.
    Every state is then numbered where the canonical BFS first reaches it,
    so each subgroup comes out once and already canonical.  A branch dies
    when the scan passes the last state with fewer than m states.
    """
    if r < 1 or m < 1:
        raise ValueError("rank and index must be positive")
    symbols = tuple(sorted(symbols)) if symbols else tuple(
        f"a{i}" if r > 26 else chr(ord("a") + i) for i in range(r)
    )
    check_subgroup_cap(r, m)
    # table[s][2i] = s.x_i and table[s][2i + 1] = s.x_i^-1; j ^ 1 is j's opposite
    table = [[None] * (2 * r) for _ in range(m)]
    tables = []

    def fill(slot, n):
        while slot < 2 * r * n:
            s, j = divmod(slot, 2 * r)
            if table[s][j] is None:
                break
            slot += 1
        else:
            if n == m:
                tables.append(tuple(row[j] for row in table for j in range(0, 2 * r, 2)))
            return
        for t in range(min(n + 1, m)):
            if table[t][j ^ 1] is None:
                table[s][j], table[t][j ^ 1] = t, s
                fill(slot + 1, max(n, t + 1))
                table[s][j] = table[t][j ^ 1] = None

    fill(0, 1)
    keys = [(s, x) for s in range(m) for x in symbols]
    return [
        SubgroupGraph(symbols, tuple(range(m)), dict(zip(keys, targets)), 0)
        for targets in sorted(tables)
    ]


# --- covers -------------------------------------------------------------


@record
class CoveringMap:
    total: MarkedGraph
    base: MarkedGraph
    vertex_projection: dict  # total vertex -> base vertex
    edge_projection: dict  # total positive edge -> base positive edge
    subgroup: SubgroupGraph

    @cached_property
    def _lifts_from(self):
        """(base oriented edge, total vertex) -> (the lifted oriented edge
        there, its far end)."""
        table = {}
        for eid, data in self.total.edges.items():
            table.setdefault((self.edge_projection[eid], data.src), (eid, data.dst))
            table.setdefault((inv(self.edge_projection[eid]), data.dst), (inv(eid), data.src))
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


def build_cover(base_graph: MarkedGraph, H: SubgroupGraph):
    """Finite cover of a marked graph associated with a finite-index subgroup."""
    if set(H.symbols) != set(base_graph.basis_symbols()):
        raise ValueError("subgroup symbols do not match the marking basis")
    if not H.is_complete():
        raise InfiniteIndex()
    H = H.canonical()
    vertices = []
    vertex_projection = {}
    for v in sorted(base_graph.vertices):
        for s in H.states:
            name = f"{v}@{s}"
            vertices.append(name)
            vertex_projection[name] = v
    edges = {}
    edge_projection = {}
    for e, data in sorted(base_graph.edges.items()):
        # tree edges move no state; the others act by their basis symbol
        symbol = None if e in base_graph.spanning_tree else base_graph.basis_labels[e]
        for s in H.states:
            t = s if symbol is None else H.trans[(s, symbol)]
            eid = f"{e}@{s}"
            edges[eid] = OrientedEdge(eid, f"{data.src}@{s}", f"{data.dst}@{t}", data.length)
            edge_projection[eid] = e
    total = bfs_marked_graph(vertices, edges)
    return CoveringMap(total, base_graph, vertex_projection, edge_projection, H)


# --- automorphism action on subgroups -----------------------------------


def check_automorphism(images, symbols):
    sg = fold_subgroup_graph(list(images.values()), symbols)
    return sg.is_complete() and sg.index() == 1


def is_invariant(images, H: SubgroupGraph):
    """Whether the automorphism Phi maps the complete H onto itself.

    An automorphism keeps the index, so Phi(H) <= H gives Phi(H) = H: it
    is enough that Phi(b) lies in H for every basis word b of H, and each
    membership reads one word through H's table.
    """
    oriented = _OrientedImages(images)
    return all(H.contains(_substitute(oriented, b)) for b in H.basis())


def invariant_powers(images, subgroups, k_max):
    """For each H of ``subgroups``, the least k <= k_max with Phi^k(H) = H
    (exact equality), else None.

    Phi^k(H) = H exactly when Phi^-k(H) = H, and Phi^-1(K) needs no fold:
    its coset table sends state s and letter x to the state Phi(x) reaches
    from s in K's, since w reads a loop there exactly when Phi(w) reads one
    in K's.  Phi^-1 keeps the index, so it permutes the subgroups of one
    finite index.  One table step per listed subgroup, matched by ``key()``,
    gives that permutation, and each k is read off its cycle.  The list must
    be closed under Phi^-1 (all subgroups of one index, or ``[full_group]``);
    a step that leaves it raises ValueError.
    """
    if not check_automorphism(images, tuple(sorted(images))):
        raise NotAnAutomorphism()
    position = {H.key(): i for i, H in enumerate(subgroups)}
    step = []
    for H in subgroups:
        if not H.is_complete():
            raise InfiniteIndex()
        trans = {(s, x): H.trace(images[x], s) for s, x in H.trans}
        j = position.get(SubgroupGraph(H.symbols, H.states, trans, H.basepoint).key())
        if j is None:
            raise ValueError("Phi^-1 maps a listed subgroup outside the list")
        step.append(j)
    powers = []
    for i, j in enumerate(step):
        k = 1
        while j != i and k < k_max:
            j, k = step[j], k + 1
        powers.append(k if j == i and k <= k_max else None)
    return powers


# --- map lifting --------------------------------------------------------


def lift_path(cover: CoveringMap, base_path, start_vertex):
    """Unique lift of a base edge path starting at a total-graph vertex."""
    lifts_from = cover._lifts_from
    out = []
    v = start_vertex
    for e in base_path:
        step = lifts_from.get((e, v))
        if step is None:
            raise RuntimeError("covering is not locally bijective")
        lift, v = step
        out.append(lift)
    return tuple(out), v


def lift_map(f, cover: CoveringMap, k):
    """The lexicographically least lift of f^k to the total graph (by its
    edge map), or None when no lift exists.

    The candidates, one per point of the basepoint's fiber that the
    endpoints allow, are sorted first and validated in that order, so only
    the candidates up to the first valid one are validated.
    """
    from .maps import map_power

    fk = map_power(f, k)
    lifts = []
    for s0 in _basepoint_fiber_choices(cover, fk):
        lifted = _try_lift(cover, fk, s0)
        if lifted is not None:
            lifts.append(lifted)
    lifts.sort(key=lambda m: sorted(m.edge_map.items()))
    return next((m for m in lifts if not m.validate()), None)


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
            b = cover.edge_projection[base(e)]
            # fk caches the image of each oriented edge, reversed ones too
            base_image = fk.edge_image(b if is_positive(e) else inv(b))
            lifted, endpoint = lift_path(cover, base_image, vertex_map[v])
            edge_map[base(e)] = lifted if is_positive(e) else inverse(lifted)
            w = total.edge_dst(e)
            if w in vertex_map:
                if vertex_map[w] != endpoint:
                    return None
            else:
                vertex_map[w] = endpoint
                queue.append(w)
    from .maps import GraphMap

    return GraphMap(total, vertex_map, edge_map)


# --- conjugacy equations -----------------------------------------------


def solve_conjugacy(z, w):
    """One solution u of u z u^-1 = w plus the centralizer generator of z.

    Returns ``(u0, c)`` with general solution ``u0 * c^k``; None when z and w
    are not conjugate.  With z = p z' p^-1 and z' cyclically reduced,
    c = p r p^-1 for the primitive root r of z'.  z must be nontrivial:
    every u solves u 1 u^-1 = 1, and that solution set is not of this form.

    The core w' of w is the rotation z'[i:] z'[:i] for the first i at which
    w' occurs in z' z'.  One Knuth–Morris–Pratt pass over w' # z' z' finds
    it.  Its failure table pi at the end of w' gives the least period
    n - pi[n-1] of w', and so of z'; r is z' cut to that period when the
    period divides n.
    """
    z, w = free_reduce(z), free_reduce(w)
    if not z:
        raise ValueError("the trivial word has no cyclic centralizer")
    zc, p = cyclic_reduce(z)
    wc, q = cyclic_reduce(w)
    n = len(zc)
    if len(wc) != n:
        return None
    seq = wc + (None,) + zc + zc[:-1]  # None matches no letter
    pi = [0] * len(seq)
    k = 0
    for j in range(1, len(seq)):
        while k and seq[j] != seq[k]:
            k = pi[k - 1]
        if seq[j] == seq[k]:
            k += 1
        if k == n:
            break
        pi[j] = k
    else:
        return None
    period = n - pi[n - 1]
    root = zc[:period] if n % period == 0 else zc
    u0 = concat(tuple(q), inverse(zc[: j - 2 * n]), inverse(tuple(p)))
    c = concat(tuple(p), root, inverse(tuple(p)))
    return (u0, c)


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
