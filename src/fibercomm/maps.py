"""Topological representatives g: G -> G and train track verification.

Turn legality is read off the gates of the direction map, which its finite
orbits decide, so every verdict here is exact.  Stretch-factor data for the
transition matrix lives in :mod:`fibercomm.spectral`.
"""

from collections import Counter
from functools import cached_property
from itertools import combinations

from .errors import NonIncidentEdges, NotHomotopyEquivalence, UnknownEdge, ZeroMatrix
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

    def vertex_image(self, v):
        return self.vertex_map[v]

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

    def direction_image(self, d):
        return self.edge_image(d)[0]

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
    illegal_turns: frozenset  # frozensets of direction pairs
    gates: tuple  # tuple of frozensets partitioning directions, per vertex
    irreducible: bool
    witness: tuple = None  # (power, edge) exhibiting cancellation, if found


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


def _cancellation_witness(f: GraphMap, power_bound):
    """Search for the least power at which some edge image fails to be reduced."""
    for e in sorted(f.domain.edges):
        path = (e,)
        for k in range(1, power_bound + 1):
            raw = [y for x in path for y in f.edge_image(x)]
            if free_reduce(tuple(raw)) != tuple(raw):
                return (k, e)
            path = tuple(raw)
    return None


# Most powers of f searched for the cancellation witness is_train_track reports.
WITNESS_POWER_BOUND = 10


def is_train_track(f: GraphMap):
    """Exact train track verdict: no taken turn lies inside a gate.

    ``WITNESS_POWER_BOUND`` only caps the search for a reported cancellation
    witness; the verdict itself is decided on the finite turn set.
    """
    bad = illegal_turns(f)
    taken = f.taken_turns()
    ok = not (bad & taken)
    witness = None if ok else _cancellation_witness(f, WITNESS_POWER_BOUND)
    return TrainTrackVerdict(
        is_train_track=ok,
        illegal_turns=bad,
        gates=gate_partition(f),
        irreducible=is_irreducible_matrix(transition_matrix(f)),
        witness=witness,
    )


# --- induced outer automorphism ----------------------------------------


def induced_outer_automorphism(f: GraphMap, basepoint=None, check=True):
    """Images of the marking basis under f, via tree-path conjugation.

    The image of a basis loop sigma is closed up with the tree path from
    the image of the basepoint back to the basepoint.
    """
    g = f.domain
    basepoint = basepoint or g.vertices[0]
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
    the first/last edge at the recorded exact parameter.
    """

    path: tuple
    period: int
    endpoints: tuple  # two of ("vertex", v) or ("interior", edge, str exact, float)
    indivisible: bool = True


def _common_path_prefix(p1, p2):
    n = 0
    for a, b in zip(p1, p2):
        if a != b:
            break
        n += 1
    return p1[:n]


def _vertex_nielsen_paths(f: GraphMap, period_bound, length_bound):
    """Reduced edge paths sigma of length <= length_bound with
    f^p_#(sigma) = sigma for some p <= period_bound, with the least such p.

    Of sigma and its reverse (both periodic or neither) only the smaller
    is kept; the list is in (length, path) order.  Paths are walked depth
    first; each carries its tightened images f_#, ..., f^P_# as persistent
    stacks (``_append``), so one more edge costs only the letters it adds.
    The extensions of a path are skipped when ``_beyond_reach`` shows that
    none can be periodic, and a path at the length bound is not walked when
    it is larger than its reverse: it would not be kept, and its reverse,
    periodic with the same period, is walked from the other end.
    """
    g = f.domain
    if period_bound < 1 or length_bound < 1:
        return []
    images, inverse_of = f._images, f._inverses
    root = None
    for _ in range(period_bound):
        root = [None, None, 0, root]
    starts = sorted(g.oriented_edges())
    alone = {d: _append(root, images[d], period_bound, images, inverse_of) for d in starts}
    reach = [max(m) for m in zip(*map(_image_lengths, alone.values()))]
    follow = {
        d: [e for e in sorted(g.edges_at(g.edge_dst(d))) if e != inverse_of[d]] for d in starts
    }
    found = []
    stack = [((d,), alone[d]) for d in reversed(starts)]
    while stack:
        sigma, top = stack.pop()
        n = len(sigma)
        level = top
        for p in range(1, period_bound + 1):
            if level[2] == n and _spells(level, sigma):
                if sigma < inverse(sigma):
                    found.append((sigma, p))
                break
            level = level[3]
        left = length_bound - n
        if not left or _beyond_reach(_image_lengths(top), reach, left, length_bound):
            continue
        for d in reversed(follow[sigma[-1]]):
            if left == 1 and inverse_of[d] < sigma[0]:
                continue
            stack.append((sigma + (d,), _append(top, images[d], period_bound, images, inverse_of)))
    found.sort(key=lambda hit: (len(hit[0]), hit[0]))
    return [
        (sigma, p, (("vertex", g.path_src(sigma)), ("vertex", g.path_dst(sigma))))
        for sigma, p in found
    ]


def _append(top, word, levels, images, inverse_of):
    """Persistent tightening stacks of a path extended by ``word``.

    A stack node is a list ``[letter, parent, length, below]`` and stands
    for the word spelled from the bottom of its level up to it; ``below`` is
    the top of the next level for the f_#-image of that word.  The top of
    level i spells f^i_# of the path.  A cancellation returns to the
    parent, whose ``below`` is already right; each new node's ``below`` is
    built on the next pass by appending the image of its letter.  Each
    level's bottom is a sentinel with letter None and length 0.
    """
    new = []
    top = _push(top, word, inverse_of, new)
    for _ in range(levels - 1):
        fresh = []
        for node in new:
            node[3] = _push(node[1][3], images[node[0]], inverse_of, fresh)
        new = fresh
    return top


def _push(top, word, inverse_of, new):
    for y in word:
        if top[0] == inverse_of[y]:
            top = top[1]
        else:
            top = [y, top, top[2] + 1, None]
            new.append(top)
    return top


def _image_lengths(top):
    lengths = []
    while top is not None:
        lengths.append(top[2])
        top = top[3]
    return lengths


def _spells(top, path):
    """Whether the stack ending at ``top`` spells ``path`` (same length assumed)."""
    for x in reversed(path):
        if top[0] != x:
            return False
        top = top[1]
    return True


def _beyond_reach(lengths, reach, left, bound):
    """Whether no extension of a path by at most ``left`` edges is periodic.

    ``lengths[i]`` is |f^(i+1)_#(sigma)| and ``reach[i]`` the longest
    f^(i+1)_#-image of an edge.  f^p_#(sigma rho) is the tightened product
    f^p_#(sigma) f^p_#(rho), so its length is at least
    |f^p_#(sigma)| - left * reach; periodic paths have length <= bound.
    """
    return all(n - left * m > bound for n, m in zip(lengths, reach))


def _interior_nielsen_paths(f: GraphMap, period_bound, length_bound):
    """Two-legal-legs-at-one-illegal-turn candidates with endpoints at
    exact fixed points of the eigen-metric, located in Q(lambda)."""
    from .spectral import pf_data, pf_left_eigenvector

    mat = transition_matrix(f)
    try:
        sf, _ = pf_data(mat)
    except ZeroMatrix:
        return []
    if not sf.expanding:
        return []
    field = sf.field()
    order = orbit_order(f.domain)
    lengths = pf_left_eigenvector(mat, field)
    if field.sign(lengths[0]) < 0:
        lengths = [field.neg(x) for x in lengths]
    ell = {e: lengths[i] for i, e in enumerate(order)}

    def metric(path):
        total = field.zero()
        for e, n in Counter(map(base, path)).items():
            total = field.add(total, field.scale(ell[e], n))
        return total

    bad = illegal_turns(f)
    legal_next = _legal_continuations(f, bad)
    results = []
    lam = field.root()
    for turn in sorted(bad, key=sorted):
        d1, d2 = sorted(turn)
        for p in range(1, period_bound + 1):
            lam_p = field.one()
            for _ in range(p):
                lam_p = field.mul(lam_p, lam)
            denom = field.sub(lam_p, field.one())
            hit = _grow_legs(
                f, d1, d2, p, length_bound, legal_next, field, metric, denom, ell
            )
            if hit is not None:
                results.append(hit)
    return results


def _legal_continuations(f: GraphMap, bad_turns):
    g = f.domain
    table = {}
    for d in g.oriented_edges():
        v = g.edge_dst(d)
        outs = []
        for d2 in sorted(g.edges_at(v)):
            if d2 == inv(d):
                continue
            if frozenset((inv(d), d2)) in bad_turns:
                continue
            outs.append(d2)
        table[d] = outs
    return table


def _grow_legs(f, d1, d2, p, length_bound, legal_next, field, metric, denom, ell):
    """Depth-first coupled growth of the two legs; returns the first hit."""
    stack = [((d1,), (d2,))]
    seen = set()
    while stack:
        alpha, beta = stack.pop()
        if (alpha, beta) in seen or len(alpha) > length_bound or len(beta) > length_bound:
            continue
        seen.add((alpha, beta))
        g1 = iterate_map(f, alpha, p)
        g2 = iterate_map(f, beta, p)
        tau = _common_path_prefix(g1, g2)
        if not tau:
            continue
        a_tail, b_tail = g1[len(tau):], g2[len(tau):]
        if _common_path_prefix(a_tail, alpha) not in (a_tail[: len(alpha)], alpha):
            continue
        if _common_path_prefix(b_tail, beta) not in (b_tail[: len(beta)], beta):
            continue
        target = field.div(metric(tau), denom)
        end_a = _locate(field, alpha, target, ell, f.domain, start=False)
        end_b = _locate(field, beta, target, ell, f.domain, start=False)
        if end_a is not None and end_b is not None:
            if end_a[0] == "vertex" and end_b[0] == "vertex":
                continue  # vertex-endpoint paths come from the direct search
            sigma = tuple(inv(x) for x in reversed(alpha)) + beta
            return (sigma, p, (_flip(end_a, alpha, f.domain), end_b))
        # pull: adopt the image tails when they extend the current legs
        grew = False
        if len(a_tail) > len(alpha) and a_tail[: len(alpha)] == alpha:
            alpha2 = a_tail[: length_bound]
            if alpha2 != alpha:
                grew = True
        else:
            alpha2 = alpha
        if len(b_tail) > len(beta) and b_tail[: len(beta)] == beta:
            beta2 = b_tail[: length_bound]
            if beta2 != beta:
                grew = True
        else:
            beta2 = beta
        if grew:
            stack.append((alpha2, beta2))
            continue
        # branch on extending whichever leg is metrically short
        for leg, other, first in ((alpha, beta, True), (beta, alpha, False)):
            if field.lt(metric(leg), target):
                for d in legal_next[leg[-1]]:
                    ext = leg + (d,)
                    stack.append((ext, other) if first else (other, ext))
                break
    return None


def _locate(field, leg, target, ell, g, start):
    """Endpoint descriptor for the point at metric distance ``target`` along
    the leg; None if the leg is too short."""
    acc = field.zero()
    for i, d in enumerate(leg):
        nxt = field.add(acc, ell[base(d)])
        s_here = field.sign(field.sub(target, nxt))
        if s_here < 0:
            t = field.sub(target, acc)
            exact = ",".join(str(c) for c in t)
            return ("interior", d, exact, float(field.approx(t)))
        if s_here == 0:
            if i == len(leg) - 1:
                return ("vertex", g.edge_dst(d))
            return None  # point is a vertex strictly inside the leg: divisible
        acc = nxt
    return None


def _flip(endpoint, alpha, g):
    """Re-express an endpoint found along alpha on the reversed carrier."""
    if endpoint[0] == "vertex":
        return endpoint
    _, d, exact, approx = endpoint
    return ("interior", inv(d), exact, approx)


def find_nielsen_paths(f: GraphMap, period_bound, length_bound):
    """Bounded search for periodic Nielsen paths g^p_#(sigma) = sigma.

    Candidates are reduced paths with vertex endpoints (direct iteration)
    plus the classical two-legal-legs shape with exact eigen-metric interior
    endpoints.  Absence within bounds is just an empty list, never a proof.
    """
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


def is_atoroidal(f: GraphMap, power_bound, length_bound, basepoint=None):
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
    images = _OrientedImages(induced_outer_automorphism(f, basepoint=basepoint, check=False))
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


def _necklaces(symbols, n, grow, root):
    """The cyclically reduced words of length n that are least among their
    rotations, in lex order of the letters a, ~a, b, ~b, ... (symbols
    sorted); each comes with its state ``grow(...grow(root, w[0])..., w[-1])``.

    A depth-first walk over the reduced prenecklaces (Fredricksen, Kessler
    and Maiorana; Duval, J. Algorithms 1983): a prefix w[:t] whose longest
    Lyndon prefix has length p takes a letter x >= w[t - p], and p becomes
    t + 1 unless x == w[t - p].  A word of length n is a necklace iff p
    divides n.  Every prefix of a cyclically reduced necklace is reduced,
    so only reduced prefixes are walked.
    """
    letters = []
    for s in sorted(symbols):
        letters += (s, inv(s))
    rank = {x: i for i, x in enumerate(letters)}
    stack = [((), 1, root)]
    while stack:
        word, p, state = stack.pop()
        t = len(word)
        if t:
            state = grow(state, word[-1])
            low = word[t - p]
            options = [x for x in letters[rank[low] :] if x != inv(word[-1])]
        else:
            low, options = None, letters
        if t + 1 < n:
            for x in reversed(options):
                stack.append((word + (x,), p if x == low else t + 1, state))
            continue
        for x in options:
            period = p if x == low else n
            if n % period == 0 and (t == 0 or x != inv(word[0])):
                yield word + (x,), grow(state, x)


def _spelled(top):
    """The word spelled by the stack ending at ``top``."""
    out = []
    while top[0] is not None:
        out.append(top[0])
        top = top[1]
    return tuple(reversed(out))


def _is_rotation(core, w):
    """Whether ``core`` is a rotation of ``w`` (same length assumed)."""
    ww = w + w
    return any(ww[j : j + len(w)] == core for j in range(len(w)) if w[j] == core[0])


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
