"""The kernels of the bounded searches of :mod:`fibercomm.maps`.

``maps.find_nielsen_paths`` walks edge paths with ``_vertex_nielsen_paths``
and grows two legal legs at an illegal turn with
``_interior_nielsen_paths``; ``maps.is_atoroidal`` walks necklaces with
``_necklaces``.  Both keep the tightened images of each prefix on the
persistent stacks of ``_append``.  The entry points stay in ``maps`` and
import this module when called, so a command that runs no search does not
load it.  Functions of ``maps`` are looked up on the module at call time,
so a wrapper put on the module attribute (``perfbench/tracing.py``) sees
these calls too.
"""

from collections import Counter

from . import maps
from .errors import ZeroMatrix
from .maps import GraphMap
from .words import base, inv, inverse


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

    mat = maps.transition_matrix(f)
    try:
        sf, _ = pf_data(mat)
    except ZeroMatrix:
        return []
    if not sf.expanding:
        return []
    field = sf.field()
    order = maps.orbit_order(f.domain)
    lengths = pf_left_eigenvector(mat, field)
    if field.sign(lengths[0]) < 0:
        lengths = [field.neg(x) for x in lengths]
    ell = {e: lengths[i] for i, e in enumerate(order)}

    def metric(path):
        total = field.zero()
        for e, n in Counter(map(base, path)).items():
            total = field.add(total, field.scale(ell[e], n))
        return total

    bad = maps.illegal_turns(f)
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
        g1 = maps.iterate_map(f, alpha, p)
        g2 = maps.iterate_map(f, beta, p)
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
