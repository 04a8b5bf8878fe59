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
from .spectral import _add, _divmod_monic, _mul, _sign, _sub
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
    exact fixed points of the eigen-metric.

    Edge lengths lie in Q(lambda), as integer polynomials in lambda
    (``spectral.pf_left_eigenvector``).  At period p a leg's endpoint lies
    at distance metric(tau) / (lambda^p - 1) from the turn.  As
    lambda^p - 1 > 0, the legs are measured in lengths scaled by
    lambda^p - 1 and compared with metric(tau), so nothing is divided.
    """
    from .spectral import pf_data, pf_left_eigenvector

    mat = maps.transition_matrix(f)
    try:
        sf, _ = pf_data(mat)
    except ZeroMatrix:
        return []
    if not sf.expanding:
        return []
    ell = dict(zip(maps.orbit_order(f.domain), pf_left_eigenvector(mat, sf)))
    scaled = {}
    for p in range(1, period_bound + 1):
        denom = _divmod_monic([-1] + [0] * (p - 1) + [1], sf.min_poly)[1]  # lambda^p - 1
        scaled[p] = {e: _divmod_monic(_mul(denom, x), sf.min_poly)[1] for e, x in ell.items()}

    bad = maps.illegal_turns(f)
    legal_next = _legal_continuations(f, bad)
    results = []
    for turn in sorted(bad, key=sorted):
        d1, d2 = sorted(turn)
        for p in range(1, period_bound + 1):
            hit = _grow_legs(f, d1, d2, p, length_bound, legal_next, sf, ell, scaled[p])
            if hit is not None:
                results.append(hit)
    return results


def _metric(path, lengths):
    """The sum of ``lengths`` over the edges of ``path``."""
    total = []
    for e, n in Counter(map(base, path)).items():
        total = _add(total, [n * c for c in lengths[e]])
    return total


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


def _grow_legs(f, d1, d2, p, length_bound, legal_next, sf, ell, scaled):
    """Depth-first coupled growth of the two legs; returns the first hit.

    ``ell`` is the eigen-metric and ``scaled`` the same lengths times
    lambda^p - 1."""
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
        target = _metric(tau, ell)
        end_a = _locate(sf, alpha, target, scaled, f.domain)
        end_b = _locate(sf, beta, target, scaled, f.domain)
        if end_a is not None and end_b is not None:
            if end_a[0] == "vertex" and end_b[0] == "vertex":
                continue  # vertex-endpoint paths come from the direct search
            sigma = tuple(inv(x) for x in reversed(alpha)) + beta
            return (sigma, p, (_flip(end_a), end_b))
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
            if _sign(_sub(_metric(leg, scaled), target), sf) < 0:
                for d in legal_next[leg[-1]]:
                    ext = leg + (d,)
                    stack.append((ext, other) if first else (other, ext))
                break
    return None


def _locate(sf, leg, target, scaled, g):
    """Endpoint descriptor for the point at ``scaled`` distance ``target``
    along the leg; None if the leg is too short.  An interior point carries
    its distance from the start of its edge as a share of the edge's
    length, numerator and denominator as coefficients in lambda."""
    acc = []
    for i, d in enumerate(leg):
        nxt = _add(acc, scaled[base(d)])
        s_here = _sign(_sub(target, nxt), sf)
        if s_here < 0:
            share = (_sub(target, acc), scaled[base(d)])
            return ("interior", d, "/".join(",".join(map(str, x)) or "0" for x in share))
        if s_here == 0:
            if i == len(leg) - 1:
                return ("vertex", g.edge_dst(d))
            return None  # point is a vertex strictly inside the leg: divisible
        acc = nxt
    return None


def _flip(endpoint):
    """Re-express an endpoint found along alpha on the reversed carrier."""
    if endpoint[0] == "vertex":
        return endpoint
    _, d, exact = endpoint
    return ("interior", inv(d), exact)


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
