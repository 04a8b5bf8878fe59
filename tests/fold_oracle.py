"""Reference copies of the rescanning Stallings folder and its core trim.

These are the implementations that worklist folding in ``fibercomm.covers``
replaced, kept unchanged as a test oracle: ``fold_subgroup_graph`` restarts
a full edge scan after every merge, and ``_core``, which
``subgroup_intersection`` calls, trims leaves one round at a time.  The
only edit: the method ``SubgroupGraph._in_map()`` became the module
function ``_in_map`` here.  ``SubgroupGraph``, ``canonical`` and the word
helpers come from the package.
"""

from fibercomm.covers import SubgroupGraph
from fibercomm.words import base, free_reduce, is_positive


def _in_map(sg):
    inn = {}
    for (s, x), t in sg.trans.items():
        inn[(t, x)] = s
    return inn


def fold_subgroup_graph(generators, symbols):
    """Folded core graph of the subgroup generated by the given words."""
    symbols = tuple(sorted(symbols))
    edges = []  # (u, symbol, v)
    next_vertex = 1
    for w in generators:
        w = free_reduce(tuple(w))
        prev = 0
        for i, letter in enumerate(w):
            nxt = 0 if i == len(w) - 1 else next_vertex
            if i < len(w) - 1:
                next_vertex += 1
            if is_positive(letter):
                edges.append((prev, letter, nxt))
            else:
                edges.append((nxt, base(letter), prev))
            prev = nxt

    parent = list(range(next_vertex))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent[find(x)] = find(y)

    changed = True
    while changed:
        changed = False
        out = {}
        inn = {}
        for u, x, v in edges:
            u, v = find(u), find(v)
            if (u, x) in out and find(out[(u, x)]) != v:
                union(out[(u, x)], v)
                changed = True
                break
            out[(u, x)] = v
            if (v, x) in inn and find(inn[(v, x)]) != u:
                union(inn[(v, x)], u)
                changed = True
                break
            inn[(v, x)] = u

    merged = {(find(u), x, find(v)) for u, x, v in edges}
    bp = find(0)
    # core: drop valence-1 vertices other than the basepoint
    while True:
        degree = {}
        for u, x, v in merged:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        removable = {
            v for v, d in degree.items() if d == 1 and v != bp
        }
        if not removable:
            break
        merged = {
            (u, x, v) for u, x, v in merged if u not in removable and v not in removable
        }
    states = sorted({bp} | {u for u, _, _ in merged} | {v for _, _, v in merged})
    trans = {(u, x): v for u, x, v in merged}
    return SubgroupGraph(symbols, tuple(states), trans, bp).canonical()


def subgroup_intersection(h1: SubgroupGraph, h2: SubgroupGraph):
    """Folded core of the fiber product (basepoint pair)."""
    if h1.symbols != h2.symbols:
        raise ValueError("subgroups live over different bases")
    inn1, inn2 = _in_map(h1), _in_map(h2)
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
    # core trim then canonicalize
    return _core(sg).canonical()


def _core(sg: SubgroupGraph):
    trans = dict(sg.trans)
    while True:
        degree = {}
        for (s, x), t in trans.items():
            degree[s] = degree.get(s, 0) + 1
            degree[t] = degree.get(t, 0) + 1
        removable = {
            v
            for v in sg.states
            if degree.get(v, 0) <= 1 and v != sg.basepoint
        }
        if not removable:
            break
        trans = {
            (s, x): t
            for (s, x), t in trans.items()
            if s not in removable and t not in removable
        }
        sg = SubgroupGraph(
            sg.symbols,
            tuple(v for v in sg.states if v not in removable),
            trans,
            sg.basepoint,
        )
    reachable = {sg.basepoint}
    queue = [sg.basepoint]
    inn = _in_map(sg)
    while queue:
        s = queue.pop(0)
        for sym in sg.symbols:
            for t in (sg.trans.get((s, sym)), inn.get((s, sym))):
                if t is not None and t not in reachable:
                    reachable.add(t)
                    queue.append(t)
    trans = {(s, x): t for (s, x), t in sg.trans.items() if s in reachable}
    return SubgroupGraph(sg.symbols, tuple(sorted(reachable)), trans, sg.basepoint)
