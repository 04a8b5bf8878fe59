"""Reference copy of the rescanning Stallings folder.

This is the implementation that worklist folding in ``fibercomm.covers``
replaced, kept unchanged as a test oracle: ``fold_subgroup_graph`` restarts
a full edge scan after every merge.  ``SubgroupGraph``, ``canonical`` and
the word helpers come from the package.
"""

from fibercomm.covers import SubgroupGraph
from fibercomm.words import base, free_reduce, is_positive


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
