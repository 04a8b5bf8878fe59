"""Reference copy of the permutation-tuple subgroup scan.

This is the implementation that low-index enumeration in
``fibercomm.covers`` replaced, kept unchanged as a test oracle: it walks
all (m!)^r tuples of permutations, keeps the transitive ones, and dedups
their canonical forms in a dict.  The only edit: the cap check moved out,
since the tests call it only where (m!)^r is small.  ``SubgroupGraph`` and
``canonical`` come from the package.
"""

from itertools import permutations, product

from fibercomm.covers import SubgroupGraph


def enumerate_subgroups(r, m, symbols=None):
    """All index-m subgroups of F_r via basepointed transitive actions."""
    if r < 1 or m < 1:
        raise ValueError("rank and index must be positive")
    symbols = tuple(sorted(symbols)) if symbols else tuple(
        f"a{i}" if r > 26 else chr(ord("a") + i) for i in range(r)
    )
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
