"""Seeded inputs for the benchmark's workloads.

Everything is built here from basis images, without fibercomm: finite
covers given by coset tables, lifts of powers to those covers, and seeded
positive automorphisms.  The seed picks the subgroups and the automorphisms;
every pick is drawn from a class whose members cost about the same, so that
a run's total work depends little on the seed.
"""

from itertools import permutations, product
from math import lcm

from oracle import (
    conjugate,
    cyclic_core,
    inv,
    inverse_word,
    invariant_power,
    letter_matrix,
    power,
    reduce_word,
    substitute,
)

FIB = {"a": ("a", "b"), "b": ("a",)}
PLAST = {"a": ("b",), "b": ("c",), "c": ("a", "b")}


# --- coset tables ----------------------------------------------------------


class CosetTable:
    """Transitive action of F(symbols) on states 0..m-1, numbered by
    breadth-first search from 0 in the letter order a, ~a, b, ~b, ..."""

    def __init__(self, perms):
        self.symbols = tuple(sorted(perms))
        self.perms = {x: tuple(p) for x, p in perms.items()}
        self.m = len(next(iter(self.perms.values())))
        self.inverse = {
            x: tuple(p.index(s) for s in range(self.m)) for x, p in self.perms.items()
        }

    def step(self, state, letter):
        if letter[0] == "~":
            return self.inverse[letter[1:]][state]
        return self.perms[letter][state]

    def canonical(self):
        """The same subgroup with its states renumbered canonically, the
        tree letters reaching each state, and the tree transitions;
        None when the action is not transitive."""
        order, paths, tree = {0: 0}, {0: ()}, set()
        queue = [0]
        for state in queue:
            for x in self.symbols:
                for letter in (x, "~" + x):
                    nxt = self.step(state, letter)
                    if nxt not in order:
                        order[nxt] = len(order)
                        paths[nxt] = paths[state] + (letter,)
                        tree.add((state, x) if letter == x else (nxt, x))
                        queue.append(nxt)
        if len(order) != self.m:
            return None
        perms = {x: [0] * self.m for x in self.symbols}
        for x, p in self.perms.items():
            for s in range(self.m):
                perms[x][order[s]] = order[p[s]]
        table = CosetTable(perms)
        table.paths = {order[s]: w for s, w in paths.items()}
        table.tree = {(order[s], x) for s, x in tree}
        return table

    def key(self):
        return tuple(self.perms[x] for x in self.symbols)

    def invariant_power(self, images, k_max):
        """Least k <= k_max with Phi^k(H) = H, else None."""
        trans = {(s, x): p[s] for x, p in self.perms.items() for s in range(self.m)}
        powers = (power(images, k) for k in range(1, k_max + 1))
        return invariant_power(powers, self.symbols, 0, trans)


def subgroups(symbols, m):
    """Every index-m subgroup of F(symbols), as canonical coset tables."""
    found = {}
    for perms in product(permutations(range(m)), repeat=len(symbols)):
        table = CosetTable(dict(zip(sorted(symbols), perms))).canonical()
        if table is not None:
            found.setdefault(table.key(), table)
    return [found[k] for k in sorted(found)]


# --- lifts -----------------------------------------------------------------


def lift_file(images, table, k, relabel):
    """Map file of the lift of the k-th power of a rose map to the cover of
    ``table``, fixing the base vertex v0@0.

    Vertices are ``v0@s`` and edges ``x@s`` (from v0@s to v0@(s.x)), as in
    fibercomm's own covers.  The spanning tree is the Schreier tree.  With
    ``relabel`` the non-tree edges get basis labels that sort in the order
    of the subgroup's Schreier basis, so a certificate's identification is
    the identity; otherwise the labels default to the edge ids.
    """
    pk = power(images, k)

    def lift(word, state):
        path = []
        for y in word:
            if y[0] == "~":
                state = table.inverse[y[1:]][state]
                path.append(f"~{y[1:]}@{state}")
            else:
                path.append(f"{y}@{state}")
                state = table.perms[y][state]
        return tuple(path), state

    vmap = {s: lift(substitute(pk, table.paths[s]), 0)[1] for s in range(table.m)}
    edge_map = {}
    for x in table.symbols:
        for s in range(table.m):
            path, end = lift(pk[x], vmap[s])
            if end != vmap[table.perms[x][s]]:
                raise ValueError("the power does not lift with v0@0 fixed")
            edge_map[f"{x}@{s}"] = " ".join(path)
    edges = [
        {"id": f"{x}@{s}", "from": f"v0@{s}", "to": f"v0@{table.perms[x][s]}", "length": "1"}
        for x in table.symbols
        for s in range(table.m)
    ]
    graph = {
        "vertices": [f"v0@{s}" for s in range(table.m)],
        "edges": edges,
        "tree": sorted(f"{x}@{s}" for s, x in table.tree),
    }
    if relabel:
        nontree = [(s, x) for s in range(table.m) for x in table.symbols if (s, x) not in table.tree]
        graph["basis"] = {f"{x}@{s}": f"h{i:02d}" for i, (s, x) in enumerate(nontree)}
    return {
        "graph": graph,
        "vertex_map": {f"v0@{s}": f"v0@{t}" for s, t in vmap.items()},
        "edge_map": edge_map,
    }


def pick_subgroup(rng, images, m, k):
    """A seeded index-m subgroup whose invariant power under the map is k."""
    pool = [t for t in subgroups(sorted(images), m) if t.invariant_power(images, k) == k]
    return pool[rng.randrange(len(pool))]


# --- positive automorphisms ----------------------------------------------


def direction_period_lcm(images):
    """lcm of the periods of the periodic directions of a rose map (the
    rotationless power when the vertex is principal)."""
    dmap = {}
    for x, w in images.items():
        dmap[x] = w[0]
        dmap["~" + x] = inv(w[-1])
    periods = []
    for d in dmap:
        cur, n = dmap[d], 1
        while cur != d and n <= len(dmap):
            cur, n = dmap[cur], n + 1
        if cur == d:
            periods.append(n)
    return lcm(*periods)


def _primitive(images):
    mat = letter_matrix(images)
    n = len(mat)
    acc = mat
    for _ in range((n - 1) ** 2):
        acc = [[sum(acc[i][t] * mat[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
    return all(v > 0 for row in acc for v in row)


def short_periodic_class(images, max_len=4, max_power=2):
    """A cyclically reduced word of length <= max_len whose conjugacy class
    is fixed up to inversion by some power <= max_power of the map, or
    None.  Such a class makes the map toroidal, and the CLI finds it at
    once instead of running its full search."""
    letters = [x for s in sorted(images) for x in (s, "~" + s)]
    for n in range(1, max_len + 1):
        for w in product(letters, repeat=n):
            if reduce_word(w) != w or cyclic_core(w) != w:
                continue
            image = w
            for _ in range(max_power):
                image = substitute(images, image)
                if conjugate(image, w) or conjugate(image, inverse_word(w)):
                    return w
    return None


def positive_automorphism(rng, rank, total_length, period_lcm, full_search=False):
    """A seeded positive automorphism of F_rank with a primitive transition
    matrix, images of length at least 2, the given total image length and
    the given direction-period lcm.  With ``full_search`` it has no short
    periodic conjugacy class (see ``short_periodic_class``), so the CLI's
    toroidality search runs to its bound, as for an atoroidal map.

    Built from right Nielsen moves x_i -> x_i x_j and a symbol permutation,
    so it is an automorphism; positive maps of a rose are train tracks.
    """
    symbols = "abc"[:rank]
    while True:
        images = {s: (s,) for s in symbols}
        while sum(map(len, images.values())) < total_length:
            i, j = rng.sample(symbols, 2)
            images[i] = images[i] + images[j]
        perm = list(symbols)
        rng.shuffle(perm)
        images = {s: images[t] for s, t in zip(symbols, perm)}
        if (
            sum(map(len, images.values())) == total_length
            and min(map(len, images.values())) >= 2
            and direction_period_lcm(images) == period_lcm
            and _primitive(images)
            and not (full_search and short_periodic_class(images))
        ):
            return _least_labeling(images)


def _least_labeling(images):
    """The relabeling of the symbols with the least image tuple.

    The CLI's searches run in symbol order, so one map costs different time
    under different labels; a fixed labeling keeps the cost a property of the
    map."""
    symbols = sorted(images)
    best = None
    for perm in permutations(symbols):
        rename = dict(zip(symbols, perm))
        rename.update({"~" + a: "~" + b for a, b in zip(symbols, perm)})
        relabeled = {rename[s]: tuple(rename[x] for x in w) for s, w in images.items()}
        key = tuple(relabeled[s] for s in symbols)
        if best is None or key < best[0]:
            best = (key, relabeled)
    return best[1]

