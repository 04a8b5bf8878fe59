"""Independent arithmetic for checking fibercomm's CLI output.

Nothing here imports fibercomm: words, coset tables, transition matrices,
characteristic polynomials, Perron-Frobenius brackets and Hall's counts are
computed from scratch, so a check never compares the program with itself.

Conventions follow the CLI's JSON: a letter ``"a"`` is a basis symbol or a
positive edge and ``"~a"`` its inverse; a map file holds a graph (vertices,
edges, spanning tree, optional basis labels) plus vertex and edge images.
"""

from fractions import Fraction
from math import factorial


# --- words ---------------------------------------------------------------


def inv(x):
    return x[1:] if x[0] == "~" else "~" + x


def reduce_word(letters):
    out = []
    for x in letters:
        if out and out[-1] == inv(x):
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def inverse_word(w):
    return tuple(inv(x) for x in reversed(w))


def substitute(images, word):
    """Freely reduced image of a word under basis images."""
    out = []
    for x in word:
        img = images[x] if x[0] != "~" else inverse_word(images[x[1:]])
        out.extend(img)
    return reduce_word(out)


def power(images, k):
    result = {s: (s,) for s in images}
    for _ in range(k):
        result = {s: substitute(images, w) for s, w in result.items()}
    return result


def cyclic_core(word):
    w = list(reduce_word(word))
    while len(w) >= 2 and w[0] == inv(w[-1]):
        w = w[1:-1]
    return tuple(w)


def conjugate(u, v):
    """Whether the words u and v lie in one conjugacy class."""
    cu, cv = cyclic_core(u), cyclic_core(v)
    if len(cu) != len(cv):
        return False
    return not cu or any(cu[i:] + cu[:i] == cv for i in range(len(cu)))


# --- map files -----------------------------------------------------------


def rose_map(images):
    """Map file of a rose self-map from basis images (tuples of letters)."""
    symbols = sorted(images)
    return {
        "graph": {
            "vertices": ["v0"],
            "edges": [
                {"id": s, "from": "v0", "to": "v0", "length": "1"} for s in symbols
            ],
            "tree": [],
            "basis": {s: s for s in symbols},
        },
        "vertex_map": {"v0": "v0"},
        "edge_map": {s: " ".join(images[s]) for s in symbols},
    }


class MapFile:
    """A parsed map file with its marking: tree paths, basis loops, and
    the based automorphism the map induces on the marking basis."""

    def __init__(self, d):
        g = d["graph"]
        self.vertices = list(g["vertices"])
        self.ends = {e["id"]: (e["from"], e["to"]) for e in g["edges"]}
        self.tree = set(g.get("tree", []))
        labels = g.get("basis") or {
            e: e for e in sorted(self.ends) if e not in self.tree
        }
        self.labels = dict(labels)
        self.edge_of = {s: e for e, s in self.labels.items()}
        self.vertex_map = dict(d["vertex_map"])
        self.edge_map = {e: tuple(w.split()) for e, w in d["edge_map"].items()}
        self.basepoint = self.vertices[0]

    @property
    def rank(self):
        return len(self.ends) - len(self.vertices) + 1

    def src(self, x):
        a, b = self.ends[x.lstrip("~")]
        return b if x[0] == "~" else a

    def dst(self, x):
        return self.src(inv(x))

    def edge_image(self, x):
        img = self.edge_map[x.lstrip("~")]
        return inverse_word(img) if x[0] == "~" else img

    def apply(self, path):
        return reduce_word([y for x in path for y in self.edge_image(x)])

    def tree_path(self, u, v):
        """The reduced path from u to v in the spanning tree (it is unique)."""
        prev = {u: None}
        stack = [u]
        while stack:
            x = stack.pop()
            for e in self.tree:
                for d in (e, inv(e)):
                    y = self.dst(d)
                    if self.src(d) == x and y not in prev:
                        prev[y] = d
                        stack.append(y)
        path = []
        while prev[v] is not None:
            path.append(prev[v])
            v = self.src(prev[v])
        return tuple(reversed(path))

    def loop(self, word):
        """Closed edge path at the basepoint reading a word in the basis."""
        out = []
        for x in word:
            e = self.edge_of[x.lstrip("~")]
            d = inv(e) if x[0] == "~" else e
            out.extend(self.tree_path(self.basepoint, self.src(d)))
            out.append(d)
            out.extend(self.tree_path(self.dst(d), self.basepoint))
        return reduce_word(out)

    def read(self, path):
        """Basis word of an edge path (tree edges read as nothing)."""
        out = []
        for d in path:
            s = self.labels.get(d.lstrip("~"))
            if s is not None:
                out.append(inv(s) if d[0] == "~" else s)
        return reduce_word(out)

    def induced(self):
        """Basis images of the map, closed up at the basepoint by tree paths."""
        bp = self.basepoint
        fb = self.vertex_map[bp]
        there, back = self.tree_path(bp, fb), self.tree_path(fb, bp)
        return {
            s: self.read(reduce_word(there + self.apply(self.loop((s,))) + back))
            for s in self.labels.values()
        }

    def matrix(self):
        order = sorted(self.ends)
        index = {e: i for i, e in enumerate(order)}
        mat = [[0] * len(order) for _ in order]
        for j, e in enumerate(order):
            for x in self.edge_map[e]:
                mat[index[x.lstrip("~")]][j] += 1
        return mat


def letter_matrix(images):
    """Letter-count matrix of basis images (the rose transition matrix)."""
    order = sorted(images)
    index = {s: i for i, s in enumerate(order)}
    mat = [[0] * len(order) for _ in order]
    for j, s in enumerate(order):
        for x in images[s]:
            mat[index[x.lstrip("~")]][j] += 1
    return mat


# --- polynomials and the Perron-Frobenius root ---------------------------


def char_poly(mat):
    """det(xI - M), integer coefficients lowest degree first (Faddeev-LeVerrier)."""
    n = len(mat)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m_k = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        prev = m_k
        m_k = [
            [
                sum(mat[i][t] * prev[t][j] for t in range(n))
                + (coeffs[n - k + 1] if i == j else 0)
                for j in range(n)
            ]
            for i in range(n)
        ]
        trace = sum(mat[i][t] * m_k[t][i] for i in range(n) for t in range(n))
        coeffs[n - k] = -trace // k
    return coeffs


def evaluate(coeffs, t):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _spectral_radius_estimate(mat, rounds=400):
    n = len(mat)
    v = [1.0] * n
    lam = 0.0
    for _ in range(rounds):
        w = [sum((mat[i][j] + (i == j)) * v[j] for j in range(n)) for i in range(n)]
        norm = max(w)
        lam, v = norm, [x / norm for x in w]
    return lam - 1.0  # the shift by I makes every nonnegative irreducible M primitive


def pf_bracket(mat, width=Fraction(1, 10**40)):
    """Rational (lo, hi) with a sign change of det(xI - M) and the
    Perron-Frobenius root of M inside, hi - lo <= width."""
    poly = char_poly(mat)
    est = Fraction(_spectral_radius_estimate(mat))
    delta = Fraction(1, 10**6)
    lo, hi = est - delta, est + delta
    if evaluate(poly, lo) * evaluate(poly, hi) > 0:
        raise ValueError("no sign change around the spectral radius estimate")
    while hi - lo > width:
        mid = (lo + hi) / 2
        if evaluate(poly, lo) * evaluate(poly, mid) <= 0:
            hi = mid
        else:
            lo = mid
    return lo, hi


def power_bracket(bracket, k):
    lo, hi = bracket
    return lo**k, hi**k


def brackets_root(poly, bracket):
    """Whether poly changes sign (or vanishes) on the closed interval."""
    lo, hi = bracket
    return evaluate(poly, lo) * evaluate(poly, hi) <= 0


def overlaps(a, b):
    return a[0] <= b[1] and b[0] <= a[1]


# --- subgroups as coset tables --------------------------------------------


def hall_counts(r, m_max):
    """Index-m subgroup counts of F_r for m = 1..m_max (Hall, 1949)."""
    a = [0, 1]
    for m in range(2, m_max + 1):
        total = m * factorial(m) ** (r - 1)
        for i in range(1, m):
            total -= factorial(m - i) ** (r - 1) * a[i]
        a.append(total)
    return a[1:]


def table_from_json(d):
    """(symbols, basepoint, {(state, symbol): state}) of a subgroup graph."""
    trans = {(e["from"], e["label"]): e["to"] for e in d["edges"]}
    return tuple(d["symbols"]), d["basepoint"], trans


def table_key(symbols, basepoint, trans):
    """Relabel states by breadth-first search from the basepoint.

    Two coset tables describe the same subgroup exactly when their keys
    agree; None when the table is not a complete transitive action.
    """
    states = {s for s, _ in trans} | set(trans.values()) | {basepoint}
    inn = {}
    for (s, x), t in trans.items():
        if (t, x) in inn:
            return None
        inn[(t, x)] = s
    if len(trans) != len(states) * len(symbols):
        return None
    order = {basepoint: 0}
    queue = [basepoint]
    for state in queue:
        for x in symbols:
            for nxt in (trans[(state, x)], inn[(state, x)]):
                if nxt not in order:
                    order[nxt] = len(order)
                    queue.append(nxt)
    if len(order) != len(states):
        return None
    return tuple(sorted((order[s], x, order[t]) for (s, x), t in trans.items()))


def trace_word(trans, start, word):
    """End state of a word read in a coset table, or None if it falls off."""
    inn = {(t, x): s for (s, x), t in trans.items()}
    state = start
    for x in word:
        state = inn.get((state, x[1:])) if x[0] == "~" else trans.get((state, x))
        if state is None:
            return None
    return state


def invariant_power(powers, symbols, basepoint, trans):
    """Least k with Phi^k(H) = H, given the powers Phi^1, Phi^2, ... in turn;
    None past the last one.

    Phi^k(H) has the index of H, so it equals H once it maps every Schreier
    generator of H into H."""
    inn = {(t, x): s for (s, x), t in trans.items()}
    paths = {basepoint: ()}
    queue = [basepoint]
    for s in queue:
        for x in symbols:
            for letter, nxt in ((x, trans[(s, x)]), ("~" + x, inn[(s, x)])):
                if nxt not in paths:
                    paths[nxt] = paths[s] + (letter,)
                    queue.append(nxt)
    gens = [reduce_word(paths[s] + (x,) + inverse_word(paths[t])) for (s, x), t in trans.items()]
    for k, pk in enumerate(powers, start=1):
        if all(trace_word(trans, basepoint, substitute(pk, g)) == basepoint for g in gens):
            return k
    return None
