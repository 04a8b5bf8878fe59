"""Reference copy of the closure-based quotient descent.

This is how ``quotient_descent`` (now in ``fibercomm.descent``) built its
quotient before it read the classes off the fibers of the covering, kept
unchanged as a test oracle.  It closes the fiber equivalence under the map
on vertices and on directions, checks the classes for consistency, and only
then names them.  The only edits: ``StabilizationBound``, which the package
no longer has, is defined here, the function-local imports moved to the
top, the quotient is marked by ``bfs_marked_graph``, which replaced the
private spanning-tree helper it called, and the ``strict_angles`` branch,
which no caller set, is gone with the package's.  Everything it calls comes
from the package.
"""

from fibercomm.covers import CoveringMap, fold_subgroup_graph
from fibercomm.descent import QuotientResult
from fibercomm.errors import FibercommError
from fibercomm.graph import OrientedEdge, bfs_marked_graph, loop_to_word, rank, word_to_loop
from fibercomm.maps import GraphMap, apply_map, map_power
from fibercomm.unionfind import UnionFind
from fibercomm.words import base, free_reduce, inv, is_positive


class StabilizationBound(FibercommError):
    pass


def quotient_descent(g: GraphMap, h: GraphMap, p: CoveringMap, n=1):
    """Descend a lift to a quotient of its graph (dynamical quotient).

    Verifies p∘g^n = h∘p, closes the fiber equivalence under the map on
    vertices, directions, and edges, and returns the quotient with an
    induced map and injectivity/finite-index certificates.

    Returns ("quotient", QuotientResult) or ("not_descendable", reason).
    """
    total = g.domain
    gn = map_power(g, n)
    # commutation: p ∘ g^n = h ∘ p edge-by-edge
    for e in total.edges:
        lhs = p.project_path(gn.edge_image(e))
        rhs = h.edge_image(p.edge_projection[e])
        if free_reduce(lhs) != free_reduce(rhs):
            return ("not_descendable", f"projection does not commute on edge {e}")

    bound = len(total.vertices) + len(total.edges)
    vsets = UnionFind()
    fibers = {}
    for v in total.vertices:
        fibers.setdefault(p.vertex_projection[v], []).append(v)
    for vs in fibers.values():
        for v in vs[1:]:
            vsets.union(vs[0], v)
    stabilized = False
    for _ in range(bound + 1):
        changed = False
        classes = {}
        for v in total.vertices:
            classes.setdefault(vsets.find(v), []).append(v)
        for vs in classes.values():
            imgs = [gn.vertex_map[v] for v in vs]
            for v in imgs[1:]:
                changed |= vsets.union(imgs[0], v)
        if not changed:
            stabilized = True
            break
    if not stabilized:
        raise StabilizationBound("vertex classes did not stabilize")

    dsets = UnionFind()
    dir_fibers = {}
    for d in total.oriented_edges():
        bd = p.edge_projection[base(d)]
        bd = bd if is_positive(d) else inv(bd)
        dir_fibers.setdefault(bd, []).append(d)
    for ds in dir_fibers.values():
        for d in ds[1:]:
            dsets.union(ds[0], d)
    stabilized = False
    for _ in range(bound + 1):
        changed = False
        classes = {}
        for d in total.oriented_edges():
            classes.setdefault(dsets.find(d), []).append(d)
        for ds in classes.values():
            imgs = [gn.edge_image(d)[0] for d in ds]
            for d in imgs[1:]:
                changed |= dsets.union(imgs[0], d)
        if not changed:
            stabilized = True
            break
    if not stabilized:
        raise StabilizationBound("direction classes did not stabilize")
    # reversal consistency: d1 ~ d2 must give ~d1 ~ ~d2
    for d1 in total.oriented_edges():
        for d2 in total.oriented_edges():
            if dsets.find(d1) == dsets.find(d2) and dsets.find(inv(d1)) != dsets.find(inv(d2)):
                return ("not_descendable", f"direction classes break reversal at {d1},{d2}")

    # edges: same class iff directions match at both ends (lengths must agree)
    esets = UnionFind()
    dirs = total.oriented_edges()
    for d1 in dirs:
        for d2 in dirs:
            if dsets.find(d1) == dsets.find(d2) and dsets.find(inv(d1)) == dsets.find(inv(d2)):
                if total.edge_length(d1) != total.edge_length(d2):
                    return ("not_descendable", "edge lengths differ within a class")
                esets.union(base(d1), base(d2))

    # build the quotient graph
    vclasses = {}
    for v in sorted(total.vertices):
        vclasses.setdefault(vsets.find(v), []).append(v)
    vname = {root: f"q{idx}" for idx, root in enumerate(sorted(vclasses))}
    vproj = {v: vname[vsets.find(v)] for v in total.vertices}

    eclasses = {}
    for e in sorted(total.edges):
        eclasses.setdefault(esets.find(e), []).append(e)
    # orientation: the class representative keeps its orientation; other
    # members align via direction classes
    ename = {root: f"E{idx}" for idx, root in enumerate(sorted(eclasses))}
    eproj = {}
    qedges = {}
    for root, members in sorted(eclasses.items()):
        rep = members[0]
        qid = ename[root]
        qedges[qid] = OrientedEdge(
            qid, vproj[total.edge_src(rep)], vproj[total.edge_dst(rep)],
            total.edge_length(rep),
        )
        for e in members:
            if dsets.find(e) == dsets.find(rep):
                eproj[e] = qid
            elif dsets.find(e) == dsets.find(inv(rep)):
                eproj[e] = inv(qid)
            else:
                return ("not_descendable", f"edge {e} matches {rep} in no orientation")
    qvertices = tuple(sorted(set(vproj.values())))
    quotient = bfs_marked_graph(qvertices, qedges)

    def push(path):
        out = []
        for d in path:
            q = eproj[base(d)]
            out.append(q if is_positive(d) else inv(q))
        return free_reduce(tuple(out))

    # induced map: must be independent of the class member
    q_edge_map = {}
    for root, members in sorted(eclasses.items()):
        images = {push(gn.edge_image(e) if dsets.find(e) == dsets.find(members[0]) else
                       gn.edge_image(inv(e))) for e in members}
        if len(images) != 1:
            return ("not_descendable", f"induced image not well defined on class of {members[0]}")
        q_edge_map[ename[root]] = images.pop()
    q_vertex_map = {}
    for v in total.vertices:
        img = vproj[gn.vertex_map[v]]
        prev = q_vertex_map.get(vproj[v])
        if prev is not None and prev != img:
            return ("not_descendable", "induced vertex map not well defined")
        q_vertex_map[vproj[v]] = img
    induced = GraphMap(quotient, q_vertex_map, q_edge_map)
    problems = induced.validate()
    if problems:
        return ("not_descendable", f"induced map invalid: {problems}")

    certificates = {}
    # pi ∘ g^n = induced ∘ pi edge-by-edge
    certificates["commutes"] = all(
        push(gn.edge_image(e)) == apply_map(induced, (push((e,))))
        for e in total.edges
    )
    # injectivity: push a basis of the total graph, fold, compare ranks
    bp = sorted(total.vertices)[0]
    pushed = []
    for e, symbol in sorted(total.basis_labels.items()):
        loop = word_to_loop(total, (symbol,), bp)
        pushed.append(loop_to_word(quotient, push(loop), vproj[bp]))
    folded = fold_subgroup_graph(pushed, quotient.basis_symbols())
    certificates["injective_rank"] = folded.rank() == rank(total)
    certificates["finite_index"] = folded.is_complete()
    certificates["index"] = folded.index() if folded.is_complete() else None
    result = QuotientResult(quotient, induced, vproj, eproj, certificates)
    if not all(certificates[c] for c in ("commutes", "injective_rank", "finite_index")):
        return ("not_descendable", f"certificates failed: {certificates}")
    return ("quotient", result)
