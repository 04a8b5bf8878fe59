"""Quotient descent: a lift back to the base of its covering.

``quotient_descent`` checks that a self-map of a cover's total graph
descends and builds the induced map on the base with its certificates;
``_try_descend`` finds the cover of a rose that a lift's own edge names
describe and descends through it.  ``commensurability.minimal_element_search``
imports this module when called, so a command that descends nothing does
not load it.  Functions of the other fibercomm modules are looked up on the
module at call time, so a wrapper put on the module attribute
(``perfbench/tracing.py``) sees these calls too.
"""

from . import commensurability, covers, graph, maps, words
from .commensurability import OuterAutomorphism
from .covers import CoveringMap, SubgroupGraph
from .graph import MarkedGraph, OrientedEdge
from .maps import GraphMap
from .record import record
from .words import base, inv, is_positive


@record
class QuotientResult:
    quotient: MarkedGraph
    induced: GraphMap
    vertex_projection: dict
    edge_projection: dict  # total positive edge -> quotient oriented edge
    certificates: dict


def quotient_descent(g: GraphMap, h: GraphMap, p: CoveringMap, n=1):
    """Descend a lift to the base of its covering (dynamical quotient).

    p must be a covering of graphs; g is a self-map of p.total and h one of
    p.base.  Once p∘g^n = h∘p holds edge by edge, the quotient is p's base
    renamed: its vertices and edges are the fibers of p.  No closure under
    g^n is needed.  A covering carries the reduced path g^n(e) to a reduced
    path, so the check says that g^n sends each vertex, direction and edge
    fiber into one fiber, with the same pushed image for every member.

    A vertex fiber is named by its last member in ``total.vertices``, an
    edge fiber by its largest member; they are numbered ``q0…`` and ``E0…``
    in the sorted order of those names.  Each quotient edge takes the
    orientation and the image of the smallest edge of its fiber.

    Returns ("quotient", QuotientResult) with the commutation, injectivity
    and finite-index certificates, or ("not_descendable", reason).
    """
    total = g.domain
    gn = maps.map_power(g, n)
    # commutation: p ∘ g^n = h ∘ p edge-by-edge
    for e in total.edges:
        lhs = p.project_path(gn.edge_image(e))
        rhs = h.edge_image(p.edge_projection[e])
        if words.free_reduce(lhs) != words.free_reduce(rhs):
            return ("not_descendable", f"projection does not commute on edge {e}")

    last = {}  # base vertex -> last member of its fiber
    for v in total.vertices:
        last[p.vertex_projection[v]] = v
    vname = {x: f"q{idx}" for idx, x in enumerate(sorted(last.values()))}
    vproj = {v: vname[last[p.vertex_projection[v]]] for v in total.vertices}

    efibers = {}
    for e in sorted(total.edges):
        efibers.setdefault(base(p.edge_projection[e]), []).append(e)
    eclasses = sorted(efibers.values(), key=lambda es: es[-1])
    if any(len({total.edge_length(e) for e in es}) > 1 for es in eclasses):
        return ("not_descendable", "edge lengths differ within a class")

    eproj = {}
    qedges = {}
    for idx, members in enumerate(eclasses):
        rep = members[0]
        qid = f"E{idx}"
        qedges[qid] = OrientedEdge(
            qid, vproj[total.edge_src(rep)], vproj[total.edge_dst(rep)],
            total.edge_length(rep),
        )
        for e in members:
            same = p.edge_projection[e] == p.edge_projection[rep]
            eproj[e] = qid if same else inv(qid)
    quotient = graph.bfs_marked_graph(tuple(sorted(vname.values())), qedges)

    def push(path):
        out = []
        for d in path:
            q = eproj[base(d)]
            out.append(q if is_positive(d) else inv(q))
        return words.free_reduce(tuple(out))

    q_edge_map = {f"E{idx}": push(gn.edge_image(es[0])) for idx, es in enumerate(eclasses)}
    q_vertex_map = {vproj[v]: vproj[gn.vertex_map[v]] for v in total.vertices}
    induced = GraphMap(quotient, q_vertex_map, q_edge_map)
    problems = induced.validate()
    if problems:
        return ("not_descendable", f"induced map invalid: {problems}")

    certificates = {}
    # pi ∘ g^n = induced ∘ pi edge-by-edge
    certificates["commutes"] = all(
        push(gn.edge_image(e)) == maps.apply_map(induced, (push((e,))))
        for e in total.edges
    )
    # injectivity: push a basis of the total graph, fold, compare ranks
    bp = sorted(total.vertices)[0]
    pushed = []
    for e, symbol in sorted(total.basis_labels.items()):
        loop = graph.word_to_loop(total, (symbol,), bp)
        pushed.append(graph.loop_to_word(quotient, push(loop), vproj[bp]))
    folded = covers.fold_subgroup_graph(pushed, quotient.basis_symbols())
    certificates["injective_rank"] = folded.rank() == graph.rank(total)
    certificates["finite_index"] = folded.is_complete()
    certificates["index"] = folded.index() if folded.is_complete() else None
    result = QuotientResult(quotient, induced, vproj, eproj, certificates)
    if not all(certificates[c] for c in ("commutes", "injective_rank", "finite_index")):
        return ("not_descendable", f"certificates failed: {certificates}")
    return ("quotient", result)


def _try_descend(phi: OuterAutomorphism, index_max):
    """Descend a lift of a rose self-map back to the rose.

    ``build_cover(rose(symbols), H)`` names its edge from ``v0@s`` to
    ``v0@t`` reading x ``x@s``, t being s.x in H's canonical coset table.
    That table is read off the domain's edges, and the one cover it gives
    must reproduce the domain's vertices, edges and endpoints.
    """
    rep = phi.representative
    if rep is None:
        return None
    total = rep.domain
    r = graph.rank(total)
    base_syms = tuple(sorted({s.split("@")[0] for s in total.basis_symbols()}))
    r2 = len(base_syms)
    if not 2 <= r2 < r or (r - 1) % (r2 - 1):
        return None
    m = (r - 1) // (r2 - 1)
    if m > index_max:
        return None
    base_graph = graph.rose(base_syms)
    state = {f"{base_graph.vertices[0]}@{s}": s for s in range(m)}
    trans = {}
    for s in range(m):
        for x in base_syms:
            e = total.edges.get(f"{x}@{s}")
            trans[(s, x)] = None if e is None else state.get(e.dst)
    # each letter must permute the states
    if None in trans.values() or len({(t, x) for (_, x), t in trans.items()}) < len(trans):
        return None
    cover = covers.build_cover(base_graph, SubgroupGraph(base_syms, tuple(range(m)), trans, 0))

    def ends(g):
        return sorted(g.vertices), {e: (d.src, d.dst) for e, d in g.edges.items()}

    if ends(cover.total) != ends(total):
        return None
    h = _derive_base_map(rep, cover)
    if h is None:
        return None
    verdict = quotient_descent(rep, h, cover, 1)
    if verdict[0] != "quotient":
        return None
    info = {"from_rank": r, "to_rank": r2, "index": m}
    return commensurability.from_graph_map(verdict[1].induced), info


def _derive_base_map(g: GraphMap, cover: CoveringMap):
    """Base self-map h with h∘p = p∘g, when the projection is well defined."""
    edge_map = {}
    for be in cover.base.edges:
        images = set()
        for e in cover.total.edges:
            if cover.edge_projection[e] == be:
                images.add(cover.project_path(g.edge_image(e)))
        if len(images) != 1:
            return None
        edge_map[be] = images.pop()
    vertex_map = {}
    for v in cover.total.vertices:
        bv = cover.vertex_projection[v]
        img = cover.vertex_projection[g.vertex_map[v]]
        if vertex_map.setdefault(bv, img) != img:
            return None
    h = GraphMap(cover.base, vertex_map, edge_map)
    return h if not h.validate() else None
