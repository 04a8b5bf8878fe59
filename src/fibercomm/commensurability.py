"""Covering relation, commensurability, quotient descent, and reduction.

Every positive verdict carries a certificate that re-verifies by direct
word computation; bounded searches report "none within bounds" rather than
mathematical negatives, except where a rank or stretch-factor obstruction
is exact.
"""

import json
from fractions import Fraction

from .covers import (
    CoveringMap,
    SubgroupGraph,
    _fold_image,
    build_cover,
    check_automorphism,
    enumerate_subgroups,
    fold_subgroup_graph,
    full_group,
    lift_map,
    restriction_images,
    smallest_invariant_power,
    solve_conjugacy_system,
    subgroup_intersection,
)
from .errors import (
    NotAnAutomorphism,
    NotCommensurableRatio,
    NotRotationless,
    ResourceBound,
    SolverBound,
    StabilizationBound,
)
from .graph import MarkedGraph, loop_to_word, rank, rose, word_to_loop
from .maps import (
    GraphMap,
    apply_map,
    induced_outer_automorphism,
    map_power,
    transition_matrix,
)
from .record import record
from .unionfind import UnionFind
from .words import (
    apply_images,
    base,
    compose_images,
    concat,
    free_reduce,
    identity_images,
    inv,
    inverse,
    is_positive,
    power_images,
)


# --- outer automorphisms -------------------------------------------------


@record
class OuterAutomorphism:
    images: dict  # basis symbol -> word
    representative: GraphMap = None  # optional attached graph self-map

    @property
    def symbols(self):
        return tuple(sorted(self.images))

    @property
    def rank(self):
        return len(self.images)

    def check(self):
        return check_automorphism(self.images, self.symbols)

    def power(self, k):
        return OuterAutomorphism(
            power_images(self.images, k),
            None if self.representative is None else map_power(self.representative, k),
        )

    def apply(self, word):
        return apply_images(self.images, word)

    def stretch_factor(self):
        if self.representative is None:
            return None
        from .spectral import pf_data

        sf, _ = pf_data(transition_matrix(self.representative))
        return sf


def from_graph_map(f: GraphMap):
    return OuterAutomorphism(induced_outer_automorphism(f), f)


def invert_images(images, length_cap=24, state_cap=200000):
    """Inverse automorphism by breadth-first search over reduced words.

    States are images Phi(w); the first word realizing each basis symbol
    gives the inverse image.  SolverBound when the cap is hit first.
    """
    symbols = tuple(sorted(images))
    targets = {(s,): None for s in symbols}
    found = {}
    seen = {(): ()}
    frontier = [()]
    letters = []
    for s in symbols:
        letters.append((s,))
        letters.append((inv(s),))
    while frontier and len(found) < len(symbols):
        nxt = []
        for w in frontier:
            for step in letters:
                w2 = concat(w, step)
                if len(w2) < len(w) + 1:
                    continue  # cancellation: already visited shorter form
                img = apply_images(images, w2)
                if len(img) > length_cap or img in seen:
                    continue
                seen[img] = w2
                if img in targets and img not in found:
                    found[img] = w2
                if len(seen) > state_cap:
                    raise SolverBound("inverse search exceeded the state cap")
                nxt.append(w2)
        frontier = nxt
    out = {}
    for s in symbols:
        w = found.get((s,))
        if w is None:
            raise SolverBound("inverse not found within the word-length cap")
        out[s] = w
    return out


# --- covering witnesses --------------------------------------------------


@record
class CoveringWitness:
    subgroup: SubgroupGraph
    k: int
    inner_conjugator: tuple
    identification: dict  # psi basis symbol -> ambient word in F(phi)

    def to_json_dict(self):
        from .covers import subgroup_to_json_dict

        return {
            "H": subgroup_to_json_dict(self.subgroup),
            "k": self.k,
            "inner_conjugator": list(self.inner_conjugator),
            "identification": {
                s: list(w) for s, w in sorted(self.identification.items())
            },
        }


def replay_witness(witness: CoveringWitness, psi: OuterAutomorphism, phi: OuterAutomorphism):
    """Independent verification of a covering witness by word computation."""
    H = witness.subgroup
    if tuple(sorted(H.symbols)) != phi.symbols or not H.is_complete():
        return False
    phik, image = _power_image(phi, witness.k, H)
    if image.key() != H.canonical().key():
        return False
    gamma = witness.inner_conjugator
    for s in psi.symbols:
        w = witness.identification.get(s)
        if w is None or not H.contains(w):
            return False
        lhs = apply_images(phik, w)
        target = apply_images(
            {t: witness.identification[t] for t in psi.symbols}, psi.images[s]
        )
        rhs = free_reduce(concat(gamma, target, inverse(gamma)))
        if lhs != rhs:
            return False
    # the identification must carry a basis of H (rank check)
    words = [witness.identification[s] for s in psi.symbols]
    sub = fold_subgroup_graph(words, H.symbols)
    return sub.key() == H.canonical().key()


def _power_image(phi: OuterAutomorphism, k, H: SubgroupGraph):
    """Phi^k's basis images and the folded graph of Phi^k(H).

    Phi^k is an automorphism iff Phi is (F_n is Hopfian), so only Phi's own
    short images are folded for the check, not the long ones of Phi^k.
    """
    if not check_automorphism(phi.images, phi.symbols):
        raise NotAnAutomorphism()
    phik = power_images(phi.images, k)
    return phik, _fold_image(phik, H)


def _log_ratio_filter(psi: OuterAutomorphism, phi: OuterAutomorphism, denom_bound=20):
    """Required power k from stretch factors, when both are attached.

    Returns (True, k or None) — k None means no constraint; (False, None)
    means the ratio obstruction is exact and negative.
    """
    s_phi = phi.stretch_factor()
    s_psi = psi.stretch_factor()
    if s_phi is None or s_psi is None:
        return True, None
    if not (s_phi.expanding and s_psi.expanding):
        return True, None
    from .spectral import log_ratio

    verdict = log_ratio(s_phi, s_psi, denom_bound)
    if not verdict.rational or verdict.ratio.denominator != 1:
        return False, None
    return True, int(verdict.ratio)


def covers_relation(psi: OuterAutomorphism, phi: OuterAutomorphism, k_max):
    """Witness that psi covers phi: H of finite index, Phi^k(H) = H, and
    Phi^k restricted to H equal to psi up to an inner conjugator."""
    if psi.rank < phi.rank or phi.rank < 2:
        return None
    if (psi.rank - 1) % (phi.rank - 1) != 0:
        return None
    m = (psi.rank - 1) // (phi.rank - 1)
    ok, forced_k = _log_ratio_filter(psi, phi)
    if not ok:
        return None
    if m == 1:
        subgroups = [full_group(phi.symbols)]
    else:
        subgroups = enumerate_subgroups(phi.rank, m, symbols=phi.symbols)
    for H in subgroups:
        k0 = smallest_invariant_power(phi.images, H, k_max)
        if k0 is None:
            continue
        for k in range(k0, k_max + 1, k0):
            if forced_k is not None and k != forced_k:
                continue
            for ident in _identifications(psi, H, m):
                witness = _match_restriction(psi, phi, H, k, ident)
                if witness is not None:
                    return witness
    return None


def _identifications(psi, H: SubgroupGraph, m):
    """Candidate markings of H by the basis of F(psi).

    The canonical basis in sorted symbol order first; at index one, also
    signed basis permutations (the bounded automorphism search).
    """
    basis = H.canonical().basis()
    if len(basis) != psi.rank:
        return
    yield {s: w for s, w in zip(psi.symbols, basis)}
    if m != 1:
        return
    from itertools import islice

    for images in islice(_candidate_automorphisms(tuple(sorted(H.symbols)), 1), 1, None):
        yield {s: images[t] for s, t in zip(psi.symbols, sorted(H.symbols))}


def _match_restriction(psi, phi, H: SubgroupGraph, k, ident):
    H = H.canonical()
    phik, image = _power_image(phi, k, H)
    if image.key() != H.key():
        return None
    return _conjugated_witness(psi, phi, H, k, ident, phik)


def _conjugated_witness(psi, phi, H: SubgroupGraph, k, ident, phik):
    """The witness (H, k, ident, gamma) whose inner conjugator solves
    Phi^k(ident(s)) = gamma ident(psi(s)) gamma^-1 for every basis symbol
    s of psi, if such a gamma exists and the witness replays; else None."""
    gamma = solve_conjugacy_system(
        [(apply_images(ident, psi.images[s]), apply_images(phik, ident[s])) for s in psi.symbols]
    )
    if gamma is None:
        return None
    witness = CoveringWitness(H, k, gamma, ident)
    return witness if replay_witness(witness, psi, phi) else None


def witness_from_lift(cover: CoveringMap, k, psi: OuterAutomorphism, phi: OuterAutomorphism):
    """Covering witness for a psi constructed as a lift of phi^k.

    The identification comes from the covering map itself (total basis
    symbol -> ambient word); only the inner conjugator is solved for.
    """
    ident = cover.identification_words()
    if sorted(ident) != list(psi.symbols):
        return None
    H = fold_subgroup_graph(list(ident.values()), phi.symbols)
    return _conjugated_witness(psi, phi, H, k, ident, power_images(phi.images, k))


def greater_than(phi1: OuterAutomorphism, phi2: OuterAutomorphism, k_max, p_max):
    """Least p with phi1^p covering phi2^p; (p, witness) or None."""
    for p in range(1, p_max + 1):
        w = covers_relation(phi1.power(p), phi2.power(p), k_max)
        if w is not None:
            return (p, w)
    return None


def compose_witnesses(w12: CoveringWitness, w23: CoveringWitness, psi1, phi3):
    """Witness for psi1 over phi3 from witnesses psi1>phi2 (w12, subgroup of
    F(phi2)) and phi2>phi3 (w23, subgroup of F(phi3))."""
    # transport w12's subgroup of F(phi2) into F(phi3) through w23's identification
    ident23 = w23.identification
    ident = {
        s: free_reduce(
            concat(
                w23.inner_conjugator,
                apply_images(ident23, w),
                inverse(w23.inner_conjugator),
            )
        )
        for s, w in w12.identification.items()
    }
    H = fold_subgroup_graph(list(ident.values()), phi3.symbols)
    k = w12.k * w23.k
    return _conjugated_witness(psi1, phi3, H, k, ident, power_images(phi3.images, k))


# --- commensurability ----------------------------------------------------


@record
class CommonCoverCertificate:
    phi3: OuterAutomorphism
    p1: int
    witness1: CoveringWitness
    p2: int
    witness2: CoveringWitness


def commensurable(phi1: OuterAutomorphism, phi2: OuterAutomorphism, k_max=4, p_max=2, index_max=2):
    """Common-cover certificate: phi3 with phi3 > phi1 and phi3 > phi2."""
    # direct: one already covers the other
    for a, b, flip in ((phi1, phi2, False), (phi2, phi1, True)):
        gt = greater_than(a, b, k_max, p_max)
        if gt is not None:
            p, w = gt
            refl = greater_than(a, a, k_max, 1)
            if refl is None:
                continue
            if flip:
                return CommonCoverCertificate(a, p, w, refl[0], refl[1])
            return CommonCoverCertificate(a, refl[0], refl[1], p, w)
    # search lifts of phi1 powers as common covers
    if phi1.representative is None:
        return None
    base_graph = phi1.representative.domain
    for m in range(2, index_max + 1):
        try:
            subgroups = enumerate_subgroups(
                phi1.rank, m, symbols=base_graph.basis_symbols()
            )
        except ResourceBound:
            break
        for H in subgroups:
            k0 = smallest_invariant_power(phi1.images, H, k_max)
            if k0 is None:
                continue
            cover = build_cover(base_graph, H)
            lifted = lift_map(phi1.representative, cover, k0)
            if lifted is None:
                continue
            phi3 = from_graph_map(lifted)
            gt1 = greater_than(phi3, phi1, k_max, p_max)
            gt2 = greater_than(phi3, phi2, k_max, p_max)
            if gt1 is not None and gt2 is not None:
                return CommonCoverCertificate(phi3, gt1[0], gt1[1], gt2[0], gt2[1])
    return None


def covering_equivalent(
    phi1: OuterAutomorphism, phi2: OuterAutomorphism, k_max=3, p_max=2, conj_len=2
):
    """Mutual covering, plus a bounded search for a conjugating automorphism.

    Returns ("equivalent_with_conjugator", images),
    ("equivalent_no_conjugator_found", None), or ("not_within_bounds", None).
    """
    if phi1.rank != phi2.rank:
        return ("not_within_bounds", None)
    fwd = greater_than(phi1, phi2, k_max, p_max)
    bwd = greater_than(phi2, phi1, k_max, p_max)
    if fwd is None or bwd is None:
        return ("not_within_bounds", None)
    for cand in _candidate_automorphisms(phi1.symbols, conj_len):
        try:
            cand_inv = invert_images(cand, length_cap=12, state_cap=20000)
        except SolverBound:
            continue
        conj = compose_images(cand, compose_images(phi1.images, cand_inv))
        if all(conj[s] == phi2.images[s] for s in phi2.symbols):
            return ("equivalent_with_conjugator", cand)
    return ("equivalent_no_conjugator_found", None)


def _candidate_automorphisms(symbols, max_len):
    """Identity, signed basis permutations, then short-image candidates."""
    from itertools import permutations, product

    symbols = tuple(sorted(symbols))
    yield identity_images(symbols)
    for perm in permutations(symbols):
        for signs in product((1, -1), repeat=len(symbols)):
            images = {
                s: (t,) if sign > 0 else (inv(t),)
                for s, t, sign in zip(symbols, perm, signs)
            }
            yield images
    if max_len < 2:
        return
    from .words import enumerate_reduced_words

    words = list(enumerate_reduced_words(symbols, max_len))
    for combo in product(words, repeat=len(symbols)):
        images = dict(zip(symbols, combo))
        if check_automorphism(images, symbols):
            yield images


# --- quotient descent ----------------------------------------------------


@record
class QuotientResult:
    quotient: MarkedGraph
    induced: GraphMap
    vertex_projection: dict
    edge_projection: dict  # total positive edge -> quotient oriented edge
    certificates: dict


def quotient_descent(g: GraphMap, h: GraphMap, p: CoveringMap, n=1, strict_angles=False):
    """Descend a lift to a quotient of its graph (dynamical quotient).

    Verifies p∘g^n = h∘p, closes the fiber equivalence under the map on
    vertices, directions, and edges, and returns the quotient with an
    induced map and injectivity/finite-index certificates.

    Returns ("quotient", QuotientResult), ("symmetric", vertex), or
    ("not_descendable", reason).
    """
    total = g.domain
    if strict_angles:
        from .whitehead import angle_labeling

        try:
            verdict = angle_labeling(g)
        except NotRotationless:
            verdict = ("symmetric", None)
        if verdict[0] == "symmetric":
            return ("symmetric", verdict[1])
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
    from .graph import OrientedEdge

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
    from .covers import _bfs_tree

    qvertices = tuple(sorted(set(vproj.values())))
    tree = _bfs_tree(qvertices, qedges)
    quotient = MarkedGraph(qvertices, qedges, frozenset(tree))

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


# --- gcd reduction -------------------------------------------------------


def gcd_reduce(phi1: OuterAutomorphism, phi2: OuterAutomorphism, denom_bound=20):
    """Combine two commensurable-class members into one with gcd log-stretch.

    Returns ("reduced", OuterAutomorphism, (m, n)) with the word-level
    composite phi2^n ∘ phi1^m, or ("already_integral", None, None).
    """
    s1, s2 = phi1.stretch_factor(), phi2.stretch_factor()
    if s1 is None or s2 is None:
        raise ValueError("gcd_reduce needs attached representatives for both inputs")
    from .spectral import log_ratio

    verdict = log_ratio(s1, s2, denom_bound)
    if not verdict.rational:
        raise NotCommensurableRatio()
    p, q = verdict.ratio.numerator, verdict.ratio.denominator
    # log l2 / log l1 = p/q with gcd(p,q)=1; l1 = t^q, l2 = t^p
    if q == 1 or p == 1:
        return ("already_integral", None, None)
    m, n = _bezout(q, p)
    images1 = phi1.images if m >= 0 else invert_images(phi1.images)
    images2 = phi2.images if n >= 0 else invert_images(phi2.images)
    result = identity_images(tuple(sorted(phi1.images)))
    for _ in range(abs(m)):
        result = compose_images(images1, result)
    for _ in range(abs(n)):
        result = compose_images(images2, result)
    out = OuterAutomorphism(result, _try_attach(result, phi1))
    return ("reduced", out, (m, n))


def _bezout(q, p):
    """(m, n) with m*q + n*p = 1, preferring m > 0."""
    old_r, r = q, p
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_s, s = s, old_s - quo * s
        old_t, t = t, old_t - quo * t
    m, n = old_s, old_t
    while m <= 0:
        m += p
        n -= q
    return m, n


def _try_attach(images, template: OuterAutomorphism):
    """Attach a rose representative when the images are positive words."""
    if any(not is_positive(x) for w in images.values() for x in w):
        return None
    if template.representative is None:
        return None
    g = rose(sorted(images))
    f = GraphMap(g, {v: v for v in g.vertices}, dict(images))
    return f if not f.validate() else None


# --- minimal element search ----------------------------------------------


def minimal_element_search(
    phi: OuterAutomorphism, k_max=4, index_max=2, classmates=(), nielsen_bounds=(2, 6)
):
    """Bounded reduction toward a minimal element of the covering order.

    Tries quotient descent along discovered covers (rank reduction), then
    gcd reduction across provided same-class members (stretch reduction).
    The result is only 'locally minimal within explored bounds'.
    """
    report = {"hypotheses": {}, "reductions": [], "candidate": phi}
    rep = phi.representative
    if rep is not None:
        from .maps import is_train_track

        verdict = is_train_track(rep)
        report["hypotheses"]["train_track"] = verdict.is_train_track
        report["hypotheses"]["irreducible"] = verdict.irreducible
        try:
            from .whitehead import geometric_index, rotationless_power

            k = rotationless_power(rep, 12)
            if k is not None:
                idx = geometric_index(map_power(rep, k), nielsen_bounds)
                report["hypotheses"]["ageometric"] = idx.ageometric
                report["hypotheses"]["nielsen_free_within_bounds"] = (
                    idx.nielsen_free_within_bounds
                )
        except NotRotationless as exc:
            report["hypotheses"]["index_error"] = str(exc)

    candidate = phi
    changed = True
    while changed:
        changed = False
        descended = _try_descend(candidate, k_max, index_max)
        if descended is not None:
            report["reductions"].append(("descent", descended[1]))
            candidate = descended[0]
            changed = True
            continue
        for other in classmates:
            try:
                verdict = gcd_reduce(candidate, other)
            except (NotCommensurableRatio, ValueError):
                continue
            if verdict[0] == "reduced":
                report["reductions"].append(("gcd", verdict[2]))
                candidate = verdict[1]
                changed = True
                break
    report["candidate"] = candidate
    return report


def _try_descend(phi: OuterAutomorphism, k_max, index_max):
    """Match the domain against standard covers of roses and descend."""
    rep = phi.representative
    if rep is None:
        return None
    total = rep.domain
    r = rank(total)
    for r2 in range(2, r):
        if (r - 1) % (r2 - 1) != 0:
            continue
        m = (r - 1) // (r2 - 1)
        if m < 2 or m > index_max:
            continue
        base_syms = tuple(sorted({s.split("@")[0] for s in total.basis_symbols()}))
        if len(base_syms) != r2:
            continue
        base_graph = rose(base_syms)
        for H in enumerate_subgroups(r2, m, symbols=base_syms):
            cover = build_cover(base_graph, H)
            if sorted(cover.total.vertices) != sorted(total.vertices):
                continue
            if sorted(cover.total.edges) != sorted(total.edges):
                continue
            if any(
                cover.total.edge_src(e) != total.edge_src(e)
                or cover.total.edge_dst(e) != total.edge_dst(e)
                for e in total.edges
            ):
                continue
            h = _derive_base_map(rep, cover)
            if h is None:
                continue
            verdict = quotient_descent(rep, h, cover, 1)
            if verdict[0] == "quotient":
                induced = verdict[1].induced
                return from_graph_map(induced), {
                    "from_rank": r,
                    "to_rank": r2,
                    "index": m,
                }
    return None


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


# --- interchange ---------------------------------------------------------


def witness_to_json(witness: CoveringWitness):
    return json.dumps(witness.to_json_dict(), sort_keys=True, indent=2)


def poset_dot(relations, name="covers"):
    """DOT digraph of explored covering relations: iterable of
    (name_psi, name_phi, k)."""
    lines = [f"digraph {name} {{"]
    for psi, phi, k in sorted(relations):
        lines.append(f'  "{psi}" -> "{phi}" [label="k={k}"];')
    lines.append("}")
    return "\n".join(lines)
