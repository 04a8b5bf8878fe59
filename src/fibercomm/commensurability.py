"""Covering relation, commensurability, and descent-based minimal-element
search.  Quotient descent itself lives in :mod:`fibercomm.descent`.

Every positive verdict carries a certificate that re-verifies by direct
word computation; bounded searches report "none within bounds" rather than
mathematical negatives, except where a rank or stretch-factor obstruction
is exact.
"""

from .covers import (
    CoveringMap,
    SubgroupGraph,
    build_cover,
    check_automorphism,
    enumerate_subgroups,
    fold_subgroup_graph,
    full_group,
    invariant_powers,
    is_invariant,
    lift_map,
    solve_conjugacy_system,
)
from .errors import NotAnAutomorphism, NotRotationless, ResourceBound
from .maps import (
    GraphMap,
    illegal_turns,
    induced_outer_automorphism,
    map_power,
    transition_matrix,
)
from .record import record
from .words import (
    _cyclic_start,
    _Inverses,
    _OrientedImages,
    _substitute,
    apply_images,
    compose_images,
    concat,
    free_reduce,
    inv,
    inverse,
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

    def power(self, k):
        return OuterAutomorphism(
            power_images(self.images, k),
            None if self.representative is None else map_power(self.representative, k),
        )

    def stretch_factor(self):
        """The PF data of the representative's transition matrix, when the
        representative is a train track; None otherwise.

        For a map that is not a train track the PF root only bounds the
        growth from above, so it is not the class's stretch factor.  The
        turn test is exact: no taken turn is illegal.
        """
        f = self.representative
        if f is None or illegal_turns(f) & f.taken_turns():
            return None
        from .spectral import pf_data

        sf, _ = pf_data(transition_matrix(f))
        return sf


def from_graph_map(f: GraphMap):
    return OuterAutomorphism(induced_outer_automorphism(f), f)


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
    """Independent verification of a covering witness by word computation.

    Phi^k is an automorphism iff Phi is (F_n is Hopfian), so only Phi's own
    short images are folded for that check; ``is_invariant`` then reads
    Phi^k(H) = H off H's table.
    """
    H = witness.subgroup
    if tuple(sorted(H.symbols)) != phi.symbols or not H.is_complete():
        return False
    if not check_automorphism(phi.images, phi.symbols):
        raise NotAnAutomorphism()
    phik = power_images(phi.images, witness.k)
    if not is_invariant(phik, H):
        return False
    oriented = _OrientedImages(phik)
    gamma = witness.inner_conjugator
    for s in psi.symbols:
        w = witness.identification.get(s)
        if w is None or not H.contains(w):
            return False
        lhs = _substitute(oriented, w)
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


def _log_ratio_filter(psi: OuterAutomorphism, phi: OuterAutomorphism):
    """Required power k from stretch factors, when both are known: both
    representatives attached and train tracks.

    Returns (True, k or None) — k None means no constraint; (False, None)
    means that no k >= 1 has lam_psi = lam_phi^k, an exact negative.
    """
    s_phi = phi.stretch_factor()
    s_psi = psi.stretch_factor()
    if s_phi is None or s_psi is None:
        return True, None
    if not (s_phi.expanding and s_psi.expanding):
        return True, None
    from .spectral import log_ratio

    k = log_ratio(s_phi, s_psi)
    return k is not None, k


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
    # powers[i] is Phi^(i+1) as an oriented-image table, extended as k grows
    powers = [_OrientedImages(phi.images)]
    for H, k0 in zip(subgroups, invariant_powers(phi.images, subgroups, k_max)):
        if k0 is None:
            continue
        idents = list(_identifications(psi, H, m))
        # ident(psi(s)) and their cyclic core lengths, built once an ident is reached
        targets = [None] * len(idents)
        # k is a multiple of k0, so Phi^k(H) = H; the witness replay checks it again
        for k in range(k0, k_max + 1, k0):
            if forced_k is not None and k != forced_k:
                continue
            while len(powers) < k:
                powers.append(_OrientedImages(compose_images(phi.images, powers[-1].images)))
            phik = powers[k - 1]
            for j, ident in enumerate(idents):
                if targets[j] is None:
                    rhs = [apply_images(ident, psi.images[s]) for s in psi.symbols]
                    targets[j] = rhs, [_core_length(z) for z in rhs]
                rhs, lengths = targets[j]
                lhs = [_substitute(phik, ident[s]) for s in psi.symbols]
                # conjugate words have cyclic cores of equal length
                if any(_core_length(w) != n for w, n in zip(lhs, lengths)):
                    continue
                witness = _conjugated_witness(psi, phi, H, k, ident, list(zip(rhs, lhs)))
                if witness is not None:
                    return witness
    return None


def _core_length(word):
    """Length of the cyclic core of a reduced word."""
    return len(word) - 2 * _cyclic_start(word, _Inverses())


def _identifications(psi, H: SubgroupGraph, m):
    """Candidate markings of H by the basis of F(psi).

    The canonical basis in sorted symbol order; at index one, where that
    basis is the sorted symbols, every signed permutation of them, the
    identity first.
    """
    basis = H.canonical().basis()
    if len(basis) != psi.rank:
        return
    if m != 1:
        yield dict(zip(psi.symbols, basis))
        return
    from itertools import permutations, product

    for perm in permutations(sorted(H.symbols)):
        for signs in product((1, -1), repeat=len(perm)):
            yield {
                s: (t,) if sign > 0 else (inv(t),)
                for s, t, sign in zip(psi.symbols, perm, signs)
            }


def _conjugated_witness(psi, phi, H: SubgroupGraph, k, ident, equations):
    """The witness (H, k, ident, gamma) whose inner conjugator solves
    Phi^k(ident(s)) = gamma ident(psi(s)) gamma^-1 for every basis symbol
    s of psi, if such a gamma exists and the witness replays; else None.
    ``equations`` holds the pairs (ident(psi(s)), Phi^k(ident(s)))."""
    gamma = solve_conjugacy_system(equations)
    if gamma is None:
        return None
    witness = CoveringWitness(H, k, gamma, ident)
    return witness if replay_witness(witness, psi, phi) else None


def _equations(psi, ident, phik):
    """The pairs (ident(psi(s)), Phi^k(ident(s))) over psi's basis symbols."""
    return [(apply_images(ident, psi.images[s]), apply_images(phik, ident[s])) for s in psi.symbols]


def witness_from_lift(cover: CoveringMap, k, psi: OuterAutomorphism, phi: OuterAutomorphism):
    """Covering witness for a psi constructed as a lift of phi^k.

    The identification comes from the covering map itself (total basis
    symbol -> ambient word); only the inner conjugator is solved for.
    """
    ident = cover.identification_words()
    if sorted(ident) != list(psi.symbols):
        return None
    H = fold_subgroup_graph(list(ident.values()), phi.symbols)
    phik = power_images(phi.images, k)
    return _conjugated_witness(psi, phi, H, k, ident, _equations(psi, ident, phik))


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
    return _conjugated_witness(
        psi1, phi3, H, k, ident, _equations(psi1, ident, power_images(phi3.images, k))
    )


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
        for H, k0 in zip(subgroups, invariant_powers(phi1.images, subgroups, k_max)):
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


# --- minimal element search ----------------------------------------------


def minimal_element_search(phi: OuterAutomorphism, index_max=2, nielsen_bounds=(2, 6)):
    """Bounded reduction toward a minimal element of the covering order.

    Repeats quotient descent of a lift back to its base (rank reduction)
    while one applies.  No stretch reduction is tried, so the result is
    only 'locally minimal within explored bounds'.
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

    from .descent import _try_descend

    candidate = phi
    while (descended := _try_descend(candidate, index_max)) is not None:
        candidate, info = descended
        report["reductions"].append(("descent", info))
    report["candidate"] = candidate
    return report
