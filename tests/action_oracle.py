"""Reference copies of the folding invariant power and the enumerating descent.

These are the implementations that ``fibercomm.covers`` and
``fibercomm.commensurability`` replaced, kept unchanged as test oracles:
``smallest_invariant_power`` folds Phi(basis of the current subgroup) at
every step (``image_subgroup`` and ``_fold_image``), and ``_try_descend``
enumerates every index-m subgroup and builds a cover for each until one
reproduces the lift's names.  The only edits: the imports come from the
package, and ``_try_descend`` keeps its ``k_max``, which it never read.
"""

from fibercomm.commensurability import OuterAutomorphism, from_graph_map
from fibercomm.covers import (
    SubgroupGraph,
    build_cover,
    check_automorphism,
    enumerate_subgroups,
    fold_subgroup_graph,
)
from fibercomm.descent import _derive_base_map, quotient_descent
from fibercomm.errors import NotAnAutomorphism
from fibercomm.graph import rank, rose
from fibercomm.words import apply_images


def image_subgroup(images, H: SubgroupGraph):
    """Folded graph of Phi(H) for an automorphism given by basis images."""
    if not check_automorphism(images, H.symbols):
        raise NotAnAutomorphism()
    return _fold_image(images, H)


def _fold_image(images, H: SubgroupGraph):
    gens = [apply_images(images, w) for w in H.basis()]
    return fold_subgroup_graph(gens, H.symbols)


def smallest_invariant_power(images, H: SubgroupGraph, k_max):
    """Least k <= k_max with Phi^k(H) = H (exact equality), else None."""
    target = H.key()
    current = H
    for k in range(1, k_max + 1):
        # the first step checks that Phi is an automorphism; later ones only fold
        current = (image_subgroup if k == 1 else _fold_image)(images, current)
        if current.key() == target:
            return k
    return None


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
