"""Covering-relation certificates: cover, lift, witness, replay, transitivity.

Run with:  python3 demos/covering_certificates.py
"""

import json

from fibercomm.commensurability import (
    compose_witnesses,
    covers_relation,
    from_graph_map,
    replay_witness,
    witness_from_lift,
)
from fibercomm.covers import (
    build_cover,
    enumerate_subgroups,
    lift_map,
    smallest_invariant_power,
)
from fibercomm.graph import rank, rose
from fibercomm.maps import GraphMap


def main():
    g2 = rose(("a", "b"))
    fib = GraphMap(g2, {"v0": "v0"}, {"a": ("a", "b"), "b": ("a",)})
    phi = from_graph_map(fib)

    subs = enumerate_subgroups(2, 2)
    print(f"index-2 subgroups of F2: {len(subs)}")
    H = next(h for h in subs if h.contains(("a",)) and not h.contains(("b",)))
    print(f"chosen H basis: {H.canonical().basis()}")
    print(f"smallest invariant power: {smallest_invariant_power(phi.images, H, 4)}")

    cover = build_cover(g2, H)
    lifted = lift_map(fib, cover, 3)
    psi = from_graph_map(lifted)
    print(f"lift of the cube exists; total graph rank {rank(cover.total)}")

    witness = covers_relation(psi, phi, k_max=3)
    print(f"\ncovering witness found: k={witness.k}")
    print(json.dumps(witness.to_json_dict(), sort_keys=True, indent=2))
    print(f"replay verifies: {replay_witness(witness, psi, phi)}")

    # a second story: cover the cover, then compose the witnesses
    subs2 = enumerate_subgroups(3, 2, symbols=psi.symbols)
    H2 = next(h for h in subs2 if smallest_invariant_power(psi.images, h, 3) == 1)
    cover2 = build_cover(lifted.domain, H2)
    lifted2 = lift_map(lifted, cover2, 3)
    psi2 = from_graph_map(lifted2)
    w12 = witness_from_lift(cover2, 3, psi2, psi)
    composite = compose_witnesses(w12, witness, psi2, phi)
    print(f"\ncomposite witness over the base: k={composite.k} "
          f"(index {composite.subgroup.index()})")
    print(f"composite replay verifies: {replay_witness(composite, psi2, phi)}")


if __name__ == "__main__":
    main()
