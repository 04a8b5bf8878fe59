"""Descent and minimal-element search: a lifted map descends back to its base.

Run with:  python3 demos/descent_and_reduction.py
"""

from fibercomm.commensurability import (
    from_graph_map,
    minimal_element_search,
    quotient_descent,
)
from fibercomm.covers import build_cover, enumerate_subgroups, lift_map
from fibercomm.graph import rank, rose
from fibercomm.maps import GraphMap, map_power


def main():
    g2 = rose(("a", "b"))
    fib = GraphMap(g2, {"v0": "v0"}, {"a": ("a", "b"), "b": ("a",)})
    H = next(
        h for h in enumerate_subgroups(2, 2)
        if h.contains(("a",)) and not h.contains(("b",))
    )
    cover = build_cover(g2, H)
    lifted = lift_map(fib, cover, 3)

    status, result = quotient_descent(lifted, map_power(fib, 3), cover, 1)
    print(f"descent status: {status}")
    print(f"quotient rank: {rank(result.quotient)}")
    print(f"induced map: {result.induced.edge_map}")
    print(f"certificates: {result.certificates}")

    report = minimal_element_search(from_graph_map(lifted), index_max=2)
    print(f"\nminimal-element search on the lift:")
    for kind, info in report["reductions"]:
        print(f"  reduction: {kind} {info}")
    print(f"  final candidate rank: {report['candidate'].rank}")


if __name__ == "__main__":
    main()
