"""Exact stretch factors and train-track verification for two classics.

Run with:  python3 demos/stretch_factors.py
"""

from fibercomm.graph import rose
from fibercomm.maps import GraphMap, is_atoroidal, is_train_track, transition_matrix
from fibercomm.spectral import pf_data
from fibercomm.whitehead import geometric_index, rotationless_power
from fibercomm.maps import map_power


def report(name, f):
    print(f"== {name} ==")
    verdict = is_train_track(f)
    print(f"  train track: {verdict.is_train_track}, irreducible: {verdict.irreducible}")
    sf, _ = pf_data(transition_matrix(f))
    print(f"  char poly (lowest degree first): {sf.char_poly}")
    print(f"  stretch factor ~ {float(sum(sf.enclosure) / 2):.12f}  (enclosure width <= 1e-12)")
    k = rotationless_power(f, 12)
    print(f"  rotationless power: {k}")
    idx = geometric_index(map_power(f, k))
    print(f"  index report: counts={idx.fixed_direction_counts} index={idx.index} "
          f"rank={idx.rank} ageometric={idx.ageometric}")
    tor = is_atoroidal(f, 2, 6)
    if tor.toroidal:
        print(f"  toroidal: fixes [{' '.join(tor.witness_word)}] at power {tor.witness_power}")
    else:
        print("  no toroidal witness within bounds")
    print()


def main():
    g2 = rose(("a", "b"))
    fib = GraphMap(g2, {"v0": "v0"}, {"a": ("a", "b"), "b": ("a",)})
    report("fibonacci map  a->ab, b->a", fib)

    g3 = rose(("a", "b", "c"))
    plast = GraphMap(g3, {"v0": "v0"}, {"a": ("b",), "b": ("c",), "c": ("a", "b")})
    report("plastic map  a->b, b->c, c->ab", plast)


if __name__ == "__main__":
    main()
