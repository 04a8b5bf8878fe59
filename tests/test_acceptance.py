"""Acceptance suite: one test per criterion, with stated tolerances and
runtime budgets.  Run with ``pytest -v tests/test_acceptance.py`` to get one
pass/fail line per criterion."""

import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from fibercomm.commensurability import (
    compose_witnesses,
    covers_relation,
    from_graph_map,
    gcd_reduce,
    replay_witness,
    witness_from_lift,
)
from fibercomm.covers import (
    build_cover,
    check_automorphism,
    enumerate_subgroups,
    extend_restriction,
    lift_map,
    lift_path,
    restriction_images,
    smallest_invariant_power,
)
from fibercomm.folds import stallings_fold
from fibercomm.graph import loop_to_word, rank, rose, word_to_loop
from fibercomm.maps import (
    induced_outer_automorphism,
    is_atoroidal,
    map_power,
    transition_matrix,
)
from fibercomm.spectral import log_ratio, pf_data
from fibercomm.whitehead import (
    WhiteheadGraph,
    brute_force_automorphisms,
    geometric_index,
    graph_automorphisms,
    principal_vertices,
    stable_whitehead_graphs,
)
from fibercomm.words import (
    apply_images,
    conjugate_classes_equal,
    cyclic_reduce,
    enumerate_reduced_words,
    power_images,
)

GOLDEN = Fraction("1.6180339887")
PLASTIC = Fraction("1.3247179572")


def test_criterion_01_fib_stretch_factor(fib):
    start = time.monotonic()
    sf, irreducible = pf_data(transition_matrix(fib))
    assert sf.char_poly == (-1, -1, 1)  # x^2 - x - 1
    lo, hi = sf.enclosure
    # the enclosure pins the stated 10-digit decimal 1.6180339887
    assert GOLDEN <= hi and lo <= GOLDEN + Fraction(1, 10**10)
    assert hi - lo <= Fraction(1, 10**12)
    assert time.monotonic() - start < 1.0


def test_criterion_02_plast_stretch_factor(plast):
    start = time.monotonic()
    sf, irreducible = pf_data(transition_matrix(plast))
    assert sf.char_poly == (-1, -1, 0, 1)  # x^3 - x - 1
    lo, hi = sf.enclosure
    assert PLASTIC <= hi and lo <= PLASTIC + Fraction(1, 10**10)
    assert hi - lo <= Fraction(1, 10**12)
    assert time.monotonic() - start < 1.0


def test_criterion_03_cover_suite(fib):
    start = time.monotonic()
    images = induced_outer_automorphism(fib)
    s_base, _ = pf_data(transition_matrix(fib))
    subs = enumerate_subgroups(2, 2)
    assert len(subs) == 3
    for H in subs:
        assert smallest_invariant_power(images, H, 4) == 3
        cover = build_cover(fib.domain, H)
        lifted = lift_map(fib, cover, 3)
        assert lifted is not None
        s_lift, _ = pf_data(transition_matrix(lifted))
        verdict = log_ratio(s_base, s_lift)
        assert verdict.rational and verdict.ratio == Fraction(3, 1)
        assert rank(cover.total) == 3
    assert time.monotonic() - start < 5.0


def test_criterion_04_covering_relation(fib, fib3_lift):
    start = time.monotonic()
    psi = from_graph_map(fib3_lift)
    phi = from_graph_map(fib)
    witness = covers_relation(psi, phi, k_max=3)
    assert witness is not None and witness.k == 3
    assert replay_witness(witness, psi, phi)
    # the identification carries a full basis of H
    assert len(witness.identification) == witness.subgroup.canonical().rank()
    assert time.monotonic() - start < 10.0


def test_criterion_05_transitivity(fib, fib3_lift):
    start = time.monotonic()
    psi = from_graph_map(fib3_lift)
    phi = from_graph_map(fib)
    subs2 = enumerate_subgroups(3, 2, symbols=psi.symbols)
    H2 = next(h for h in subs2 if smallest_invariant_power(psi.images, h, 3) == 1)
    cover2 = build_cover(fib3_lift.domain, H2)
    lifted2 = lift_map(fib3_lift, cover2, 3)
    assert lifted2 is not None
    psi2 = from_graph_map(lifted2)
    w12 = witness_from_lift(cover2, 3, psi2, psi)
    assert w12 is not None and replay_witness(w12, psi2, psi)
    w23 = covers_relation(psi, phi, k_max=3)
    composite = compose_witnesses(w12, w23, psi2, phi)
    assert composite is not None and composite.k == 9
    assert replay_witness(composite, psi2, phi)
    assert time.monotonic() - start < 30.0


def test_criterion_06_euler_scaling():
    for r, symbols in ((2, ("a", "b")), (3, ("a", "b", "c"))):
        g = rose(symbols)
        for m in range(2, 5):
            for H in enumerate_subgroups(r, m):
                cover = build_cover(g, H)
                assert rank(cover.total) - 1 == m * (rank(g) - 1)


def test_criterion_07_fold_suite(foldme):
    from fibercomm.words import base, free_reduce, inv, is_positive

    folded, event = stallings_fold(foldme, "e1", "e2")

    def push(path):
        out = []
        for d in path:
            q = event.quotient[base(d)]
            out.append(q if is_positive(d) else inv(q))
        return free_reduce(tuple(out))

    for e in foldme.domain.edges:
        assert push(foldme.edge_image(e)) == folded.edge_image(event.quotient[e])
    before, _ = pf_data(transition_matrix(foldme))
    after, _ = pf_data(transition_matrix(folded))
    assert max(before.enclosure[0], after.enclosure[0]) <= min(
        before.enclosure[1], after.enclosure[1]
    )
    pv_before, _ = principal_vertices(foldme)
    pv_after, _ = principal_vertices(folded)
    mapped = sorted({event.vertex_quotient[v] for v in pv_before})
    assert mapped == sorted(pv_after)
    assert len(pv_before) == len(mapped)


def test_criterion_08_toroidality_transfer(fib, double_cover, fib3_lift):
    verdict = is_atoroidal(fib, 2, 6)
    assert verdict.toroidal
    assert verdict.witness_word == ("a", "b", "~a", "~b")
    assert verdict.witness_power == 2
    # transfer: lift the witness loop to the double cover
    loop = word_to_loop(fib.domain, verdict.witness_word, "v0")
    lifted_loop, end = lift_path(double_cover, loop, "v0@0")
    assert end == "v0@0"
    transferred = loop_to_word(double_cover.total, lifted_loop, "v0@0")
    psi = induced_outer_automorphism(fib3_lift)
    img, _ = cyclic_reduce(apply_images(power_images(psi, 2), transferred))
    assert conjugate_classes_equal(transferred, img)
    lift_verdict = is_atoroidal(fib3_lift, 2, 6)
    assert lift_verdict.toroidal
    assert lift_verdict.witness_word == transferred


def test_criterion_09_index_suite(fib, plast, double_cover):
    report = geometric_index(map_power(fib, 2))
    assert report.fixed_direction_counts == (3,)
    assert report.index == 1
    assert report.rank == 2
    assert not report.ageometric
    report3 = geometric_index(map_power(plast, 6))
    assert report3.fixed_direction_counts == (5,)
    assert report3.index == 3
    assert report3.rank == 3
    assert not report3.ageometric
    # lift scaling: the degree-2 cover doubles the index
    base6 = geometric_index(map_power(fib, 6))
    lift6 = lift_map(fib, double_cover, 6)
    assert lift6 is not None
    lifted_report = geometric_index(lift6)
    assert lifted_report.index == 2 * base6.index


def _labeled_graphs(n):
    nodes = tuple(f"d{i}" for i in range(n))
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(2 ** len(pairs)):
        edges = frozenset(
            frozenset((nodes[i], nodes[j]))
            for idx, (i, j) in enumerate(pairs)
            if bits >> idx & 1
        )
        yield bits, WhiteheadGraph("v", nodes, edges)


def test_criterion_10_whitehead(fib):
    graphs = stable_whitehead_graphs(map_power(fib, 2))
    assert len(graphs) == 1
    w = graphs[0]
    assert w.nodes == ("a", "~a", "~b")
    assert w.edges == frozenset({frozenset({"a", "~a"}), frozenset({"a", "~b"})})
    autos = graph_automorphisms(w)
    identity = {d: d for d in w.nodes}
    end_swap = {"a": "a", "~a": "~b", "~b": "~a"}
    assert sorted(autos, key=sorted) == sorted([identity, end_swap], key=sorted)

    # oracle equivalence, exhaustive: direct brute force through 5 vertices
    key = lambda m: tuple(sorted(m.items()))
    for n in range(1, 6):
        for _, g in _labeled_graphs(n):
            assert {key(m) for m in graph_automorphisms(g)} == {
                key(m) for m in brute_force_automorphisms(g)
            }
    # six vertices: orbit-stabilizer count oracle on every labeled graph,
    # full brute-force set equality on every orbit representative
    n = 6
    pairs = list(itertools.combinations(range(n), 2))
    perm_tables = []
    pair_idx = {frozenset(p): i for i, p in enumerate(pairs)}
    for perm in itertools.permutations(range(n)):
        perm_tables.append(
            tuple(pair_idx[frozenset((perm[i], perm[j]))] for i, j in pairs)
        )
    expected_counts = {}
    reps = []
    for bits in range(2 ** len(pairs)):
        if bits in expected_counts:
            continue
        orbit = set()
        stab = 0
        for table in perm_tables:
            image = 0
            m = bits
            while m:
                low = m & -m
                image |= 1 << table[low.bit_length() - 1]
                m ^= low
            orbit.add(image)
            if image == bits:
                stab += 1
        assert stab * len(orbit) == len(perm_tables)  # orbit-stabilizer
        for member in orbit:
            expected_counts[member] = stab
        reps.append(bits)
    for bits, g in _labeled_graphs(n):
        assert len(graph_automorphisms(g)) == expected_counts[bits]
    rep_set = set(reps)
    for bits, g in _labeled_graphs(n):
        if bits in rep_set:
            assert {key(m) for m in graph_automorphisms(g)} == {
                key(m) for m in brute_force_automorphisms(g)
            }


def test_criterion_11_quotient_descent(fib, fib3_lift, double_cover):
    from fibercomm.commensurability import quotient_descent

    start = time.monotonic()
    h3 = map_power(fib, 3)
    status, result = quotient_descent(fib3_lift, h3, double_cover, 1)
    assert status == "quotient"
    assert rank(result.quotient) == 2
    assert result.certificates["commutes"]
    assert result.certificates["injective_rank"]
    assert result.certificates["finite_index"]
    induced = induced_outer_automorphism(result.induced)
    cube = power_images(induced_outer_automorphism(fib), 3)
    pairing = dict(zip(sorted(induced), sorted(cube)))
    translate = {s: (t,) for s, t in pairing.items()}
    for s, img in induced.items():
        assert conjugate_classes_equal(
            apply_images(translate, img), cube[pairing[s]]
        )
    assert time.monotonic() - start < 30.0


def test_criterion_12_gcd_reduction(fib):
    phi = from_graph_map(fib)
    status, reduced, exponents = gcd_reduce(phi.power(2), phi.power(3))
    assert status == "reduced"
    sf = reduced.stretch_factor()
    assert sf is not None
    base_sf = phi.stretch_factor()
    assert sf.min_poly == base_sf.min_poly == (-1, -1, 1)
    verdict = log_ratio(base_sf, sf)
    assert verdict.rational and verdict.ratio == Fraction(1, 1)


def test_criterion_13_extension_uniqueness():
    rng = random.Random(20250825)
    pool = [w for w in enumerate_reduced_words(("a", "b"), 4) if w]
    subgroups = enumerate_subgroups(2, 2) + enumerate_subgroups(2, 3)
    checked = 0
    while checked < 100:
        images = {"a": rng.choice(pool), "b": rng.choice(pool)}
        if not check_automorphism(images, ("a", "b")):
            continue
        H = rng.choice(subgroups)
        k = smallest_invariant_power(images, H, 6)
        if k is None:
            continue
        powered = power_images(images, k)
        if max(len(w) for w in powered.values()) > 200:
            continue  # keep the word sizes testable
        restricted = restriction_images(powered, H)
        verdict = extend_restriction(restricted, H)
        assert verdict.found
        assert verdict.images == powered
        checked += 1
    assert checked == 100


def test_criterion_14_cli_determinism(tmp_path, fib, plast, fib3_lift):
    from fibercomm.cli import main
    from fibercomm.maps import map_to_json_dict

    for name, f in (("FIB", fib), ("PLAST", plast), ("lift3", fib3_lift)):
        (tmp_path / f"{name}.json").write_text(
            json.dumps(map_to_json_dict(f), sort_keys=True, indent=2)
        )
    jobs = [
        ["analyze", str(tmp_path / "FIB.json")],
        ["analyze", str(tmp_path / "PLAST.json"), "--k-max", "6"],
        ["cover", str(tmp_path / "FIB.json")],
        ["compare", str(tmp_path / "lift3.json"), str(tmp_path / "FIB.json"),
         "--k-max", "3", "--p-max", "1"],
        ["minimize", str(tmp_path / "lift3.json")],
        ["validate", str(tmp_path / "lift3.json")],
    ]
    for i, argv in enumerate(jobs):
        p1 = tmp_path / f"job{i}-run1.out"
        p2 = tmp_path / f"job{i}-run2.out"
        c1 = main(argv + ["--out", str(p1)])
        c2 = main(argv + ["--out", str(p2)])
        assert c1 == c2
        assert p1.read_bytes() == p2.read_bytes()
