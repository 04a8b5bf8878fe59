from fractions import Fraction

import pytest

from fibercomm.commensurability import (
    CoveringWitness,
    OuterAutomorphism,
    commensurable,
    compose_witnesses,
    covering_equivalent,
    covers_relation,
    from_graph_map,
    gcd_reduce,
    greater_than,
    invert_images,
    minimal_element_search,
    poset_dot,
    quotient_descent,
    replay_witness,
    witness_from_lift,
)
from fibercomm.covers import (
    build_cover,
    enumerate_subgroups,
    lift_map,
    smallest_invariant_power,
    subgroup_from_json_dict,
    subgroup_to_json_dict,
)
from fibercomm import commensurability, whitehead
from fibercomm.errors import NotAnAutomorphism, NotCommensurableRatio, NotRotationless
from fibercomm.graph import rank, rose
from fibercomm.maps import GraphMap, map_power
from fibercomm.words import (
    apply_images,
    compose_images,
    concat,
    conjugate_classes_equal,
    free_reduce,
    identity_images,
    inverse,
)


@pytest.fixture(scope="module")
def phi(fib):
    return from_graph_map(fib)


@pytest.fixture(scope="module")
def psi(fib3_lift):
    return from_graph_map(fib3_lift)


def test_outer_automorphism_basics(phi):
    assert phi.rank == 2
    assert phi.check()
    assert phi.power(2).images == {"a": ("a", "b", "a"), "b": ("a", "b")}
    sf = phi.stretch_factor()
    assert sf.min_poly == (-1, -1, 1)


def test_invert_images(phi):
    inv_images = invert_images(phi.images)
    composed = compose_images(phi.images, inv_images)
    assert composed == identity_images(("a", "b"))


def test_reflexive_cover(phi):
    w = covers_relation(phi, phi, k_max=2)
    assert w is not None and w.k == 1
    assert replay_witness(w, phi, phi)


def test_lift_covers_base(psi, phi):
    w = covers_relation(psi, phi, k_max=3)
    assert w is not None
    assert w.k == 3
    assert w.subgroup.index() == 2
    assert replay_witness(w, psi, phi)


def test_replay_rejects_tampering(psi, phi):
    w = covers_relation(psi, phi, k_max=3)
    bad_ident = dict(w.identification)
    first = sorted(bad_ident)[0]
    bad_ident[first] = bad_ident[first] + ("a", "~a", "b")
    tampered = CoveringWitness(w.subgroup, w.k, w.inner_conjugator, bad_ident)
    assert not replay_witness(tampered, psi, phi)
    wrong_k = CoveringWitness(w.subgroup, w.k + 3, w.inner_conjugator, w.identification)
    assert not replay_witness(wrong_k, psi, phi)


def test_replay_rejects_subgroup_over_more_symbols(psi, phi):
    # H with a third symbol and no edges for it has infinite index in F(a, b, c)
    w = covers_relation(psi, phi, k_max=3)
    widened = subgroup_from_json_dict(
        {**subgroup_to_json_dict(w.subgroup), "symbols": ["a", "b", "c"]}
    )
    assert not widened.is_complete()
    tampered = CoveringWitness(widened, w.k, w.inner_conjugator, w.identification)
    assert not replay_witness(tampered, psi, phi)


@pytest.mark.parametrize("n", [17, 40])
def test_far_inner_conjugator_is_found(n):
    # psi = a^-n phi a^n covers phi with k = 1 and inner conjugator a^n,
    # past the old scans' caps of 16 and 32 powers
    phi = OuterAutomorphism({"a": ("a",), "b": ("b", "a")})
    an = ("a",) * n
    psi = OuterAutomorphism({s: concat(inverse(an), w, an) for s, w in phi.images.items()})
    w = covers_relation(psi, phi, 1)
    assert w is not None and w.inner_conjugator == an
    assert replay_witness(w, psi, phi)


def test_witness_checks_only_phi_own_images(psi, phi, monkeypatch):
    w = covers_relation(psi, phi, k_max=3)
    checked = []
    check = commensurability.check_automorphism

    def recorded(images, symbols):
        checked.append(images)
        return check(images, symbols)

    monkeypatch.setattr(commensurability, "check_automorphism", recorded)
    assert replay_witness(w, psi, phi)
    assert commensurability._match_restriction(psi, phi, w.subgroup, w.k, w.identification) == w
    assert checked and all(images == phi.images for images in checked)


def test_non_automorphism_is_still_rejected(psi, phi):
    w = covers_relation(psi, phi, k_max=3)
    squash = OuterAutomorphism({"a": ("a", "a"), "b": ("b",)})
    with pytest.raises(NotAnAutomorphism):
        replay_witness(w, psi, squash)
    with pytest.raises(NotAnAutomorphism):
        commensurability._match_restriction(psi, squash, w.subgroup, w.k, w.identification)


def test_power_past_denominator_bound_covers(fib, phi):
    # log_ratio(phi, phi^21) = 21 lies past denom_bound = 20; it must still
    # force k = 21 rather than read as an irrational ratio
    psi = from_graph_map(map_power(fib, 21))
    witness = covers_relation(psi, phi, k_max=21)
    assert witness is not None and witness.k == 21
    assert replay_witness(witness, psi, phi)


def test_rank_gate(phi, psi):
    # rank 2 cannot cover rank 3: (2-1)/(3-1) is not a positive integer
    assert covers_relation(phi, psi, k_max=3) is None


def test_transitive_composition(fib, fib3_lift, psi, phi):
    subs2 = enumerate_subgroups(3, 2, symbols=psi.symbols)
    H2 = next(
        h for h in subs2 if smallest_invariant_power(psi.images, h, 3) == 1
    )
    cover2 = build_cover(fib3_lift.domain, H2)
    lifted2 = lift_map(fib3_lift, cover2, 3)
    assert lifted2 is not None
    psi2 = from_graph_map(lifted2)
    assert psi2.rank == 5

    w12 = witness_from_lift(cover2, 3, psi2, psi)
    assert w12 is not None and replay_witness(w12, psi2, psi)
    w23 = covers_relation(psi, phi, k_max=3)
    composite = compose_witnesses(w12, w23, psi2, phi)
    assert composite is not None
    assert composite.k == 9
    assert replay_witness(composite, psi2, phi)


def test_greater_than(psi, phi):
    result = greater_than(psi, phi, k_max=3, p_max=1)
    assert result is not None and result[0] == 1


def test_commensurable_via_lift(phi, psi):
    cert = commensurable(phi, psi, k_max=3, p_max=1)
    assert cert is not None
    assert cert.phi3.rank == 3
    assert replay_witness(cert.witness1, cert.phi3, phi)
    assert replay_witness(cert.witness2, cert.phi3, psi)


def test_covering_equivalent_conjugate(phi, fib):
    g = fib.domain
    swapped = OuterAutomorphism(
        {"a": ("b",), "b": ("b", "a")},
        GraphMap(g, {"v0": "v0"}, {"a": ("b",), "b": ("b", "a")}),
    )
    verdict, conj = covering_equivalent(phi, swapped, k_max=2, p_max=1)
    assert verdict == "equivalent_with_conjugator"
    assert conj == {"a": ("b",), "b": ("a",)}


def test_covering_equivalent_negative(phi):
    verdict, _ = covering_equivalent(phi, phi.power(2), k_max=3, p_max=2)
    assert verdict == "not_within_bounds"


# --- quotient descent ----------------------------------------------------


def test_quotient_descent_recovers_base(fib, fib3_lift, double_cover, phi):
    h3 = map_power(fib, 3)
    status, result = quotient_descent(fib3_lift, h3, double_cover, 1)
    assert status == "quotient"
    assert rank(result.quotient) == 2
    assert result.certificates["commutes"]
    assert result.certificates["injective_rank"]
    assert result.certificates["finite_index"]
    assert result.certificates["index"] == 2
    # induced basis images conjugate to those of the cube of the base map
    induced = from_graph_map(result.induced)
    cube = phi.power(3)
    pairing = dict(zip(sorted(induced.images), sorted(cube.images)))
    translate = {s: (t,) for s, t in pairing.items()}
    for s, img in induced.images.items():
        assert conjugate_classes_equal(
            free_reduce(apply_images(translate, img)), cube.images[pairing[s]]
        )


def test_quotient_descent_strict_angles(fib, fib3_lift, double_cover):
    h3 = map_power(fib, 3)
    status, offender = quotient_descent(
        fib3_lift, h3, double_cover, 1, strict_angles=True
    )
    assert status == "symmetric"


def test_quotient_descent_not_rotationless_is_symmetric(fib, fib3_lift, double_cover, monkeypatch):
    def not_rotationless(f):
        raise NotRotationless()

    monkeypatch.setattr(whitehead, "angle_labeling", not_rotationless)
    status, offender = quotient_descent(
        fib3_lift, map_power(fib, 3), double_cover, 1, strict_angles=True
    )
    assert (status, offender) == ("symmetric", None)


def test_quotient_descent_propagates_unexpected_angle_errors(fib, fib3_lift, double_cover, monkeypatch):
    def broken(f):
        raise RuntimeError("bug in angle_labeling")

    monkeypatch.setattr(whitehead, "angle_labeling", broken)
    with pytest.raises(RuntimeError, match="bug in angle_labeling"):
        quotient_descent(fib3_lift, map_power(fib, 3), double_cover, 1, strict_angles=True)


def test_quotient_descent_rejects_wrong_base(fib, fib3_lift, double_cover):
    status, _ = quotient_descent(fib3_lift, fib, double_cover, 1)
    assert status == "not_descendable"


# --- gcd reduction -------------------------------------------------------


def test_gcd_reduce_fib_powers(phi):
    status, reduced, exponents = gcd_reduce(phi.power(2), phi.power(3))
    assert status == "reduced"
    assert exponents == (2, -1)
    assert reduced.images == phi.images
    sf = reduced.stretch_factor()
    assert sf.min_poly == (-1, -1, 1)


def test_gcd_reduce_integral(phi):
    status, _, _ = gcd_reduce(phi, phi.power(2))
    assert status == "already_integral"


def test_gcd_reduce_incommensurable(phi, plast):
    with pytest.raises(NotCommensurableRatio):
        gcd_reduce(phi, from_graph_map(plast), denom_bound=10)


# --- minimal element search ----------------------------------------------


def test_minimize_descends_lift(psi, phi):
    report = minimal_element_search(psi, k_max=4, index_max=2)
    kinds = [kind for kind, _ in report["reductions"]]
    assert "descent" in kinds
    candidate = report["candidate"]
    assert candidate.rank == 2
    sf = candidate.stretch_factor()
    assert sf.min_poly == (-1, -4, 1)  # x^2 - 4x - 1, the cube's stretch


def test_minimize_fixed_point(phi):
    report = minimal_element_search(phi, k_max=3, index_max=2)
    assert report["reductions"] == []
    assert report["candidate"].images == phi.images
    assert report["hypotheses"]["train_track"]
    assert not report["hypotheses"]["ageometric"]


def test_minimize_reports_not_rotationless_as_index_error(phi, monkeypatch):
    def not_rotationless(f, nielsen_bounds=(2, 6)):
        raise NotRotationless("power is not rotationless")

    monkeypatch.setattr(whitehead, "geometric_index", not_rotationless)
    report = minimal_element_search(phi, k_max=3, index_max=2)
    assert report["hypotheses"]["index_error"] == "power is not rotationless"
    assert "ageometric" not in report["hypotheses"]


def test_minimize_propagates_unexpected_index_errors(phi, monkeypatch):
    def broken(f, nielsen_bounds=(2, 6)):
        raise RuntimeError("bug in geometric_index")

    monkeypatch.setattr(whitehead, "geometric_index", broken)
    with pytest.raises(RuntimeError, match="bug in geometric_index"):
        minimal_element_search(phi, k_max=3, index_max=2)


def test_poset_dot_output():
    dot = poset_dot([("lift", "base", 3), ("base", "base", 1)])
    assert dot.splitlines()[0] == "digraph covers {"
    assert '"lift" -> "base" [label="k=3"];' in dot
