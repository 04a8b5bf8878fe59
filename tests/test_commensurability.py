import pytest

from action_oracle import image_subgroup
from conjugates import conjugate_classes_equal
from fibercomm.commensurability import (
    CoveringWitness,
    OuterAutomorphism,
    commensurable,
    compose_witnesses,
    covers_relation,
    from_graph_map,
    greater_than,
    minimal_element_search,
    replay_witness,
    witness_from_lift,
)
from fibercomm.covers import (
    build_cover,
    check_automorphism,
    enumerate_subgroups,
    full_group,
    invariant_powers,
    lift_map,
    subgroup_from_json_dict,
    subgroup_to_json_dict,
)
from fibercomm import commensurability, errors, spectral, whitehead, words
from fibercomm.descent import quotient_descent
from fibercomm.errors import NotAnAutomorphism, NotRotationless
from fibercomm.graph import rank, rose
from fibercomm.maps import GraphMap, map_power
from fibercomm.words import (
    apply_images,
    concat,
    free_reduce,
    inverse,
    power_images,
)


@pytest.fixture(scope="module")
def phi(fib):
    return from_graph_map(fib)


@pytest.fixture(scope="module")
def psi(fib3_lift):
    return from_graph_map(fib3_lift)


def test_outer_automorphism_basics(phi):
    assert phi.rank == 2
    assert check_automorphism(phi.images, phi.symbols)
    assert phi.power(2).images == {"a": ("a", "b", "a"), "b": ("a", "b")}
    sf = phi.stretch_factor()
    assert sf.min_poly == (-1, -1, 1)


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


def test_replay_rejects_a_subgroup_phi_moves(parity_subgroup, psi, phi, monkeypatch):
    # FIB(a) = ab has odd b-exponent sum, so FIB moves the parity subgroup;
    # the membership check must say so before any identification is read
    H = parity_subgroup
    assert not H.contains(apply_images(phi.images, ("a",)))
    ident = dict(zip(psi.symbols, H.basis()))

    def unreachable(word):
        raise AssertionError("replay read the identification")

    monkeypatch.setattr(commensurability, "free_reduce", unreachable)
    assert not replay_witness(CoveringWitness(H, 1, (), ident), psi, phi)


def test_replay_rejects_a_subgroup_phi_only_conjugates():
    # phi, conjugation by b, sends an index-3 H that b does not normalize to
    # b H b^-1.  With inner conjugator b every identification equation of
    # psi = id holds, so only the invariance check can refuse the witness.
    phi = OuterAutomorphism({"a": ("b", "a", "~b"), "b": ("b",)})
    H = next(h for h in enumerate_subgroups(2, 3) if image_subgroup(phi.images, h).key() != h.key())
    gens = [f"x{i}" for i in range(H.rank())]
    psi = OuterAutomorphism({x: (x,) for x in gens})
    ident = dict(zip(gens, H.basis()))
    assert all(apply_images(phi.images, w) == concat(("b",), w, ("~b",)) for w in ident.values())
    assert not replay_witness(CoveringWitness(H, 1, ("b",), ident), psi, phi)


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
    assert covers_relation(psi, phi, 3) == w
    assert checked and all(images == phi.images for images in checked)


def test_non_automorphism_is_still_rejected(psi, phi):
    w = covers_relation(psi, phi, k_max=3)
    squash = OuterAutomorphism({"a": ("a", "a"), "b": ("b",)})
    with pytest.raises(NotAnAutomorphism):
        replay_witness(w, psi, squash)
    with pytest.raises(NotAnAutomorphism):
        covers_relation(psi, squash, 3)


def test_power_past_denominator_bound_covers(fib, phi):
    # log_ratio(phi, phi^21) = 21: log_ratio bounds no power, so the
    # filter forces k = 21 rather than reading the pair as no power
    psi = from_graph_map(map_power(fib, 21))
    witness = covers_relation(psi, phi, k_max=21)
    assert witness is not None and witness.k == 21
    assert replay_witness(witness, psi, phi)


def test_fib_25th_power_images_cover_fib(monkeypatch):
    # no representative attached, so every k <= 25 and all 8 signed
    # permutations are candidates; the cyclic core lengths rule out all but
    # (25, identity) before the conjugator solver runs
    fib = {"a": ("a", "b"), "b": ("a",)}
    psi, phi = OuterAutomorphism(power_images(fib, 25)), OuterAutomorphism(fib)
    solved = []
    solve = commensurability.solve_conjugacy_system

    def recorded(equations):
        solved.append(equations)
        return solve(equations)

    monkeypatch.setattr(commensurability, "solve_conjugacy_system", recorded)
    # Phi^k is built once for all k: 24 compositions, and 25 more in the
    # replay of the witness
    composed = []
    compose = words.compose_images

    def counted(outer, inner):
        composed.append(1)
        return compose(outer, inner)

    monkeypatch.setattr(words, "compose_images", counted)
    monkeypatch.setattr(commensurability, "compose_images", counted)
    witness = covers_relation(psi, phi, 25)
    assert witness == CoveringWitness(full_group(("a", "b")), 25, (), {"a": ("a",), "b": ("b",)})
    assert len(solved) == 1
    assert len(composed) <= 50
    assert replay_witness(witness, psi, phi)


def test_rank_gate(phi, psi):
    # rank 2 cannot cover rank 3: (2-1)/(3-1) is not a positive integer
    assert covers_relation(phi, psi, k_max=3) is None


def test_transitive_composition(fib, fib3_lift, psi, phi):
    subs2 = enumerate_subgroups(3, 2, symbols=psi.symbols)
    H2 = next(h for h, k in zip(subs2, invariant_powers(psi.images, subs2, 3)) if k == 1)
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


def test_quotient_descent_rejects_wrong_base(fib, fib3_lift, double_cover):
    status, _ = quotient_descent(fib3_lift, fib, double_cover, 1)
    assert status == "not_descendable"


def test_quotient_descent_rejects_a_collapsed_edge():
    """b and c have the same image, so the square of f collapses b c^-1.
    The lift's edge over it has an empty image, which no induced map can
    carry: the verdict is not_descendable, not an IndexError."""
    g3 = rose(("a", "b", "c"))
    f = GraphMap(g3, {"v0": "v0"}, {"a": ("a",), "b": ("b", "~c"), "c": ("b", "~c")})
    H = next(
        H for H in enumerate_subgroups(3, 2, symbols=("a", "b", "c"))
        if not H.contains(("b",)) and not H.contains(("c",))
    )
    cover = build_cover(g3, H)
    status, reason = quotient_descent(lift_map(f, cover, 1), map_power(f, 2), cover, 2)
    assert status == "not_descendable"
    assert reason.startswith("induced map invalid") and "empty image" in reason


def test_covers_relation_propagates_a_value_error_from_log_ratio(phi, monkeypatch):
    """``_log_ratio_filter`` lets a bug in ``log_ratio`` through: no broad
    except turns it into a negative verdict."""

    def broken(*args):
        raise ValueError("bug in log_ratio")

    monkeypatch.setattr(spectral, "log_ratio", broken)
    with pytest.raises(ValueError, match="bug in log_ratio"):
        covers_relation(phi.power(2), phi, 4)


def test_no_stretch_reduction_without_a_certificate(phi):
    """The word composite phi2^n o phi1^m of two classmates carried no
    certificate: for FIB^2 and psi^3, psi = {a->b, b->ba}, it was a map
    outside FIB's class.  That reduction and its inverse search are gone,
    and the minimal element search only descends."""
    psi = OuterAutomorphism({"a": ("b",), "b": ("b", "a")})
    assert covers_relation(psi.power(3), phi.power(3), 1) is not None
    for name in ("gcd_reduce", "invert_images", "_bezout", "_try_attach"):
        assert not hasattr(commensurability, name)
    assert not hasattr(errors, "NotCommensurableRatio")
    with pytest.raises(TypeError, match="classmates"):
        minimal_element_search(phi.power(2), classmates=(psi.power(3),))
    assert minimal_element_search(phi.power(2))["reductions"] == []


# --- minimal element search ----------------------------------------------


def test_minimize_descends_lift(psi, phi):
    report = minimal_element_search(psi, index_max=2)
    kinds = [kind for kind, _ in report["reductions"]]
    assert "descent" in kinds
    candidate = report["candidate"]
    assert candidate.rank == 2
    sf = candidate.stretch_factor()
    assert sf.min_poly == (-1, -4, 1)  # x^2 - 4x - 1, the cube's stretch


def test_minimize_fixed_point(phi):
    report = minimal_element_search(phi, index_max=2)
    assert report["reductions"] == []
    assert report["candidate"].images == phi.images
    assert report["hypotheses"]["train_track"]
    assert not report["hypotheses"]["ageometric"]


def test_minimize_reports_not_rotationless_as_index_error(phi, monkeypatch):
    def not_rotationless(f, nielsen_bounds=(2, 6)):
        raise NotRotationless("power is not rotationless")

    monkeypatch.setattr(whitehead, "geometric_index", not_rotationless)
    report = minimal_element_search(phi, index_max=2)
    assert report["hypotheses"]["index_error"] == "power is not rotationless"
    assert "ageometric" not in report["hypotheses"]


def test_minimize_propagates_unexpected_index_errors(phi, monkeypatch):
    def broken(f, nielsen_bounds=(2, 6)):
        raise RuntimeError("bug in geometric_index")

    monkeypatch.setattr(whitehead, "geometric_index", broken)
    with pytest.raises(RuntimeError, match="bug in geometric_index"):
        minimal_element_search(phi, index_max=2)

