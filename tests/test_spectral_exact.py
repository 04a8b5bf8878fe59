"""Differential tests: the pure-Python spectral layer (Berkowitz, Sturm,
Zassenhaus, integer powers decided in Q(lam)) against the sympy and numpy
implementation it replaced (``spectral_oracle``)."""

from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

import spectral_oracle as old
from fibercomm import spectral
from fibercomm.commensurability import from_graph_map
from fibercomm.covers import build_cover, enumerate_subgroups, invariant_powers, lift_map
from fibercomm.errors import ZeroMatrix
from fibercomm.graph import rose
from fibercomm.maps import GraphMap, map_power, transition_matrix

FIB = {"a": ("a", "b"), "b": ("a",)}
B5 = {"a": ("b", "a"), "b": ("a", "b", "a")}  # x^2 - 2x - 1
PLAST = {"a": ("b",), "b": ("c",), "c": ("a", "b")}
GOLDEN_SQUARED = [[2, 1], [1, 1]]  # x^2 - 3x + 1


def rose_map(images):
    return GraphMap(rose(tuple(sorted(images))), {"v0": "v0"}, images)


def cover_lifts(images, index_max, k_max):
    """Transition matrices of every lift that ``fibercomm cover`` builds."""
    f = rose_map(images)
    phi = from_graph_map(f)
    out = []
    for m in range(2, index_max + 1):
        subgroups = enumerate_subgroups(phi.rank, m, symbols=phi.symbols)
        for H, k in zip(subgroups, invariant_powers(phi.images, subgroups, k_max)):
            if k is not None:
                lifted = lift_map(f, build_cover(f.domain, H), k)
                if lifted is not None:
                    out.append(transition_matrix(lifted))
    return out


@pytest.fixture(scope="module")
def lifts():
    # PLAST's lifts at index <= 3 need k = 7 or 13: none at the CLI's default k-max of 4
    return {
        "FIB": cover_lifts(FIB, 4, 4),
        "B5": cover_lifts(B5, 4, 4),
        "PLAST": cover_lifts(PLAST, 3, 13),
    }


def block_diagonal(*blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(row)] = row
        at += len(b)
    return out


def assert_same_as_oracle(mat):
    """Same char poly, minimal polynomial, expansion and irreducibility as
    the oracle; an exact enclosure of width <= ENCLOSURE_WIDTH that holds
    the oracle's root and isolates it among the char poly's real roots."""
    if not any(map(any, mat)):
        with pytest.raises(ZeroMatrix):
            spectral.pf_data(mat)
        return
    ref, ref_irreducible = old.pf_data(mat)
    assert spectral.char_poly_coeffs(mat) == old.char_poly_coeffs(mat)
    sf, irreducible = spectral.pf_data(mat)
    assert sf.char_poly == ref.char_poly
    assert sf.min_poly == ref.min_poly
    assert sf.expanding == ref.expanding
    assert irreducible == ref_irreducible
    lo, hi = sf.enclosure
    assert isinstance(lo, Fraction) and isinstance(hi, Fraction)
    assert 0 <= hi - lo <= spectral.ENCLOSURE_WIDTH
    x = sympy.Symbol("x")
    poly = sympy.Poly(list(reversed(sf.char_poly)), x)
    root = max(sympy.real_roots(poly), key=lambda r: r.evalf(30))
    if root.is_Rational:
        assert lo == hi == Fraction(int(root.p), int(root.q))
        assert ref.enclosure == (lo, hi)
    else:
        slo, shi = sympy.Rational(lo.numerator, lo.denominator), sympy.Rational(hi.numerator, hi.denominator)
        assert bool(slo < root) and bool(root < shi)
        assert poly.sqf_part().count_roots(slo, shi) == 1


small_matrices = st.integers(1, 8).flatmap(
    lambda n: st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=n, max_size=n)
)
# diag(A, A) has charpoly chi_A^2: repeated factors
repeated = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=n, max_size=n)
).map(lambda a: block_diagonal(a, a))


@settings(max_examples=60, deadline=None)
@given(st.one_of(small_matrices, repeated))
@example([[1, 1], [1, 0]])
@example(block_diagonal([[1, 1], [1, 0]], [[1, 1], [1, 0]]))  # (x^2 - x - 1)^2
@example(block_diagonal([[1, 1], [1, 0]], [[2]]))  # rational PF root 2
@example(block_diagonal(GOLDEN_SQUARED, [[1, 1], [1, 0]]))  # reducible, two quadratics
@example([[0, 1], [0, 0]])  # nilpotent: PF root 0
@example([[0, 0], [0, 0]])
def test_random_matrices_match_oracle(mat):
    assert_same_as_oracle(mat)


@pytest.mark.parametrize("name", ("FIB", "B5", "PLAST"))
def test_cover_lifts_match_oracle(lifts, name):
    assert lifts[name]
    for mat in lifts[name]:
        assert_same_as_oracle(mat)


def test_numpy_input_is_accepted():
    mat = np.array([[1, 1], [1, 0]], dtype=np.int64)
    sf, irreducible = spectral.pf_data(mat)
    assert sf.char_poly == (-1, -1, 1) and irreducible
    assert spectral.char_poly_coeffs(mat) == (-1, -1, 1)


def test_enclosure_shrinks_to_isolate_close_roots():
    """(x - 3)^7 + 2 (1000 (x - 3) + 1)^2 is irreducible (Eisenstein at 2)
    and its two largest real roots, near 2.999, lie 4.5e-14 apart: a
    window of width ENCLOSURE_WIDTH around one holds the other."""
    x = sympy.Symbol("x")
    poly = sympy.Poly((x - 3) ** 7 + 2 * (1000 * (x - 3) + 1) ** 2, x)
    cp = [int(c) for c in reversed(poly.all_coeffs())]
    companion = [[int(i == j + 1) for j in range(7)] for i in range(7)]
    for i in range(7):
        companion[i][6] = -cp[i]
    sf, _ = spectral.pf_data(companion)
    assert sf.min_poly == tuple(cp) and sf.expanding
    lo, hi = sf.enclosure
    assert 0 < hi - lo < spectral.ENCLOSURE_WIDTH
    slo, shi = sympy.Rational(lo.numerator, lo.denominator), sympy.Rational(hi.numerator, hi.denominator)
    assert poly.count_roots(slo, shi) == 1
    assert bool(slo < max(sympy.real_roots(poly)) < shi)
    assert spectral.log_ratio(sf, sf) == 1


# --- log ratios ------------------------------------------------------------


def stretch_pairs(mats):
    """(new, oracle) stretch factors of each matrix, one per char poly."""
    seen = {}
    for mat in mats:
        sf = spectral.pf_data(mat)[0]
        if sf.char_poly not in seen:
            seen[sf.char_poly] = (sf, old.pf_data(mat)[0])
    return list(seen.values())


@pytest.fixture(scope="module")
def powers():
    return {
        name: stretch_pairs(transition_matrix(map_power(rose_map(images), k)) for k in range(1, 21))
        for name, images in (("FIB", FIB), ("PLAST", PLAST))
    }


def oracle(fn, *args):
    """The oracle's answer, or None where sympy fails inside it: for
    lam = golden ratio, minimal_polynomial(lam^12) raises ValueError from
    sympy's factor cache, so the oracle cannot compare FIB^12 and FIB^13."""
    try:
        return fn(*args)
    except ValueError:
        return None


def verdicts(pairs_a, pairs_b):
    """New log_ratio answers and oracle verdicts over all pairs (None where
    the oracle fails)."""
    new = [spectral.log_ratio(a, b) for a, _ in pairs_a for b, _ in pairs_b]
    ref = [oracle(old.log_ratio, a, b) for _, a in pairs_a for _, b in pairs_b]
    return new, ref


def integer_ratio(verdict):
    """The oracle's ratio where it is an integer, else None."""
    if verdict.rational and verdict.ratio.denominator == 1:
        return verdict.ratio.numerator
    return None


def assert_same_verdicts(new, ref):
    answered = [(n, r) for n, r in zip(new, ref) if r is not None]
    assert [n for n, _ in answered] == [integer_ratio(r) for _, r in answered]
    assert ref.count(None) <= len(ref) // 50


@pytest.mark.parametrize("name", ("FIB", "PLAST"))
def test_log_ratio_matches_oracle_on_powers(powers, name):
    new, ref = verdicts(powers[name], powers[name])
    assert_same_verdicts(new, ref)
    # lam^q = (lam^p)^k iff q = k p
    exact = [q // p if q % p == 0 else None for p in range(1, 21) for q in range(1, 21)]
    assert new == exact


@pytest.mark.parametrize("name", ("FIB", "B5", "PLAST"))
def test_log_ratio_matches_oracle_on_lifts(lifts, powers, name):
    base = powers["PLAST" if name == "PLAST" else "FIB"]
    lifted = [pair for pair in stretch_pairs(lifts[name]) if pair[0].expanding]
    for a, b in ((lifted, base), (base, lifted), (lifted, lifted)):
        assert_same_verdicts(*verdicts(a, b))


@pytest.mark.parametrize("first, second", ((FIB, B5), (FIB, PLAST), (B5, B5)))
def test_power_identities_match_oracle(first, second):
    """lam2 == lam1^k for every k <= 20, decided with no float prefilter."""
    (s1, r1), = stretch_pairs([transition_matrix(rose_map(first))])
    (s2, r2), = stretch_pairs([transition_matrix(map_power(rose_map(second), 2))])
    k_new = spectral.log_ratio(s1, s2)
    for k in range(1, 21):
        expected = oracle(old._algebraic_power_equal, r1, k, r2, 1)
        if expected is not None:
            assert (k_new == k) == expected, k


def test_power_identity_with_rational_root():
    two = spectral.pf_data([[2]])[0]
    four = spectral.pf_data(block_diagonal([[4]], [[1, 1], [1, 0]]))[0]
    assert two.enclosure == (2, 2) and four.enclosure == (4, 4)
    assert spectral.log_ratio(two, four) == 2
    # 2 = 4^(1/2): no integer power
    assert spectral.log_ratio(four, two) is None


def test_power_identity_from_irrational_to_rational_root():
    """sqrt 2 squared is 2: lam1^k is rational though lam1 is not."""
    root2 = spectral.pf_data([[0, 2], [1, 0]])[0]
    two, four = spectral.pf_data([[2]])[0], spectral.pf_data([[4]])[0]
    assert root2.min_poly == (-2, 0, 1)
    assert spectral.log_ratio(root2, two) == 2
    assert spectral.log_ratio(root2, four) == 4
    assert spectral.log_ratio(two, root2) is None
