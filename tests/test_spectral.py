import time
from fractions import Fraction

import pytest

from fibercomm.maps import map_power, transition_matrix
from fibercomm.spectral import (
    LogRatioVerdict,
    log_ratio,
    pf_data,
)
from spectral_oracle import RootField, pf_right_eigenvector

GOLDEN = 1.6180339887498949  # (1 + sqrt 5)/2, quadratic formula
PLASTIC = 1.3247179572447460  # real root of x^3 - x - 1, Sturm bisection


def test_fib_char_poly_and_enclosure(fib):
    sf, irreducible = pf_data(transition_matrix(fib))
    assert sf.char_poly == (-1, -1, 1)  # x^2 - x - 1, lowest degree first
    assert sf.min_poly == (-1, -1, 1)
    lo, hi = sf.enclosure
    assert lo <= Fraction(GOLDEN).limit_denominator(10**15) <= hi
    assert hi - lo <= Fraction(1, 10**12)
    assert irreducible and sf.expanding


def test_plast_char_poly_and_enclosure(plast):
    sf, irreducible = pf_data(transition_matrix(plast))
    assert sf.char_poly == (-1, -1, 0, 1)  # x^3 - x - 1
    lo, hi = sf.enclosure
    assert float(lo) <= PLASTIC <= float(hi)
    assert hi - lo <= Fraction(1, 10**12)
    assert irreducible


def test_pf_eigenvector_is_positive_and_consistent(fib):
    mat = transition_matrix(fib)
    sf, _ = pf_data(mat)
    field = RootField(sf.min_poly, sf.enclosure)
    vec = pf_right_eigenvector(mat, field)
    lam = field.root()
    for i in range(len(vec)):
        acc = field.zero()
        for j in range(len(vec)):
            acc = field.add(acc, field.mul(field.from_rational(mat[i][j]), vec[j]))
        assert field.sign(field.sub(acc, field.mul(lam, vec[i]))) == 0
        assert field.sign(vec[i]) > 0


def test_log_ratio_powers(fib):
    s1, _ = pf_data(transition_matrix(fib))
    s8, _ = pf_data(transition_matrix(map_power(fib, 3)))
    verdict = log_ratio(s1, s8)
    assert verdict.rational and verdict.ratio == Fraction(3, 1)
    # reversed arguments invert the ratio
    back = log_ratio(s8, s1)
    assert back.rational and back.ratio == Fraction(1, 3)


@pytest.mark.parametrize("k", (21, 25))
def test_log_ratio_numerator_is_not_bounded(fib, k):
    # only q is bounded: lam^k against lam is the ratio k, past denom_bound = 20
    s1, _ = pf_data(transition_matrix(fib))
    sk, _ = pf_data(transition_matrix(map_power(fib, k)))
    assert log_ratio(s1, sk) == LogRatioVerdict(True, Fraction(k))


def test_log_ratio_irrational_pair(fib, plast):
    s_fib, _ = pf_data(transition_matrix(fib))
    s_pl, _ = pf_data(transition_matrix(plast))
    verdict = log_ratio(s_fib, s_pl, denom_bound=12)
    assert not verdict.rational


def test_log_ratio_antisymmetry(fib):
    s2, _ = pf_data(transition_matrix(map_power(fib, 2)))
    s3, _ = pf_data(transition_matrix(map_power(fib, 3)))
    fwd = log_ratio(s2, s3)
    bwd = log_ratio(s3, s2)
    assert fwd.rational and bwd.rational
    assert fwd.ratio * bwd.ratio == 1
    assert fwd.ratio == Fraction(3, 2)


def test_root_field_arithmetic():
    # Q(golden): x^2 = x + 1
    field = RootField((-1, -1, 1), (Fraction(1), Fraction(2)))
    x = field.root()
    sq = field.mul(x, x)
    assert field.sign(field.sub(sq, field.add(x, field.one()))) == 0
    inv_x = field.inv(x)
    assert field.sign(field.sub(field.mul(x, inv_x), field.one())) == 0


def test_runtime_under_a_second(fib, plast):
    start = time.time()
    pf_data(transition_matrix(fib))
    pf_data(transition_matrix(plast))
    assert time.time() - start < 1.0
