import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from fibercomm.maps import map_power, transition_matrix
from fibercomm.spectral import log_ratio, pf_data
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
    assert log_ratio(s1, s8) == 3
    # lam = (lam^3)^k has no integer solution k
    assert log_ratio(s8, s1) is None


@pytest.mark.parametrize("k", (21, 25))
def test_log_ratio_numerator_is_not_bounded(fib, k):
    # no bound on k: lam^k against lam is k, however large
    s1, _ = pf_data(transition_matrix(fib))
    sk, _ = pf_data(transition_matrix(map_power(fib, k)))
    assert log_ratio(s1, sk) == k


def test_log_ratio_irrational_pair(fib, plast):
    s_fib, _ = pf_data(transition_matrix(fib))
    s_pl, _ = pf_data(transition_matrix(plast))
    assert log_ratio(s_fib, s_pl) is None
    assert log_ratio(s_pl, s_fib) is None


def test_log_ratio_antisymmetry(fib):
    s2, _ = pf_data(transition_matrix(map_power(fib, 2)))
    s3, _ = pf_data(transition_matrix(map_power(fib, 3)))
    s6, _ = pf_data(transition_matrix(map_power(fib, 6)))
    # log(lam^3)/log(lam^2) = 3/2 is no integer, either way round
    assert log_ratio(s2, s3) is None and log_ratio(s3, s2) is None
    assert log_ratio(s2, s6) == 3 and log_ratio(s6, s2) is None


def _mat_power(mat, k):
    out = [[int(i == j) for j in range(len(mat))] for i in range(len(mat))]
    for _ in range(k):
        out = [[sum(x * y for x, y in zip(row, col)) for col in zip(*mat)] for row in out]
    return out


def _is_primitive(mat):
    """Some power of the matrix is positive: Wielandt's (n - 1)^2 + 1."""
    n = len(mat)
    support = [[int(x > 0) for x in row] for row in mat]
    return all(all(row) for row in _mat_power(support, (n - 1) ** 2 + 1))


square_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=n, max_size=n)
)


@settings(max_examples=200, deadline=None)
@given(mat=square_matrices, k=st.integers(1, 30))
def test_log_ratio_finds_every_power(mat, k):
    """lam(M^k) = lam(M)^k, and lam(M) is no integer power of it for k >= 2."""
    assume(_is_primitive(mat))
    s1, _ = pf_data(mat)
    assume(s1.expanding)
    sk, _ = pf_data(_mat_power(mat, k))
    assert log_ratio(s1, sk) == k
    if k >= 2:
        assert log_ratio(sk, s1) is None


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
