"""Reference copy of the sympy- and numpy-based spectral layer.

These are the implementations the pure-Python Berkowitz, Sturm and
Zassenhaus code in ``fibercomm.spectral`` replaced, kept unchanged as a
test oracle.  The only edits: ``pf_data`` returns the stretch factor and
the irreducibility flag but no eigenvector, and ``is_irreducible_matrix``
(from ``fibercomm.maps``) and ``StretchFactor`` (without ``field``) are
copied here so that nothing in the package is needed.  It also keeps
``pf_right_eigenvector``, which only the tests use, as the left PF
eigenvector of the transpose.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import sympy
from sympy import Poly, Rational, Symbol

from fibercomm.errors import ZeroMatrix
from fibercomm.spectral import ENCLOSURE_WIDTH, LogRatioVerdict, pf_left_eigenvector

_x = Symbol("x")


@dataclass(frozen=True)
class StretchFactor:
    char_poly: tuple  # integer coefficients, lowest degree first
    min_poly: tuple  # irreducible factor carrying the PF root
    enclosure: tuple  # (Fraction lo, Fraction hi), width <= 1e-12
    expanding: bool  # PF root > 1

    @property
    def approx(self):
        lo, hi = self.enclosure
        return float((lo + hi) / 2)

    def root_expr(self):
        poly = Poly(list(reversed(self.min_poly)), _x)
        roots = sympy.real_roots(poly)
        lo, hi = self.enclosure
        for r in roots:
            if _root_in_interval(r, lo, hi):
                return r
        raise RuntimeError("PF root lost")


def _root_in_interval(r, lo, hi):
    if r.is_Rational:
        q = Fraction(int(r.p), int(r.q))
        return lo <= q <= hi
    approx = _rational_approx(r, Fraction(1, 10**14))
    return lo - Fraction(1, 10**13) <= approx <= hi + Fraction(1, 10**13)


def _rational_approx(root, dx):
    if hasattr(root, "eval_rational"):
        val = root.eval_rational(dx=Rational(dx.numerator, dx.denominator))
        return Fraction(int(val.p), int(val.q))
    # radical expression (low degree): evalf with generous guard digits
    digits = max(30, 2 * len(str(dx.denominator)))
    val = sympy.Rational(str(root.evalf(digits)))
    return Fraction(int(val.p), int(val.q))


def char_poly_coeffs(mat):
    """Exact characteristic polynomial, lowest degree first."""
    m = sympy.Matrix(mat.tolist() if isinstance(mat, np.ndarray) else mat)
    poly = m.charpoly(_x)
    coeffs = [int(c) for c in poly.all_coeffs()]  # highest first
    return tuple(reversed(coeffs))


def is_irreducible_matrix(mat):
    """Strong connectivity of the digraph of a nonnegative matrix."""
    n = mat.shape[0]
    if n == 0:
        return False

    def reachable(adj):
        seen = {0}
        stack = [0]
        while stack:
            i = stack.pop()
            for j in range(n):
                if adj[i, j] and j not in seen:
                    seen.add(j)
                    stack.append(j)
        return len(seen) == n

    return reachable(mat != 0) and reachable((mat != 0).T)


def pf_data(mat):
    """Stretch factor data: char poly, PF root enclosure, minimal factor.

    Returns ``(StretchFactor, irreducible_flag)``.
    """
    mat = np.asarray(mat, dtype=np.int64)
    if not mat.any():
        raise ZeroMatrix()
    cp = char_poly_coeffs(mat)
    poly = Poly(list(reversed(cp)), _x)
    real = sympy.real_roots(poly)
    pf = max(real, key=lambda r: r.evalf(30))
    half = ENCLOSURE_WIDTH / 2
    if pf.is_Rational:
        center = Fraction(int(pf.p), int(pf.q))
        lo = hi = center
        min_poly = (-center.numerator, center.denominator)
        if min_poly[1] < 0:
            min_poly = (-min_poly[0], -min_poly[1])
    else:
        center = _rational_approx(pf, half / 2)
        lo, hi = center - half, center + half
        mp = sympy.minimal_polynomial(pf, _x)
        min_poly = tuple(reversed([int(c) for c in Poly(mp, _x).all_coeffs()]))
    sf = StretchFactor(cp, min_poly, (lo, hi), expanding=lo > 1)
    return sf, is_irreducible_matrix(mat)


def log_ratio(s1: StretchFactor, s2: StretchFactor, denom_bound=20):
    """Bounded certification that log(lam2)/log(lam1) is rational.

    ``Rational(p/q)`` is returned in lowest terms iff ``lam1^p = lam2^q``
    exactly, certified via minimal polynomials; a float ratio only
    prefilters candidate pairs.
    """
    if not (s1.expanding and s2.expanding):
        raise ValueError("log_ratio requires both PF roots > 1 (no expansion)")
    l1, l2 = s1.approx, s2.approx
    target = math.log(l2) / math.log(l1)
    for q in range(1, denom_bound + 1):
        p = round(q * target)
        if p < 1 or p > denom_bound:
            continue
        if math.gcd(p, q) != 1:
            continue
        if abs(q * target - p) > 1e-6:
            continue
        if _algebraic_power_equal(s1, p, s2, q):
            return LogRatioVerdict(True, Fraction(p, q))
    return LogRatioVerdict(False)


def _algebraic_power_equal(s1, p, s2, q):
    """Exact test of lam1^p == lam2^q."""
    a = s1.root_expr() ** p
    b = s2.root_expr() ** q
    ma = Poly(sympy.minimal_polynomial(a, _x), _x)
    mb = Poly(sympy.minimal_polynomial(b, _x), _x)
    if ma != mb:
        return False
    # same minimal polynomial: equal iff the same real root of it
    roots = sympy.real_roots(ma)
    ia = _which_root(roots, s1.enclosure, p)
    ib = _which_root(roots, s2.enclosure, q)
    return ia == ib and ia is not None


def _which_root(roots, enclosure, power):
    lo, hi = enclosure
    plo, phi = lo**power, hi**power
    hits = []
    for i, r in enumerate(roots):
        approx = (
            Fraction(int(r.p), int(r.q))
            if r.is_Rational
            else _rational_approx(r, (phi - plo) / 4 if phi > plo else Fraction(1, 10**14))
        )
        if plo - Fraction(1, 10**10) <= approx <= phi + Fraction(1, 10**10):
            hits.append(i)
    if len(hits) == 1:
        return hits[0]
    # enclosure too coarse to separate; refine by exact midpoint ordering
    if hits:
        return hits[0]
    return None


def pf_right_eigenvector(mat, field):
    return pf_left_eigenvector([list(col) for col in zip(*mat)], field)
