"""Reference copy of the sympy- and numpy-based spectral layer.

These are the implementations the pure-Python Berkowitz, Sturm and
Zassenhaus code in ``fibercomm.spectral`` replaced, kept unchanged as a
test oracle.  The only edits: ``pf_data`` returns the stretch factor and
the irreducibility flag but no eigenvector, and ``is_irreducible_matrix``
(from ``fibercomm.maps``) and ``StretchFactor`` (without ``field``) are
copied here so that nothing in the package is needed, and so is
``LogRatioVerdict``, which the package's integer ``log_ratio`` no longer
returns.  It also keeps ``pf_right_eigenvector``, which only the tests
use, as the left PF eigenvector of the transpose.

The second part keeps the exact field Q(lam) that integer polynomials
reduced by the minimal polynomial replaced: ``RootField`` with its Fraction
helpers ``_poly_divmod`` and ``_eval_poly``, the Gaussian solver
``_solve_eigen`` and the ``pf_left_eigenvector`` built on it, and the
interior Nielsen-path search that ran on them (``_interior_nielsen_paths``,
``_grow_legs``, ``_locate``, ``_flip``).  The only edits: the search builds
its field as ``RootField(sf.min_poly, sf.enclosure)``, where it called the
``StretchFactor.field`` method, and it calls the package's ``pf_data`` as
``_pf_data``, since the name ``pf_data`` above is the sympy version.  The
helpers these functions call and that did not change come from the
package.
"""

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import sympy
from sympy import Poly, Rational, Symbol

from fibercomm import maps
from fibercomm.errors import ZeroMatrix
from fibercomm.maps import GraphMap
from fibercomm.searches import _common_path_prefix, _legal_continuations
from fibercomm.spectral import (
    ENCLOSURE_WIDTH,
    _int_rows,
    _interval_eval,
    _mul,
    _sub,
    pf_data as _pf_data,
)
from fibercomm.words import base, inv

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


@dataclass(frozen=True)
class LogRatioVerdict:
    rational: bool
    ratio: Fraction = None  # log(lam2)/log(lam1) = p/q, so lam1^p = lam2^q


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


# --- Q(lam) as a field of Fraction tuples, and the search on it -----------


class RootField:
    """Arithmetic in Q(r) for a real algebraic number r given by its minimal
    polynomial (integer coefficients, lowest degree first) and an isolating
    rational enclosure.

    Elements are tuples of Fractions (coefficients of powers of r).  Signs
    are decided by exact interval arithmetic, refining the enclosure on
    demand; exact zero is the zero coefficient tuple, so the sign test
    always terminates.
    """

    def __init__(self, min_poly_coeffs, enclosure):
        self.min_poly = tuple(Fraction(c) for c in min_poly_coeffs)
        self.degree = len(self.min_poly) - 1
        self.lo, self.hi = Fraction(enclosure[0]), Fraction(enclosure[1])
        # monic reduction rule: r^d = -(c_0 + c_1 r + ...)/c_d
        lead = self.min_poly[-1]
        self._reduction = tuple(-c / lead for c in self.min_poly[:-1])

    # elements ----------------------------------------------------------

    def zero(self):
        return (Fraction(0),) * self.degree

    def one(self):
        return self.from_rational(1)

    def from_rational(self, q):
        return (Fraction(q),) + (Fraction(0),) * (self.degree - 1)

    def root(self):
        if self.degree == 1:
            return self._reduction  # rational root
        return (Fraction(0), Fraction(1)) + (Fraction(0),) * (self.degree - 2)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def scale(self, a, q):
        return tuple(x * Fraction(q) for x in a)

    def mul(self, a, b):
        prod = [Fraction(0)] * (2 * self.degree - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        for k in range(len(prod) - 1, self.degree - 1, -1):
            c = prod[k]
            if c:
                prod[k] = Fraction(0)
                for i, red in enumerate(self._reduction):
                    prod[k - self.degree + i] += c * red
        return tuple(prod[: self.degree])

    def inv(self, a):
        # extended Euclid for poly(a) and the minimal polynomial
        if all(x == 0 for x in a):
            raise ZeroDivisionError
        r0, r1 = list(self.min_poly), list(a)
        s0, s1 = [Fraction(0)], [Fraction(1)]

        def strip(p):
            while p and p[-1] == 0:
                p.pop()
            return p

        r0, r1 = strip(r0), strip(r1)
        while True:
            if len(r1) == 1:
                c = r1[0]
                out = [x / c for x in s1]
                out += [Fraction(0)] * (self.degree - len(out))
                return tuple(out[: self.degree])
            q, rem = _poly_divmod(r0, r1)
            s_new = _sub(s0, _mul(q, s1))
            r0, s0 = r1, s1
            r1, s1 = strip(rem), s_new
            if not r1:
                raise ZeroDivisionError("element not invertible")

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    # sign machinery -----------------------------------------------------

    def refine(self):
        """Halve the enclosure, keeping the root inside (by sign change)."""
        mid = (self.lo + self.hi) / 2
        flo = _eval_poly(self.min_poly, self.lo)
        fmid = _eval_poly(self.min_poly, mid)
        if fmid == 0:
            self.lo = self.hi = mid
        elif (flo < 0) == (fmid < 0):
            self.lo = mid
        else:
            self.hi = mid

    def sign(self, a):
        if all(x == 0 for x in a):
            return 0
        for _ in range(512):
            lo, hi = _interval_eval(a, self.lo, self.hi)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            self.refine()
        raise RuntimeError("sign did not resolve; enclosure refinement exhausted")

    def eq(self, a, b):
        return all(x == y for x, y in zip(a, b))

    def lt(self, a, b):
        return self.sign(self.sub(a, b)) < 0

    def approx(self, a):
        mid = (self.lo + self.hi) / 2
        return _eval_poly(a, mid)


def _poly_divmod(num, den):
    num = list(num)
    q = [Fraction(0)] * max(1, len(num) - len(den) + 1)
    for k in range(len(num) - len(den), -1, -1):
        c = num[k + len(den) - 1] / den[-1]
        q[k] = c
        for i, d in enumerate(den):
            num[k + i] -= c * d
    return q, num[: len(den) - 1]


def _eval_poly(coeffs, t):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + Fraction(c)
    return acc


def _solve_eigen(rows, field):
    """Nullspace vector of (rows - lam*I) over Q(lam); rows is an integer matrix."""
    n = len(rows)
    lam = field.root()
    a = [[field.from_rational(rows[i][j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        a[i][i] = field.sub(a[i][i], lam)
    # Gaussian elimination; the matrix is singular with nullity 1 for an
    # irreducible PF system, so one free column remains.
    pivots = []
    row = 0
    for col in range(n):
        pivot = None
        for r in range(row, n):
            if not field.eq(a[r][col], field.zero()):
                pivot = r
                break
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        inv_p = field.inv(a[row][col])
        a[row] = [field.mul(v, inv_p) for v in a[row]]
        for r in range(n):
            if r != row and not field.eq(a[r][col], field.zero()):
                factor = a[r][col]
                a[r] = [
                    field.sub(v, field.mul(factor, w)) for v, w in zip(a[r], a[row])
                ]
        pivots.append(col)
        row += 1
    free = [c for c in range(n) if c not in pivots]
    if not free:
        raise RuntimeError("eigenvalue is not an eigenvalue of the matrix")
    fc = free[0]
    vec = [field.zero()] * n
    vec[fc] = field.one()
    for r, col in enumerate(pivots):
        vec[col] = field.neg(a[r][fc])
    return vec


def pf_left_eigenvector(mat, field):
    return _solve_eigen([list(col) for col in zip(*_int_rows(mat))], field)


def _interior_nielsen_paths(f: GraphMap, period_bound, length_bound):
    """Two-legal-legs-at-one-illegal-turn candidates with endpoints at
    exact fixed points of the eigen-metric, located in Q(lambda)."""
    mat = maps.transition_matrix(f)
    try:
        sf, _ = _pf_data(mat)
    except ZeroMatrix:
        return []
    if not sf.expanding:
        return []
    field = RootField(sf.min_poly, sf.enclosure)
    order = maps.orbit_order(f.domain)
    lengths = pf_left_eigenvector(mat, field)
    if field.sign(lengths[0]) < 0:
        lengths = [field.neg(x) for x in lengths]
    ell = {e: lengths[i] for i, e in enumerate(order)}

    def metric(path):
        total = field.zero()
        for e, n in Counter(map(base, path)).items():
            total = field.add(total, field.scale(ell[e], n))
        return total

    bad = maps.illegal_turns(f)
    legal_next = _legal_continuations(f, bad)
    results = []
    lam = field.root()
    for turn in sorted(bad, key=sorted):
        d1, d2 = sorted(turn)
        for p in range(1, period_bound + 1):
            lam_p = field.one()
            for _ in range(p):
                lam_p = field.mul(lam_p, lam)
            denom = field.sub(lam_p, field.one())
            hit = _grow_legs(
                f, d1, d2, p, length_bound, legal_next, field, metric, denom, ell
            )
            if hit is not None:
                results.append(hit)
    return results


def _grow_legs(f, d1, d2, p, length_bound, legal_next, field, metric, denom, ell):
    """Depth-first coupled growth of the two legs; returns the first hit."""
    stack = [((d1,), (d2,))]
    seen = set()
    while stack:
        alpha, beta = stack.pop()
        if (alpha, beta) in seen or len(alpha) > length_bound or len(beta) > length_bound:
            continue
        seen.add((alpha, beta))
        g1 = maps.iterate_map(f, alpha, p)
        g2 = maps.iterate_map(f, beta, p)
        tau = _common_path_prefix(g1, g2)
        if not tau:
            continue
        a_tail, b_tail = g1[len(tau):], g2[len(tau):]
        if _common_path_prefix(a_tail, alpha) not in (a_tail[: len(alpha)], alpha):
            continue
        if _common_path_prefix(b_tail, beta) not in (b_tail[: len(beta)], beta):
            continue
        target = field.div(metric(tau), denom)
        end_a = _locate(field, alpha, target, ell, f.domain, start=False)
        end_b = _locate(field, beta, target, ell, f.domain, start=False)
        if end_a is not None and end_b is not None:
            if end_a[0] == "vertex" and end_b[0] == "vertex":
                continue  # vertex-endpoint paths come from the direct search
            sigma = tuple(inv(x) for x in reversed(alpha)) + beta
            return (sigma, p, (_flip(end_a, alpha, f.domain), end_b))
        # pull: adopt the image tails when they extend the current legs
        grew = False
        if len(a_tail) > len(alpha) and a_tail[: len(alpha)] == alpha:
            alpha2 = a_tail[: length_bound]
            if alpha2 != alpha:
                grew = True
        else:
            alpha2 = alpha
        if len(b_tail) > len(beta) and b_tail[: len(beta)] == beta:
            beta2 = b_tail[: length_bound]
            if beta2 != beta:
                grew = True
        else:
            beta2 = beta
        if grew:
            stack.append((alpha2, beta2))
            continue
        # branch on extending whichever leg is metrically short
        for leg, other, first in ((alpha, beta, True), (beta, alpha, False)):
            if field.lt(metric(leg), target):
                for d in legal_next[leg[-1]]:
                    ext = leg + (d,)
                    stack.append((ext, other) if first else (other, ext))
                break
    return None


def _locate(field, leg, target, ell, g, start):
    """Endpoint descriptor for the point at metric distance ``target`` along
    the leg; None if the leg is too short."""
    acc = field.zero()
    for i, d in enumerate(leg):
        nxt = field.add(acc, ell[base(d)])
        s_here = field.sign(field.sub(target, nxt))
        if s_here < 0:
            t = field.sub(target, acc)
            exact = ",".join(str(c) for c in t)
            return ("interior", d, exact, float(field.approx(t)))
        if s_here == 0:
            if i == len(leg) - 1:
                return ("vertex", g.edge_dst(d))
            return None  # point is a vertex strictly inside the leg: divisible
        acc = nxt
    return None


def _flip(endpoint, alpha, g):
    """Re-express an endpoint found along alpha on the reversed carrier."""
    if endpoint[0] == "vertex":
        return endpoint
    _, d, exact, approx = endpoint
    return ("interior", inv(d), exact, approx)
