"""Exact stretch factor data for nonnegative integer transition matrices.

All certification is integer and rational arithmetic: the characteristic
polynomial comes from division-free Berkowitz, the Perron-Frobenius root
is isolated by Sturm sequences, its minimal polynomial is the Zassenhaus
factor (Berlekamp mod p, Hensel lifting, recombination) vanishing in the
isolating interval, and power identities between stretch factors are
decided by Sturm counts on a polynomial gcd.  Floating point only appears
as a prefilter.
"""

import math
from fractions import Fraction
from itertools import combinations, count

from .errors import ZeroMatrix
from .record import record

ENCLOSURE_WIDTH = Fraction(1, 10**12)


# --- a tiny exact number field Q(root) ----------------------------------


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


def _interval_eval(coeffs, lo, hi):
    """Exact interval Horner evaluation of a polynomial on [lo, hi]."""
    alo = ahi = Fraction(0)
    for c in reversed(coeffs):
        c = Fraction(c)
        products = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo, ahi = min(products) + c, max(products) + c
    return alo, ahi


# --- integer polynomials, lowest degree first; [] is zero -----------------


def _trim(p):
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def _add(a, b):
    if len(a) < len(b):
        a, b = b, a
    return _trim([x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)])


def _sub(a, b):
    return _add(a, [-c for c in b])


def _mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _derivative(p):
    return [i * c for i, c in enumerate(p)][1:]


def _primitive(p):
    """``p`` divided by the (positive) gcd of its coefficients."""
    g = math.gcd(*p)
    return [c // g for c in p] if g > 1 else list(p)


def _prem(a, b):
    """A positive multiple of the remainder of ``a`` by ``b``."""
    r = _trim(a)
    db, scale, sign = len(b) - 1, abs(b[-1]), 1 if b[-1] > 0 else -1
    while len(r) - 1 >= db:
        c, shift = sign * r[-1], len(r) - 1 - db
        r = [scale * x for x in r]
        for i, y in enumerate(b):
            r[shift + i] -= c * y
        r = _trim(r)
    return r


def _divmod_monic(a, b):
    """Quotient and remainder of ``a`` by the monic ``b``."""
    r, db = list(a), len(b) - 1
    q = [0] * (len(a) - db)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = r[i + db]
        if c:
            for j, y in enumerate(b):
                r[i + j] -= c * y
    return q, _trim(r[:db])


def _gcd(a, b):
    """Primitive gcd with a positive leading coefficient."""
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _primitive(_prem(a, b))
    a = _primitive(a)
    return [-c for c in a] if a and a[-1] < 0 else a


def _squarefree(p):
    """Squarefree part of the monic ``p``."""
    return _divmod_monic(p, _gcd(p, _derivative(p)))[0]


def _sign_at(p, t):
    """Sign of p(t) at a Fraction t, from sum c_i u^i v^(d-i) with t = u/v."""
    u, v = t.numerator, t.denominator
    acc, w = 0, 1
    for c in reversed(p):
        acc = acc * u + c * w
        w *= v
    return (acc > 0) - (acc < 0)


# --- real roots: Sturm sequences and bisection ---------------------------


def _sturm_chain(p):
    """Sturm sequence of the squarefree ``p``, each member scaled by a
    positive constant to a primitive integer polynomial."""
    chain = [list(p), _primitive(_derivative(p))]
    while len(chain[-1]) > 1:
        r = _prem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(_primitive([-c for c in r]))
    return chain


def _variations(chain, t):
    """Sign changes along the chain at t; the number of roots of chain[0]
    in (a, b] is ``_variations(chain, a) - _variations(chain, b)``."""
    changes, last = 0, 0
    for p in chain:
        s = _sign_at(p, t)
        if s:
            changes += last == -s
            last = s
    return changes


def _isolate_largest_root(chain):
    """(a, b] holding the largest real root of chain[0] and no other root."""
    p = chain[0]
    b = Fraction(1 + max(map(abs, p[:-1])) // abs(p[-1]) + 1)  # Cauchy bound
    a = -b
    va, vb = _variations(chain, a), _variations(chain, b)
    if va == vb:
        raise ValueError("polynomial has no real root")
    while va - vb > 1:
        m = (a + b) / 2
        vm = _variations(chain, m)
        if vm > vb:
            a, va = m, vm
        else:
            b, vb = m, vm
    return a, b


def _narrow(g, a, b, width):
    """Bisect (a, b), which holds one root of ``g`` and no rational root,
    until it is at most ``width`` wide."""
    sb = _sign_at(g, b)
    while b - a > width:
        m = (a + b) / 2
        if _sign_at(g, m) == sb:
            b = m
        else:
            a = m
    return a, b


def _has_root_in(g, a, b):
    """Whether the irreducible ``g`` has a root in (a, b], given that at
    most one of its roots lies there."""
    if len(g) == 2:
        return a < Fraction(-g[0], g[1]) <= b
    return _sign_at(g, a) != _sign_at(g, b)


# --- polynomials over GF(p) ----------------------------------------------


def _gf(a, p):
    return _trim([c % p for c in a])


def _gf_divmod(a, b, p):
    inv, db = pow(b[-1], -1, p), len(b) - 1
    r = list(a)
    q = [0] * max(0, len(a) - db)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = r[i + db] * inv % p
        if c:
            for j, y in enumerate(b):
                r[i + j] = (r[i + j] - c * y) % p
    return _trim(q), _trim(r[:db])


def _gf_gcd(a, b, p):
    """Monic gcd over GF(p)."""
    while b:
        a, b = b, _gf_divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gf_bezout(a, b, p):
    """(s, t) with s a + t b = 1 over GF(p), for coprime ``a`` and ``b``."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _gf_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _gf(_sub(s0, _mul(q, s1)), p)
        t0, t1 = t1, _gf(_sub(t0, _mul(q, t1)), p)
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _gf_nullspace(rows, n, p):
    """Basis of {v : sum_j row[j] v[j] = 0 for every row} over GF(p)."""
    rows = [list(r) for r in rows]
    pivots = []
    for col in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][col], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                c = row[col]
                rows[i] = [(x - c * y) % p for x, y in zip(row, rows[r])]
        pivots.append(col)
    basis = []
    for free in range(n):
        if free not in pivots:
            v = [0] * n
            v[free] = 1
            for i, col in enumerate(pivots):
                v[col] = -rows[i][free] % p
            basis.append(v)
    return basis


def _berlekamp(f, p):
    """Monic irreducible factors of the monic squarefree ``f`` over GF(p)."""
    n = len(f) - 1
    xp, base, e = [1], [0, 1], p  # x^p mod f
    while e:
        if e & 1:
            xp = _gf_divmod(_gf(_mul(xp, base), p), f, p)[1]
        base = _gf_divmod(_gf(_mul(base, base), p), f, p)[1]
        e >>= 1
    q, row = [], [1]  # row i of Berlekamp's matrix: x^(i p) mod f
    for _ in range(n):
        q.append(row + [0] * (n - len(row)))
        row = _gf_divmod(_gf(_mul(row, xp), p), f, p)[1]
    # v(x)^p = v(x) mod f  <=>  v (Q - I) = 0
    basis = _gf_nullspace([[(q[i][j] - (i == j)) % p for i in range(n)] for j in range(n)], n, p)
    factors = [f]
    for v in basis:
        v = _trim(v)
        if len(factors) == len(basis):
            break
        if len(v) < 2:
            continue
        split = []
        for u in factors:
            for s in range(p):
                g = _gf_gcd(u, _gf(_sub(v, [s]), p), p)
                if 1 < len(g) < len(u):
                    split.append(g)
                    u = _gf_divmod(u, g, p)[0]
            split.append(u)
        factors = split
    return sorted(factors, key=lambda u: (len(u), u))


def _primes():
    for p in count(3, 2):
        if all(p % d for d in range(3, math.isqrt(p) + 1, 2)):
            yield p


def _modular_factors(f):
    """(p, factors of f over GF(p)) for the prime with the fewest factors
    among the first three odd primes at which f stays squarefree."""
    best, primes_tried = None, 3
    for p in _primes():
        fp = _gf(f, p)
        if len(_gf_gcd(fp, _gf(_derivative(fp), p), p)) > 1:
            continue
        factors = _berlekamp(fp, p)
        if best is None or len(factors) < len(best[1]):
            best = (p, factors)
        primes_tried -= 1
        if not primes_tried or len(factors) == 1:
            return best


def _hensel_pair(f, g, h, p, k):
    """Lift f = g h (mod p), with g and h monic and coprime mod p, to a
    factorisation modulo p**k, one power of p per step."""
    s, t = _gf_bezout(g, h, p)
    m = p
    for _ in range(k - 1):
        e = [c // m % p for c in _sub(f, _mul(g, h))]
        # a h + b g = e (mod p) with deg a < deg g
        q, a = _gf_divmod(_gf(_mul(t, e), p), g, p)
        b = _gf(_add(_mul(s, e), _mul(q, h)), p)
        g = _add(g, [m * c for c in a])
        h = _add(h, [m * c for c in b])
        m *= p
    return g, h


def _factor_with_root(f, a, b):
    """The irreducible factor of the monic squarefree ``f`` that has a root
    in (a, b], where f has exactly one root (Zassenhaus)."""
    if len(f) <= 2:
        return f
    p, modular = _modular_factors(f)
    if len(modular) == 1:
        return f
    # coefficients of a factor of f are below the Mignotte bound
    bound = (math.isqrt(len(f)) + 1) * 2 ** (len(f) - 1) * max(map(abs, f))
    k, modulus = 1, p
    while modulus <= 2 * bound:
        k, modulus = k + 1, modulus * p
    lifted, rest = [], f
    for i, g in enumerate(modular[:-1]):
        h = [1]
        for u in modular[i + 1:]:
            h = _gf(_mul(h, u), p)
        g, rest = _hensel_pair(rest, g, h, p, k)
        lifted.append(g)
    lifted.append(rest)
    size = 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            g = [1]
            for i in subset:
                g = [c % modulus for c in _mul(g, lifted[i])]
            g = [c - modulus if 2 * c > modulus else c for c in g]
            if f[0] and (not g[0] or f[0] % g[0]):
                continue
            q, r = _divmod_monic(f, g)
            if r:
                continue
            if _has_root_in(g, a, b):
                return g
            f, lifted = q, [u for i, u in enumerate(lifted) if i not in subset]
            break
        else:
            size += 1
    return f


# --- stretch factors ----------------------------------------------------


@record
class StretchFactor:
    char_poly: tuple  # integer coefficients, lowest degree first
    min_poly: tuple  # irreducible factor carrying the PF root
    enclosure: tuple  # (Fraction lo, Fraction hi), width <= 1e-12
    expanding: bool  # PF root > 1

    @property
    def approx(self):
        lo, hi = self.enclosure
        return float((lo + hi) / 2)

    def field(self):
        return RootField(self.min_poly, self.enclosure)


def _int_rows(mat):
    return [[int(x) for x in row] for row in mat]


def char_poly_coeffs(mat):
    """Exact characteristic polynomial det(xI - mat), lowest degree first,
    by division-free Berkowitz over the integers."""
    rows = _int_rows(mat)
    n = len(rows)
    poly = [1]  # of the trailing principal submatrix, highest degree first
    for k in range(n - 1, -1, -1):
        # Toeplitz column: 1, -a_kk, -R C, -R A C, -R A^2 C, ...
        r, v = rows[k][k + 1:], [rows[i][k] for i in range(k + 1, n)]
        col = [1, -rows[k][k]]
        for _ in range(n - k - 1):
            col.append(-sum(x * y for x, y in zip(r, v)))
            v = [sum(x * y for x, y in zip(rows[i][k + 1:], v)) for i in range(k + 1, n)]
        poly = [
            sum(col[i - j] * poly[j] for j in range(min(i, len(poly) - 1) + 1))
            for i in range(len(poly) + 1)
        ]
    return tuple(reversed(poly))


def _pf_root(cp):
    """(minimal polynomial, enclosure) of the largest real root of the
    monic ``cp``.  A rational root has lo = hi; otherwise the enclosure is
    (c - w/2, c + w/2) with c within w/4 of the root, w = ENCLOSURE_WIDTH
    unless a smaller power-of-two fraction of it is needed to isolate the
    root from the other real roots of cp."""
    sqf = _squarefree(cp)
    chain = _sturm_chain(sqf)
    a, b = _isolate_largest_root(chain)
    g = _factor_with_root(sqf, a, b)
    if len(g) == 2:
        root = Fraction(-g[0], g[1])
        return g, (root, root)
    width = ENCLOSURE_WIDTH
    while True:
        a, b = _narrow(g, a, b, width / 2)
        c = (a + b) / 2
        lo, hi = c - width / 2, c + width / 2
        if _sign_at(sqf, lo) and _variations(chain, lo) - _variations(chain, hi) == 1:
            return g, (lo, hi)
        width /= 2


def pf_data(mat, roots=None):
    """Stretch factor data: char poly, PF root enclosure, minimal factor.

    ``mat`` is any nested sequence of integers.  Returns
    ``(StretchFactor, irreducible_flag)``.  ``roots``, when given, is a
    dict from characteristic polynomial to (minimal polynomial, enclosure)
    that the caller keeps for one job: a polynomial found there is not
    factored again, and a new one is added.
    """
    rows = _int_rows(mat)
    if not any(any(row) for row in rows):
        raise ZeroMatrix()
    cp = char_poly_coeffs(rows)
    roots = {} if roots is None else roots
    if cp not in roots:
        roots[cp] = _pf_root(cp)
    min_poly, (lo, hi) = roots[cp]
    sf = StretchFactor(cp, tuple(min_poly), (lo, hi), expanding=lo > 1)
    from .maps import is_irreducible_matrix  # local: avoid import cycle

    return sf, is_irreducible_matrix(rows)


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


# --- rationality of log ratios ------------------------------------------


@record
class LogRatioVerdict:
    rational: bool
    ratio: Fraction = None  # log(lam2)/log(lam1) = p/q, so lam1^p = lam2^q


def log_ratio(s1: StretchFactor, s2: StretchFactor, denom_bound=20):
    """Bounded certification that log(lam2)/log(lam1) is rational.

    ``Rational(p/q)`` is returned in lowest terms iff ``lam1^p = lam2^q``
    exactly, certified by ``_algebraic_power_equal``; a float ratio only
    prefilters candidate pairs.  ``denom_bound`` bounds q only: for each q
    the one candidate p is the rounded ratio, however large.
    """
    if not (s1.expanding and s2.expanding):
        raise ValueError("log_ratio requires both PF roots > 1 (no expansion)")
    l1, l2 = s1.approx, s2.approx
    target = math.log(l2) / math.log(l1)
    for q in range(1, denom_bound + 1):
        p = round(q * target)
        if p < 1:
            continue
        if math.gcd(p, q) != 1:
            continue
        if abs(q * target - p) > 1e-6:
            continue
        if _algebraic_power_equal(s1, p, s2, q):
            return LogRatioVerdict(True, Fraction(p, q))
    return LogRatioVerdict(False)


def _algebraic_power_equal(s1, p, s2, q):
    """Exact test of lam1^p == lam2^q.

    lam^p is the largest real root of charpoly(C^p), C the companion
    matrix of lam's (monic) minimal polynomial, since every conjugate of a
    PF root is at most lam in modulus.  So lam1^p = lam2^q iff both are
    roots of the gcd of the two characteristic polynomials.
    """
    a, b = _power_poly(s1.min_poly, p), _power_poly(s2.min_poly, q)
    g = _gcd(a, b)
    return len(g) > 1 and _power_is_root(s1, p, a, g) and _power_is_root(s2, q, b, g)


def _power_poly(min_poly, p):
    """charpoly(C^p): its roots are the p-th powers of those of min_poly."""
    d = len(min_poly) - 1
    comp = [[int(i == j + 1) for j in range(d)] for i in range(d)]
    for i in range(d):
        comp[i][d - 1] = -min_poly[i]
    power = [[int(i == j) for j in range(d)] for i in range(d)]
    while p:
        if p & 1:
            power = _mat_mul(power, comp)
        comp = _mat_mul(comp, comp)
        p >>= 1
    return char_poly_coeffs(power)


def _mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _power_is_root(sf, p, a, g):
    """Whether lam^p is a root of ``g``, a divisor of ``a`` whose largest
    real root is lam^p, by Sturm counts on an interval isolating lam^p."""
    lo, hi = sf.enclosure
    if lo == hi:
        return _sign_at(g, lo**p) == 0
    chain = _sturm_chain(_squarefree(a))
    while True:
        plo, phi = lo**p, hi**p  # lo > 1: powers keep the order
        if _sign_at(chain[0], plo) and _variations(chain, plo) - _variations(chain, phi) == 1:
            break
        lo, hi = _narrow(sf.min_poly, lo, hi, (hi - lo) / 2)
    chain = _sturm_chain(_squarefree(g))
    return _variations(chain, plo) - _variations(chain, phi) == 1
