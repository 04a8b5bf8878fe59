"""Exact stretch factor data for nonnegative integer transition matrices.

All certification is integer and rational arithmetic: the characteristic
polynomial comes from division-free Berkowitz, the Perron-Frobenius root
is isolated by Sturm sequences, its minimal polynomial is the Zassenhaus
factor (Berlekamp mod p, Hensel lifting, recombination) vanishing in the
isolating interval.  An element of Q(lam) is an integer polynomial in lam
reduced by lam's monic minimal polynomial (``pf_left_eigenvector``), and
lam2 = lam1^k is decided in Q(lam1) (``log_ratio``).
"""

import math
from fractions import Fraction
from itertools import combinations, count

from .errors import ZeroMatrix
from .record import record

ENCLOSURE_WIDTH = Fraction(1, 10**12)


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


def _interval_eval(coeffs, lo, hi):
    """Exact interval Horner evaluation of a polynomial on [lo, hi]."""
    alo = ahi = Fraction(0)
    for c in reversed(coeffs):
        c = Fraction(c)
        products = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo, ahi = min(products) + c, max(products) + c
    return alo, ahi


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


def pf_left_eigenvector(mat, sf):
    """A nonnegative left eigenvector v, vM = lam v, for the PF root lam of
    the nonnegative integer matrix ``mat`` whose stretch factor data is
    ``sf``.

    Each entry is an element of Q(lam) written as an integer polynomial in
    lam, lowest degree first, reduced by ``sf.min_poly``.  That polynomial
    is monic, a factor of the monic characteristic polynomial c, so the
    reduction is exact over the integers.

    v is the first nonzero row of N, the first nonzero Taylor coefficient
    at x = lam of adj(xI - M) = sum_k x^(n-1-k) B_k, where B_0 = I and
    B_k = M B_(k-1) + c_(n-k) I.  B_k is a polynomial in M, so row i of B_k
    is r_k = r_(k-1) M + c_(n-k) e_i.  N is adj(lam I - M) itself unless
    lam's eigenspace has dimension 2 or more.  Comparing the lowest terms
    of adj(xI - M) (xI - M) = c(x) I, which vanishes at lam to a higher
    order than adj(xI - M), gives N (lam I - M) = 0.  For x > lam,
    adj(xI - M) = c(x) sum_j M^j / x^(j+1) is nonnegative, so N, its limit
    divided by a power of x - lam, is nonnegative too: v needs no change
    of sign.
    """
    rows = _int_rows(mat)
    n, c = len(rows), sf.char_poly
    cols = list(zip(*rows))

    def adj_row(i):
        """Row i of adj(xI - M), each entry's coefficients in x, lowest first."""
        r = [int(j == i) for j in range(n)]
        rs = [r]
        for k in range(1, n):
            r = [sum(x * y for x, y in zip(r, col)) for col in cols]
            r[i] += c[n - k]
            rs.append(r)
        return [[rs[n - 1 - d][j] for d in range(n)] for j in range(n)]

    for t in range(n):  # entry (i, i) has x^(n-1) coefficient 1
        for i in range(n):
            v = [
                _divmod_monic(_trim([math.comb(d, t) * e[d] for d in range(t, n)]), sf.min_poly)[1]
                for e in adj_row(i)
            ]
            if any(v):
                return v


def _sign(p, sf):
    """Sign of p(lam) for a polynomial ``p`` reduced by lam's minimal
    polynomial, so that p(lam) = 0 only when p is [].  The enclosure is
    halved until exact interval evaluation on it decides."""
    if not p:
        return 0
    lo, hi = sf.enclosure
    while True:
        a, b = _interval_eval(p, lo, hi)
        if a > 0:
            return 1
        if b < 0:
            return -1
        lo, hi = _narrow(sf.min_poly, lo, hi, (hi - lo) / 2)


# --- integer powers between stretch factors ------------------------------


def log_ratio(s1: StretchFactor, s2: StretchFactor):
    """The k >= 1 with lam2 = lam1^k, or None when there is none.

    k runs while lo1^k <= hi2, which ends since lam1 > 1.  Each k whose
    power range meets lam2's enclosure is decided exactly in Q(lam1):
    m2(x^k) reduced by m1 (both monic minimal polynomials) is zero iff
    lam1^k is a real conjugate of lam2.  Such a conjugate is at most lam2,
    and lam2's enclosure (lo2, hi2] holds no other root of its squarefree
    characteristic polynomial, nor is lo2 a root; so the conjugate is lam2
    iff lam1^k >= lo2.  For a rational lam2, lo2 = hi2 = lam2.
    """
    if not (s1.expanding and s2.expanding):
        raise ValueError("log_ratio requires both PF roots > 1 (no expansion)")
    (lo1, hi1), (lo2, hi2), m1 = s1.enclosure, s2.enclosure, s1.min_poly
    xk, low, high = [1], 1, 1  # x^k reduced by m1, lo1^k, hi1^k
    for k in count(1):
        xk, low, high = _divmod_monic([0] + xk, m1)[1], low * lo1, high * hi1
        if low > hi2:
            return None
        if high < lo2:
            continue
        value = []  # m2(x^k) mod m1, by Horner
        for c in reversed(s2.min_poly):
            value = _divmod_monic(_add(_mul(value, xk), [c]), m1)[1]
        if not value and _sign(_sub([lo2.denominator * c for c in xk], [lo2.numerator]), s1) >= 0:
            return k
