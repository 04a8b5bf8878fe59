"""Reference copy of the capped conjugator scan.

This is how covering witnesses and ``extend_restriction`` found their inner
conjugator before ``fibercomm.covers.solve_conjugacy_system`` replaced it,
kept unchanged as a test oracle.  The only edit: the loop that
``_match_restriction``, ``witness_from_lift`` and ``compose_witnesses``
each carried is the function ``scan_conjugator`` here, with the cap as an
argument.  The word helpers come from the package; they did not change.
"""

from fibercomm.words import concat, cyclic_reduce, free_reduce, inverse


def _primitive_root(word):
    """Primitive root of a cyclically reduced word: (root, exponent)."""
    n = len(word)
    for d in range(1, n + 1):
        if n % d:
            continue
        if word == word[:d] * (n // d):
            return word[:d], n // d
    return word, 1


def solve_conjugacy(z, w):
    """One solution u of u z u^-1 = w plus the centralizer generator of z.

    Returns ``(u0, c)`` with general solution ``u0 * c^k``; None when z and w
    are not conjugate.
    """
    z, w = free_reduce(z), free_reduce(w)
    zc, p = cyclic_reduce(z)
    wc, q = cyclic_reduce(w)
    if len(zc) != len(wc):
        return None
    if not zc:
        return ((), ())
    for i in range(len(zc)):
        if zc[i:] + zc[:i] == wc:
            z1 = zc[:i]
            u0 = concat(tuple(q), inverse(z1), inverse(tuple(p)))
            root, _ = _primitive_root(zc)
            c = concat(tuple(p), root, inverse(tuple(p)))
            return (u0, c)
    return None


def _signed(cap):
    yield 0
    for j in range(1, cap + 1):
        yield j
        yield -j


def _centralizer_element(u0, c, j):
    out = u0
    step = c if j > 0 else inverse(c)
    for _ in range(abs(j)):
        out = concat(out, step)
    return free_reduce(out)


def scan_conjugator(eqs, cap):
    """The first gamma = u0 c^j, j = 0, 1, -1, ..., +-cap, with
    gamma z gamma^-1 = w for every ``(z, w)`` in ``eqs``; None past the cap."""
    sol = solve_conjugacy(*eqs[0])
    if sol is None:
        return None
    u0, c = sol
    for j in _signed(cap):
        gamma = _centralizer_element(u0, c, j)
        if all(
            free_reduce(concat(gamma, z, inverse(gamma))) == w for z, w in eqs
        ):
            return gamma
    return None
