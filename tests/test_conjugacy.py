"""Differential tests: the exact conjugator solver against the capped scan
it replaced (``conjugacy_oracle``) and against brute force."""

from hypothesis import given, settings, strategies as st

import conjugacy_oracle as old
from fibercomm.covers import solve_conjugacy, solve_conjugacy_system
from fibercomm.words import concat, cyclic_reduce, free_reduce, inverse, power_images

SETTINGS = settings(max_examples=60, deadline=None)
LETTERS = ("a", "~a", "b", "~b")
ORACLE_CAP = 32
BRUTE_CAP = 400


def word(picks):
    return free_reduce(tuple(LETTERS[i] for i in picks))


def power(c, j):
    return concat(*[c if j > 0 else inverse(c)] * abs(j))


def conjugate(u, z):
    return concat(u, z, inverse(u))


def holds(u, equations):
    """Whether u z u^-1 = w, that is u z = w u, for every ``(z, w)``."""
    return all(concat(u, z) == concat(w, u) for z, w in equations)


def brute_force(equations, cap=BRUTE_CAP):
    """Some u0 c^j with |j| <= cap solving every equation, pivoting on the
    first z != 1 as the solver does; None if there is none."""
    pivot = next(((z, w) for z, w in equations if z), None)
    if pivot is None:
        return () if holds((), equations) else None
    sol = old.solve_conjugacy(*pivot)
    if sol is None:
        return None
    u0, c = sol
    others = [e for e in equations if e != pivot]
    for step in (c, inverse(c)):
        u = u0
        for _ in range(cap + 1):
            if holds(u, others) and holds(u, [pivot]):
                return u
            u = concat(u, step)
    return None


picks = st.lists(st.integers(0, 3), max_size=7)
nonempty = st.lists(st.integers(0, 3), min_size=1, max_size=5)


@st.composite
def systems(draw):
    """``(equations, planted, pinned, perturbed)``: 1-4 equations
    u z u^-1 = w solved by the planted u = u0 c^j, |j| <= 200, with c the
    centralizer generator of the pivot z.  The other z are trivial, random,
    or powers of c; ``pinned`` says whether some z fails to commute with c
    (then the solution is unique).  With ``perturbed``, one w is damaged."""
    root = word(draw(nonempty)) or ("a",)
    z0 = power(root, draw(st.integers(1, 3)))
    _, c = old.solve_conjugacy(z0, z0)
    planted = concat(word(draw(picks)), power(c, draw(st.integers(-200, 200))))
    zs = []
    kinds = st.sampled_from(("trivial", "random", "random", "random", "commuting"))
    for kind in [draw(kinds) for _ in range(draw(st.integers(0, 3)))]:
        if kind == "trivial":
            zs.append(())
        elif kind == "random":
            zs.append(word(draw(nonempty) + draw(picks)))
        else:
            zs.append(power(c, draw(st.integers(-3, 3))))
    zs.insert(draw(st.integers(0, len(zs))), z0)
    equations = [(z, conjugate(planted, z)) for z in zs]
    pinned = any(concat(c, z) != concat(z, c) for z in zs)
    perturbed = draw(st.booleans())
    if perturbed:
        i = draw(st.integers(0, len(equations) - 1))
        z, w = equations[i]
        equations[i] = (z, concat(w, word(draw(nonempty))))
    return equations, planted, pinned, perturbed


@SETTINGS
@given(systems())
def test_solution_satisfies_every_equation(system):
    equations, _, _, _ = system
    u = solve_conjugacy_system(equations)
    assert u is None or holds(u, equations)


@SETTINGS
@given(systems())
def test_agrees_with_capped_scan_when_it_finds(system):
    equations, _, _, _ = system
    expected = old.scan_conjugator(equations, ORACLE_CAP)
    if expected is not None:
        assert solve_conjugacy_system(equations) == expected


@SETTINGS
@given(systems())
def test_finds_planted_solution(system):
    equations, planted, pinned, perturbed = system
    if perturbed:
        return
    u = solve_conjugacy_system(equations)
    assert u is not None and holds(u, equations)
    if pinned:
        assert u == planted


@SETTINGS
@given(systems())
def test_none_exactly_when_brute_force_finds_nothing(system):
    equations, _, _, _ = system
    assert (solve_conjugacy_system(equations) is None) == (brute_force(equations) is None)


def test_trivial_pivot_is_skipped():
    # u 1 u^-1 = 1 says nothing: the solver pivots on a^2, and u b u^-1 = b
    # pins u = b; the scan pivots on the trivial equation and tries only u = 1
    equations = [((), ()), (("a", "a"), ("b", "a", "a", "~b")), (("b",), ("b",))]
    assert solve_conjugacy_system(equations) == ("b",)
    assert old.scan_conjugator(equations, ORACLE_CAP) is None


def test_trivial_systems():
    assert solve_conjugacy_system([]) == ()
    assert solve_conjugacy_system([((), ())]) == ()
    assert solve_conjugacy_system([((), ("a",))]) is None
    assert solve_conjugacy_system([(("a",), ("b",))]) is None


def test_far_conjugator():
    # u = b a^5000: the pivot gives u0 = b, and u lies 5000 steps out along
    # the centralizer of a
    u = ("b",) + ("a",) * 5000
    equations = [(z, conjugate(u, z)) for z in (("a",), ("b", "a", "b"))]
    assert solve_conjugacy_system(equations) == u


@SETTINGS
@given(nonempty, st.integers(1, 3), picks, picks, picks)
def test_rotation_search_agrees_with_scan_at_every_offset(root, k, p, q, other):
    """z = p r^k p^-1 against w = q (a rotation of r^k) q^-1 at every
    offset, the last one included, and against a word that may not be
    conjugate to z at all."""
    z = conjugate(word(p), power(word(root) or ("a",), k))
    zc, _ = cyclic_reduce(z)
    for i in range(len(zc)):
        w = conjugate(word(q), zc[i:] + zc[:i])
        assert solve_conjugacy(z, w) == old.solve_conjugacy(z, w)
    w = word(other)
    assert solve_conjugacy(z, w) == old.solve_conjugacy(z, w)


def test_rotation_search_on_a_long_fibonacci_word():
    """z = FIB^20(a) has 17711 letters; w is z rotated right by 3."""
    z = power_images({"a": ("a", "b"), "b": ("a",)}, 20)["a"]
    assert len(z) == 17711
    w = z[-3:] + z[:-3]
    assert solve_conjugacy(z, w) == old.solve_conjugacy(z, w) == (inverse(z[:-3]), z)
