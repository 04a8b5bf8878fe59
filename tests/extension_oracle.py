"""Reference copy of the unique extension of a restriction (finite-index
rigidity, acceptance criterion 13).

No ``fibercomm`` command extends a restriction, so this code left
``fibercomm.covers`` and is kept here unchanged as a test oracle.  The only
edit: the imports come from the package.
"""

from fibercomm.covers import (
    SubgroupGraph,
    check_automorphism,
    is_invariant,
    solve_conjugacy_system,
)
from fibercomm.errors import InfiniteIndex, SolverBound
from fibercomm.record import record
from fibercomm.words import apply_images, concat, inv


def kernel_of_coset_action(H: SubgroupGraph):
    """Kernel of the action on cosets of H: a normal finite-index subgroup of
    the ambient group contained in H."""
    if not H.is_complete():
        raise InfiniteIndex()
    H = H.canonical()
    perms = {}
    for sym in H.symbols:
        perms[sym] = tuple(H.trans[(s, sym)] for s in H.states)
    # group generated by the permutations
    identity = tuple(range(len(H.states)))
    elements = {identity: 0}
    queue = [identity]
    while queue:
        g = queue.pop(0)
        for sym in H.symbols:
            h = tuple(perms[sym][g[i]] for i in range(len(g)))
            if h not in elements:
                elements[h] = len(elements)
                queue.append(h)
    trans = {}
    for g, i in elements.items():
        for sym in H.symbols:
            h = tuple(perms[sym][g[j]] for j in range(len(g)))
            trans[(i, sym)] = elements[h]
    return SubgroupGraph(H.symbols, tuple(range(len(elements))), trans, 0).canonical()


@record
class ExtensionVerdict:
    found: bool
    images: dict = None


def restriction_images(images, H: SubgroupGraph, gen_symbols=None):
    """Restriction of an H-invariant automorphism to H, over H's basis."""
    if gen_symbols is None:
        gen_symbols = [f"x{i}" for i in range(H.rank())]
    out = {}
    for sym, w in zip(gen_symbols, H.basis()):
        out[sym] = H.express_in_basis(apply_images(images, w), gen_symbols)
    return out


def _ambient_restriction(psi_on_H, H: SubgroupGraph):
    """psi given over H's basis, as a map on ambient member words."""
    gen_symbols = [f"x{i}" for i in range(H.rank())]
    basis = H.basis()
    subst = {s: w for s, w in zip(gen_symbols, basis)}
    images = {s: psi_on_H[s] for s in gen_symbols}

    def act(word):
        in_basis = H.express_in_basis(word, gen_symbols)
        return apply_images(subst, apply_images(images, in_basis))

    return act


def extend_restriction(psi_on_H, H: SubgroupGraph):
    """The unique ambient automorphism restricting to psi on H, if any.

    Each ambient basis letter a is pinned by the equations
    ``Phi(a) psi(x) Phi(a)^-1 = psi(a x a^-1)`` over a basis of the coset
    kernel N, solved exactly by ``solve_conjugacy_system``.
    """
    symbols = H.symbols
    act = _ambient_restriction(psi_on_H, H)
    n_basis = kernel_of_coset_action(H).basis()
    if len(n_basis) < 2:
        raise SolverBound("kernel subgroup has rank < 2; equations underdetermined")
    images = {}
    for a in symbols:
        u = solve_conjugacy_system(
            [(act(x), act(concat((a,), x, (inv(a),)))) for x in n_basis]
        )
        if u is None:
            return ExtensionVerdict(False)
        images[a] = u
    if not check_automorphism(images, symbols):
        return ExtensionVerdict(False)
    # replay: the candidate must preserve H and restrict to psi
    if not is_invariant(images, H):
        return ExtensionVerdict(False)
    gen_symbols = [f"x{i}" for i in range(H.rank())]
    subst = {s: w for s, w in zip(gen_symbols, H.basis())}
    for s in gen_symbols:
        expected = apply_images(subst, psi_on_H[s])
        if apply_images(images, subst[s]) != expected:
            return ExtensionVerdict(False)
    return ExtensionVerdict(True, images)
