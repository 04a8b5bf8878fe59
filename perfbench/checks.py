"""Checks of fibercomm CLI outputs against the benchmark's own arithmetic.

Each ``check_*`` function takes the parsed JSON output and the exit code of
one job and raises ``CheckFailed`` with a reason when the output is wrong.
Expected values are derived from the inputs (see ``oracle``), never copied
from an earlier run of the program.
"""

from fractions import Fraction

from oracle import (
    MapFile,
    brackets_root,
    char_poly,
    conjugate,
    hall_counts,
    invariant_power,
    inverse_word,
    letter_matrix,
    overlaps,
    pf_bracket,
    power,
    power_bracket,
    reduce_word,
    substitute,
    table_from_json,
    table_key,
    trace_word,
)


class CheckFailed(Exception):
    pass


def require(condition, reason):
    if not condition:
        raise CheckFailed(reason)


def _check_stretch(stretch, poly, bracket):
    """The reported polynomial is ``poly`` and its rational enclosure holds
    the root inside ``bracket`` (a certified bracket of the expected root)."""
    require(stretch["char_poly"] == poly, f"char_poly {stretch['char_poly']} != {poly}")
    enclosure = tuple(Fraction(x) for x in stretch["enclosure"])
    require(brackets_root(poly, enclosure), "enclosure brackets no sign change of char_poly")
    require(overlaps(enclosure, bracket), "enclosure misses the Perron-Frobenius root")


# --- analyze and minimize -------------------------------------------------


def check_analyze(out, code, f: MapFile):
    require(code == 0, f"exit code {code}")
    require(out["rank"] == f.rank, f"rank {out['rank']} != {f.rank}")
    mat = f.matrix()
    _check_stretch(out["stretch"], char_poly(mat), pf_bracket(mat))
    tor = out["toroidality"]
    if f.rank == 2:
        require(tor["toroidal"], "rank 2 map reported atoroidal")
    if tor["toroidal"]:
        w = tuple(tor["witness_word"])
        image = substitute(power(f.induced(), tor["witness_power"]), w)
        require(
            conjugate(image, w) or conjugate(image, inverse_word(w)),
            f"witness {w} is not periodic under f^{tor['witness_power']}",
        )


def check_minimize(out, code, rank, base_bracket, k):
    """A lift of phi^k must come back as a map of phi's rank with stretch
    factor lambda_phi^k."""
    require(code == 0, f"exit code {code}")
    cand = out["candidate"]
    require(cand["rank"] == rank, f"candidate rank {cand['rank']} != {rank}")
    images = {s: tuple(w) for s, w in cand["images"].items()}
    require(
        overlaps(pf_bracket(letter_matrix(images)), power_bracket(base_bracket, k)),
        f"candidate stretch factor is not lambda^{k}",
    )


# --- cover --------------------------------------------------------------------


def check_cover(out, code, images, index_max, k_max, base_bracket):
    require(code == 0, f"exit code {code}")
    rank = len(images)
    hall = hall_counts(rank, index_max)
    entries = out["covers"]
    for m in range(2, index_max + 1):
        found = [e for e in entries if e["index"] == m]
        require(len(found) == hall[m - 1], f"index {m}: {len(found)} subgroups, Hall {hall[m - 1]}")
        keys = {table_key(*table_from_json(e["subgroup"])) for e in found}
        require(None not in keys, f"index {m}: a subgroup is not a transitive coset table")
        require(len(keys) == len(found), f"index {m}: a subgroup is listed twice")
    require(all(2 <= e["index"] <= index_max for e in entries), "unexpected index")
    powers = [power(images, k) for k in range(1, k_max + 1)]
    brackets = {}
    roots = {}
    for e in entries:
        m = e["index"]
        require(e["cover_rank"] == m * (rank - 1) + 1, f"cover_rank {e['cover_rank']} at index {m}")
        k = e["invariant_power"]
        require(k == invariant_power(powers, *table_from_json(e["subgroup"])), f"invariant_power {k} at index {m}")
        if e["lift_exists"]:
            require(k is not None, "a lift without an invariant power")
            if k not in brackets:
                brackets[k] = power_bracket(base_bracket, k)
            stretch = e["lift_stretch"]
            poly = tuple(stretch["char_poly"])
            if (poly, k) not in roots:
                roots[(poly, k)] = brackets_root(poly, brackets[k])
            require(roots[(poly, k)], f"lift char_poly has no root at lambda^{k}")
            enclosure = tuple(Fraction(x) for x in stretch["enclosure"])
            require(overlaps(enclosure, brackets[k]), f"lift stretch factor is not lambda^{k}")


# --- compare ----------------------------------------------------------------


def check_compare_positive(out, code, psi: MapFile, phi: MapFile, k):
    """A certificate that psi covers phi with power k, re-verified by word
    arithmetic: identification words lie in H, and
    Phi^k(ident(s)) = gamma ident(psi(s)) gamma^-1 after free reduction."""
    require(code == 0 and out.get("covers") is True, f"covers={out.get('covers')} exit code {code}")
    require(out["power"] == 1, f"power {out['power']}")
    w = out["witness"]
    require(w["k"] == k, f"k {w['k']} != {k}")
    symbols, bp, trans = table_from_json(w["H"])
    require(table_key(symbols, bp, trans) is not None, "H is not a finite-index coset table")
    psi_images, phi_k = psi.induced(), power(phi.induced(), k)
    ident = {s: tuple(x) for s, x in w["identification"].items()}
    require(sorted(ident) == sorted(psi_images), "identification does not cover psi's basis")
    gamma = tuple(w["inner_conjugator"])
    for s, word in ident.items():
        require(trace_word(trans, bp, word) == bp, f"ident({s}) does not return to the basepoint")
        lhs = substitute(phi_k, word)
        rhs = reduce_word(gamma + substitute(ident, psi_images[s]) + inverse_word(gamma))
        require(lhs == rhs, f"Phi^{k}(ident({s})) != gamma ident(psi({s})) gamma^-1")


def check_compare_negative(out, code):
    require(code == 1 and out.get("covers") is False, f"covers={out.get('covers')} exit code {code}")


def check_replay(out, code):
    require(code == 0 and out.get("replay") is True, f"replay={out.get('replay')} exit code {code}")
