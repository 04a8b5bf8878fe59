"""Tests of the benchmark's own arithmetic and output checks.

    python3 -m unittest discover -s perfbench

Each checker must pass an output built here from first principles and
reject the same output with one corruption.
"""

import unittest

from checks import CheckFailed, check_analyze, check_compare_positive, check_cover
from inputs import FIB, PLAST, lift_file, short_periodic_class, subgroups
from oracle import (
    MapFile,
    char_poly,
    conjugate,
    hall_counts,
    inverse_word,
    letter_matrix,
    pf_bracket,
    power,
    reduce_word,
    rose_map,
    substitute,
)


def _analyze_output(images):
    mat = letter_matrix(images)
    lo, hi = pf_bracket(mat)
    return {
        "rank": len(images),
        "stretch": {"char_poly": char_poly(mat), "enclosure": [str(lo), str(hi)]},
        "toroidality": {"toroidal": True, "witness_word": ["a", "b", "~a", "~b"], "witness_power": 2},
    }


def _subgroup_json(table):
    return {
        "symbols": list(table.symbols),
        "basepoint": "0",
        "vertices": [str(s) for s in range(table.m)],
        "edges": [
            {"from": str(s), "to": str(table.perms[x][s]), "label": x}
            for x in table.symbols
            for s in range(table.m)
        ],
    }


class HallTest(unittest.TestCase):
    def test_counts(self):
        self.assertEqual(hall_counts(2, 5)[1:], [3, 13, 71, 461])
        self.assertEqual(hall_counts(3, 4)[1:], [7, 97, 2143])

    def test_enumeration_agrees(self):
        self.assertEqual([len(subgroups("ab", m)) for m in (2, 3)], [3, 13])


class OracleTest(unittest.TestCase):
    def test_char_poly(self):
        self.assertEqual(char_poly(letter_matrix(FIB)), [-1, -1, 1])
        self.assertEqual(char_poly(letter_matrix(PLAST)), [-1, -1, 0, 1])

    def test_lift_carries_the_power(self):
        for table in subgroups("ab", 2):
            k = table.invariant_power(FIB, 6)
            lift = MapFile(lift_file(FIB, table, k, relabel=True))
            self.assertEqual(lift.rank, 3)
            lo, hi = pf_bracket(lift.matrix())
            base_lo, base_hi = pf_bracket(letter_matrix(FIB))
            self.assertTrue(base_lo**k <= hi and lo <= base_hi**k)


class ShortPeriodicClassTest(unittest.TestCase):
    def test_finds_fixed_class(self):
        # c -> cb and a -> ab fix the class of a~c: a~c -> ab~b~c = a~c
        images = {"a": ("a", "b"), "b": ("b", "a", "b", "c", "b"), "c": ("c", "b")}
        w = short_periodic_class(images)
        self.assertIsNotNone(w)
        image = substitute(images, w)
        self.assertTrue(conjugate(image, w) or conjugate(image, inverse_word(w)))

    def test_rank_two_commutator(self):
        self.assertEqual(len(short_periodic_class(FIB)), 4)

    def test_none_found(self):
        images = {"a": ("a", "b"), "b": ("b", "c", "a", "b"), "c": ("c", "a", "b")}
        self.assertIsNone(short_periodic_class(images))


class CheckAnalyzeTest(unittest.TestCase):
    def test_accepts_and_rejects_changed_coefficient(self):
        f = MapFile(rose_map(FIB))
        out = _analyze_output(FIB)
        check_analyze(out, 0, f)
        out["stretch"]["char_poly"][0] += 1
        with self.assertRaises(CheckFailed):
            check_analyze(out, 0, f)

    def test_rejects_wrong_witness(self):
        f = MapFile(rose_map(FIB))
        out = _analyze_output(FIB)
        out["toroidality"]["witness_word"] = ["a", "b"]
        with self.assertRaises(CheckFailed):
            check_analyze(out, 0, f)


class CheckCoverTest(unittest.TestCase):
    def test_accepts_and_rejects_dropped_subgroup(self):
        entries = []
        for m in (2, 3):
            for table in subgroups("ab", m):
                k = table.invariant_power(FIB, 4)
                entries.append({
                    "index": m,
                    "subgroup": _subgroup_json(table),
                    "cover_rank": m + 1,
                    "invariant_power": k,
                    "lift_exists": False,
                })
        bracket = pf_bracket(letter_matrix(FIB))
        check_cover({"covers": entries}, 0, FIB, 3, 4, bracket)
        with self.assertRaises(CheckFailed):
            check_cover({"covers": entries[1:]}, 0, FIB, 3, 4, bracket)


class CheckCompareTest(unittest.TestCase):
    def test_accepts_and_rejects_changed_conjugator_letter(self):
        k, gamma = 2, ("b",)
        # psi = gamma^-1 Phi^k gamma, so Phi^k(s) = gamma psi(s) gamma^-1
        psi_images = {
            s: reduce_word(inverse_word(gamma) + w + gamma) for s, w in power(FIB, k).items()
        }
        psi, phi = MapFile(rose_map(psi_images)), MapFile(rose_map(FIB))
        out = {
            "covers": True,
            "power": 1,
            "witness": {
                "H": {
                    "symbols": ["a", "b"],
                    "basepoint": "0",
                    "vertices": ["0"],
                    "edges": [
                        {"from": "0", "to": "0", "label": "a"},
                        {"from": "0", "to": "0", "label": "b"},
                    ],
                },
                "k": k,
                "inner_conjugator": list(gamma),
                "identification": {"a": ["a"], "b": ["b"]},
            },
        }
        check_compare_positive(out, 0, psi, phi, k)
        out["witness"]["inner_conjugator"] = ["a"]
        with self.assertRaises(CheckFailed):
            check_compare_positive(out, 0, psi, phi, k)


if __name__ == "__main__":
    unittest.main()
