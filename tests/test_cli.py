import json
import os
import subprocess
import sys

import pytest

import fibercomm
from fibercomm.cli import main
from fibercomm.covers import build_cover, enumerate_subgroups, lift_map
from fibercomm.maps import map_power, map_to_json_dict


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory, fib, plast):
    d = tmp_path_factory.mktemp("cli-fixtures")
    cover = build_cover(
        fib.domain,
        next(
            H for H in enumerate_subgroups(2, 2)
            if H.contains(("a",)) and not H.contains(("b",))
        ),
    )
    lift3 = lift_map(fib, cover, 3)
    maps = (("FIB", fib), ("PLAST", plast), ("PLAST21", map_power(plast, 21)), ("lift3", lift3))
    for name, f in maps:
        (d / f"{name}.json").write_text(
            json.dumps(map_to_json_dict(f), sort_keys=True, indent=2)
        )
    bad = {
        "vertices": ["v0", "v1"],
        "edges": [
            {"id": "a", "from": "v0", "to": "v0", "length": "1"},
            {"id": "t", "from": "v0", "to": "v1", "length": "1"},
        ],
        "tree": ["t"],
    }
    (d / "bad_graph.json").write_text(json.dumps(bad))
    return d


def test_validate_good(fixture_dir, tmp_path):
    out = tmp_path / "report.json"
    assert main(["validate", str(fixture_dir / "FIB.json"), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["valid"] and report["kind"] == "map"


def test_validate_bad_graph_exits_2(fixture_dir, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["validate", str(fixture_dir / "bad_graph.json"), "--out", str(out)])
    assert code == 2
    report = json.loads(out.read_text())
    assert not report["valid"]
    assert any("valence" in p for p in report["problems"])


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.json")]) == 2


def test_bad_bound_exits_2(fixture_dir, capsys):
    assert main(["analyze", str(fixture_dir / "FIB.json"), "--k-max", "0"]) == 2


def test_analyze_fib(fixture_dir, tmp_path):
    out = tmp_path / "fib.json"
    assert main(["analyze", str(fixture_dir / "FIB.json"), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["stretch"]["char_poly"] == [-1, -1, 1]
    assert report["train_track"]["is_train_track"]
    assert report["toroidality"]["witness_word"] == ["a", "b", "~a", "~b"]
    assert report["toroidality"]["witness_power"] == 2
    assert report["index_report"]["index"] == 1


def test_analyze_dot_format(fixture_dir, tmp_path):
    out = tmp_path / "fib.dot"
    code = main(
        ["analyze", str(fixture_dir / "FIB.json"), "--format", "dot", "--out", str(out)]
    )
    assert code == 0
    assert out.read_text().startswith("graph whitehead_0 {")


def test_cover_enumeration(fixture_dir, tmp_path):
    out = tmp_path / "covers.json"
    code = main(
        ["cover", str(fixture_dir / "FIB.json"), "--index-max", "2", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert len(report["covers"]) == 3
    assert all(c["invariant_power"] == 3 for c in report["covers"])
    assert all(c["lift_exists"] for c in report["covers"])
    assert all(c["cover_rank"] == 3 for c in report["covers"])


def test_compare_and_replay(fixture_dir, tmp_path):
    out = tmp_path / "compare.json"
    code = main(
        [
            "compare",
            str(fixture_dir / "lift3.json"),
            str(fixture_dir / "FIB.json"),
            "--k-max", "3", "--p-max", "1",
            "--out", str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["covers"] and report["witness"]["k"] == 3
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(report["witness"]))
    replay_out = tmp_path / "replay.json"
    code = main(
        [
            "compare",
            str(fixture_dir / "lift3.json"),
            str(fixture_dir / "FIB.json"),
            "--replay", str(cert),
            "--out", str(replay_out),
        ]
    )
    assert code == 0
    assert json.loads(replay_out.read_text())["replay"] is True


def test_compare_power_past_denominator_bound(fixture_dir, tmp_path):
    out = tmp_path / "compare.json"
    maps = [str(fixture_dir / "PLAST21.json"), str(fixture_dir / "PLAST.json")]
    assert main(["compare", *maps, "--k-max", "21", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["covers"] and report["witness"]["k"] == 21
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(report["witness"]))
    replay_out = tmp_path / "replay.json"
    assert main(["compare", *maps, "--replay", str(cert), "--out", str(replay_out)]) == 0
    assert json.loads(replay_out.read_text())["replay"] is True


def test_compare_negative_exits_1(fixture_dir, tmp_path, capsys):
    code = main(
        [
            "compare",
            str(fixture_dir / "FIB.json"),
            str(fixture_dir / "lift3.json"),
            "--k-max", "2", "--p-max", "1",
            "--out", str(tmp_path / "neg.json"),
        ]
    )
    assert code == 1


def test_minimize(fixture_dir, tmp_path):
    out = tmp_path / "min.json"
    assert main(["minimize", str(fixture_dir / "lift3.json"), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["candidate"]["rank"] == 2
    assert report["reductions"][0][0] == "descent"


def test_determinism_byte_identical(fixture_dir, tmp_path):
    jobs = [
        (["analyze", str(fixture_dir / "FIB.json")], "a1"),
        (["analyze", str(fixture_dir / "PLAST.json"), "--k-max", "6"], "a2"),
        (["cover", str(fixture_dir / "FIB.json")], "c1"),
        (
            [
                "compare",
                str(fixture_dir / "lift3.json"),
                str(fixture_dir / "FIB.json"),
                "--k-max", "3", "--p-max", "1",
            ],
            "c2",
        ),
        (["minimize", str(fixture_dir / "lift3.json")], "m1"),
    ]
    for argv, tag in jobs:
        p1 = tmp_path / f"{tag}-run1.json"
        p2 = tmp_path / f"{tag}-run2.json"
        assert main(argv + ["--out", str(p1)]) == main(argv + ["--out", str(p2)])
        assert p1.read_bytes() == p2.read_bytes()


GUARD = """
import sys
import fibercomm.cli
for module in ("spectral", "whitehead", "covers", "commensurability", "folds"):
    __import__("fibercomm." + module)
fixtures, out = sys.argv[1], sys.argv[2]
jobs = (
    ["analyze", fixtures + "FIB.json"],
    ["cover", fixtures + "FIB.json"],
    ["compare", fixtures + "lift3.json", fixtures + "FIB.json", "--k-max", "3", "--p-max", "1"],
    ["minimize", fixtures + "lift3.json"],
)
for i, argv in enumerate(jobs):
    assert fibercomm.cli.main(argv + ["--out", out + str(i)]) == 0
print(" ".join(sorted(m for m in ("sympy", "numpy", "dataclasses", "inspect") if m in sys.modules)))
"""


@pytest.fixture(scope="module")
def cli_process_modules(fixture_dir, tmp_path_factory):
    """The guarded modules a CLI process has loaded after every subcommand ran."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fibercomm.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = tmp_path_factory.mktemp("guard") / "out-"
    run = subprocess.run(
        [sys.executable, "-c", GUARD, str(fixture_dir) + os.sep, str(out)],
        env=env, capture_output=True, text=True, check=True,
    )
    return set(run.stdout.split())


def test_cli_imports_neither_sympy_nor_numpy(cli_process_modules):
    assert not cli_process_modules & {"sympy", "numpy"}


def test_cli_imports_neither_dataclasses_nor_inspect(cli_process_modules):
    """Value classes are built by ``fibercomm.record``: start-up pays for no
    ``dataclasses`` import and no generated code."""
    assert not cli_process_modules & {"dataclasses", "inspect"}


@pytest.fixture(scope="module")
def certificate(fixture_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("certificate") / "compare.json"
    argv = ["compare", str(fixture_dir / "lift3.json"), str(fixture_dir / "FIB.json")]
    assert main(argv + ["--k-max", "3", "--p-max", "1", "--out", str(out)]) == 0
    return json.loads(out.read_text())["witness"]


def _identify_first(cert, word):
    identification = dict(cert["identification"])
    identification[min(identification)] = word
    return {**cert, "identification": identification}


@pytest.mark.parametrize(
    "damage",
    [
        pytest.param(lambda c: {"H": {}, "inner_conjugator": []}, id="missing-keys"),
        pytest.param(lambda c: {**c, "H": {}}, id="H-without-edges"),
        pytest.param(lambda c: [1, 2], id="top-level-list"),
        pytest.param(lambda c: _identify_first(c, 5), id="identification-not-a-word"),
        pytest.param(lambda c: _identify_first(c, [1, 2]), id="identification-not-letters"),
        pytest.param(lambda c: {**c, "k": "3"}, id="k-not-an-integer"),
        pytest.param(
            lambda c: {**c, "H": {**c["H"], "edges": c["H"]["edges"] + [{"from": "0", "label": "z", "to": "0"}]}},
            id="H-label-outside-symbols",
        ),
    ],
)
def test_malformed_certificate_exits_2(fixture_dir, certificate, tmp_path, capsys, damage):
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(damage(certificate)))
    out = tmp_path / "replay.json"
    argv = ["compare", str(fixture_dir / "lift3.json"), str(fixture_dir / "FIB.json")]
    assert main(argv + ["--replay", str(cert), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_replay_rejects_subgroup_over_more_symbols(fixture_dir, certificate, tmp_path):
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({**certificate, "H": {**certificate["H"], "symbols": ["a", "b", "c"]}}))
    out = tmp_path / "replay.json"
    argv = ["compare", str(fixture_dir / "lift3.json"), str(fixture_dir / "FIB.json")]
    assert main(argv + ["--replay", str(cert), "--out", str(out)]) == 1
    assert json.loads(out.read_text()) == {"replay": False}
