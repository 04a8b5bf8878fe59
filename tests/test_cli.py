import hashlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import fibercomm
from fibercomm import covers
from fibercomm.cli import main
from fibercomm.covers import build_cover, enumerate_subgroups, lift_map
from fibercomm.graph import rose
from fibercomm.maps import GraphMap, map_power, map_to_json_dict


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


def test_map_whose_tree_edge_leaves_the_vertex_list_exits_2(tmp_path, capsys):
    # GraphMap.validate reports the edge instead of raising KeyError
    damaged = {
        "graph": {
            "vertices": ["v0", "v1"],
            "edges": [
                {"id": "a", "from": "v0", "to": "v0", "length": "1"},
                {"id": "t", "from": "v0", "to": "nowhere", "length": "1"},
            ],
            "tree": ["t"],
        },
        "vertex_map": {"v0": "v0", "v1": "v0"},
        "edge_map": {"a": "a", "t": "t"},
    }
    path = tmp_path / "damaged.json"
    path.write_text(json.dumps(damaged))
    assert main(["analyze", str(path)]) == 2
    assert "invalid input: edge t has unknown endpoint" in capsys.readouterr().err
    out = tmp_path / "report.json"
    assert main(["validate", str(path), "--out", str(out)]) == 2
    report = json.loads(out.read_text())
    assert report["kind"] == "map" and not report["valid"]
    assert "edge t has unknown endpoint" in report["problems"]
    assert "image of t ends at wrong vertex" in report["problems"]


def _with_image(fib, image):
    return {**fib, "edge_map": {**fib["edge_map"], "a": image}}


def _with_edge_id(graph, edge_id):
    return {**graph, "edges": [{**graph["edges"][0], "id": edge_id}] + graph["edges"][1:]}


@pytest.mark.parametrize(
    "command,damage",
    [
        pytest.param("analyze", lambda m: _with_image(m, ["a"]), id="analyze-image-as-list"),
        pytest.param("validate", lambda m: _with_image(m, ["a"]), id="validate-image-as-list"),
        pytest.param("analyze", lambda m: _with_image(m, 5), id="analyze-image-as-number"),
        pytest.param("validate", lambda m: {**m, "edge_map": ["a"]}, id="validate-edge-map-as-list"),
        pytest.param("validate", lambda m: [1, 2], id="validate-top-level-list"),
        pytest.param("validate", lambda m: "x", id="validate-top-level-string"),
        pytest.param("analyze", lambda m: 5, id="analyze-top-level-number"),
        pytest.param("validate", lambda m: _with_edge_id(m["graph"], 3), id="validate-edge-id-as-number"),
    ],
)
def test_malformed_map_or_graph_exits_2(fixture_dir, command, damage, tmp_path, capsys):
    """A value of the wrong JSON type is an input error, not a traceback."""
    path = tmp_path / "damaged.json"
    path.write_text(json.dumps(damage(json.loads((fixture_dir / "FIB.json").read_text()))))
    out = tmp_path / "out.json"
    assert main([command, str(path), "--out", str(out)]) == 2
    if command == "validate":
        assert json.loads(out.read_text())["kind"] == "unreadable"
    else:
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.json")]) == 2


def test_bad_bound_exits_2(fixture_dir, capsys):
    assert main(["analyze", str(fixture_dir / "FIB.json"), "--k-max", "0"]) == 2


@pytest.mark.parametrize(
    "command,option",
    [
        ("validate", "--k-max"),
        ("validate", "--format"),
        ("cover", "--p-max"),
        ("cover", "--length-bound"),
        ("compare", "--length-bound"),
        ("compare", "--index-max"),
        ("minimize", "--p-max"),
        ("minimize", "--k-max"),
    ],
)
def test_option_a_command_does_not_read_exits_2(fixture_dir, command, option, capsys):
    inputs = [str(fixture_dir / "FIB.json")] * (2 if command == "compare" else 1)
    value = "json" if option == "--format" else "2"
    with pytest.raises(SystemExit) as exc:
        main([command, *inputs, option, value])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_analyze_fib(fixture_dir, tmp_path):
    out = tmp_path / "fib.json"
    assert main(["analyze", str(fixture_dir / "FIB.json"), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["stretch"]["char_poly"] == [-1, -1, 1]
    assert report["train_track"]["is_train_track"]
    assert report["toroidality"]["witness_word"] == ["a", "b", "~a", "~b"]
    assert report["toroidality"]["witness_power"] == 2
    assert report["index_report"]["index"] == 1


# The output of analyze on two disjoint FIB blocks, whose PF root has a
# plane of eigenvectors, as the Q(lambda) Gaussian solver gave it.
TWO_FIB_REPORT = {
    "index_report": {
        "ageometric": False,
        "fixed_direction_counts": [6],
        "index": 4,
        "nielsen_free_within_bounds": False,
        "rank": 4,
    },
    "input": "two_fib.json",
    "rank": 4,
    "rotationless_power": 2,
    "stretch": {
        "char_poly": [1, 2, -1, -2, 1],
        "enclosure": [
            "6949403065495655250727/4294967296000000000000",
            "6949403065499950218023/4294967296000000000000",
        ],
        "expanding": True,
        "irreducible": False,
        "min_poly": [-1, -1, 1],
    },
    "toroidality": {"toroidal": True, "witness_power": 2, "witness_word": ["a", "b", "~a", "~b"]},
    "train_track": {"irreducible": False, "is_train_track": True},
    "whitehead_graphs": [
        {
            "edges": [["a", "~a"], ["a", "~b"], ["c", "~c"], ["c", "~d"]],
            "nodes": ["a", "c", "~a", "~b", "~c", "~d"],
            "vertex": "v0",
        }
    ],
}


def test_analyze_a_repeated_pf_root(tmp_path):
    images = {"a": ("a", "b"), "b": ("a",), "c": ("c", "d"), "d": ("c",)}
    f = GraphMap(rose(("a", "b", "c", "d")), {"v0": "v0"}, images)
    path = tmp_path / "two_fib.json"
    path.write_text(json.dumps(map_to_json_dict(f)))
    out = tmp_path / "report.json"
    assert main(["analyze", str(path), "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == TWO_FIB_REPORT


def test_analyze_dot_format(fixture_dir, tmp_path):
    out = tmp_path / "fib.dot"
    code = main(
        ["analyze", str(fixture_dir / "FIB.json"), "--format", "dot", "--out", str(out)]
    )
    assert code == 0
    assert out.read_text().startswith("graph whitehead_0 {")


@pytest.mark.parametrize(
    "name,bounds",
    [pytest.param("PLAST", [], id="PLAST"), pytest.param("FIB", ["--k-max", "1"], id="FIB-k-max-1")],
)
def test_analyze_dot_without_a_rotationless_power_exits_3(fixture_dir, tmp_path, capsys, name, bounds):
    """PLAST's rotationless power is 6 and FIB's is 2: past --k-max there
    are no Whitehead graphs to draw."""
    out = tmp_path / "whitehead.dot"
    argv = ["analyze", str(fixture_dir / f"{name}.json"), "--format", "dot", *bounds]
    assert main(argv + ["--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("resource bound: ") and captured.err.count("\n") == 1
    assert not out.exists()


@pytest.fixture
def ab_ba(tmp_path):
    """{a -> ab, b -> ba}: a graph map whose basis images generate a proper subgroup."""
    f = GraphMap(rose(("a", "b")), {"v0": "v0"}, {"a": ("a", "b"), "b": ("b", "a")})
    path = tmp_path / "ab_ba.json"
    path.write_text(json.dumps(map_to_json_dict(f)))
    return str(path)


def test_validate_reports_a_map_that_is_not_a_homotopy_equivalence(ab_ba, tmp_path):
    out = tmp_path / "report.json"
    assert main(["validate", ab_ba, "--out", str(out)]) == 2
    assert json.loads(out.read_text()) == {
        "input": "ab_ba.json",
        "kind": "map",
        "problems": ["basis images do not generate the full group"],
        "valid": False,
    }


@pytest.mark.parametrize(
    "argv",
    [["cover", "ab_ba"], ["minimize", "ab_ba"], ["compare", "ab_ba", "FIB"], ["compare", "FIB", "ab_ba"]],
    ids=["cover", "minimize", "compare-input", "compare-other"],
)
def test_a_map_that_is_not_a_homotopy_equivalence_exits_2(fixture_dir, ab_ba, tmp_path, capsys, argv):
    paths = {"ab_ba": ab_ba, "FIB": str(fixture_dir / "FIB.json")}
    out = tmp_path / "out.json"
    assert main([paths.get(a, a) for a in argv] + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


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


def test_cover_past_the_subgroup_cap_exits_3_before_any_work(
    fixture_dir, tmp_path, capsys, monkeypatch
):
    # F_2 has 2 829 325 subgroups of index 9; indices 2-8 are not walked first
    def unreachable(*args, **kwargs):
        raise AssertionError("enumerated before the cap was checked")

    monkeypatch.setattr(covers, "enumerate_subgroups", unreachable)
    out = tmp_path / "covers.json"
    code = main(
        ["cover", str(fixture_dir / "FIB.json"), "--index-max", "9", "--out", str(out)]
    )
    assert code == 3
    assert not out.exists()
    assert "resource bound" in capsys.readouterr().err


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


def test_compare_ignores_the_pf_root_of_a_map_that_is_not_a_train_track(fixture_dir, tmp_path):
    # FIB followed by conjugation by a: its PF root 3.303 only bounds the
    # growth from above, so it must not rule out H = F_2, k = 1, gamma = ~a
    conj = GraphMap(rose(("a", "b")), {"v0": "v0"}, {"a": ("a", "a", "b", "~a"), "b": ("a",)})
    (tmp_path / "conj.json").write_text(json.dumps(map_to_json_dict(conj)))
    maps = [str(tmp_path / "conj.json"), str(fixture_dir / "FIB.json")]
    out = tmp_path / "compare.json"
    assert main(["compare", *maps, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["covers"] is True
    assert report["witness"]["k"] == 1 and report["witness"]["inner_conjugator"] == ["~a"]
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(report["witness"]))
    replay_out = tmp_path / "replay.json"
    assert main(["compare", *maps, "--replay", str(cert), "--out", str(replay_out)]) == 0
    assert json.loads(replay_out.read_text())["replay"] is True


def test_minimize(fixture_dir, tmp_path):
    out = tmp_path / "min.json"
    assert main(["minimize", str(fixture_dir / "lift3.json"), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["candidate"]["rank"] == 2
    assert report["reductions"][0][0] == "descent"


# SHA-256 of each output below.  A change to src that alters any CLI output
# fails here, even when two runs of the changed code still agree.
DIGESTS = {
    "a1": "c1fe26da24ab095ed0f4103f6cc3f1b97b07b671c5c91e7a14b71d13081ea96a",
    "a2": "55ad84b23dd95ee7ca766da12014bdbdf559aaadac0de230310f50858e70f3d9",
    "a3": "9f33735c1395047b5b6dbcbe98987198a13a066108a133d41674ad58c21f4760",
    "c1": "2be76c0d5b51f4c1fe691523018d6b1f888ab63a1c0e8d6088fbd30f897102e2",
    "c2": "b52870158c0974599b7106d054d80f10f6a6937ff16a564998f237f252eb4c47",
    "r1": "ca05df1d6305c7079fcb74034f973ebc7780319018951550f2cc737c15b75369",
    "m1": "d680d149260bcbb6ca460517cf8060dff61125a5c76e96baac8b78b7cd297f94",
}


def test_determinism_byte_identical(fixture_dir, certificate, tmp_path):
    fib, lift3 = str(fixture_dir / "FIB.json"), str(fixture_dir / "lift3.json")
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(certificate))
    jobs = [
        (["analyze", fib], "a1"),
        (["analyze", str(fixture_dir / "PLAST.json"), "--k-max", "6"], "a2"),
        (["analyze", fib, "--format", "dot"], "a3"),
        (["cover", fib], "c1"),
        (["compare", lift3, fib, "--k-max", "3", "--p-max", "1"], "c2"),
        (["compare", lift3, fib, "--replay", str(cert)], "r1"),
        (["minimize", lift3], "m1"),
    ]
    for argv, tag in jobs:
        p1 = tmp_path / f"{tag}-run1.json"
        p2 = tmp_path / f"{tag}-run2.json"
        assert main(argv + ["--out", str(p1)]) == main(argv + ["--out", str(p2)])
        assert p1.read_bytes() == p2.read_bytes()
        assert hashlib.sha256(p1.read_bytes()).hexdigest() == DIGESTS[tag], tag


GUARD = """
import sys
import fibercomm.cli
fixtures, out, *modules = sys.argv[1:]
for module in modules:
    __import__("fibercomm." + module)
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
    """The guarded modules a CLI process has loaded after it imported every
    fibercomm module and every subcommand ran.  ``pkgutil`` lists the modules
    here: it imports ``inspect`` itself."""
    modules = [m.name for m in pkgutil.iter_modules(fibercomm.__path__)]
    src = os.path.dirname(os.path.dirname(os.path.abspath(fibercomm.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = tmp_path_factory.mktemp("guard") / "out-"
    run = subprocess.run(
        [sys.executable, "-c", GUARD, str(fixture_dir) + os.sep, str(out), *modules],
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


LOADED = """
import sys
from fibercomm.cli import main
code = main(sys.argv[1:])
print(code, " ".join(sorted(m for m in sys.modules if m.startswith("fibercomm."))))
"""


# command -> (modules it runs, modules it must not load)
LOADS = {
    "cover": (
        {"covers", "spectral"},
        {"commensurability", "searches", "whitehead", "descent"},
    ),
    "compare": (
        {"commensurability", "spectral"},
        {"searches", "whitehead", "descent"},
    ),
    "replay": (
        {"commensurability"},
        {"spectral", "searches", "whitehead", "descent"},
    ),
    "analyze": (
        {"searches", "whitehead", "spectral"},
        {"covers", "commensurability", "descent"},
    ),
    "minimize": ({"descent", "searches"}, set()),
}


@pytest.mark.parametrize("command", list(LOADS))
def test_a_command_loads_only_the_modules_it_runs(fixture_dir, certificate, tmp_path, command):
    """Every process compiles what it imports, so a command imports the
    modules it runs and no others."""
    runs, skips = LOADS[command]
    lift3, fib = str(fixture_dir / "lift3.json"), str(fixture_dir / "FIB.json")
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(certificate))
    argv = {
        "cover": ["cover", fib],
        "compare": ["compare", lift3, fib, "--k-max", "3", "--p-max", "1"],
        "replay": ["compare", lift3, fib, "--replay", str(cert)],
        "analyze": ["analyze", fib],
        "minimize": ["minimize", lift3],
    }[command]
    src = os.path.dirname(os.path.dirname(os.path.abspath(fibercomm.__file__)))
    run = subprocess.run(
        [sys.executable, "-c", LOADED, *argv, "--out", str(tmp_path / "out.json")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    )
    code, *names = run.stdout.split()
    loaded = {name.removeprefix("fibercomm.") for name in names}
    assert code == "0"
    assert runs <= loaded
    assert not skips & loaded


def test_cover_keeps_its_pf_roots_for_one_job(fixture_dir, tmp_path, monkeypatch):
    """One PF root per characteristic polynomial within a job, and none
    carried over to the next job in the same process."""
    from fibercomm import spectral

    found = []
    pf_root = spectral._pf_root

    def counted(cp):
        found.append(cp)
        return pf_root(cp)

    monkeypatch.setattr(spectral, "_pf_root", counted)
    argv = ["cover", str(fixture_dir / "FIB.json"), "--index-max", "4"]
    outputs = []
    for run in (1, 2):
        found.clear()
        out = tmp_path / f"run{run}.json"
        assert main(argv + ["--out", str(out)]) == 0
        outputs.append(out.read_bytes())
        entries = json.loads(out.read_text())["covers"]
        lifts = [c["lift_stretch"] for c in entries if c["lift_exists"]]
        assert sorted(found) == sorted({tuple(s["char_poly"]) for s in lifts})
        assert len(found) < len(lifts)
    assert outputs[0] == outputs[1]
