"""Batch front-end: validate, analyze, cover, compare, minimize.

JSON in, JSON/DOT out; all numeric output is exact (integer polynomials and
rational endpoints).  Identical inputs and bounds produce byte-identical
output.  Exit codes: 0 success, 1 negative compare verdict, 2 input error,
3 resource bound exceeded.
"""

import argparse
import json
import os
import sys

from .errors import (
    FibercommError,
    NotAnAutomorphism,
    NotHomotopyEquivalence,
    NotRotationless,
    ResourceBound,
)
from .graph import graph_from_json_dict, rank, validate_graph
from .maps import (
    induced_outer_automorphism,
    is_atoroidal,
    is_train_track,
    map_from_json_dict,
    map_power,
    transition_matrix,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3

# Search bounds and their defaults; each subcommand takes the ones it reads.
BOUNDS = {"k-max": 4, "p-max": 2, "index-max": 2, "length-bound": 6, "period-bound": 2}


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _InputError(f"cannot read {path}: {exc}")


class _InputError(Exception):
    pass


def _load_map(path):
    d = _load_json(path)
    if not isinstance(d, dict) or "graph" not in d or "edge_map" not in d:
        raise _InputError(f"{path}: expected a graph self-map object")
    try:
        f = map_from_json_dict(d)
    except (FibercommError, KeyError, ValueError) as exc:
        raise _InputError(f"{path}: {exc}")
    graph_problems = validate_graph(f.domain)
    map_problems = f.validate()
    if graph_problems or map_problems:
        raise _InputError(
            f"{path}: invalid input: {'; '.join(graph_problems + map_problems)}"
        )
    return f


def _word(value, what):
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise _InputError(f"{what} is not a word (a list of letters)")
    return tuple(value)


def _load_certificate(path):
    """The covering witness a ``compare`` wrote, checked for shape only."""
    from .commensurability import CoveringWitness
    from .covers import subgroup_from_json_dict

    d = _load_json(path)
    if not isinstance(d, dict):
        raise _InputError(f"{path}: expected a certificate object")
    missing = [key for key in ("H", "k", "inner_conjugator", "identification") if key not in d]
    if missing:
        raise _InputError(f"{path}: certificate lacks {', '.join(missing)}")
    k, identification = d["k"], d["identification"]
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise _InputError(f"{path}: k must be a positive integer")
    if not isinstance(identification, dict):
        raise _InputError(f"{path}: identification must map symbols to words")
    try:
        H = subgroup_from_json_dict(d["H"])
    except (KeyError, TypeError, ValueError) as exc:
        raise _InputError(f"{path}: H is not a subgroup graph: {exc!r}")
    if any(x not in H.symbols for _, x in H.trans):
        raise _InputError(f"{path}: H has an edge label outside its symbols")
    return CoveringWitness(
        H,
        k,
        _word(d["inner_conjugator"], f"{path}: inner_conjugator"),
        {s: _word(w, f"{path}: identification of {s}") for s, w in identification.items()},
    )


def _emit(text, out_path):
    """Write ``text`` to stdout or to ``out_path``.

    A regular file is replaced whole: a temporary file beside it, created
    exclusively under a name holding the process id (so two runs never
    share one) with mode 0o666 less the umask, is renamed over it.  Any
    other file there, a device or a pipe such as /dev/null or /dev/stdout,
    is written through and never replaced.  A symbolic link to a regular
    file is kept, and its target is replaced.  A path that cannot be
    written is an input error.
    """
    if not text.endswith("\n"):
        text += "\n"
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        if os.path.exists(out_path) and not os.path.isfile(out_path):
            with open(out_path, "w") as fh:
                fh.write(text)
            return
        # resolved only here: /dev/stdout links to "pipe:[N]", which is no path
        target = os.path.realpath(out_path)
        directory = os.path.dirname(target)
        tmp = os.path.join(directory, f".fibercomm-{os.getpid()}-{os.urandom(4).hex()}")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise _InputError(f"cannot write {out_path}: {exc.strerror or exc}") from None


def _dump(obj):
    return json.dumps(obj, sort_keys=True, indent=2)


def _stretch_dict(f, roots=None):
    from .spectral import pf_data

    sf, irreducible = pf_data(transition_matrix(f), roots)
    lo, hi = sf.enclosure
    return {
        "char_poly": list(sf.char_poly),
        "min_poly": list(sf.min_poly),
        "enclosure": [str(lo), str(hi)],
        "expanding": sf.expanding,
        "irreducible": irreducible,
    }


# --- subcommands ---------------------------------------------------------


def _cmd_validate(args):
    d = _load_json(args.input)
    report = {"input": os.path.basename(args.input), "problems": []}
    try:
        if isinstance(d, dict) and "graph" in d:
            f = map_from_json_dict(d)
            report["kind"] = "map"
            report["problems"] = validate_graph(f.domain) + f.validate()
            if not report["problems"]:
                try:
                    induced_outer_automorphism(f)
                except NotHomotopyEquivalence as exc:
                    report["problems"] = [str(exc)]
        else:
            g = graph_from_json_dict(d)
            report["kind"] = "graph"
            report["problems"] = validate_graph(g)
    except (FibercommError, KeyError, ValueError) as exc:
        report["kind"] = "unreadable"
        report["problems"] = [str(exc)]
    report["valid"] = not report["problems"]
    _emit(_dump(report), args.out)
    return EXIT_OK if report["valid"] else EXIT_INPUT


def _cmd_analyze(args):
    from .whitehead import geometric_index, rotationless_power, stable_whitehead_graphs

    f = _load_map(args.input)
    k = rotationless_power(f, args.k_max)
    if args.format == "dot":
        if k is None:
            raise ResourceBound(f"no rotationless power <= --k-max {args.k_max}")
        graphs = stable_whitehead_graphs(map_power(f, k))
        _emit("\n".join(w.to_dot(f"whitehead_{i}") for i, w in enumerate(graphs)), args.out)
        return EXIT_OK
    report = {"input": os.path.basename(args.input), "rank": rank(f.domain)}
    report["stretch"] = _stretch_dict(f)
    verdict = is_train_track(f)
    report["train_track"] = {
        "is_train_track": verdict.is_train_track,
        "irreducible": verdict.irreducible,
    }
    report["rotationless_power"] = k
    if k is not None:
        fr = map_power(f, k)
        idx = geometric_index(fr, (args.period_bound, args.length_bound))
        report["index_report"] = {
            "fixed_direction_counts": list(idx.fixed_direction_counts),
            "index": idx.index,
            "rank": idx.rank,
            "ageometric": idx.ageometric,
            "nielsen_free_within_bounds": idx.nielsen_free_within_bounds,
        }
        report["whitehead_graphs"] = [
            {
                "vertex": w.vertex,
                "nodes": list(w.nodes),
                "edges": sorted(sorted(e) for e in w.edges),
            }
            for w in stable_whitehead_graphs(fr)
        ]
    tor = is_atoroidal(f, args.p_max, args.length_bound)
    report["toroidality"] = {
        "toroidal": tor.toroidal,
        "witness_word": list(tor.witness_word) if tor.toroidal else None,
        "witness_power": tor.witness_power,
    }
    _emit(_dump(report), args.out)
    return EXIT_OK


def _cmd_cover(args):
    from .covers import (
        build_cover,
        check_subgroup_cap,
        enumerate_subgroups,
        invariant_powers,
        lift_map,
        subgroup_to_json_dict,
    )

    f = _load_map(args.input)
    images = induced_outer_automorphism(f)
    r = len(images)
    # the count grows with the index, so the largest index decides the cap
    check_subgroup_cap(r, args.index_max)
    roots = {}  # char poly -> PF root, for this job's lifts
    entries = []
    for m in range(2, args.index_max + 1):
        subgroups = enumerate_subgroups(r, m, symbols=sorted(images))
        for H, k in zip(subgroups, invariant_powers(images, subgroups, args.k_max)):
            entry = {
                "index": m,
                "subgroup": subgroup_to_json_dict(H),
                "cover_rank": m * (r - 1) + 1,  # Schreier's index formula
                "invariant_power": k,
                "lift_exists": False,
            }
            if k is not None:
                lifted = lift_map(f, build_cover(f.domain, H), k)
                if lifted is not None:
                    entry["lift_exists"] = True
                    entry["lift_stretch"] = _stretch_dict(lifted, roots)
            entries.append(entry)
    _emit(_dump({"input": os.path.basename(args.input), "covers": entries}), args.out)
    return EXIT_OK


def _cmd_compare(args):
    from .commensurability import from_graph_map, greater_than, replay_witness

    psi = from_graph_map(_load_map(args.input))
    phi = from_graph_map(_load_map(args.other))
    if args.replay:
        ok = replay_witness(_load_certificate(args.replay), psi, phi)
        _emit(_dump({"replay": ok}), args.out)
        return EXIT_OK if ok else EXIT_NEGATIVE
    result = greater_than(psi, phi, args.k_max, args.p_max)
    if result is None:
        _emit(_dump({"covers": False, "within_bounds": False}), args.out)
        return EXIT_NEGATIVE
    p, w = result
    _emit(
        _dump({"covers": True, "power": p, "witness": w.to_json_dict()}), args.out
    )
    return EXIT_OK


def _cmd_minimize(args):
    from .commensurability import from_graph_map, minimal_element_search

    f = _load_map(args.input)
    phi = from_graph_map(f)
    report = minimal_element_search(
        phi,
        index_max=args.index_max,
        nielsen_bounds=(args.period_bound, args.length_bound),
    )
    out = {
        "input": os.path.basename(args.input),
        "hypotheses": report["hypotheses"],
        "reductions": [[kind, info] for kind, info in report["reductions"]],
        "candidate": {
            "rank": report["candidate"].rank,
            "images": {s: list(w) for s, w in sorted(report["candidate"].images.items())},
        },
    }
    _emit(_dump(out), args.out)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fibercomm",
        description="Train tracks, covers, and covering-relation certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_options(p, *bounds):
        for name in bounds:
            p.add_argument(f"--{name}", type=int, default=BOUNDS[name])
        p.add_argument("--out", default=None)

    p = sub.add_parser("validate", help="validate a graph or map file")
    p.add_argument("input")
    add_options(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("analyze", help="stretch factor, train track, index, toroidality")
    p.add_argument("input")
    add_options(p, "k-max", "p-max", "length-bound", "period-bound")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("cover", help="enumerate covers and lifts")
    p.add_argument("input")
    add_options(p, "k-max", "index-max")
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("compare", help="covering relation with certificate")
    p.add_argument("input")
    p.add_argument("other")
    p.add_argument("--replay", default=None, help="certificate file to re-verify")
    add_options(p, "k-max", "p-max")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("minimize", help="bounded minimal-element search")
    p.add_argument("input")
    add_options(p, "index-max", "length-bound", "period-bound")
    p.set_defaults(func=_cmd_minimize)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    for name in BOUNDS:
        if getattr(args, name.replace("-", "_"), 1) <= 0:
            print(f"error: --{name} must be positive", file=sys.stderr)
            return EXIT_INPUT
    try:
        return args.func(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceBound as exc:
        print(f"resource bound: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except NotRotationless:
        print("error: map is not rotationless at these bounds", file=sys.stderr)
        return EXIT_INPUT
    except (NotHomotopyEquivalence, NotAnAutomorphism):
        print("error: map does not induce an automorphism of the free group", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
