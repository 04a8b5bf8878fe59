#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the fibercomm CLI.

    python3 perfbench/run.py --workload analyze|covers \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Inputs are generated from the seed (see
``inputs.py``).  With ``--trace 0`` every job is a fresh
``python -m fibercomm.cli`` process with ``src`` on PYTHONPATH, run one at a
time; whole rounds of the workload's job list repeat while another round
still fits in S seconds.  With ``--trace 1`` the same jobs run in this
process through ``fibercomm.cli.main``, in pairs of one untraced round
and one round under the timing wrappers of ``tracing.py``.  Every output is
checked against the benchmark's own arithmetic (``checks.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit).  Inputs,
outputs and the trace file go to ``.perfbench/`` under the repository root.
"""

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time

from checks import (
    CheckFailed,
    check_analyze,
    check_compare_negative,
    check_compare_positive,
    check_cover,
    check_minimize,
    check_replay,
)
from inputs import FIB, PLAST, lift_file, pick_subgroup, positive_automorphism
from oracle import MapFile, hall_counts, letter_matrix, pf_bracket, power, rose_map

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
# A run must end within 180 s even if a job hangs.
HARD_LIMIT_S = 150

# Modules the CLI imports lazily; the set-up time imports them all.
LAZY_MODULES = ("spectral", "whitehead", "covers", "commensurability")


class Job:
    """One CLI call and the check of its output.

    ``prepare`` runs before the call, untimed (a replay writes its
    certificate file there).  A job with ``known_fault`` is expected to
    fail its check: it counts as failed without making the run incorrect.
    """

    def __init__(self, name, argv, check, known_fault=False, prepare=None, subgroups=0):
        self.name = name
        self.argv = argv
        self.check = check
        self.known_fault = known_fault
        self.prepare = prepare
        self.subgroups = subgroups  # subgroups a cover job enumerates (Hall)

    def out_path(self):
        return os.path.join(WORK, "out", f"{self.name}.json")


# --- workloads ------------------------------------------------------------


def _write(name, data):
    path = os.path.join(WORK, "inputs", f"{name}.json")
    with open(path, "w") as fh:
        json.dump(data, fh, sort_keys=True, indent=1)
    return path


def _maps(**files):
    """Write map files; return their paths and parsed marking data."""
    paths = {name: _write(name, data) for name, data in files.items()}
    return paths, {name: MapFile(data) for name, data in files.items()}


def analyze_jobs(rng):
    """analyze and minimize on train tracks: FIB, PLAST, seeded positive
    automorphisms of rank 2 and 3, and lifts of FIB^3 to index-2 and
    index-3 covers.  The count is odd and the middle jobs by size (the two
    rank-3 maps) cost about the same, so the median job sits inside them."""
    h2, h3 = pick_subgroup(rng, FIB, 2, 3), pick_subgroup(rng, FIB, 3, 3)
    paths, maps = _maps(
        FIB=rose_map(FIB),
        PLAST=rose_map(PLAST),
        A2=rose_map(positive_automorphism(rng, 2, 8, 2)),
        A3=rose_map(positive_automorphism(rng, 3, 9, 1, full_search=True)),
        A3b=rose_map(positive_automorphism(rng, 3, 9, 1, full_search=True)),
        L2=lift_file(FIB, h2, 3, relabel=False),
        L3=lift_file(FIB, h3, 3, relabel=False),
    )
    lam = pf_bracket(letter_matrix(FIB))

    def analyze(name, *bounds):
        f = maps[name]
        return Job(
            f"analyze-{name}",
            ["analyze", paths[name], "--k-max", "6", *bounds],
            lambda out, code: check_analyze(out, code, f),
        )

    def minimize(name, *bounds):
        return Job(
            f"minimize-{name}",
            ["minimize", paths[name], *bounds],
            lambda out, code: check_minimize(out, code, 2, lam, 3),
        )

    return [
        analyze("FIB"),
        analyze("PLAST", "--length-bound", "5"),
        analyze("A2", "--length-bound", "5"),
        analyze("A3", "--length-bound", "5"),
        analyze("A3b", "--length-bound", "5"),
        analyze("L2", "--length-bound", "5"),
        analyze("L3", "--length-bound", "4"),
        minimize("L2", "--length-bound", "5"),
        minimize("L3", "--index-max", "3", "--length-bound", "4"),
    ]


def covers_jobs(rng):
    """Finite covers: cover enumerates them and lifts the map; compare
    certifies a covering relation and compare --replay re-checks the
    certificate.

    cover runs up to index 4 on FIB and on a seeded positive rank-2
    automorphism, and up to index 3 on PLAST.  compare runs FIB^12 and
    PLAST^16 against their roots, lifts of FIB^3 to a seeded index-3 cover
    and of PLAST^7 to a seeded index-2 cover against their roots, each
    followed by a replay of its certificate, and the exact negative PLAST
    against FIB.  The middle jobs by size are the compare jobs of about
    one second."""
    cover_specs = [
        ("FIB", FIB, 4),
        ("B5", positive_automorphism(rng, 2, 5, 2), 4),
        ("PLAST", PLAST, 3),
    ]
    jobs = []
    for name, images, index_max in cover_specs:
        path = _write(f"cover-{name}", rose_map(images))
        lam = pf_bracket(letter_matrix(images))
        jobs.append(Job(
            f"cover-{name}",
            ["cover", path, "--index-max", str(index_max)],
            lambda out, code, i=images, m=index_max, b=lam: check_cover(out, code, i, m, 4, b),
            subgroups=sum(hall_counts(len(images), index_max)[1:]),
        ))

    paths, maps = _maps(
        FIB=rose_map(FIB),
        PLAST=rose_map(PLAST),
        FIB12=rose_map(power(FIB, 12)),
        PLAST16=rose_map(power(PLAST, 16)),
        PLAST21=rose_map(power(PLAST, 21)),
        LF3=lift_file(FIB, pick_subgroup(rng, FIB, 3, 3), 3, relabel=True),
        LP2=lift_file(PLAST, pick_subgroup(rng, PLAST, 2, 7), 7, relabel=True),
    )

    def covers(psi, phi, k, known_fault=False):
        compare = Job(
            f"compare-{psi}-{phi}",
            ["compare", paths[psi], paths[phi], "--k-max", str(k)],
            lambda out, code: check_compare_positive(out, code, maps[psi], maps[phi], k),
            known_fault=known_fault,
        )
        jobs.append(compare)
        if known_fault:
            return
        cert = os.path.join(WORK, "out", f"cert-{psi}-{phi}.json")

        def write_certificate():
            with open(compare.out_path()) as fh:
                witness = json.load(fh).get("witness")
            if witness is None:
                raise CheckFailed("no certificate to replay")
            with open(cert, "w") as fh:
                json.dump(witness, fh)

        jobs.append(Job(
            f"replay-{psi}-{phi}",
            ["compare", paths[psi], paths[phi], "--k-max", str(k), "--replay", cert],
            check_replay,
            prepare=write_certificate,
        ))

    covers("FIB12", "FIB", 12)
    covers("PLAST16", "PLAST", 16)
    covers("LF3", "FIB", 3)
    covers("LP2", "PLAST", 7)
    # log(plastic)/log(golden) is irrational
    jobs.append(Job("compare-PLAST-FIB", ["compare", paths["PLAST"], paths["FIB"]], check_compare_negative))
    # PLAST^21 covers PLAST with k = 21, but spectral.log_ratio is called
    # with denom_bound=20 and calls the ratio irrational: a known fault.
    covers("PLAST21", "PLAST", 21, known_fault=True)
    return jobs


WORKLOADS = {"analyze": analyze_jobs, "covers": covers_jobs}


# --- running jobs ---------------------------------------------------------


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.errors = []

    def record(self, job, out, code):
        """Check one job's output and count it."""
        self.attempted += 1
        try:
            if out is None:
                raise CheckFailed(f"no output (exit code {code})")
            job.check(out, code)
        except CheckFailed as exc:
            self.failed += 1
            if not job.known_fault:
                self.correct = False
                self.errors.append(f"{job.name}: {exc}")
        except (KeyError, TypeError, ValueError) as exc:
            self.failed += 1
            self.correct = False
            self.errors.append(f"{job.name}: malformed output: {exc!r}")


def _read_output(job):
    try:
        with open(job.out_path()) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None


def _prepare(job, tally):
    """Reset the job's output file and run its preparation; False if the
    preparation fails, which counts the job as failed."""
    if os.path.exists(job.out_path()):
        os.unlink(job.out_path())
    if job.prepare is None:
        return True
    try:
        job.prepare()
        return True
    except (CheckFailed, OSError, ValueError) as exc:
        tally.attempted += 1
        tally.failed += 1
        if not job.known_fault:
            tally.correct = False
            tally.errors.append(f"{job.name}: {exc}")
        return False


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(job, env, deadline):
    """One fresh CLI process; returns (wall seconds, exit code).

    The wait blocks in waitpid: ``subprocess.run(timeout=...)`` polls with
    sleeps of up to 50 ms, which would round every job time.  A timer kills
    a job still running at the deadline.
    """
    with open(os.path.join(WORK, "out", f"{job.name}.stderr"), "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "fibercomm.cli", *job.argv, "--out", job.out_path()],
            env=env, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        return wall, (None if code < 0 else code)


def setup_seconds(env):
    """Wall time of one fresh interpreter importing the CLI and every
    module it imports lazily.  An untimed import first writes bytecode."""
    modules = ", ".join(f"fibercomm.{m}" for m in ("cli",) + LAZY_MODULES)
    argv = [sys.executable, "-c", f"import {modules}"]
    subprocess.run(argv, env=env, cwd=ROOT, check=True)
    start = time.perf_counter()
    subprocess.run(argv, env=env, cwd=ROOT, check=True)
    return time.perf_counter() - start


def measure(jobs, seconds, deadline):
    env = _env()
    setup = setup_seconds(env)
    tally, rounds, by_job = Tally(), [], {}
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started + statistics.mean(rounds) <= seconds:
        round_start = time.perf_counter()
        for job in jobs:
            if not _prepare(job, tally):
                continue
            wall, code = run_cli(job, env, deadline)
            by_job.setdefault(job.name, []).append(wall)
            tally.record(job, _read_output(job), code)
        rounds.append(time.perf_counter() - round_start)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    times = [t for walls in by_job.values() for t in walls]
    # The median job of the list, each job taken at its mean over the
    # rounds: a median pooled over all job times jumps between a fast and
    # a slow machine phase when a run holds both.
    job_means = [statistics.mean(walls) for walls in by_job.values()]
    metrics = {
        "jobs_per_s": (len(times) / sum(times), "1/s"),
        "job_p50_s": (statistics.median(job_means), "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    return tally, metrics, {"rounds": len(rounds), "job_times_s": by_job}


# --- traced run -------------------------------------------------------------


def run_in_process(jobs, tally, main, clear_cache, tracer=None):
    """One round through ``main``; returns the seconds spent inside it.

    Under a tracer, each cover job must enumerate exactly Hall's number of
    subgroups (``Job.subgroups``)."""
    busy = 0.0
    for job in jobs:
        if not _prepare(job, tally):
            continue
        clear_cache()  # each CLI process starts with an empty sympy cache
        before = tracer.counts["covers.subgroups"] if tracer else 0
        start = time.perf_counter()
        try:
            code = main([*job.argv, "--out", job.out_path()])
        except Exception as exc:  # a crash is a failed job, not a failed benchmark
            print(f"{job.name}: {exc!r}", file=sys.stderr)
            code = None
        busy += time.perf_counter() - start
        tally.record(job, _read_output(job), code)
        if tracer and job.subgroups:
            counted = tracer.counts["covers.subgroups"] - before
            if counted != job.subgroups:
                tally.correct = False
                tally.errors.append(f"{job.name}: covers.subgroups {counted} != Hall {job.subgroups}")
    return busy


PER_LAYER_BUSY = (
    "covers.fold_subgroup_graph",
    "covers.enumerate_subgroups",
    "covers.image_subgroup",
    "covers.lift_map",
    "covers.check_automorphism",
    "maps.find_nielsen_paths",
    "maps.is_atoroidal",
    "maps.induced_outer_automorphism",
    "spectral.pf_data",
    "spectral.log_ratio",
    "whitehead.geometric_index",
    "whitehead.rotationless_power",
    "commensurability.covers_relation",
    "commensurability.replay_witness",
    "commensurability.minimal_element_search",
)
PER_LAYER_CALLS = (
    "covers.fold_subgroup_graph",
    "covers.image_subgroup",
    "maps.apply_map",
    "spectral.pf_data",
    "commensurability.covers_relation",
    "words.apply_images",
    "words.free_reduce",
)


def _layer_metrics(tracer, untraced, traced):
    metrics = {f"{m}.self_s": (t, "s") for m, t in tracer.self_time.items()}
    busy, calls = tracer.busy, tracer.calls
    for name in PER_LAYER_BUSY:
        metrics[f"{name}.busy_s"] = (busy.get(name, 0.0), "s")
    for name in PER_LAYER_CALLS:
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name, value in tracer.counts.items():
        metrics[name] = (value, "count")
    metrics["trace.untraced_s"] = (untraced, "s")
    metrics["trace.traced_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    return metrics


def measure_traced(jobs, seconds):
    """Pairs of rounds in this process, one untraced and one traced, while
    another pair fits in ``seconds``; each metric is the median over pairs."""
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import fibercomm.cli
    for module in LAZY_MODULES:
        __import__(f"fibercomm.{module}")
    import_s = time.perf_counter() - start
    from sympy.core.cache import clear_cache

    from tracing import Tracer

    # The first call of each subcommand in a process pays sympy's own lazy
    # imports; run those once, unrecorded, so neither round of a pair does.
    warm = {}
    for job in jobs:
        if job.prepare is None:
            warm.setdefault(job.argv[0], job)
    run_in_process(list(warm.values()), Tally(), fibercomm.cli.main, clear_cache)

    tally, pairs, per_pair = Tally(), [], []
    started = time.perf_counter()
    while not pairs or time.perf_counter() - started + statistics.mean(pairs) <= seconds:
        pair_start = time.perf_counter()
        untraced = run_in_process(jobs, tally, fibercomm.cli.main, clear_cache)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_in_process(jobs, tally, fibercomm.cli.main, clear_cache, tracer)
        finally:
            tracer.uninstall()
        per_pair.append(_layer_metrics(tracer, untraced, traced))
        pairs.append(time.perf_counter() - pair_start)

    # counts repeat exactly from pair to pair; times take the median
    metrics = {
        name: ((statistics.median if unit == "s" else statistics.median_low)(
            p[name][0] for p in per_pair), unit)
        for name, (_, unit) in per_pair[0].items()
    }
    metrics["cli.import_s"] = (import_s, "s")
    detail = {"pairs": len(pairs), "functions": tracer.table(), "self_s": tracer.self_time}
    return tally, metrics, detail


# --- entry point --------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + HARD_LIMIT_S

    if not os.path.isfile(os.path.join(SRC, "fibercomm", "cli.py")):
        print(f"error: no fibercomm sources under {SRC}", file=sys.stderr)
        return 2
    for sub in ("inputs", "out"):
        os.makedirs(os.path.join(WORK, sub), exist_ok=True)

    jobs = WORKLOADS[args.workload](random.Random(args.seed))
    if args.trace:
        tally, metrics, detail = measure_traced(jobs, args.seconds)
    else:
        tally, metrics, detail = measure(jobs, args.seconds, deadline)

    kind = "trace" if args.trace else "result"
    with open(os.path.join(WORK, f"{kind}-{args.workload}.json"), "w") as fh:
        json.dump({"seed": args.seed, "errors": tally.errors, **detail}, fh, indent=1)
    for line in tally.errors:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
