"""Benchmark of fgl, end to end and per layer, driven through its public functions.

Run from the repository root:

    python3 perfbench/run.py --workload suite --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all               # every workload in turn

A run repeats passes until ``--seconds`` is used up. A pass runs the
workload's job list, in an order drawn from ``--seed``, through
``fgl.cli.run_suite`` on a fresh, empty cache, and checks every output
digest against the workload's expected digests. Then a few fresh processes
(probes) each load the workload and replay the list from the filled cache,
as a developer's next ``fgl suite`` would. One thread per process, and one
process at a time.

``--trace 0`` reports the end-to-end metrics (medians over the passes unless
said otherwise):

    pass_s         wall time of one cold pass
    slowest_job_s  the slowest single job of a pass
    warm_s         one replay from the filled cache, baseline check included;
                   the fastest replay of all the probes
    setup_s        process start to first job ready (interpreter, import fgl,
                   job list and expected digests), median over the probes
    peak_rss_mb    peak resident memory of this process

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``layers.py`` (lower medians over the traced passes), plus
``cli.cache_hits``, ``tate.euler_class_per_job`` and
``trace.overhead_frac`` (traced over untraced pass time, minus 1).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every output was correct.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

from layers import LayerTrace, rebind

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Job list, expected digests (the format of suite/baseline.json), and the
# per-layer call counters that must be nonzero on a traced pass.
_ALWAYS = ["laws.build_calls", "laws.n_series_calls", "series.mul_calls",
           "series.subst_calls", "coeffring.mul_calls", "weierstrass.prepare_calls",
           "weierstrass.divide_calls", "grouprings.ambient_calls",
           "grouprings.level_calls", "grouprings.reduce_calls",
           "cli.run_job_calls", "cli.run_suite_calls", "cli.cache_hits"]
_TATE = ["tate.euler_class_calls", "tate.localization_calls", "tate.level_map_calls",
         "tate.factor_check_calls", "linalg.rank_calls", "linalg.nullspace_calls",
         "linalg.mat_mul_calls", "linalg.rref_calls"]
WORKLOADS = {
    "suite": {
        "config": "suite/default.json",
        "expected": "suite/baseline.json",
        "must_call": _ALWAYS + _TATE + [
            "laws.check_axioms_calls", "coeffring.invert_calls", "grouprings.invert_calls",
            "deltaring.check_axioms_calls", "deltaring.psi_calls",
            "deltaring.sheaf_eval_calls"],
    },
    "tate_exact": {
        "config": "perfbench/workloads/tate_exact.json",
        "expected": "perfbench/workloads/tate_exact.baseline.json",
        "must_call": _ALWAYS + _TATE,
    },
    "height2_modular": {
        "config": "perfbench/workloads/height2_modular.json",
        "expected": "perfbench/workloads/height2_modular.baseline.json",
        "must_call": _ALWAYS + ["laws.check_axioms_calls", "coeffring.invert_calls",
                                "grouprings.invert_calls"],
    },
}

# Probes follow every untraced pass, so that setup_s and warm_s sample the
# whole run and not one moment of a machine whose speed drifts. A probe is a
# fresh process, as a developer's next ``fgl suite`` is, so its replays do not
# inherit the heap left by the cold passes.
PROBES = 3
# A replay takes a few milliseconds, so each one runs either on a quiet or on
# a contended core of a shared machine, up to twice as slow. The contended
# share changes from run to run and moves the median of replays between the
# two; contention only ever adds time, so warm_s is the fastest replay.
PROBE_REPLAY_SECONDS = 0.1


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- set-up ------------------------------------------------------------------------


class Workload:
    """The fgl modules, the job list and the expected digests of one workload."""

    def __init__(self, name: str):
        spec = WORKLOADS[name]
        src = os.path.join(ROOT, "src")
        if not os.path.isdir(os.path.join(src, "fgl")):
            raise BenchError(f"no fgl sources under {src}")
        sys.path.insert(0, src)
        import fgl.cli
        if not os.path.abspath(fgl.__file__).startswith(src + os.sep):
            raise BenchError(f"imported fgl from {fgl.__file__}, not from {src}")
        self.name = name
        self.cli = fgl.cli
        self.expected_path = os.path.join(ROOT, spec["expected"])
        with open(os.path.join(ROOT, spec["config"]), encoding="utf-8") as fh:
            self.jobs = json.load(fh)
        with open(self.expected_path, encoding="utf-8") as fh:
            self.expected = json.load(fh)
        if len(self.jobs) != len(self.expected):
            raise BenchError(f"{name}: {len(self.jobs)} jobs but "
                             f"{len(self.expected)} expected digests")
        self.must_call = spec["must_call"]


def probe(name: str, replay: list[str]) -> tuple[float, dict]:
    """Start a fresh harness process; time it to its first job being ready.

    With ``replay`` = [config, cache] it then replays that job list from the
    filled cache and reports its fastest replay and how many failed.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--workload", name, "--probe", *replay],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        report = proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise BenchError(f"probe failed (exit {code})")
    return setup_s, json.loads(report) if replay else {}


def run_probe(name: str, replay: list[str]) -> None:
    """The probe process: load the workload, say so, replay if asked."""
    wl = Workload(name)
    print("ready", flush=True)
    if not replay:
        return
    rec = Recorder(wl.cli)
    fastest, replays, failed = None, 0, 0
    end = time.perf_counter() + PROBE_REPLAY_SECONDS
    while time.perf_counter() < end:
        start = time.perf_counter()
        ok = _run_suite(wl, *replay)
        elapsed = time.perf_counter() - start
        fastest = elapsed if fastest is None else min(fastest, elapsed)
        replays += 1
        failed += not ok or bool(rec.runs)  # a recomputed job is a cache miss
        rec.runs.clear()
    print(json.dumps({"fastest": fastest, "replays": replays, "failed": failed}))


# -- passes ------------------------------------------------------------------------


class Recorder:
    """Wraps fgl.cli.run_job to keep each job's wall time, digest and verdict."""

    def __init__(self, cli):
        original = cli.run_job
        self.runs: list[tuple[float, str, bool]] = []

        def run_job(job):
            start = time.perf_counter()
            record = original(job)
            self.runs.append((time.perf_counter() - start, record["digest"],
                              cli.record_passed(record)))
            return record

        rebind(original, run_job)


def _run_suite(wl: Workload, config: str, cache: str) -> bool:
    """One run_suite call; True when it returned 0 and matched the expected digests."""
    try:
        return wl.cli.run_suite(config, baseline_path=wl.expected_path,
                                cache=cache, out=io.StringIO()) == 0
    except Exception as exc:  # a failing job or digest is a result, not a crash
        print(f"{wl.name}: run_suite raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return False


def cold_pass(wl: Workload, rec: Recorder, rng: random.Random, tmp: str,
              trace=None) -> dict:
    jobs = list(wl.jobs)
    rng.shuffle(jobs)
    workdir = tempfile.mkdtemp(dir=tmp)
    try:
        config = os.path.join(workdir, "jobs.json")
        cache = os.path.join(workdir, "cache")  # run_suite creates it on first store
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(jobs, fh)
        rec.runs.clear()
        gc.collect()
        if trace is not None:
            trace.install()
        try:
            start = time.perf_counter()
            ok = _run_suite(wl, config, cache)
            pass_s = time.perf_counter() - start
            runs = list(rec.runs)
            if trace is not None:
                ok = _run_suite(wl, config, cache) and ok  # one warm replay, traced
        finally:
            if trace is not None:
                trace.uninstall()

        remaining = Counter(wl.expected)
        good = 0
        for _, digest, passed in runs:
            if passed and remaining[digest] > 0:
                remaining[digest] -= 1
                good += 1
        failed = len(jobs) - good
        if not ok:
            failed = max(failed, 1)
        out = {"pass_s": pass_s, "attempted": len(jobs), "failed": failed,
               "slowest_job_s": max((t for t, _, _ in runs), default=pass_s),
               "digests": sorted(d for _, d, _ in runs), "setup": [], "warm": []}
        if trace is not None:
            out["layers"] = trace.metrics()
            return out

        # a failed pass may have left jobs out of the cache: nothing to replay
        replay = [] if failed else [config, cache]
        for _ in range(PROBES):
            setup_s, report = probe(wl.name, replay)
            out["setup"].append(setup_s)
            if report:
                out["warm"].append(report["fastest"])
                out["attempted"] += report["replays"] * len(jobs)
                out["failed"] += report["failed"] * len(jobs)
        return out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_passes(wl: Workload, seed: int, seconds: float, traced: bool) -> list[dict]:
    """Passes until the next one would overrun ``seconds``; in trace mode they
    alternate untraced and traced, starting untraced, at least one of each."""
    rec = Recorder(wl.cli)
    trace = LayerTrace() if traced else None
    rng = random.Random(seed)
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    passes: list[dict] = []
    try:
        start = time.perf_counter()
        while True:
            use_trace = traced and len(passes) % 2 == 1
            t0 = time.perf_counter()
            p = cold_pass(wl, rec, rng, tmp, trace if use_trace else None)
            p["traced"] = use_trace
            p["wall_s"] = time.perf_counter() - t0
            passes.append(p)
            elapsed = time.perf_counter() - start
            typical = statistics.median(q["wall_s"] for q in passes)
            if traced and len(passes) < 2:
                continue
            if elapsed + typical > seconds:
                return passes
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# -- metrics -----------------------------------------------------------------------


def end_to_end(passes: list[dict]) -> dict:
    warm = [w for p in passes for w in p["warm"]]
    return {
        "pass_s": (statistics.median(p["pass_s"] for p in passes), "s"),
        "slowest_job_s": (statistics.median(p["slowest_job_s"] for p in passes), "s"),
        # no replays only after failed passes, whose result is not correct anyway
        "warm_s": (min(warm, default=0.0), "s"),
        "setup_s": (statistics.median(t for p in passes for t in p["setup"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(wl: Workload, passes: list[dict]) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    names = traced[0]["layers"]
    layer = {k: statistics.median_low(p["layers"][k] for p in traced) for k in names}
    n_tate = sum(1 for job in wl.jobs if job["command"] == "tate")
    out = {}
    for name, value in layer.items():
        if name == "cli.run_suite_s":
            out["cli.suite_overhead_s"] = (value, "s")  # run_suite self time
        else:
            out[name] = (value, "s" if name.endswith("_s") else "count")
    # each traced pass is one cold and one warm run_suite call
    out["cli.cache_hits"] = (layer["cli.run_suite_calls"] * len(wl.jobs)
                             - layer["cli.run_job_calls"], "count")
    out["tate.euler_class_per_job"] = (
        layer["tate.euler_class_calls"] / n_tate if n_tate else 0.0, "calls/job")
    out["trace.overhead_frac"] = (
        statistics.median(p["pass_s"] for p in traced)
        / statistics.median(p["pass_s"] for p in plain) - 1, "ratio")
    return out


def git_commit(root: str) -> str | None:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


# -- entry points ------------------------------------------------------------------


def bench(args) -> int:
    wl = Workload(args.workload)
    passes = run_passes(wl, args.seed, args.seconds, bool(args.trace))

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    first = passes[0]["digests"]
    for p in passes[1:]:
        if p["digests"] != first:  # order-independent, and traced == untraced
            print(f"{wl.name}: digests of a {'traced' if p['traced'] else 'later'} "
                  "pass differ from the first pass", file=sys.stderr)
            failed = max(failed, 1)

    if args.trace:
        metrics = per_layer(wl, passes)
        zero = [k for k in wl.must_call if metrics[k][0] == 0]
        if zero:
            raise BenchError(f"{wl.name}: zero calls recorded for {', '.join(zero)}; "
                             "an entry point was not wrapped")
    else:
        metrics = end_to_end(passes)

    env = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
           "passes": len(passes), "jobs_per_pass": len(wl.jobs),
           "pass_s": [p["pass_s"] for p in passes],
           "probes": sum(len(p["setup"]) for p in passes),
           "nproc": os.cpu_count(), "python": platform.python_version(),
           "platform": platform.platform(), "commit": git_commit(ROOT),
           "trace.overhead_frac": metrics.get("trace.overhead_frac", (None,))[0]}
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value!r:>24} {unit}")
    print(f"{'failed_frac':28s} {failed / attempted!r:>24} ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def bench_all(args) -> int:
    worst = 0
    for name in WORKLOADS:
        code = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT).returncode
        worst = max(worst, code)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", nargs="*", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # exit through the finally blocks that remove the temporary cache
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.probe is not None:
            run_probe(args.workload, args.probe)
            return 0
        if args.workload == "all":
            return bench_all(args)
        return bench(args)
    except (BenchError, LookupError, OSError, ImportError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
