#!/usr/bin/env python3
"""Host-performance benchmark of the LADDER simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload quick-mix1 --seed 1 --seconds 30 --trace 0

Builds perfbench/ (the harness plus ../src) on first use, then runs the
workload as fresh single-threaded processes of the harness until
--seconds have elapsed, checks every run's simulated result, and prints
one JSON object as its last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (medians over the processes);
--trace 1 runs one untraced process for reference and then traced
processes, and reports the per-layer metrics. Other modes:

    --self-test          prove that the result check catches a perturbed
                         run, an empty measurement, a crash and a timeout
    --steadiness N       two interleaved sets of N runs per workload
                         (seeds 1..N each), medians, quartiles and an
                         agree/disagree verdict against BENCHMARK.json
    --record-references  rerun the reference seeds and rewrite
                         perfbench/references.json

See perfbench/README.md for the workloads and the layer map.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCES = os.path.join(HERE, "references.json")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SCHEME = "scheme=LADDER-Hybrid"
WORKLOADS = {
    "quick-mix1": ["config=examples/configs/ci-quick.json",
                   "workload=mix-1"],
    "long-mix1": ["workload=mix-1", "measure=1600000"],
    "write-kvlog": ["workload=kv-log", "measure=2000000"],
}
REFERENCE_SEEDS = (1, 97)  # default seed, held-out seed

MIN_RUNS = 3           # untraced processes per invocation, at least
PROCESS_TIMEOUT_S = 150
INVOCATION_BUDGET_S = 170  # every invocation ends within 180 s

# SimResult fields covered by the correctness digest.
DIGEST_FIELDS = ("core_ipc", "avg_read_latency_ns", "avg_write_service_ns",
                 "data_reads", "metadata_reads", "smb_reads", "data_writes",
                 "metadata_writes", "read_energy_pj", "write_energy_pj")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"), "perfbench")


def build():
    """Configure once, then bring the harness up to date; returns it."""
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "system.hh")):
        raise SystemExit("perfbench: simulator sources (src/) not found "
                         "next to perfbench/")
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "-j", "4"], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(bdir, "ladder_perfbench")


def child_env():
    env = dict(os.environ)
    # Knobs that would change the measured work or its output.
    for key in ("LADDER_BENCH_SCALE", "LADDER_LOG"):
        env.pop(key, None)
    # A fixed manifest string; also spares every run a `git` process.
    env["LADDER_GIT_DESCRIBE"] = "perfbench"
    return env


def sim_args(workload, seed, extra=()):
    return [SCHEME, *WORKLOADS[workload],
            "seed=%d" % (seed % (1 << 64)), *extra]


def digest(fields):
    canon = json.dumps({k: fields[k] for k in DIGEST_FIELDS},
                       sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def run_process(exe, workload, seed, mode="run", extra=(), timeout=None,
                spans=None):
    """One harness process. Returns its fields plus host timings, or
    {"error": ...} when it crashed, timed out or printed no result."""
    os.makedirs(OUT_DIR, exist_ok=True)
    stats_dir = os.path.join(OUT_DIR, "stats-%d" % os.getpid())
    cmd = [exe, "--mode=" + mode, "--stats-dir=" + stats_dir]
    if spans:
        cmd.append("--spans=" + spans)
    cmd += sim_args(workload, seed, extra)
    t0 = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=timeout or PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": "timeout"}
    finally:
        shutil.rmtree(stats_dir, ignore_errors=True)
    t1 = time.monotonic_ns()
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"error": "exit %d: %s" % (proc.returncode, tail[0])}
    try:
        fields = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": "no result line"}
    fields["setup_s"] = (fields["setup_done_ns"] - t0) * 1e-9
    fields["wall_s"] = (t1 - t0) * 1e-9
    fields["digest"] = digest(fields)
    return fields


def load_references():
    try:
        with open(REFERENCES) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def failure(run, expected):
    """Why @p run failed the result check, or None. @p expected is the
    reference digest (or the invocation's first digest)."""
    if "error" in run:
        return run["error"]
    if run["data_reads"] == 0 or run["data_writes"] == 0:
        return "empty measurement (%d data reads, %d data writes)" % (
            run["data_reads"], run["data_writes"])
    if expected is not None and run["digest"] != expected:
        return "digest %s != expected %s" % (run["digest"], expected)
    return None


class Checker:
    """Result check of one invocation: the stored reference digest for
    (workload, seed) when there is one, else agreement with the
    invocation's first completed run."""

    def __init__(self, workload, seed):
        self.expected = load_references().get(workload, {}).get(str(seed))
        self.attempted = 0
        self.failed = 0

    def check(self, run):
        self.attempted += 1
        if self.expected is None and "digest" in run:
            self.expected = run["digest"]
        why = failure(run, self.expected)
        if why:
            self.failed += 1
            log("perfbench: run failed: %s" % why)
        return why is None


def median(values):
    return statistics.median(values) if values else 0.0


def measure_untraced(exe, workload, seed, seconds):
    """End-to-end metrics: medians over untraced processes."""
    checker = Checker(workload, seed)
    start = time.monotonic()
    runs = []
    while True:
        elapsed = time.monotonic() - start
        if len(runs) >= MIN_RUNS and elapsed >= seconds:
            break
        remaining = INVOCATION_BUDGET_S - elapsed
        if runs and remaining < 2 * max(r.get("wall_s", 0) for r in runs):
            break
        run = run_process(exe, workload, seed,
                          timeout=min(PROCESS_TIMEOUT_S, remaining))
        checker.check(run)
        runs.append(run)
    timed = [r for r in runs if "error" not in r]
    metrics = {
        "setup_s": (median([r["setup_s"] for r in timed]), "s"),
        "run_s": (median([r["run_s"] for r in timed]), "s"),
        "wall_s": (median([r["wall_s"] for r in timed]), "s"),
        "sim_minstr_per_s": (median([r["instructions"] / r["run_s"] / 1e6
                                     for r in timed]), "Minstr/s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in timed]), "MB"),
        "pass_frac": ((checker.attempted - checker.failed) /
                      checker.attempted, "frac"),
    }
    return checker, metrics


def measure_traced(exe, workload, seed, seconds):
    """Per-layer metrics: one untraced reference process, then traced
    processes until --seconds. Refuses (exit 1) when a traced run's
    digest differs from the untraced run's, when a traced process
    fails its own replay checks, or when counts do not repeat."""
    checker = Checker(workload, seed)
    start = time.monotonic()
    base = run_process(exe, workload, seed)
    if not checker.check(base):
        raise SystemExit("perfbench: untraced reference run failed")
    spans_dir = os.path.join(OUT_DIR, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    traced = []
    while True:
        elapsed = time.monotonic() - start
        # Launch another traced process only if it fits in --seconds.
        if traced and elapsed + traced[-1]["wall_s"] > seconds:
            break
        remaining = INVOCATION_BUDGET_S - elapsed
        spans = os.path.join(spans_dir, "%s-seed%d-%d.json" %
                             (workload, seed, len(traced)))
        run = run_process(exe, workload, seed, mode="trace", spans=spans,
                          timeout=min(PROCESS_TIMEOUT_S, remaining))
        checker.check(run)
        if "error" in run:
            raise SystemExit("perfbench: traced run failed: " + run["error"])
        if run["digest"] != base["digest"]:
            raise SystemExit("perfbench: traced digest %s differs from the "
                             "untraced run's %s" % (run["digest"],
                                                    base["digest"]))
        traced.append(run)
    units = per_layer_units()
    counts = [k for k, unit in units.items() if unit == "count"]
    for run in traced[1:]:
        for key in counts:
            if run[key] != traced[0][key]:
                raise SystemExit("perfbench: per-layer count %s did not "
                                 "repeat (%d vs %d)" % (
                                     key, run[key], traced[0][key]))
    layer = {}
    for name, unit in units.items():
        if name == "tracing.overhead_frac":
            value = median([r["run_s"] for r in traced]) / base["run_s"] - 1
        elif name == "circuit.wall_share":
            value = base["build_ms"] * 1e-3 / base["wall_s"]
        elif name in counts:
            value = traced[0][name]
        else:
            value = median([r[name] for r in traced])
        layer[name] = (value, unit)
    return checker, layer


def per_layer_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def result_line(checker, metrics):
    return json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    })


def self_test(exe):
    """The result check must flag each deliberately broken run."""
    seed = REFERENCE_SEEDS[0]
    expected = load_references()["quick-mix1"][str(seed)]
    cases = [
        ("unperturbed", {}, False),
        ("perturbed tRCD", {"extra": ["ctrl.trcd-ns=13.8"]}, True),
        ("empty measurement", {"extra": ["warmup=0", "measure=50"]}, True),
        ("crash", {"extra": ["no-such-knob=1"]}, True),
        ("timeout", {"timeout": 0.05}, True),
    ]
    ok = True
    for name, kwargs, should_fail in cases:
        why = failure(run_process(exe, "quick-mix1", seed, **kwargs),
                      expected)
        good = (why is not None) == should_fail
        ok &= good
        log("self-test %-18s %s (%s)" % (name, "ok" if good else "WRONG",
                                          why or "passed"))
    return ok


def record_references(exe):
    refs = {}
    for workload in WORKLOADS:
        refs[workload] = {}
        for seed in REFERENCE_SEEDS:
            runs = [run_process(exe, workload, seed) for _ in range(2)]
            for run in runs:
                why = failure(run, runs[0].get("digest"))
                if why:
                    raise SystemExit("perfbench: %s seed %d: %s" % (
                        workload, seed, why))
            refs[workload][str(seed)] = runs[0]["digest"]
            log("%s seed %d: %s" % (workload, seed, runs[0]["digest"]))
    with open(REFERENCES, "w") as f:
        json.dump(refs, f, indent=2, sort_keys=True)
        f.write("\n")


def steadiness(exe, runs, seconds, workloads):
    """Two interleaved sets of the same code; quartile spread of each
    set and the drift between the set medians, against the bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"]
                  for m in json.load(f)["end_to_end"]}
    report = {}
    agree = True
    for workload in workloads:
        sets = {"A": [], "B": []}
        for i in range(runs):
            order = "AB" if i % 2 == 0 else "BA"
            for name in order:
                _, metrics = measure_untraced(exe, workload, i + 1, seconds)
                sets[name].append({k: v for k, (v, _) in metrics.items()})
        report[workload] = {}
        for metric, bound in bounds.items():
            row = {}
            for name, values in sets.items():
                vals = [m[metric] for m in values]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                row[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med}
            drift = (row["B"]["median"] - row["A"]["median"]) / \
                row["A"]["median"]
            spread_ok = metric == "setup_s" or all(
                row[s]["spread"] <= bound for s in "AB")
            verdict = spread_ok and abs(drift) <= bound
            agree &= verdict
            row.update(drift=drift, bound=bound,
                       verdict="agree" if verdict else "disagree")
            report[workload][metric] = row
            print("%-12s %-17s A %.6g [%.6g, %.6g] spread %.3f | "
                  "B %.6g [%.6g, %.6g] spread %.3f | drift %+.3f "
                  "bound %.2f  %s" % (
                      workload, metric, row["A"]["median"], row["A"]["q1"],
                      row["A"]["q3"], row["A"]["spread"],
                      row["B"]["median"], row["B"]["q1"], row["B"]["q3"],
                      row["B"]["spread"], drift, bound, row["verdict"]),
                  flush=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "steadiness.json"), "w") as f:
        json.dump(report, f, indent=2)
    return agree


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEEDS[0])
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--steadiness", type=int, metavar="N")
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args()

    exe = build()
    if args.self_test:
        return 0 if self_test(exe) else 1
    if args.record_references:
        record_references(exe)
        return 0
    if args.steadiness:
        names = [args.workload] if args.workload else list(WORKLOADS)
        return 0 if steadiness(exe, args.steadiness, args.seconds,
                               names) else 1
    if not args.workload:
        parser.error("--workload is required")
    measure = measure_traced if args.trace else measure_untraced
    checker, metrics = measure(exe, args.workload, args.seed, args.seconds)
    print(result_line(checker, metrics), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
