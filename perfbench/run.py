#!/usr/bin/env python3
"""The repository benchmark: build the driver, run one workload, check
the outputs, and print every metric.

    python3 perfbench/run.py --workload kv-hot-16c --seed 1 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The driver (perfbench/driver.cc) is
built from the checkout's own sources into .bench_build/perfbench
(Release). With --trace 0 the JSON line at the end carries the
end-to-end metrics; with --trace 1 it carries the per-layer metrics.
Every run saves its manifest, metrics and failures under
.bench_build/perfbench/results/, and a traced run its spans too. The
human-readable table before the JSON line lists every metric the run
measured, with its unit.

The exit code is 0 when every correctness and reconciliation check
passed, 1 when one failed (the JSON line says which runs failed), and
2 when the benchmark could not run at all (no sources, build error,
bad arguments).
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"
RESULTS = BUILD / "results"

WORKLOADS = ("kv-hot-16c", "fft-overflow", "kv-durable-writes")
# The seed no tuning run uses; a gain claimed on the benchmark must
# also hold on it (see README.md).
HELD_OUT_SEED = 9001
# How far the timed calls of one experiment may fall short of its
# wall time: a few timer reads, plus a scheduler preemption that lands
# between two of them.
SPAN_SLACK_S = 2e-3
SPAN_SLACK_SHARE = 5e-3
# The driver starts no experiment after --seconds, but the first pass
# over the sub-seeds always completes and the last experiment runs to
# its end. This covers both: kv-hot-16c's traced first pass takes about
# a minute.
DRIVER_GRACE_S = 150

SETUP_SPANS = ("workloads.make", "harness.system", "workloads.build")
CALL_SPANS = SETUP_SPANS + ("sim.run", "harness.snapshot",
                            "workloads.verify")
HOST_SITES = ("core.mem", "memory", "cpu", "core.step", "core.xlat",
              "supervisor", "os", "stats")
PROF_BUCKETS = ("idle", "non_tx", "tx_useful", "tx_wasted", "stall_l1",
                "stall_l2", "stall_mem", "stall_xlat", "fault_swap",
                "tx_begin", "tx_commit", "tx_abort", "ctx_switch",
                "barrier", "tx_persist")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


# ------------------------------------------------------------ build

def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "perfbench_driver", "-j", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            fail(f"cannot run {cmd[0]}: {e}")
        if r.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def run_driver(workload, seed, seconds, trace, wl_opts=()):
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    for o in wl_opts:
        cmd += ["--wl-opt", o]
    # subprocess.run kills and reaps the driver on a timeout, and on the
    # SystemExit that a SIGTERM raises (see main).
    timeout = seconds + DRIVER_GRACE_S
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {timeout} s")
    if r.returncode != 0:
        fail(f"driver exited with code {r.returncode}")
    try:
        return json.loads(r.stdout)
    except ValueError as e:
        fail(f"driver printed no valid record: {e}")


# ---------------------------------------------------------- metrics

def median(xs):
    return statistics.median(xs) if xs else 0.0


def pct(part, whole):
    return 100.0 * part / whole if whole else 0.0


def nearest_rank(sorted_xs, q):
    """The q-quantile (0 < q <= 1) of sorted values by nearest rank:
    a value that occurred; 0 when there are none."""
    if not sorted_xs:
        return 0
    return sorted_xs[max(0, math.ceil(q * len(sorted_xs)) - 1)]


def seconds(span):
    return (span["end_ns"] - span["start_ns"]) / 1e9


def flat_stats(doc):
    """"group.stat" -> value (a dict for distributions) of a
    ptm-stats-v1 document."""
    return {f"{g}.{name}": (v if v["kind"] == "distribution"
                            else v.get("value", v.get("mean")))
            for g, stats in doc["groups"].items()
            for name, v in stats.items()}


class Experiment:
    """One experiment: the driver's extra fields (run, sub_seed,
    traced, restarts, audit_checks, audit_violations,
    commit_latencies), its ptm-stats-v1 document and its spans."""

    def __init__(self, meta, doc, spans):
        vars(self).update(meta)
        self.sorted_latencies = sorted(self.commit_latencies)
        self.cycles = doc["manifest"]["cycles"]
        self.verified = doc["manifest"]["verified"]
        self.stats = flat_stats(doc)
        self.profile = doc.get("profile")
        self.root = next(s for s in spans if s["parent"] < 0)
        self.calls = {s["name"]: seconds(s)
                      for s in spans if s["parent"] >= 0}

    @property
    def wall(self):
        return seconds(self.root)

    def host_ms(self, site):
        sites = self.profile["host"]["sites"]
        return sum(s["estimated_ns"] for s in sites
                   if s["name"] == site) / 1e6

    def stat(self, path):
        return self.stats.get(path, 0)

    def dist(self, path, key):
        d = self.stats.get(path)
        return d[key] if d else 0.0

    def sum_suffix(self, suffix):
        return sum(v for k, v in self.stats.items()
                   if k.startswith("core") and k.endswith(suffix))


def split_record(record):
    """(header, setup durations, experiments) of a driver record: a
    header, then per experiment its extra fields and its ptm-stats-v1
    document."""
    header = record[0]
    by_run = {}
    for s in header["spans"]:
        by_run.setdefault(s["run"], []).append(s)
    setups = [sum(seconds(s) for s in spans if s["name"] in SETUP_SPANS)
              for spans in by_run.values()
              if any(s["name"] == "setup" for s in spans)]
    exps = [Experiment(meta, doc, by_run[meta["run"]])
            for meta, doc in zip(record[1::2], record[2::2])]
    return header, setups, exps


def first_per_sub_seed(exps):
    """The first experiment of each sub-seed, in sub-seed order."""
    seen = {}
    for x in exps:
        seen.setdefault(x.sub_seed, x)
    return [seen[k] for k in sorted(seen)]


# Simulated values of one experiment. They repeat exactly for a seed;
# a run reports their median over its sub-seeds.
SIM_E2E = {
    "sim_mcycles": lambda x: x.cycles / 1e6,
    "commit_p50_kcycles": lambda x: nearest_rank(x.sorted_latencies,
                                                 0.50) / 1e3,
    "commit_p99_kcycles": lambda x: nearest_rank(x.sorted_latencies,
                                                 0.99) / 1e3,
    "attempts_per_commit": lambda x: (
        (x.stat("tx.commits") + x.stat("tx.aborts"))
        / max(1, x.stat("tx.commits"))),
}

EXACT = {
    "events.executed": lambda x: x.stat("events.executed"),
    "cpu.mem_ops": lambda x: x.stat("sys.mem_ops"),
    "cpu.tx_mem_ops": lambda x: x.sum_suffix(".tx_mem_ops"),
    "cache.l1_hit_pct": lambda x: pct(
        x.stat("mem.l1_hits"), x.stat("mem.l1_hits") +
        x.stat("mem.l2_hits") + x.stat("mem.misses")),
    "cache.l2_hit_pct": lambda x: pct(
        x.stat("mem.l2_hits"), x.stat("mem.l2_hits") + x.stat("mem.misses")),
    "cache.tlb_misses": lambda x: x.stat("os.tlb_misses"),
    "mem.misses": lambda x: x.stat("mem.misses"),
    "mem.bus_busy_pct": lambda x: pct(x.stat("mem.bus_busy_cycles"),
                                      x.cycles),
    "mem.dram_accesses": lambda x: x.stat("mem.dram_accesses"),
    "mem.cache_to_cache": lambda x: x.stat("mem.cache_to_cache"),
    "mem.snoops_filtered": lambda x: x.stat("mem.snoops_filtered"),
    "mem.tx_evictions": lambda x: x.stat("mem.tx_evictions"),
    "tx.commits": lambda x: x.stat("tx.commits"),
    "tx.aborts": lambda x: x.stat("tx.aborts"),
    "tx.abort_pct": lambda x: pct(x.stat("tx.aborts"),
                                  x.stat("tx.commits") + x.stat("tx.aborts")),
    "tx.aborts_per_commit": lambda x: (x.stat("tx.aborts")
                                       / max(1, x.stat("tx.commits"))),
    "tx.watchdog_trips": lambda x: x.stat("tx.watchdog_trips"),
    "vts.spt_hit_pct": lambda x: pct(
        x.stat("vts.spt_cache_hits"),
        x.stat("vts.spt_cache_hits") + x.stat("vts.spt_cache_misses")),
    "vts.tav_hit_pct": lambda x: pct(
        x.stat("vts.tav_cache_hits"),
        x.stat("vts.tav_cache_hits") + x.stat("vts.tav_cache_misses")),
    "vts.shadow_allocs": lambda x: x.stat("vts.shadow_allocs"),
    "vts.commit_walk_nodes": lambda x: x.stat("vts.commit_walk_nodes"),
    "vts.abort_walk_nodes": lambda x: x.stat("vts.abort_walk_nodes"),
    "vts.commit_cleanup_p99_cycles": lambda x: x.dist(
        "vts.commit_cleanup_latency", "p99"),
    "os.exceptions": lambda x: x.stat("os.exceptions"),
    "os.page_faults": lambda x: x.stat("os.page_faults"),
    "os.context_switches": lambda x: x.stat("os.context_switches"),
    "persist.log_bytes": lambda x: x.stat("persist.log_bytes"),
    "persist.wait_p50_cycles": lambda x: x.dist(
        "persist.commit_persist_wait", "p50"),
    "persist.wait_p99_cycles": lambda x: x.dist(
        "persist.commit_persist_wait", "p99"),
    "persist.flush_stall_mticks": lambda x: (
        x.stat("persist.flush_stall_ticks") / 1e6),
}

# name -> unit. The lists and their units must match BENCHMARK.json
# (the self-test checks that they do). An experiment's host wall time is
# a per-layer metric: the host's speed drifts by more than any bound an
# end-to-end metric may carry (see README.md).
E2E_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB",
    "sim_mcycles": "Mcycles", "commit_p50_kcycles": "kcycles",
    "commit_p99_kcycles": "kcycles", "attempts_per_commit": "ratio",
}


def layer_units():
    u = {"wall_s": "s", "workloads.make_s": "s", "harness.system_s": "s",
         "workloads.build_s": "s", "sim.run_s": "s",
         "sim.ns_per_event": "ns", "harness.snapshot_s": "s",
         "workloads.verify_s": "s"}
    for name in EXACT:
        u[name] = ("%" if name.endswith("_pct") else
                   "cycles" if name.endswith("_cycles") else
                   "Mticks" if name.endswith("_mticks") else
                   "bytes" if name.endswith("_bytes") else
                   "ratio" if name.endswith("_per_commit") else "count")
    for site in HOST_SITES:
        u[f"host.{site.replace('.', '_')}_ms"] = "ms"
    u["trace.overhead_pct"] = "%"
    for b in PROF_BUCKETS:
        u[f"prof.{b}_pct"] = "%"
    u["prof.committed_tx_mticks"] = "Mticks"
    u["prof.aborted_tx_mticks"] = "Mticks"
    return u


LAYER_UNITS = layer_units()


def end_to_end(header, setups, untraced):
    subs = first_per_sub_seed(untraced)
    m = {
        # Only the setup-only repetitions: their count and conditions
        # are the same in every run, an experiment's are not.
        "setup_s": median(setups),
        "peak_rss_mb": header["peak_rss_kb"] / 1024.0,
    }
    for name, f in SIM_E2E.items():
        m[name] = median([f(x) for x in subs])
    return m


def per_layer(untraced, traced):
    m = {"wall_s": median([x.wall for x in untraced])}
    for span in CALL_SPANS:
        m[f"{span}_s"] = median([x.calls[span] for x in untraced])
    m["sim.ns_per_event"] = median(
        [1e9 * x.calls["sim.run"] / max(1, x.stat("events.executed"))
         for x in untraced])
    subs = first_per_sub_seed(untraced)
    for name, f in EXACT.items():
        m[name] = median([f(x) for x in subs])

    if not traced:
        return m
    for site in HOST_SITES:
        m[f"host.{site.replace('.', '_')}_ms"] = median(
            [x.host_ms(site) for x in traced])
    base = {x.run: x for x in untraced}
    m["trace.overhead_pct"] = median(
        [pct(t.wall - base[t.run - 1].wall, base[t.run - 1].wall)
         for t in traced])
    tsubs = [t.profile for t in first_per_sub_seed(traced)]
    for b in PROF_BUCKETS:
        m[f"prof.{b}_pct"] = median(
            [pct(sum(c["ticks"][b] for c in p["cores"]),
                 len(p["cores"]) * p["elapsed_ticks"]) for p in tsubs])
    for charge in ("committed_tx", "aborted_tx"):
        m[f"prof.{charge}_mticks"] = median(
            [p["supervisor"][f"{charge}_ticks"] / 1e6 for p in tsubs])
    return m


# ----------------------------------------------------------- checks

def check_experiment(x, durable):
    """Failed checks of one experiment, as 'name: detail' strings."""
    bad = []
    if not x.verified:
        bad.append("verify: the workload's result does not match the "
                   "host reference")
    if x.stat("sys.hit_tick_limit"):
        bad.append("tick_limit: the run stopped at the tick limit")
    if x.traced:
        if x.audit_violations:
            bad.append(f"audit: {len(x.audit_violations)} violations, "
                       f"first {x.audit_violations[0]}")
        if x.audit_checks == 0:
            bad.append("audit: the auditor ran no checks")
        bad += check_profile(x.profile)
    bad += check_spans(x.wall, x.calls)
    bad += check_latencies(x.commit_latencies, x.stat("tx.commits"),
                           x.stats.get("tx.commit_latency"))
    bad += check_attempts(x.stat("flightrec.retired"), x.restarts,
                          x.stat("tx.commits"), x.stat("tx.aborts"))
    if durable:
        bad += check_durable(x.stat("persist.commits_persisted"),
                             x.stat("tx.commits"))
    return bad


def check_spans(wall, calls):
    missing = [n for n in CALL_SPANS if n not in calls]
    if missing:
        return [f"spans: no span for {', '.join(missing)}"]
    gap = wall - sum(calls.values())
    if wall <= 0 or abs(gap) > max(SPAN_SLACK_S, SPAN_SLACK_SHARE * wall):
        return [f"spans: timed calls sum to {wall - gap:.6f} s of "
                f"{wall:.6f} s wall"]
    return []


def check_latencies(lat, commits, hist):
    """One exact latency per commit, and they agree with the
    tx.commit_latency histogram's count, sum and maximum, which it
    keeps exactly (its bins end at 2^20 ticks, these do not)."""
    if commits <= 0 or len(lat) != commits:
        return [f"commit_latency: {len(lat)} latencies recorded for "
                f"{commits} commits (must be > 0)"]
    if not hist:
        return ["commit_latency: no tx.commit_latency histogram"]
    mine = (len(lat), sum(lat), max(lat))
    theirs = (hist["samples"], hist["sum"], hist["max"])
    if mine != theirs:
        return [f"commit_latency: count, sum, max {mine} != histogram's "
                f"{theirs}"]
    return []


def check_profile(profile):
    """The cycle buckets partition cores x elapsed ticks exactly."""
    if not profile:
        return ["profile: the traced run has no cycle profile"]
    elapsed = profile["elapsed_ticks"]
    per_core = [sum(c["ticks"].values()) for c in profile["cores"]]
    if elapsed <= 0 or not per_core:
        return [f"profile: nothing to reconcile (elapsed {elapsed})"]
    if any(t != elapsed for t in per_core):
        return [f"profile: per-core bucket totals {per_core} != elapsed "
                f"{elapsed}"]
    return []


def check_attempts(retired, restarts, commits, aborts):
    """Attempts seen by the flight recorder and the cores (committed
    transactions + abort restarts) equal tx.commits + tx.aborts."""
    if commits + aborts <= 0:
        return ["attempts: no transaction attempts"]
    if retired + restarts != commits + aborts:
        return [f"attempts: flightrec.retired {retired} + restarts "
                f"{restarts} != tx.commits {commits} + tx.aborts {aborts}"]
    return []


def check_durable(persisted, commits):
    if commits <= 0 or persisted != commits:
        return [f"durable: persist.commits_persisted {persisted} != "
                f"tx.commits {commits} (must be > 0)"]
    return []


# Stats the auditor's own periodic events move (it runs at the stats
# priority and extends the event queue past the last thread's exit).
AUDIT_EVENT_STATS = ("events.executed", "events.scheduled")


def model_events(x, path):
    return x.stat(path) - x.stat("events.executed_stats")


def check_same_model(a, b, what):
    """Every simulated end-to-end value and exact count of b equals a's,
    bit for bit. Returns (failures, other differing stats)."""
    bad = []
    if a.cycles != b.cycles:
        bad.append(f"{what}: cycles {a.cycles} != {b.cycles}")
    if a.commit_latencies != b.commit_latencies:
        bad.append(f"{what}: commit latencies differ")
    values = dict(SIM_E2E)
    values.update({k: f for k, f in EXACT.items()
                   if k != "events.executed"})
    for name, f in values.items():
        if f(a) != f(b):
            bad.append(f"{what}: {name} {f(a)!r} != {f(b)!r}")
    for path in AUDIT_EVENT_STATS:
        if model_events(a, path) != model_events(b, path):
            bad.append(f"{what}: {path} less auditor events "
                       f"{model_events(a, path)} != {model_events(b, path)}")
    others = sorted(k for k in set(a.stats) | set(b.stats)
                    if a.stats.get(k) != b.stats.get(k)
                    and not k.startswith(("audit.", "events.")))
    return bad, others


def evaluate(record, durable):
    """(metrics, per_layer, checks, notes, attempted, failed)."""
    header, setups, exps = split_record(record)
    untraced = [x for x in exps if not x.traced]
    traced = [x for x in exps if x.traced]
    failures, notes = [], []
    attempted = failed = 0
    for x in exps:
        n = max(1, x.stat("tx.commits"))
        attempted += n
        bad = check_experiment(x, durable)
        if bad:
            failed += n
            failures += [f"run {x.run}: {b}" for b in bad]

    run_level = []
    first = {}
    if len(untraced) == len({x.sub_seed for x in untraced}):
        notes.append("no sub-seed ran twice, so the determinism check "
                     "did not run" + ("; each traced experiment was "
                                      "still compared with its untraced "
                                      "pair" if traced else ""))
    for x in untraced:
        if x.sub_seed in first:
            bad, others = check_same_model(first[x.sub_seed], x,
                                           "determinism")
            run_level += bad + [f"determinism: {k} differs" for k in others]
        else:
            first[x.sub_seed] = x
    for t in traced:
        bad, others = check_same_model(first[t.sub_seed], t, "tracing")
        run_level += bad
        notes += [f"tracing moved {k} (not a benchmark metric)"
                  for k in others]
    if run_level:
        failures += run_level
        failed = attempted
    e2e = end_to_end(header, setups, untraced)
    layers = per_layer(untraced, traced)
    return e2e, layers, failures, sorted(set(notes)), attempted, failed


# ----------------------------------------------------------- output

def git_describe():
    try:
        r = subprocess.run(["git", "describe", "--always", "--dirty",
                            "--tags"], cwd=ROOT, capture_output=True,
                           text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def print_table(title, metrics, units):
    print(title)
    for name, v in metrics.items():
        print(f"  {name:34s} {v:>16.6g} {units[name]}")


def main():
    # Turn SIGTERM into SystemExit so a running child is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="prove the checks can fail, then exit")
    a = ap.parse_args()
    if a.self_test:
        build()
        return self_test()
    if a.workload is None or a.seed is None or a.seed < 0 or a.seconds < 1:
        ap.error("--workload, --seed >= 0 and --seconds >= 1 are required")

    build()
    record = run_driver(a.workload, a.seed, a.seconds, a.trace)
    durable = record[0]["manifest"]["durability"] != "off"
    e2e, layers, failures, notes, attempted, failed = evaluate(record,
                                                               durable)
    manifest = dict(record[0]["manifest"], git=git_describe(),
                    held_out_seed=HELD_OUT_SEED)

    print(f"perfbench {a.workload}  seed {a.seed}  trace {a.trace}")
    print("manifest " + json.dumps(manifest, sort_keys=True))
    print_table("end-to-end", e2e, E2E_UNITS)
    print_table("per-layer", layers, LAYER_UNITS)
    for n in notes:
        print(f"note: {n}")
    for f in failures:
        print(f"FAILED {f}")

    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = RESULTS / f"{a.workload}-seed{a.seed}-trace{a.trace}"
    Path(f"{stem}.json").write_text(json.dumps(
        {"manifest": manifest, "end_to_end": e2e, "per_layer": layers,
         "failures": failures, "notes": notes}, indent=1))
    if a.trace:
        Path(f"{stem}-spans.json").write_text(
            json.dumps(record[0]["spans"]))

    chosen, units = ((layers, LAYER_UNITS) if a.trace else
                     (e2e, E2E_UNITS))
    out = {"correct": not failures, "attempted": attempted,
           "failed": failed,
           "metrics": {k: {"value": v, "unit": units[k]}
                       for k, v in chosen.items()}}
    print(json.dumps(out))
    return 0 if not failures else 1


# -------------------------------------------------------- self-test

def self_test():
    """Show that each gate can fail, and that a clean run passes."""
    problems = []

    def expect(cond, what):
        print(f"  {'ok  ' if cond else 'FAIL'} {what}")
        if not cond:
            problems.append(what)

    print("reconciliation checks reject empty and unbalanced totals")
    expect(check_attempts(0, 0, 0, 0), "attempts: 0 == 0 is refused")
    expect(check_attempts(10, 4, 10, 5), "attempts: 14 != 15 is refused")
    expect(not check_attempts(10, 5, 10, 5), "attempts: 15 == 15 passes")
    expect(check_durable(0, 0), "durable: 0 == 0 is refused")
    expect(check_durable(9, 10), "durable: 9 != 10 is refused")
    hist = {"samples": 3, "sum": 60, "max": 30}
    expect(check_latencies([], 0, None), "latencies: 0 == 0 is refused")
    expect(check_latencies([10, 20], 3, hist),
           "latencies: a missing commit is refused")
    expect(check_latencies([10, 20, 31], 3, hist),
           "latencies: a sum off the histogram's is refused")
    expect(not check_latencies([10, 20, 30], 3, hist),
           "latencies: exact agreement passes")
    expect(nearest_rank([1, 2, 3, 4], 0.5) == 2
           and nearest_rank([1, 2, 3, 4], 0.99) == 4
           and nearest_rank(list(range(1, 101)), 0.99) == 99,
           "nearest-rank percentiles")
    def prof(elapsed, *cores):
        return {"elapsed_ticks": elapsed,
                "cores": [{"ticks": {"idle": t}} for t in cores]}
    expect(check_profile(prof(0, 0, 0)), "profile: zero elapsed is refused")
    expect(check_profile(prof(10, 10, 9)),
           "profile: a core short of elapsed is refused")
    expect(not check_profile(prof(10, 10, 10)), "profile: exact passes")
    calls = {n: 0.1 for n in CALL_SPANS}
    expect(not check_spans(0.6, calls), "spans: exact sum passes")
    expect(check_spans(0.7, calls), "spans: 0.1 s untimed is refused")

    bench = ROOT / "BENCHMARK.json"
    if bench.is_file():
        spec = json.loads(bench.read_text())
        expect({m["name"]: m["unit"] for m in spec["end_to_end"]}
               == E2E_UNITS, "BENCHMARK.json end_to_end matches run.py")
        expect({m["name"]: m["unit"] for m in spec["per_layer"]}
               == LAYER_UNITS, "BENCHMARK.json per_layer matches run.py")
        expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
               "BENCHMARK.json workloads match run.py")

    print("a small kv-durable-writes run passes every check")
    small = ["ops=4000"]
    rec = run_driver("kv-durable-writes", 1, 1, 1, small)
    _, layers, failures, _, attempted, failed = evaluate(rec, True)
    expect(not failures and failed == 0 and attempted > 0,
           f"clean run: {failures or 'no failures'}")
    expect(layers["persist.log_bytes"] > 0, "clean run logs WAL bytes")

    print("the same run with a dropped write is reported as failed")
    rec = run_driver("kv-durable-writes", 1, 1, 1,
                     small + ["drop-write=1"])
    _, _, failures, _, attempted, failed = evaluate(rec, True)
    expect(failed == attempted > 0, f"failed {failed} of {attempted}")
    expect(any(": verify:" in f for f in failures),
           "the verify gate names the failure")

    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
