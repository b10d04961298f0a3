#!/usr/bin/env python3
"""Diff two ptm-benchsuite-v1 baselines and flag perf regressions.

Rows are matched within each bench by the join key formed from their
identity fields (all string- and bool-valued fields except
"verified"): app, system, mode, config, policy, abort_rate, ...
Numeric metrics listed in THRESHOLDS are then gated: a relative
*increase* beyond the metric's noise threshold is a regression and the
tool exits 1. A verified=true row turning false is always a
regression, as is a baseline row that disappeared. Other shared
numeric fields are reported informationally when they drift by more
than --report-threshold but never fail the comparison.

The simulator is fully deterministic for a given seed, so the
thresholds only need to absorb intentional modelling changes, not
host noise; wall-clock values are never compared.

Usage:
    bench_compare.py OLD.json NEW.json [--report-threshold PCT]
    bench_compare.py --self-test
"""

import argparse
import copy
import json
import sys

from ptmtools import SelfTest

# metric -> allowed relative increase before it counts as a regression.
# Cost-like metrics only: a *decrease* is never flagged.
THRESHOLDS = {
    "cycles": 0.01,            # headline metric: 1% noise budget
    "prof_total_ticks": 0.01,  # must track cycles by construction
    "prof_tx_wasted": 0.05,
    "prof_stall_l2": 0.05,
    "prof_stall_mem": 0.05,
    "prof_stall_xlat": 0.05,
    "prof_fault_swap": 0.05,
    "aborts": 0.10,
    # Serving-workload tail latency (bench_kv): p99 is sensitive to
    # abort-path changes, so give it a wider but still binding budget.
    "p99_commit_latency": 0.15,
    # Durable-commit stall tail (bench_kv rows produced under
    # --durability wal): only present when both baselines logged
    # commits, so volatile baselines never trip it.
    "p99_durable_commit_latency": 0.15,
}

# metric -> allowed relative *decrease* before it counts as a
# regression. Goodness metrics only: an increase is never flagged.
# Steady-state throughput integrates over half-run commit deltas, so
# its noise floor is wider than the cycle budget.
THRESHOLDS_DECREASE = {
    "steady_tx_per_sec_1ghz": 0.10,
    # Host event-loop throughput (only present when both baselines were
    # produced with --host-metrics on the same machine): compare() only
    # gates metrics present in BOTH rows, so ordinary cross-machine
    # baselines — which omit the field — never trip this.
    "sim_events_per_sec": 0.10,
}


def row_key(row):
    """Join key: every string/bool identity field, sorted by name."""
    parts = []
    for k in sorted(row):
        v = row[k]
        if k != "verified" and isinstance(v, (str, bool)):
            parts.append(f"{k}={v}")
    return " ".join(parts) or "<row>"


def index_rows(rows):
    out = {}
    for row in rows:
        key = row_key(row)
        n = 2
        base = key
        while key in out:  # repeated identical keys get a suffix
            key = f"{base} #{n}"
            n += 1
        out[key] = row
    return out


def compare(old, new, report_threshold):
    """Return (regressions, notes): lists of human-readable strings."""
    regressions = []
    notes = []
    old_benches = old.get("benches", {})
    new_benches = new.get("benches", {})

    for bench in sorted(old_benches):
        if bench not in new_benches:
            regressions.append(f"{bench}: bench missing from new baseline")
            continue
        old_rows = index_rows(old_benches[bench])
        new_rows = index_rows(new_benches[bench])
        for key, orow in old_rows.items():
            nrow = new_rows.get(key)
            if nrow is None:
                regressions.append(f"{bench}: row gone: {key}")
                continue
            if orow.get("verified") is True and \
                    nrow.get("verified") is False:
                regressions.append(
                    f"{bench}: {key}: run no longer verifies")
            for metric in sorted(set(orow) & set(nrow)):
                ov, nv = orow[metric], nrow[metric]
                if isinstance(ov, bool) or isinstance(nv, bool):
                    continue
                if not isinstance(ov, (int, float)) or \
                        not isinstance(nv, (int, float)):
                    continue
                if ov == nv:
                    continue
                rel = (nv - ov) / ov if ov else float("inf")
                thr = THRESHOLDS.get(metric)
                thr_dec = THRESHOLDS_DECREASE.get(metric)
                if thr is not None and rel > thr:
                    regressions.append(
                        f"{bench}: {key}: {metric} {ov} -> {nv} "
                        f"(+{100.0 * rel:.1f}% > {100.0 * thr:.0f}% "
                        "budget)")
                elif thr_dec is not None and -rel > thr_dec:
                    regressions.append(
                        f"{bench}: {key}: {metric} {ov} -> {nv} "
                        f"({100.0 * rel:.1f}% < -{100.0 * thr_dec:.0f}% "
                        "budget)")
                elif abs(rel) > report_threshold:
                    notes.append(
                        f"{bench}: {key}: {metric} {ov} -> {nv} "
                        f"({100.0 * rel:+.1f}%)")
        for key in new_rows:
            if key not in old_rows:
                notes.append(f"{bench}: new row: {key}")
    for bench in sorted(new_benches):
        if bench not in old_benches:
            notes.append(f"{bench}: new bench (no baseline)")
    return regressions, notes


def self_test():
    """Exercise the comparison logic on crafted baseline pairs."""
    base = {
        "schema": "ptm-benchsuite-v1",
        "label": "a",
        "benches": {
            "bench_table1": [
                {"app": "fft", "system": "sel-ptm", "cycles": 1000000,
                 "prof_total_ticks": 4000000, "verified": True},
                {"app": "lu", "system": "vtm", "cycles": 2000000,
                 "prof_total_ticks": 8000000, "verified": True},
            ],
        },
    }
    t = SelfTest()

    def edit(suite, row=0, **fields):
        out = copy.deepcopy(suite)
        out["benches"]["bench_table1"][row].update(fields)
        return out

    def regs(old, new, report=0.50):
        return compare(old, new, report)[0]

    t.clean(regs(base, edit(base), 0.10), "identical pair")
    t.flags(regs(base, edit(base, cycles=1100000), 0.10), "cycles",
            "10% cycles slowdown")
    t.clean(regs(base, edit(base, cycles=1005000), 0.10),
            "+0.5% cycles inside budget")
    # Thresholds gate increases only: a speedup is a note.
    fast, notes = compare(base, edit(base, cycles=800000), 0.10)
    t.clean(fast, "speedup as regression")
    t.expect(notes, "-20% cycles drift not reported as a note")
    t.flags(regs(base, edit(base, 1, verified=False), 0.10), "verifies",
            "verified=false")

    # A p99 commit-latency blowup (bench_kv rows) must be detected,
    # but only beyond its 15% budget.
    lat = edit(base, p99_commit_latency=10000.0)
    t.flags(regs(lat, edit(lat, p99_commit_latency=12000.0), 0.10),
            "p99_commit_latency", "+20% p99 commit latency")
    t.clean(regs(lat, edit(lat, p99_commit_latency=11000.0)),
            "+10% p99 inside budget")

    # A steady-state throughput drop (bench_kv rows) must be detected
    # beyond its 10% budget; gains must never be flagged.
    tput = edit(base, steady_tx_per_sec_1ghz=500000.0)
    t.flags(regs(tput, edit(tput, steady_tx_per_sec_1ghz=400000.0)),
            "steady_tx_per_sec_1ghz", "-20% steady throughput")
    t.clean(regs(tput, edit(tput, steady_tx_per_sec_1ghz=700000.0)),
            "steady throughput gain")
    t.clean(regs(tput, edit(tput, steady_tx_per_sec_1ghz=475000.0)),
            "-5% steady throughput inside budget")

    # Host-throughput regressions (sim_events_per_sec, only present
    # in same-machine --host-metrics pairs) must be detected beyond
    # their 10% budget; a row pair where only one side carries the
    # field must not be compared at all.
    host = edit(base, sim_events_per_sec=3.0e6)
    t.flags(regs(host, edit(host, sim_events_per_sec=2.5e6)),
            "sim_events_per_sec", "-17% sim_events_per_sec")
    t.clean(regs(host, edit(host, sim_events_per_sec=4.0e6)),
            "sim_events_per_sec gain")
    t.clean(regs(host, base), "one-sided sim_events_per_sec")

    # A durable-commit latency blowup (bench_kv rows produced with
    # --durability wal) must be detected beyond its 15% budget, and a
    # pair where only the new row carries the field (volatile old
    # baseline) must not be compared.
    dur = edit(base, p99_durable_commit_latency=600.0)
    t.flags(regs(dur, edit(dur, p99_durable_commit_latency=750.0)),
            "p99_durable_commit_latency",
            "+25% p99 durable commit latency")
    t.clean(regs(dur, edit(dur, p99_durable_commit_latency=650.0)),
            "+8% durable p99 inside budget")
    t.clean(regs(base, dur), "one-sided p99_durable_commit_latency")

    gone = copy.deepcopy(base)
    gone["benches"]["bench_table1"].pop(0)
    t.flags(regs(base, gone, 0.10), "row gone", "missing row")
    return t.report()


def main():
    ap = argparse.ArgumentParser(
        description="Diff two ptm-benchsuite-v1 baselines.")
    ap.add_argument("old", nargs="?", help="baseline (old) suite JSON")
    ap.add_argument("new", nargs="?", help="candidate (new) suite JSON")
    ap.add_argument("--report-threshold", type=float, default=10.0,
                    metavar="PCT",
                    help="report (not fail) other metric drifts beyond "
                         "this percentage (default 10)")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the threshold logic on crafted pairs")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if not args.old or not args.new:
        ap.error("OLD and NEW baseline files are required")

    docs = []
    for path in (args.old, args.new):
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"error: {path}: {e}", file=sys.stderr)
            return 2
        if doc.get("schema") != "ptm-benchsuite-v1":
            print(f"error: {path}: bad schema tag "
                  f"{doc.get('schema')!r}", file=sys.stderr)
            return 2
        docs.append(doc)
    old, new = docs

    if old.get("smoke") != new.get("smoke"):
        print("error: comparing a smoke baseline against a full-scale "
              "one is meaningless", file=sys.stderr)
        return 2

    regressions, notes = compare(old, new,
                                 args.report_threshold / 100.0)
    for n in notes:
        print(f"note: {n}")
    for r in regressions:
        print(f"REGRESSION: {r}")
    print(f"{args.old} ({old.get('label')}) -> {args.new} "
          f"({new.get('label')}): {len(regressions)} regression(s), "
          f"{len(notes)} note(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
