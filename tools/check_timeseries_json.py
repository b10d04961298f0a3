#!/usr/bin/env python3
"""Schema and reconciliation checker for ptm-timeseries-v1 streams.

Runs ptm_sim with --timeseries and --stats-json on the contended KV
workload (zipf 0.99) and validates the emitted JSONL stream:

  * exactly one header record, carrying schema/system/seed/cores/
    interval, before any interval record;
  * interval records with monotonically increasing n, contiguous
    [t0, t1) tick spans, host-throughput gauges, and exactly one
    trailing final=true flush record;
  * EXACT reconciliation: for every counter, the sum of its per-
    interval deltas equals the final total in the ptm-stats-v1 JSON
    of the same run, and likewise for every distribution's samples
    and sum — the stream provably loses nothing;
  * per-interval hot_pages arrays (the run enables --heatmap), with
    a non-empty array by the final record under zipf 0.99;
  * a control run without --timeseries must not create the file.

With --self-test the record validator runs against crafted streams
(bad schema, gap in tick coverage, duplicate final, missing gauges)
instead of driving the simulator.

Usage:
    check_timeseries_json.py PATH_TO_PTM_SIM
    check_timeseries_json.py --self-test
"""

import json
import os
import sys
import tempfile

from ptmtools import (CheckError, SelfTest, checker_main, field_errors,
                      has_type, jsonl, load_json, run, run_ok, verdict)

HEADER_FIELDS = {
    "schema": str,
    "type": str,
    "system": str,
    "seed": (int, float),
    "cores": (int, float),
    "interval": (int, float),
}

INTERVAL_FIELDS = {
    "type": str,
    "n": int,
    "t0": int,
    "t1": int,
    "final": bool,
    "wall_seconds": (int, float),
    "events": int,
    "events_per_sec": (int, float),
    "ticks_per_wall_sec": (int, float),
    "events_per_tick": (int, float),
    "d": dict,
    "dist": dict,
}


def parse_stream(lines):
    """Parse one run's JSONL records; returns (header, intervals, errs).

    Structural validation only — reconciliation against the final
    stats is the caller's job.
    """
    errors = []
    header = None
    intervals = []
    for i, rec, bad in jsonl(lines):
        if bad:
            errors.append(f"line {i}: invalid JSON: {bad}")
            continue
        kind = rec.get("type")
        if kind == "header":
            if header is not None:
                errors.append(f"line {i}: duplicate header")
            if intervals:
                errors.append(f"line {i}: header after intervals")
            errors += field_errors(rec, HEADER_FIELDS, f"line {i}: header")
            if rec.get("schema") != "ptm-timeseries-v1":
                errors.append(
                    f"line {i}: bad schema tag {rec.get('schema')!r}")
            header = rec
        elif kind == "interval":
            if header is None:
                errors.append(f"line {i}: interval before header")
            errors += field_errors(rec, INTERVAL_FIELDS,
                                   f"line {i}: interval")
            intervals.append(rec)
        else:
            errors.append(f"line {i}: unknown record type {kind!r}")

    if header is None:
        errors.append("stream has no header record")
    if not intervals:
        errors.append("stream has no interval records")
        return header, intervals, errors

    # Interval sequencing: dense n, contiguous tick coverage, one
    # trailing final flush.
    prev_t1 = None
    for k, iv in enumerate(intervals):
        if iv.get("n") != k:
            errors.append(f"interval {k}: n={iv.get('n')} not dense")
        t0, t1 = iv.get("t0"), iv.get("t1")
        if isinstance(t0, int) and isinstance(t1, int) and t1 < t0:
            errors.append(f"interval {k}: t1 {t1} < t0 {t0}")
        if prev_t1 is not None and t0 != prev_t1:
            errors.append(
                f"interval {k}: t0 {t0} != previous t1 {prev_t1} "
                "(gap or overlap in tick coverage)")
        prev_t1 = t1
        is_last = k == len(intervals) - 1
        if bool(iv.get("final")) != is_last:
            errors.append(
                f"interval {k}: final={iv.get('final')} "
                f"(must be true on the last record only)")
        d = iv.get("d")
        if isinstance(d, dict):
            for path, delta in d.items():
                if not has_type(delta, int) or delta <= 0:
                    errors.append(
                        f"interval {k}: d[{path!r}]={delta!r} "
                        "(deltas are positive integers; zero deltas "
                        "are omitted)")
    return header, intervals, errors


def reconcile(intervals, stats_doc):
    """Delta sums across the stream must equal the final stat totals."""
    errors = []
    sums = {}
    dist_sums = {}
    for iv in intervals:
        for path, delta in iv.get("d", {}).items():
            sums[path] = sums.get(path, 0) + delta
        for path, rec in iv.get("dist", {}).items():
            cur = dist_sums.setdefault(path, [0, 0.0])
            cur[0] += rec.get("samples", 0)
            cur[1] += rec.get("sum", 0.0)

    groups = stats_doc.get("groups", {})
    finals = {}
    dist_finals = {}
    for gname, stats in groups.items():
        for sname, stat in stats.items():
            path = f"{gname}.{sname}"
            if stat.get("kind") == "counter":
                finals[path] = stat.get("value", 0)
            elif stat.get("kind") == "distribution":
                dist_finals[path] = (stat.get("samples", 0),
                                     stat.get("sum", 0.0))

    for path, total in finals.items():
        if sums.get(path, 0) != total:
            errors.append(
                f"counter {path}: delta sum {sums.get(path, 0)} != "
                f"final total {total}")
    for path in sums:
        if path not in finals:
            errors.append(f"stream names unknown counter {path!r}")

    for path, (samples, total) in dist_finals.items():
        got = dist_sums.get(path, [0, 0.0])
        if got[0] != samples:
            errors.append(
                f"distribution {path}: sample delta sum {got[0]} != "
                f"final samples {samples}")
        # Sums are doubles accumulated in a different order; allow
        # only rounding-level slack.
        if abs(got[1] - total) > max(1e-6 * abs(total), 1e-6):
            errors.append(
                f"distribution {path}: sum of deltas {got[1]} != "
                f"final sum {total}")
    for path in dist_sums:
        if path not in dist_finals:
            errors.append(f"stream names unknown distribution {path!r}")
    return errors


def check_run(ptm_sim):
    errors = []
    with tempfile.TemporaryDirectory() as tmp:
        ts_path = os.path.join(tmp, "ts.jsonl")
        stats_path = os.path.join(tmp, "stats.json")
        run_ok([ptm_sim, "--workload", "kv", "--system", "sel-ptm",
                "--scale", "0", "--threads", "4", "--wl-opt", "zipf=0.99",
                "--timeseries", ts_path, "--timeseries-interval", "20000",
                "--stats-json", stats_path])
        try:
            with open(ts_path) as f:
                lines = f.readlines()
        except OSError as e:
            raise CheckError(f"timeseries file not written: {e}")
        stats_doc = load_json(stats_path, "stats json")

        header, intervals, errs = parse_stream(lines)
        errors.extend(errs)
        if errs:
            return errors

        errors.extend(reconcile(intervals, stats_doc))

        if header.get("system") != "sel-ptm":
            errors.append(
                f"header.system {header.get('system')!r} != 'sel-ptm'")
        interval = header.get("interval")
        if interval != 20000:
            errors.append(
                f"header.interval {interval!r} != --timeseries-interval")
        # Every non-final interval spans exactly the configured period.
        for k, iv in enumerate(intervals[:-1]):
            if iv["t1"] - iv["t0"] != interval:
                errors.append(
                    f"interval {k}: span {iv['t1'] - iv['t0']} != "
                    f"configured {interval}")

        # The stream must cover the whole run: the final record's t1
        # is at or past the manifest cycle count.
        cycles = stats_doc.get("manifest", {}).get("cycles", 0)
        if intervals[-1]["t1"] < cycles:
            errors.append(
                f"stream ends at {intervals[-1]['t1']} before run end "
                f"{cycles}")

        # --timeseries implies --heatmap: cumulative hot_pages on each
        # record, non-empty by the final one under zipf 0.99.
        for k, iv in enumerate(intervals):
            hp = iv.get("hot_pages")
            if not isinstance(hp, list):
                errors.append(f"interval {k}: hot_pages missing")
                break
            for e in hp:
                if not all(has_type(e.get(f), int)
                           for f in ("page", "count", "err")):
                    errors.append(
                        f"interval {k}: malformed hot_pages entry {e}")
                    break
        if intervals and not intervals[-1].get("hot_pages"):
            errors.append(
                "final hot_pages empty under zipf=0.99 (contended "
                "run must attribute conflicts)")

        # Off by default: without --timeseries no file appears.
        off_path = os.path.join(tmp, "off.jsonl")
        proc = run([ptm_sim, "--workload", "kv", "--system", "sel-ptm",
                    "--scale", "0", "--threads", "4"], cwd=tmp)
        if proc.returncode != 0:
            errors.append(
                f"control run exited {proc.returncode}")
        if os.path.exists(off_path):
            errors.append("control run created a timeseries file")
        if "ptm-timeseries-v1" in proc.stdout or \
                "ptm-timeseries-v1" in proc.stderr:
            errors.append("control run streamed timeseries records")
    return errors


def self_test():
    """Exercise the stream validator on crafted inputs."""
    t = SelfTest()

    def hdr(**kw):
        rec = {"schema": "ptm-timeseries-v1", "type": "header",
               "system": "sel-ptm", "seed": 1, "cores": 4,
               "interval": 100}
        rec.update(kw)
        return rec

    def iv(n, t0, t1, final=False, **kw):
        rec = {"type": "interval", "n": n, "t0": t0, "t1": t1,
               "final": final, "wall_seconds": 0.001, "events": 10,
               "events_per_sec": 10000.0, "ticks_per_wall_sec": 1e5,
               "events_per_tick": 0.1, "d": {"tx.commits": 5},
               "dist": {}}
        rec.update(kw)
        return rec

    def stream(records):
        return parse_stream([json.dumps(r) for r in records])[2]

    t.clean(stream([hdr(), iv(0, 0, 100), iv(1, 100, 200, final=True)]),
            "clean stream")
    t.flags(stream([hdr(schema="nope"), iv(0, 0, 100, final=True)]),
            "schema", "bad schema tag")
    t.flags(stream([hdr(), iv(0, 0, 100), iv(1, 150, 200, final=True)]),
            "gap", "tick coverage gap")
    # final=true anywhere but last (or a missing final) must fail.
    t.flags(stream([hdr(), iv(0, 0, 100, final=True),
                    iv(1, 100, 200, final=True)]),
            "final", "duplicate final")
    t.flags(stream([hdr(), iv(0, 0, 100), iv(1, 100, 200)]),
            "final", "missing final flush")
    bad = iv(0, 0, 100, final=True)
    del bad["events_per_sec"]
    t.flags(stream([hdr(), bad]), "events_per_sec", "missing gauge")
    # A zero delta must be rejected (the emitter omits them).
    t.flags(stream([hdr(), iv(0, 0, 100, final=True,
                              d={"tx.commits": 0})]),
            "delta", "zero delta")
    t.flags(stream([hdr(), iv(0, 0, 100, final=True, events=True)]),
            "events has type bool", "bool as a count")

    # Reconciliation must catch a short delta sum.
    stats = {"groups": {"tx": {"commits":
                               {"kind": "counter", "value": 12}}}}
    two = [iv(0, 0, 100), iv(1, 100, 200, final=True)]
    t.flags(reconcile(two, stats), "delta sum", "counter under-count")
    stats["groups"]["tx"]["commits"]["value"] = 10
    t.clean(reconcile(two, stats), "exact reconciliation")
    return t.report()


if __name__ == "__main__":
    sys.exit(checker_main(
        lambda sim: verdict("timeseries", check_run, sim), self_test,
        __doc__))
