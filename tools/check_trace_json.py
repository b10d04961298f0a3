#!/usr/bin/env python3
"""Validator for the simulator's trace output.

Three modes:

  check_trace_json.py validate FILE [--require-slice] [--require-flow]
                                    [--require-counter]
      Validate one trace file. The format is auto-detected: a
      ptm-trace-v1 JSONL stream (one object per line, schema header
      first) or a Chrome trace-event JSON object (a "traceEvents"
      array, as loaded by Perfetto / chrome://tracing). The --require-*
      flags additionally demand at least one transaction duration
      slice, one conflict flow pair, and one counter track sample.

  check_trace_json.py drive PTM_SIM
      Run PTM_SIM on the tiny fft workload for every system kind,
      tracing in both formats, and validate each file.

  check_trace_json.py --self-test
      Run both validators against crafted traces (unknown event name,
      event before its capture, ticks going backwards, unbalanced B/E
      slices, ...) and one clean trace of each format.

Exits non-zero with a message per failure if any check fails.
"""

import json
import os
import sys
import tempfile

from ptmtools import (SelfTest, field_errors, finish, has_type,
                      read_trace, run_ok, run_sections)

SYSTEMS = ["serial", "locks", "copy-ptm", "sel-ptm", "vtm", "vc-vtm"]

EVENT_NAMES = {
    "tx_begin", "tx_restart", "tx_commit", "tx_abort", "conflict_edge",
    "conflict_stall",
    "spt_hit", "spt_miss", "spt_evict", "tav_hit", "tav_miss",
    "tav_evict", "walk_start", "walk_end", "shadow_alloc",
    "shadow_free", "sel_flip", "page_fault", "swap_out", "swap_in",
    "overflow_spill", "line_evict", "writeback", "ctx_switch",
    "watchpoint", "counter_sample", "chaos_inject", "watchdog_trip",
    "starvation_grant",
}

CATEGORIES = {
    "tx", "conflict", "meta", "page", "cache", "os", "watch", "sample",
    "chaos",
}

CAPTURE_FIELDS = {"label": str, "recorded": int, "dropped": int}

# Optional event-line fields and the JSON types they must carry.
EV_FIELDS = {
    "core": int, "th": int, "tx": int, "tx2": int,
    "a": int, "b": int, "v": (int, float),
}


def check_event(ev, where, last_tick):
    """Validate one event line; last_tick maps core -> latest tick."""
    tick = ev.get("t")
    if not has_type(tick, int) or tick < 0:
        return [f"{where}: bad tick {tick!r}"]
    errors = []
    if ev.get("ev") not in EVENT_NAMES:
        errors.append(f"{where}: unknown event {ev.get('ev')!r}")
    if ev.get("cat") not in CATEGORIES:
        errors.append(f"{where}: unknown category {ev.get('cat')!r}")
    errors += field_errors(ev, EV_FIELDS, where, required=False)
    # Ticks must be nondecreasing per (capture, core): the ring is
    # recorded in tick order and snapshotted oldest-first.
    core = ev.get("core", -1)
    if tick < last_tick.get(core, 0):
        errors.append(f"{where}: tick {tick} goes backwards on core "
                      f"{core}")
    last_tick[core] = tick
    extra = set(ev) - {"type", "t", "ev", "cat"} - set(EV_FIELDS)
    if extra:
        errors.append(f"{where}: unexpected fields {sorted(extra)}")
    return errors


def check_jsonl(lines):
    """Validate a ptm-trace-v1 stream; returns a list of errors."""
    header, captures, errors = read_trace(lines)
    if header is None:
        return errors
    if header.get("schema") != "ptm-trace-v1":
        errors.append(f"bad schema tag {header.get('schema')!r}")
    if not has_type(header.get("git"), str):
        errors.append("header missing git string")
    count = header.get("captures")
    if not has_type(count, int) or count < 0:
        errors.append(f"bad captures count {count!r}")
    for cap in captures:
        rec, where = cap["capture"], f"line {cap['line']}: capture"
        errors += field_errors(rec, CAPTURE_FIELDS, where)
        series = rec.get("series")
        if not isinstance(series, list) or any(
                not isinstance(s, str) for s in series):
            errors.append(f"{where}: series not a string list")
        recorded = rec.get("recorded")
        if has_type(recorded, int) and len(cap["events"]) > recorded:
            errors.append(f"{where}: {len(cap['events'])} events, more "
                          f"than its recorded={recorded}")
        last_tick = {}
        for n, ev in cap["events"]:
            errors += check_event(ev, f"line {n}", last_tick)
    return errors


def check_chrome(doc, require_slice=False, require_flow=False,
                 require_counter=False):
    """Validate a Chrome trace-event object; returns errors."""
    errors = []
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["no traceEvents array"]

    begins = ends = flows_s = flows_f = counters = 0
    # Per-(pid, tid) stack depth: every E must close an open B and the
    # stream is sorted, so depth never goes negative.
    depth = {}
    last_ts = None
    for i, e in enumerate(events):
        ph = e.get("ph")
        if ph not in ("B", "E", "i", "s", "f", "C", "M"):
            errors.append(f"event {i} has bad ph {ph!r}")
            continue
        if ph != "M":
            ts = e.get("ts")
            if not has_type(ts, (int, float)):
                errors.append(f"event {i} has bad ts")
                continue
            if last_ts is not None and ts < last_ts:
                errors.append(f"event {i} ts {ts} < previous {last_ts}")
            last_ts = ts
        track = (e.get("pid"), e.get("tid"))
        if ph == "B":
            begins += 1
            depth[track] = depth.get(track, 0) + 1
            if not e.get("name", "").startswith("tx "):
                errors.append(f"slice {i} has odd name {e.get('name')!r}")
        elif ph == "E":
            ends += 1
            depth[track] = depth.get(track, 0) - 1
            if depth[track] < 0:
                errors.append(
                    f"event {i}: E without open B on track {track}")
        elif ph == "s":
            flows_s += 1
        elif ph == "f":
            flows_f += 1
            if e.get("bp") != "e":
                errors.append(f"flow finish {i} missing bp=e")
        elif ph == "C":
            counters += 1

    if begins != ends:
        errors.append(f"{begins} B slices vs {ends} E slices")
    for track, d in depth.items():
        if d != 0:
            errors.append(f"track {track} left {d} slices open")
    if flows_s != flows_f:
        errors.append(f"{flows_s} flow starts vs {flows_f} finishes")
    if require_slice and begins == 0:
        errors.append("no transaction slices")
    if require_flow and flows_s == 0:
        errors.append("no conflict flow events")
    if require_counter and counters == 0:
        errors.append("no counter samples")
    return errors


def check_file(path, require_slice=False, require_flow=False,
               require_counter=False):
    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        return [str(e)]
    if not text.strip():
        return ["empty file"]
    # Chrome output is one JSON object; JSONL's first line is an
    # object too, but the whole file is not.
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None
    if isinstance(doc, dict) and "traceEvents" in doc:
        return check_chrome(doc, require_slice, require_flow,
                            require_counter)
    errors = check_jsonl(text.splitlines())
    if require_slice or require_flow or require_counter:
        errors.append("--require-* flags apply to chrome format only")
    return errors


def drive(ptm_sim, tmp):
    def one(system, fmt):
        out = os.path.join(tmp, f"{system}.{fmt}")
        run_ok([ptm_sim, "--workload", "fft", "--system", system,
                "--scale", "0", "--threads", "2",
                "--trace", out, "--trace-format", fmt])
        return check_file(out)

    return run_sections(
        [(f"{system}/{fmt}", lambda s=system, f=fmt: one(s, f))
         for system in SYSTEMS for fmt in ("jsonl", "chrome")], 16)


def self_test():
    """Exercise both validators on crafted traces."""
    t = SelfTest()

    def ev(tick, name="tx_begin", **kw):
        return {"type": "ev", "t": tick, "ev": name, "cat": "tx",
                "core": 0, "tx": 1, **kw}

    def trace(*events, before=()):
        lines = [{"schema": "ptm-trace-v1", "git": "test",
                  "captures": 1}, *before,
                 {"type": "capture", "label": "run",
                  "recorded": len(events), "dropped": 0,
                  "series": ["commits"]}, *events]
        return check_jsonl([json.dumps(x) for x in lines])

    t.clean(trace(ev(5), ev(9, "tx_commit")), "clean jsonl trace")
    t.flags(trace(ev(5, "tx_teleport")), "unknown event",
            "unknown event name")
    t.flags(trace(ev(5), before=[ev(1)]), "before any capture",
            "event before its capture")
    t.flags(trace(ev(9), ev(5)), "backwards", "tick going backwards")
    t.flags(trace(ev(5, a=True)), "a has type bool", "bool as an address")
    t.flags(check_jsonl(['{"schema": "ptm-trace-v1", "git": "x", '
                         '"captures": 2}']),
            "captures, found 0", "missing captures")

    def chrome(*events):
        return check_chrome({"traceEvents": list(events)},
                            require_slice=True)

    b = {"ph": "B", "ts": 1, "pid": 0, "tid": 0, "name": "tx 1"}
    e = {"ph": "E", "ts": 2, "pid": 0, "tid": 0}
    t.clean(chrome(b, e), "clean chrome trace")
    t.flags(chrome(b), "B slices vs", "unbalanced B/E slices")
    t.flags(chrome(e), "E without open B", "E before its B")
    t.flags(chrome(dict(b, ts=True), e), "bad ts", "bool as a timestamp")
    return t.report()


def main():
    args = sys.argv[1:]
    mode, args = (args[0], args[1:]) if args else ("", [])
    if mode == "--self-test" and not args:
        return self_test()
    if mode == "drive" and len(args) == 1:
        with tempfile.TemporaryDirectory() as tmp:
            return finish(drive(args[0], tmp))
    flags = {a for a in args if a.startswith("--")}
    paths = [a for a in args if not a.startswith("--")]
    if mode != "validate" or not paths or flags - {
            "--require-slice", "--require-flow", "--require-counter"}:
        print(__doc__, file=sys.stderr)
        return 2
    return finish(run_sections(
        [(os.path.basename(p), lambda p=p: check_file(
            p, "--require-slice" in flags, "--require-flow" in flags,
            "--require-counter" in flags)) for p in paths], 16))


if __name__ == "__main__":
    sys.exit(main())
