#!/usr/bin/env python3
"""Determinism gate: two identical ptm_sim runs must agree exactly.

Runs ``ptm_sim --stats-json`` twice with the same configuration and
seed, then diffs the two ptm-stats-v1 documents field by field. Every
simulated quantity — cycles, commits, aborts, cache counters, walk
distributions — must be bit-identical; only host-side fields (wall
time, git revision) are ignored. Any other divergence means the
simulator's behavior depends on host state (iteration order, pointer
values, allocation reuse) and fails the gate.

Usage:
    check_determinism.py [--with-trace] <ptm_sim> [extra args...]
                         [-- second-run args...]

With no extra args a default matrix of configurations is exercised.
Arguments after ``--`` are added to the second run only: options that
must not change simulated results (an output sink such as
``--wal-file``) are checked the same way as a repeat run.
``--with-trace`` also writes each run's ptm-trace-v1 JSONL (narrow it
with ``--trace-categories`` in the extra args) and requires the two
traces to be identical too.
"""

import json
import sys
import tempfile
from pathlib import Path

from ptmtools import CheckError, run_ok

# Host-dependent manifest fields; everything else must match.
IGNORED_MANIFEST_FIELDS = ("wall_seconds", "setup_seconds", "git",
                           "events_per_sec", "sim_events_per_sec",
                           "sim_ticks_per_wall_sec")

DEFAULT_CONFIGS = [
    ["--workload", "fft", "--system", "sel-ptm", "--gran", "wd:cache",
     "--scale", "0", "--swap", "--quantum", "6000"],
    ["--workload", "radix", "--system", "copy-ptm", "--gran", "blk",
     "--scale", "0", "--daemon", "9000"],
    ["--workload", "lu", "--system", "sel-ptm",
     "--gran", "wd:cache+mem", "--scale", "0", "--lazy-migrate",
     "--profile"],
    ["--workload", "water", "--system", "vtm", "--scale", "0",
     "--swap"],
    # Wide machine: the banked interconnect must stay deterministic
    # too.
    ["--workload", "fft", "--system", "sel-ptm", "--scale", "0",
     "--cores", "16", "--mem-banks", "4"],
]


def run_once(sim, args, out, trace=None):
    cmd = [sim, *args, "--stats-json", str(out)]
    if trace:
        cmd += ["--trace", str(trace)]
    try:
        run_ok(cmd)
    except CheckError as e:
        raise SystemExit(f"FAIL: {' '.join(map(str, cmd))} {e}")
    return json.loads(Path(out).read_text())


def scrub(doc):
    for field in IGNORED_MANIFEST_FIELDS:
        doc.get("manifest", {}).pop(field, None)
    return doc


def diff_paths(a, b, prefix=""):
    """Yield human-readable paths where two JSON values differ."""
    if type(a) is not type(b):
        yield f"{prefix}: type {type(a).__name__} vs {type(b).__name__}"
        return
    if isinstance(a, dict):
        for k in sorted(set(a) | set(b)):
            p = f"{prefix}.{k}" if prefix else str(k)
            if k not in a or k not in b:
                yield f"{p}: present in only one run"
            else:
                yield from diff_paths(a[k], b[k], p)
    elif isinstance(a, list):
        if len(a) != len(b):
            yield f"{prefix}: length {len(a)} vs {len(b)}"
            return
        for i, (x, y) in enumerate(zip(a, b)):
            yield from diff_paths(x, y, f"{prefix}[{i}]")
    elif a != b:
        yield f"{prefix}: {a!r} vs {b!r}"


def main():
    argv = sys.argv[1:]
    with_trace = bool(argv) and argv[0] == "--with-trace"
    if with_trace:
        argv = argv[1:]
    if not argv:
        raise SystemExit(__doc__)
    sim = argv[0]
    extra = argv[1:]
    second = []
    if "--" in extra:
        cut = extra.index("--")
        extra, second = extra[:cut], extra[cut + 1:]
        if not extra or not second:
            raise SystemExit("'--' needs a configuration before it and "
                             "second-run arguments after it")
    configs = [extra] if extra else DEFAULT_CONFIGS

    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, cfg in enumerate(configs):
            traces = [Path(tmp) / f"{i}_{r}.jsonl" if with_trace else None
                      for r in "ab"]
            a = scrub(run_once(sim, cfg, Path(tmp) / f"{i}_a.json",
                               traces[0]))
            b = scrub(run_once(sim, cfg + second,
                               Path(tmp) / f"{i}_b.json", traces[1]))
            diffs = list(diff_paths(a, b))
            if with_trace:
                ta, tb = (t.read_text().splitlines() for t in traces)
                if len(ta) < 3:
                    diffs.append(f"trace: only {len(ta)} line(s), "
                                 "no events to compare")
                diffs += [f"trace{p}" for p in
                          diff_paths([json.loads(x) for x in ta],
                                     [json.loads(x) for x in tb])]
            label = " ".join(cfg)
            if second:
                label += " | second run adds " + " ".join(second)
            if diffs:
                failures += 1
                print(f"FAIL [{label}]: {len(diffs)} divergent "
                      "field(s):")
                for d in diffs[:20]:
                    print(f"  {d}")
            else:
                print(f"OK   [{label}]")
    if failures:
        raise SystemExit(f"{failures} configuration(s) diverged "
                         "between the two runs")
    print(f"determinism: {len(configs)} configuration(s), repeat runs "
          "bit-identical")


if __name__ == "__main__":
    main()
