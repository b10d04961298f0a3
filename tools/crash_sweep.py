#!/usr/bin/env python3
"""Crash-recovery sweep: cut durable runs at random ticks and verify
that log-replay recovery rebuilds a correct image every time.

For each seed K in [start, start+N) the sweep:

 1. runs ptm_sim once volatile to learn the run's cycle count;
 2. derives a deterministic crash tick in (0, cycles) from K, so the
    sweep is reproducible without coordinating RNGs with the C++ side;
 3. re-runs with `--durability wal --wal-file DUMP --crash-at-tick T
    --audit` — the run is cut mid-flight and dumps the persistent
    image plus the durable prefix of the redo log;
 4. validates the dump's framing, record CRCs, and commit ordering
    with check_wal.py;
 5. on a fraction of the seeds, forges a torn tail (rewrites the
    durable byte count down into the last record and truncates the
    file) to model a crash mid-drain even when the cut fell between
    device flushes;
 6. runs `ptm_sim --recover DUMP` and requires "recover: verified
    yes" and exit 0 — replay rebuilt an auditor-clean image that is
    bit-exact against the workload's committed-prefix oracle.

Writes a ptm-chaos-v1 JSON report (same record shape as
chaos_sweep.py, with per-phase stderr tails on failures). Exits
non-zero if any seed fails any phase.

    crash_sweep.py PTM_SIM --seeds 30 --system sel-ptm
    crash_sweep.py PTM_SIM --seeds 30 --system copy-ptm --out r.json

Arguments after `--` are passed to every ptm_sim run verbatim.
"""

import os
import re
import subprocess
import sys
import tempfile

import check_wal
from ptmtools import parse_sweep, run, sweep, sweep_parser


def lcg_below(seed, span):
    """Deterministic tick draw: one splitmix64 step, reduced to span."""
    x = (seed + 0x9E3779B97F4A7C15) & (1 << 64) - 1
    x = ((x ^ x >> 30) * 0xBF58476D1CE4E5B9) & (1 << 64) - 1
    x = ((x ^ x >> 27) * 0x94D049BB133111EB) & (1 << 64) - 1
    return (x ^ x >> 31) % span


def sim_cmd(args, seed, extra):
    return [args.sim,
            "--workload", args.workload,
            "--system", args.system,
            "--scale", str(args.scale),
            "--threads", str(args.threads),
            "--seed", str(seed)] + extra


def fail(rec, phase, why, proc=None):
    rec["error"] = f"{phase}: {why}"
    tail = (proc.stderr.strip().splitlines()[-10:]) if proc else []
    if tail:
        rec["stderr"] = tail
    return rec


def run_one(args, seed, extra, wal_path):
    rec = {"chaos_seed": seed, "exit": None, "verified": False,
           "violations": [], "repro": None}

    # Phase 1: learn the run length so the crash tick always lands
    # inside the run.
    try:
        ref = run(sim_cmd(args, seed, extra), timeout=args.timeout)
    except subprocess.TimeoutExpired:
        return fail(rec, "reference", f"timeout after {args.timeout}s")
    m = re.search(r"^cycles\s+(\d+)", ref.stdout, re.M)
    if ref.returncode != 0 or not m:
        return fail(rec, "reference",
                    f"exit {ref.returncode}, no cycle count", ref)
    cycles = int(m.group(1))
    crash_tick = 1 + lcg_below(seed, max(cycles - 1, 1))
    rec["crash_tick"] = crash_tick

    # Phase 2: the durable run, cut mid-flight.
    cmd = sim_cmd(args, seed, extra) + [
        "--durability", "wal", "--wal-file", wal_path,
        "--crash-at-tick", str(crash_tick), "--audit"]
    rec["repro"] = " ".join(cmd[1:])
    try:
        prod = run(cmd, timeout=args.timeout)
    except subprocess.TimeoutExpired:
        return fail(rec, "producer", f"timeout after {args.timeout}s")
    for line in prod.stderr.splitlines():
        if line.startswith("audit-violation:"):
            rec["violations"].append(
                line[len("audit-violation:"):].strip())
    if prod.returncode != 0 or rec["violations"]:
        return fail(rec, "producer",
                    f"exit {prod.returncode}, "
                    f"{len(rec['violations'])} violation(s)", prod)
    if not os.path.exists(wal_path):
        return fail(rec, "producer", "no dump written", prod)

    # Phase 3: independent schema validation of the dump.
    problems = check_wal.check_dump(wal_path)
    if problems:
        return fail(rec, "check_wal", "; ".join(problems))

    # Phase 4: forge a torn tail on every torn_every-th seed so the
    # mid-record recovery path is exercised even when the crash tick
    # fell between device flushes.
    if args.torn_every and seed % args.torn_every == 0:
        d = check_wal.parse_dump(wal_path)
        durable = len(d["log"])
        if durable > 8:
            cut = 1 + lcg_below(seed + 1, min(durable - 1, 64))
            check_wal.truncate_dump(wal_path, cut)
            rec["torn_forged_bytes"] = cut

    # Phase 5: recovery must replay the durable prefix into an
    # auditor-clean, oracle-bit-exact image.
    try:
        rcv = run([args.sim, "--recover", wal_path],
                  timeout=args.timeout)
    except subprocess.TimeoutExpired:
        return fail(rec, "recover", f"timeout after {args.timeout}s")
    rec["exit"] = rcv.returncode
    rec["verified"] = any(
        line.strip() == "recover: verified yes"
        for line in rcv.stdout.splitlines())
    mt = re.search(r"^recover: torn tail: (\d+) bytes", rcv.stdout,
                   re.M)
    if mt:
        rec["torn_bytes_discarded"] = int(mt.group(1))
    mr = re.search(r"^recover: replayed (\d+) durable commits",
                   rcv.stdout, re.M)
    if mr:
        rec["replayed_commits"] = int(mr.group(1))
    if rcv.returncode != 0 or not rec["verified"]:
        return fail(rec, "recover",
                    f"exit {rcv.returncode}, verified "
                    f"{rec['verified']}", rcv)
    return rec


def main():
    ap = sweep_parser(__doc__, workload="kv", seeds=30)
    ap.add_argument("--torn-every", type=int, default=3,
                    help="forge a torn log tail on every Nth seed "
                         "(0 = never; default 3)")
    args, extra = parse_sweep(ap)

    def ok_note(rec):
        note = (f"  torn {rec['torn_bytes_discarded']}B"
                if "torn_bytes_discarded" in rec else "")
        return (f"  crash@{rec['crash_tick']} "
                f"replayed {rec.get('replayed_commits', 0)}{note}")

    with tempfile.TemporaryDirectory() as td:
        report = sweep(
            args, extra, "crash",
            lambda k: run_one(args, k, extra,
                              os.path.join(td, f"crash-{k}.wal")),
            why_default="recovery not verified", ok_note=ok_note,
            summary=lambda runs: {"torn_tail_runs": sum(
                "torn_bytes_discarded" in r for r in runs)})
    bad = report["failed_runs"]
    print(f"{args.seeds} seeds, {bad} failing, "
          f"{report['torn_tail_runs']} torn-tail case(s), "
          f"{report['total_violations']} violation(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
