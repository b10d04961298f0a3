#!/usr/bin/env python3
"""Chaos sweep: fuzz the simulator with seeded fault injection.

Runs ptm_sim N times with `--chaos --chaos-seed K --audit` for K in
[start, start+N), collects every "audit-violation:" / "repro:" line
and every functional-verification failure, and writes a ptm-chaos-v1
JSON report. Exits non-zero if any run aborted the sweep's contract:
an audit violation, a wrong functional result, or a crashed simulator.

    chaos_sweep.py PTM_SIM --seeds 20 --system sel-ptm
    chaos_sweep.py PTM_SIM --seeds 50 --workload ocean --out sweep.json
    chaos_sweep.py PTM_SIM --seeds 20 --plan abort,flush,preempt

Arguments after `--` are passed to ptm_sim verbatim (e.g. `--
--backoff --retry-budget 8`).
"""

import subprocess
import sys

from ptmtools import parse_sweep, run, sweep, sweep_parser


def run_one(args, chaos_seed, extra):
    cmd = [
        args.sim,
        "--workload", args.workload,
        "--system", args.system,
        "--scale", str(args.scale),
        "--threads", str(args.threads),
        "--chaos",
        "--chaos-seed", str(chaos_seed),
        "--audit",
    ]
    if args.plan:
        cmd += ["--chaos-plan", args.plan]
    cmd += extra
    try:
        proc = run(cmd, timeout=args.timeout)
    except subprocess.TimeoutExpired:
        return {"chaos_seed": chaos_seed, "exit": None,
                "verified": False, "violations": [], "repro": None,
                "error": f"timeout after {args.timeout}s"}

    violations = []
    repro = None
    for line in proc.stderr.splitlines():
        if line.startswith("audit-violation:"):
            violations.append(line[len("audit-violation:"):].strip())
        elif line.startswith("repro:"):
            repro = line[len("repro:"):].strip()

    verified = True
    for line in proc.stdout.splitlines():
        if line.startswith("verified") and line.split()[-1] != "yes":
            verified = False

    rec = {
        "chaos_seed": chaos_seed,
        "exit": proc.returncode,
        "verified": verified,
        "violations": violations,
        "repro": repro,
    }
    if proc.returncode != 0 or not verified or violations:
        # Keep the verifier's stderr tail on every failing record so
        # the report is diagnosable without re-running the seed.
        rec["stderr"] = proc.stderr.strip().splitlines()[-10:]
    if proc.returncode != 0 and verified and not violations:
        # Crash or internal panic: keep the tail for the report.
        rec["error"] = proc.stderr.strip().splitlines()[-5:]
    return rec


def main():
    ap = sweep_parser(__doc__, workload="fft", seeds=20)
    ap.add_argument("--plan", default="",
                    help="chaos plan (fault-name list; default all)")
    args, extra = parse_sweep(ap)
    report = sweep(args, extra, args.plan or "all",
                   lambda k: run_one(args, k, extra),
                   why_default="verification failed")
    bad = report["failed_runs"]
    print(f"{args.seeds} seeds, {bad} failing, "
          f"{report['total_violations']} violation(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
