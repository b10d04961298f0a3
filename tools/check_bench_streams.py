#!/usr/bin/env python3
"""Guard the machine-readable stdout streams of the bench binaries.

Checks two invocations of the first bench given, at --scale 0:

 1. `--json - --trace FILE`  : stdout must be exactly one parseable
    ptm-bench-v1 JSON document (tables/status must go to stderr);
 2. `--trace - --json FILE`  : stdout must be machine-clean JSONL
    (every non-empty line parses as a JSON object).

Every bench given, the first included, must also refuse bad usage
before running anything:

 3. `--json - --trace -`     : both streams cannot own stdout -- exit
    code 2, nothing on stdout, a diagnostic on stderr;
 4. `--wal-file x`           : exit code 2 (a single-run option).

Usage: check_bench_streams.py BENCH [BENCH ...]
"""

import json
import os
import sys
import tempfile

from ptmtools import run, status


def check(bench, tmpdir):
    errors = []
    trace_path = os.path.join(tmpdir, "t.jsonl")
    json_path = os.path.join(tmpdir, "b.json")

    # 1. JSON owns stdout; trace goes to a file.
    proc = run([bench, "--scale", "0", "--json", "-",
                "--trace", trace_path])
    if proc.returncode != 0:
        errors.append(f"--json -: exited {proc.returncode}")
    else:
        try:
            doc = json.loads(proc.stdout)
            if doc.get("schema") != "ptm-bench-v1":
                errors.append(f"--json -: bad schema tag "
                              f"{doc.get('schema')!r}")
            if not doc.get("rows"):
                errors.append("--json -: no rows")
        except json.JSONDecodeError as e:
            errors.append(f"--json -: stdout not clean JSON: {e}")
        if not os.path.exists(trace_path):
            errors.append("--json -: trace file not written")

    # 2. Trace owns stdout; JSON goes to a file.
    proc = run([bench, "--scale", "0", "--trace", "-",
                "--json", json_path])
    if proc.returncode != 0:
        errors.append(f"--trace -: exited {proc.returncode}")
    else:
        lines = [l for l in proc.stdout.splitlines() if l.strip()]
        if not lines:
            errors.append("--trace -: no trace records on stdout")
        for i, line in enumerate(lines):
            try:
                rec = json.loads(line)
                if not isinstance(rec, dict):
                    raise ValueError("not an object")
            except (json.JSONDecodeError, ValueError) as e:
                errors.append(
                    f"--trace -: stdout line {i + 1} not a JSON "
                    f"object: {e} ({line[:60]!r})")
                break
        try:
            with open(json_path) as f:
                json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            errors.append(f"--trace -: side JSON file bad: {e}")
    return errors


def check_refusals(bench):
    errors = []
    # 3. Both on stdout must be refused with exit 2, stdout silent.
    proc = run([bench, "--json", "-", "--trace", "-"])
    if proc.returncode != 2:
        errors.append(f"--json - --trace -: expected exit 2, got "
                      f"{proc.returncode}")
    if proc.stdout.strip():
        errors.append("--json - --trace -: stdout not empty on refusal")
    if "stdout" not in proc.stderr:
        errors.append("--json - --trace -: no diagnostic on stderr")
    proc = run([bench, "--wal-file", "x"])
    if proc.returncode != 2:
        errors.append(f"--wal-file x: expected exit 2, got "
                      f"{proc.returncode}")
    return errors


def main():
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    failed = 0
    with tempfile.TemporaryDirectory() as tmpdir:
        for i, bench in enumerate(sys.argv[1:]):
            errors = check(bench, tmpdir) if i == 0 else []
            errors += check_refusals(bench)
            name = os.path.basename(bench)
            for e in errors:
                print(f"error: {name}: {e}", file=sys.stderr)
            print(f"{name}: {status(errors)}")
            failed += bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
