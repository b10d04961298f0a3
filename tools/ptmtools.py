"""Plumbing shared by the tools/ scripts.

Readers for the simulator's output formats (concatenated JSON, JSONL),
running ptm_sim and loading what it wrote, the typed-field table
check, a "group.stat" accessor, the checker entry point and verdict
lines, the self-test harness, and the seed-sweep driver of
chaos_sweep.py and crash_sweep.py.

What a checker expects of the simulator's output (field tables, event
names, reconciliations) stays written out in the checker itself; this
module only knows how to read and report.
"""

import argparse
import json
import os
import subprocess
import sys


class CheckError(Exception):
    """A run or file a check depends on is unusable; str() says why."""


# ------------------------------------------------------------- readers

def parse_docs(text):
    """Split text holding concatenated JSON documents."""
    docs = []
    dec = json.JSONDecoder()
    i, n = 0, len(text)
    while i < n:
        while i < n and text[i].isspace():
            i += 1
        if i >= n:
            break
        doc, end = dec.raw_decode(text, i)
        docs.append(doc)
        i = end
    return docs


def jsonl(lines, start=1):
    """Yield (line number, record, error) for every non-blank line.

    record is None and error the decode error on a line that is not
    JSON.
    """
    for n, line in enumerate(lines, start):
        if not line.strip():
            continue
        try:
            yield n, json.loads(line), None
        except json.JSONDecodeError as e:
            yield n, None, e


def read_trace(lines):
    """Split a ptm-trace-v1 JSONL stream into header and captures.

    Returns (header, captures, errors); header is None when the first
    line is not a JSON object. Each capture is {"line": its line
    number, "capture": its record, "events": [(line number, event
    record), ...]}. errors names what no reader can get past: an
    undecodable line, an event before any capture, an unknown line
    type, and a capture count that disagrees with the header.
    """
    try:
        header = json.loads(lines[0])
    except (json.JSONDecodeError, IndexError) as e:
        return None, [], [f"bad header line: {e}"]
    if not isinstance(header, dict):
        return None, [], ["header line is not an object"]
    captures = []
    errors = []
    for n, rec, bad in jsonl(lines[1:], start=2):
        ty = rec.get("type") if isinstance(rec, dict) else None
        if bad:
            errors.append(f"line {n}: invalid JSON: {bad}")
        elif ty == "capture":
            captures.append({"line": n, "capture": rec, "events": []})
        elif ty == "ev" and captures:
            captures[-1]["events"].append((n, rec))
        elif ty == "ev":
            errors.append(f"line {n}: event before any capture line")
        else:
            errors.append(f"line {n}: unknown line type {ty!r}")
    if len(captures) != header.get("captures"):
        errors.append(f"header says {header.get('captures')} captures, "
                      f"found {len(captures)}")
    return header, captures, errors


def load_json(path, what, docs=False):
    """Parse the JSON file at path; CheckError names `what` if not.

    With docs=True the file holds concatenated documents and the
    result is their list.
    """
    try:
        with open(path) as f:
            return parse_docs(f.read()) if docs else json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise CheckError(f"{what} not readable: {e}")


def stat(doc, path, field="value", default=None):
    """One field of the stat at "group.stat" in a ptm-stats-v1 doc."""
    group, name = path.split(".", 1)
    return (doc.get("groups", {}).get(group, {}).get(name, {})
            .get(field, default))


# -------------------------------------------------------------- typing

def has_type(value, ty):
    """isinstance, except that a bool is only a bool.

    Python's bool is an int, so a plain isinstance lets a JSON true
    stand in for a number; here it passes only where ty lists bool.
    """
    tys = ty if isinstance(ty, tuple) else (ty,)
    if isinstance(value, bool) and bool not in tys:
        return False
    return isinstance(value, tys)


def field_errors(rec, fields, where, required=True):
    """Errors for rec's fields that do not have their table's type.

    fields maps a field name to a type or a tuple of types. A missing
    field is an error only when required.
    """
    errors = []
    for f, ty in fields.items():
        if f not in rec:
            if required:
                errors.append(f"{where}: {f} missing")
        elif not has_type(rec[f], ty):
            errors.append(
                f"{where}: {f} has type {type(rec[f]).__name__}")
    return errors


# ---------------------------------------------------------- subprocess

def run(cmd, **kw):
    """Run cmd with text stdout and stderr captured."""
    return subprocess.run([str(c) for c in cmd], capture_output=True,
                          text=True, **kw)


def run_ok(cmd, **kw):
    """run(), raising CheckError("exited N: <stderr>") on failure."""
    proc = run(cmd, **kw)
    if proc.returncode != 0:
        raise CheckError(
            f"{os.path.basename(str(cmd[0]))} exited "
            f"{proc.returncode}: {proc.stderr.strip()[-500:]}")
    return proc


def sim_stats(cmd, **kw):
    """Run a ptm_sim command with `--stats-json -`; return the doc."""
    proc = run_ok(list(cmd) + ["--stats-json", "-"], **kw)
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError as e:
        raise CheckError(f"stdout is not one JSON document: {e}")


# ------------------------------------------------------------ verdicts

def status(errors):
    """The verdict word of a check: "ok" or "N error(s)"."""
    return "ok" if not errors else f"{len(errors)} error(s)"


def run_sections(sections, width):
    """Run (label, check) pairs, print one verdict line per section.

    A check returns a list of errors or raises CheckError; every error
    comes back prefixed by its section's label.
    """
    failures = []
    for label, check in sections:
        try:
            errs = check()
        except CheckError as e:
            errs = [str(e)]
        print(f"{label:{width}s} {status(errs)}")
        failures.extend(f"{label}: {e}" for e in errs)
    return failures


def finish(errors):
    """Print every error on stderr; the exit code of a checker."""
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    return 1 if errors else 0


def verdict(name, check, *args):
    """Run one check; print its errors and `name: ok|N error(s)`."""
    try:
        errors = check(*args)
    except CheckError as e:
        errors = [str(e)]
    code = finish(errors)
    print(f"{name}: {status(errors)}")
    return code


def checker_main(check, self_test, usage):
    """`SCRIPT PATH_TO_PTM_SIM` runs check; `--self-test` runs self_test."""
    args = sys.argv[1:]
    if args == ["--self-test"]:
        return self_test()
    if len(args) != 1:
        print(usage, file=sys.stderr)
        return 2
    return check(args[0])


class SelfTest:
    """Collects the outcome of a checker's crafted-input cases."""

    def __init__(self):
        self.failures = []

    def clean(self, errors, what):
        """A well-formed input must pass without errors."""
        if errors:
            self.failures.append(f"{what} flagged: {errors}")

    def flags(self, errors, needle, what):
        """A crafted bad input must raise an error mentioning needle."""
        if not any(needle in e for e in errors):
            self.failures.append(f"{what} not detected")

    def expect(self, ok, what):
        """Any other condition a case must meet."""
        if not ok:
            self.failures.append(what)

    def report(self):
        for f in self.failures:
            print(f"self-test FAIL: {f}", file=sys.stderr)
        print("self-test: " + ("ok" if not self.failures else
                               f"{len(self.failures)} failure(s)"))
        return 1 if self.failures else 0


# --------------------------------------------------------- seed sweeps

def sweep_parser(doc, workload, seeds):
    """The options every seed sweep takes; the caller adds its own."""
    ap = argparse.ArgumentParser(
        description=doc,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("sim", help="path to the ptm_sim binary")
    ap.add_argument("--seeds", type=int, default=seeds,
                    help=f"number of seeds to sweep (default {seeds})")
    ap.add_argument("--start", type=int, default=1,
                    help="first seed (default 1)")
    ap.add_argument("--workload", default=workload)
    ap.add_argument("--system", default="sel-ptm")
    ap.add_argument("--scale", type=int, default=0)
    ap.add_argument("--threads", type=int, default=4)
    ap.add_argument("--timeout", type=int, default=120,
                    help="per-run timeout in seconds (default 120)")
    ap.add_argument("--out", default="",
                    help="write the ptm-chaos-v1 JSON report to FILE")
    return ap


def parse_sweep(ap):
    """(args, extra): extra is what follows `--`, passed to ptm_sim."""
    args, extra = ap.parse_known_args()
    if extra and extra[0] == "--":
        extra = extra[1:]
    return args, extra


def sweep(args, extra, plan, one, why_default,
          ok_note=lambda rec: "", summary=lambda runs: {}):
    """Run one(seed) per seed; print a line each; write the report.

    one returns a record with exit, verified, violations and repro
    (and error on a failed phase). Returns the ptm-chaos-v1 report.
    """
    runs = []
    bad = 0
    for k in range(args.start, args.start + args.seeds):
        rec = one(k)
        runs.append(rec)
        if (rec["exit"] == 0 and rec["verified"]
                and not rec["violations"] and "error" not in rec):
            print(f"seed {k:4d} ok{ok_note(rec)}")
            continue
        bad += 1
        why = ("; ".join(rec["violations"]) or rec.get("error")
               or why_default)
        print(f"seed {k:4d} FAIL  {why}", file=sys.stderr)
        if rec["repro"]:
            print(f"          repro: {rec['repro']}", file=sys.stderr)

    report = {
        "schema": "ptm-chaos-v1",
        "workload": args.workload,
        "system": args.system,
        "scale": args.scale,
        "threads": args.threads,
        "plan": plan,
        "extra_args": extra,
        "seeds": args.seeds,
        "first_seed": args.start,
        "failed_runs": bad,
        **summary(runs),
        "total_violations": sum(len(r["violations"]) for r in runs),
        "runs": runs,
    }
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return report
