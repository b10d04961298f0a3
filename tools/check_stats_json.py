#!/usr/bin/env python3
"""Schema checker for ptm_sim --stats-json output.

Runs ptm_sim for every system kind at the tiny test scale, parses the
emitted ptm-stats-v1 JSON, and validates the schema: manifest fields
and types, required stat groups per system, and the per-kind stat
encodings. Exits non-zero (with a message per failure) if any run or
check fails.

Usage: check_stats_json.py PATH_TO_PTM_SIM
"""

import json
import subprocess
import sys

SYSTEMS = ["serial", "locks", "copy-ptm", "sel-ptm", "vtm", "vc-vtm"]

MANIFEST_FIELDS = {
    "tool": str,
    "workload": str,
    "system": str,
    "granularity": str,
    "seed": (int, float),
    "threads": (int, float),
    "scale": (int, float),
    "workload_options": dict,
    "cycles": (int, float),
    "verified": bool,
    "wall_seconds": (int, float),
    "events_per_sec": (int, float),
    "sim_events_per_sec": (int, float),
    "sim_ticks_per_wall_sec": (int, float),
    "git": str,
    "params": dict,
}

STAT_KINDS = {
    "counter": ["value"],
    "scalar": ["value"],
    "average": ["mean", "samples"],
    "time_weighted": ["mean"],
    "distribution": [
        "samples", "sum", "mean", "min", "max", "p50", "p95", "p99",
        "bucket_lo", "bucket_width", "underflow", "overflow", "counts",
    ],
}

BASE_GROUPS = ["sys", "tx", "mem", "os", "core0", "events",
               "flightrec"]

PROF_BUCKETS = {
    "idle", "non_tx", "tx_useful", "tx_wasted", "stall_l1", "stall_l2",
    "stall_mem", "stall_conflict", "stall_xlat", "fault_swap",
    "tx_begin", "tx_commit", "tx_abort", "tx_persist", "ctx_switch",
    "barrier",
}

PROF_CHARGES = {
    "meta_lookup", "tav_lookup", "commit_cleanup", "abort_cleanup",
    "overflow_spill", "false_stall", "page_fault", "swap_io",
    "committed_tx_ticks", "aborted_tx_ticks", "log_flush",
}


def check_run(ptm_sim, system):
    errors = []
    cmd = [
        ptm_sim, "--workload", "fft", "--system", system,
        "--scale", "0", "--threads", "2", "--stats-json", "-",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        return [f"{system}: ptm_sim exited {proc.returncode}: "
                f"{proc.stderr.strip()}"]
    try:
        doc = json.loads(proc.stdout)
    except json.JSONDecodeError as e:
        return [f"{system}: invalid JSON: {e}"]

    if doc.get("schema") != "ptm-stats-v1":
        errors.append(f"{system}: bad schema tag {doc.get('schema')!r}")

    manifest = doc.get("manifest", {})
    for field, ty in MANIFEST_FIELDS.items():
        if field not in manifest:
            errors.append(f"{system}: manifest missing {field!r}")
        elif not isinstance(manifest[field], ty):
            errors.append(
                f"{system}: manifest.{field} has type "
                f"{type(manifest[field]).__name__}")
    if not manifest.get("verified", False):
        errors.append(f"{system}: run did not verify")

    groups = doc.get("groups", {})
    expected = list(BASE_GROUPS)
    if system in ("copy-ptm", "sel-ptm"):
        expected.append("vts")
    if system in ("vtm", "vc-vtm"):
        expected.append("vtm")
    for g in expected:
        if g not in groups:
            errors.append(f"{system}: missing group {g!r}")
        elif not groups[g]:
            errors.append(f"{system}: group {g!r} is empty")

    for gname, stats in groups.items():
        for sname, stat in stats.items():
            kind = stat.get("kind")
            if kind not in STAT_KINDS:
                errors.append(
                    f"{system}: {gname}.{sname} has bad kind {kind!r}")
                continue
            for field in STAT_KINDS[kind]:
                if field not in stat:
                    errors.append(
                        f"{system}: {gname}.{sname} ({kind}) missing "
                        f"{field!r}")
            if kind == "distribution":
                counts = stat.get("counts", [])
                if not isinstance(counts, list) or not counts:
                    errors.append(
                        f"{system}: {gname}.{sname} counts not a "
                        "non-empty list")
                p50 = stat.get("p50", 0)
                p95 = stat.get("p95", 0)
                p99 = stat.get("p99", 0)
                if not p50 <= p95 <= p99:
                    errors.append(
                        f"{system}: {gname}.{sname} percentiles not "
                        f"ordered: {p50} / {p95} / {p99}")
                if stat.get("samples") and not (
                        stat.get("min", 0) <= p50
                        and p99 <= stat.get("max", 0)):
                    errors.append(
                        f"{system}: {gname}.{sname} percentiles "
                        "outside [min, max]")

    # Spot-check run-level consistency.
    if "sys" in groups and "cycles" in groups["sys"]:
        if groups["sys"]["cycles"]["value"] != manifest.get("cycles"):
            errors.append(
                f"{system}: sys.cycles != manifest.cycles")
    return errors


def check_workload_options(ptm_sim):
    """The manifest must echo the resolved per-workload options.

    User-given --wl-opt values must round-trip verbatim and options
    left at their declared default must still appear (the manifest
    records the *resolved* table, not just the overrides).
    """
    cmd = [
        ptm_sim, "--workload", "kv", "--system", "sel-ptm",
        "--scale", "0", "--threads", "2",
        "--wl-opt", "zipf=0.5", "--wl-opt", "tx-ops=4",
        "--stats-json", "-",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        return [f"wl-opt: ptm_sim exited {proc.returncode}: "
                f"{proc.stderr.strip()}"]
    try:
        doc = json.loads(proc.stdout)
    except json.JSONDecodeError as e:
        return [f"wl-opt: invalid JSON: {e}"]
    errors = []
    wopts = doc.get("manifest", {}).get("workload_options")
    if not isinstance(wopts, dict):
        return ["wl-opt: manifest.workload_options missing"]
    for key, want in (("zipf", "0.5"), ("tx-ops", "4")):
        if wopts.get(key) != want:
            errors.append(
                f"wl-opt: option {key!r} did not round-trip: "
                f"{wopts.get(key)!r} != {want!r}")
    for key in ("keys", "ops", "scan-len"):
        if key not in wopts:
            errors.append(f"wl-opt: default option {key!r} not recorded")
    return errors


def check_profile(ptm_sim):
    """Validate the optional "profile" section under --profile.

    The cycle accounting is exact by construction: every core's bucket
    ticks must sum to its total, and every total must equal the run's
    elapsed ticks.
    """
    errors = []
    cmd = [
        ptm_sim, "--workload", "fft", "--system", "sel-ptm",
        "--scale", "0", "--threads", "2", "--stats-json", "-",
        "--profile", "--host-profile",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        return [f"profile: ptm_sim exited {proc.returncode}: "
                f"{proc.stderr.strip()}"]
    try:
        doc = json.loads(proc.stdout)
    except json.JSONDecodeError as e:
        return [f"profile: stdout not clean JSON with --profile: {e}"]

    prof = doc.get("profile")
    if not isinstance(prof, dict):
        return ["profile: section missing from --profile run"]

    elapsed = prof.get("elapsed_ticks")
    if not isinstance(elapsed, int) or elapsed <= 0:
        errors.append(f"profile: bad elapsed_ticks {elapsed!r}")
    cores = prof.get("cores")
    if not isinstance(cores, list) or not cores:
        errors.append("profile: cores missing or empty")
        cores = []
    for i, core in enumerate(cores):
        ticks = core.get("ticks", {})
        unknown = set(ticks) - PROF_BUCKETS
        if unknown:
            errors.append(
                f"profile: core {i} unknown buckets {sorted(unknown)}")
        total = core.get("total")
        if sum(ticks.values()) != total:
            errors.append(
                f"profile: core {i} bucket sum {sum(ticks.values())} "
                f"!= total {total}")
        if total != elapsed:
            errors.append(
                f"profile: core {i} total {total} != elapsed_ticks "
                f"{elapsed}")
    # Parked time behind older transactions is one quantity seen by
    # two components; fft's two threads do contend, so it is not 0.
    stalled = sum(c.get("ticks", {}).get("stall_conflict", 0)
                  for c in cores)
    parked = (doc.get("groups", {}).get("tx", {})
              .get("conflict_stall_ticks", {}).get("value"))
    if stalled <= 0 or stalled != parked:
        errors.append(
            f"profile: stall_conflict ticks {stalled} != "
            f"tx.conflict_stall_ticks {parked} (must be > 0)")
    sup = prof.get("supervisor")
    if not isinstance(sup, dict):
        errors.append("profile: supervisor section missing")
    else:
        unknown = set(sup) - PROF_CHARGES
        if unknown:
            errors.append(
                f"profile: unknown supervisor charges {sorted(unknown)}")
    host = prof.get("host")
    if not isinstance(host, dict):
        errors.append("profile: host section missing under "
                      "--host-profile")
    else:
        if not isinstance(host.get("sample_interval"), int) or \
                host["sample_interval"] < 1:
            errors.append("profile: bad host.sample_interval")
        sites = host.get("sites")
        if not isinstance(sites, list) or not sites:
            errors.append("profile: host.sites missing or empty")
        else:
            for s in sites:
                for field in ("name", "events", "sampled",
                              "sampled_ns", "estimated_ns"):
                    if field not in s:
                        errors.append(
                            f"profile: host site missing {field!r}")
                        break

    # Off by default: a plain run must not carry the section.
    proc = subprocess.run(
        [ptm_sim, "--workload", "fft", "--system", "sel-ptm",
         "--scale", "0", "--threads", "2", "--stats-json", "-"],
        capture_output=True, text=True)
    if proc.returncode == 0:
        try:
            plain = json.loads(proc.stdout)
            if "profile" in plain:
                errors.append(
                    "profile: section present without --profile")
        except json.JSONDecodeError as e:
            errors.append(f"profile: plain run JSON invalid: {e}")
    else:
        errors.append(f"profile: plain run exited {proc.returncode}")
    return errors


def check_hot_pages(ptm_sim):
    """Validate the optional "hot_pages" section under --heatmap.

    The per-page contention attribution must be present (and carry the
    documented shape) when --heatmap is given, and absent otherwise.
    The space-saving counters preserve totals exactly, so each cause's
    page-list counts must sum to that cause's total.
    """
    errors = []
    cmd = [
        ptm_sim, "--workload", "kv", "--system", "sel-ptm",
        "--scale", "0", "--threads", "4",
        "--wl-opt", "zipf=0.99", "--stats-json", "-", "--heatmap",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        return [f"hot_pages: ptm_sim exited {proc.returncode}: "
                f"{proc.stderr.strip()}"]
    try:
        doc = json.loads(proc.stdout)
    except json.JSONDecodeError as e:
        return [f"hot_pages: invalid JSON: {e}"]

    hot = doc.get("hot_pages")
    if not isinstance(hot, dict):
        return ["hot_pages: section missing from --heatmap run"]
    if not isinstance(hot.get("k"), int) or hot["k"] < 1:
        errors.append(f"hot_pages: bad k {hot.get('k')!r}")

    def check_entries(where, entries, keyname):
        if not isinstance(entries, list):
            errors.append(f"hot_pages: {where} not a list")
            return 0
        total = 0
        prev = None
        for e in entries:
            for field in (keyname, "count", "err"):
                if not isinstance(e.get(field), int):
                    errors.append(
                        f"hot_pages: {where} entry missing int "
                        f"{field!r}")
                    return total
            if e["err"] > e["count"]:
                errors.append(
                    f"hot_pages: {where} err {e['err']} > count "
                    f"{e['count']}")
            if prev is not None and e["count"] > prev:
                errors.append(f"hot_pages: {where} not sorted by count")
            prev = e["count"]
            total += e["count"]
        return total

    conf = hot.get("conflicts")
    if not isinstance(conf, dict):
        errors.append("hot_pages: conflicts section missing")
    else:
        total = conf.get("total")
        page_sum = check_entries("conflicts.pages",
                                 conf.get("pages"), "page")
        check_entries("conflicts.blocks", conf.get("blocks"), "block")
        if not isinstance(total, int) or total < 1:
            errors.append(
                "hot_pages: no conflicts attributed under zipf=0.99")
        elif page_sum != total:
            errors.append(
                f"hot_pages: conflict page counts sum {page_sum} != "
                f"total {total} (space-saving must preserve totals)")

    aborts = hot.get("aborts")
    if not isinstance(aborts, dict):
        errors.append("hot_pages: aborts section missing")
    else:
        stats = doc.get("groups", {}).get("tx", {})
        for cause in ("conflict", "nontx", "multiwriter", "explicit"):
            sec = aborts.get(cause)
            if not isinstance(sec, dict):
                errors.append(f"hot_pages: aborts.{cause} missing")
                continue
            total = sec.get("total")
            page_sum = check_entries(f"aborts.{cause}.pages",
                                     sec.get("pages"), "page")
            if page_sum != total:
                errors.append(
                    f"hot_pages: aborts.{cause} page sum {page_sum} "
                    f"!= total {total}")
            counter = stats.get(f"aborts_{cause}", {}).get("value")
            if counter is not None and total != counter:
                errors.append(
                    f"hot_pages: aborts.{cause}.total {total} != "
                    f"tx.aborts_{cause} {counter}")

    for sec in ("spt_misses", "tav_misses", "shadow_allocs"):
        entry = hot.get(sec)
        if not isinstance(entry, dict):
            errors.append(f"hot_pages: {sec} section missing")
            continue
        page_sum = check_entries(f"{sec}.pages", entry.get("pages"),
                                 "page")
        if page_sum != entry.get("total"):
            errors.append(
                f"hot_pages: {sec} page sum {page_sum} != total "
                f"{entry.get('total')}")

    # Off by default: a plain run must not carry the section.
    proc = subprocess.run(
        [ptm_sim, "--workload", "kv", "--system", "sel-ptm",
         "--scale", "0", "--threads", "4", "--stats-json", "-"],
        capture_output=True, text=True)
    if proc.returncode == 0:
        try:
            plain = json.loads(proc.stdout)
            if "hot_pages" in plain:
                errors.append(
                    "hot_pages: section present without --heatmap")
        except json.JSONDecodeError as e:
            errors.append(f"hot_pages: plain run JSON invalid: {e}")
    else:
        errors.append(f"hot_pages: plain run exited {proc.returncode}")
    return errors


def check_forensics(ptm_sim):
    """Validate the always-on "forensics" section.

    The flight recorder runs by default, so every stats document must
    carry the section — with capture disarmed and no post-mortems on a
    plain run. `--flightrec-depth 0` removes the recorder entirely:
    both the section and the "flightrec" stat group must disappear.
    """
    errors = []
    proc = subprocess.run(
        [ptm_sim, "--workload", "fft", "--system", "sel-ptm",
         "--scale", "0", "--threads", "2", "--stats-json", "-"],
        capture_output=True, text=True)
    if proc.returncode != 0:
        return [f"forensics: ptm_sim exited {proc.returncode}: "
                f"{proc.stderr.strip()}"]
    try:
        doc = json.loads(proc.stdout)
    except json.JSONDecodeError as e:
        return [f"forensics: invalid JSON: {e}"]

    f = doc.get("forensics")
    if not isinstance(f, dict):
        return ["forensics: section missing from a default run"]
    for field in ("depth", "generations", "live_records",
                  "retired_records", "dropped_records",
                  "wasted_ticks_total", "dropped_wasted_ticks",
                  "max_wasted_ticks", "max_wasted_tx", "deepest_chain",
                  "postmortems", "dropped_reports"):
        if not isinstance(f.get(field), int):
            errors.append(f"forensics: {field} missing or mistyped")
    if f.get("armed") is not False:
        errors.append("forensics: default run reports armed != false")
    if f.get("postmortems", 0) != 0:
        errors.append("forensics: default run captured post-mortems")
    killers = f.get("top_killers")
    if not isinstance(killers, list):
        errors.append("forensics: top_killers missing")
    else:
        if len(killers) > 5:
            errors.append("forensics: top_killers longer than 5")
        prev = None
        for k in killers:
            for field in ("tx", "kills", "wasted_ticks"):
                if not isinstance(k.get(field), int):
                    errors.append(
                        f"forensics: top_killers entry missing {field!r}")
                    break
            kills = k.get("kills")
            if prev is not None and isinstance(kills, int) \
                    and kills > prev:
                errors.append("forensics: top_killers not sorted by "
                              "kills descending")
            prev = kills if isinstance(kills, int) else prev

    # --flightrec-depth 0 must remove the recorder entirely.
    proc = subprocess.run(
        [ptm_sim, "--workload", "fft", "--system", "sel-ptm",
         "--scale", "0", "--threads", "2", "--flightrec-depth", "0",
         "--stats-json", "-"],
        capture_output=True, text=True)
    if proc.returncode != 0:
        errors.append(f"forensics: depth-0 run exited {proc.returncode}")
    else:
        try:
            off = json.loads(proc.stdout)
            if "forensics" in off:
                errors.append(
                    "forensics: section present with --flightrec-depth 0")
            if "flightrec" in off.get("groups", {}):
                errors.append(
                    "forensics: flightrec group present with "
                    "--flightrec-depth 0")
        except json.JSONDecodeError as e:
            errors.append(f"forensics: depth-0 run JSON invalid: {e}")
    return errors


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    ptm_sim = sys.argv[1]
    failures = []
    for system in SYSTEMS:
        errs = check_run(ptm_sim, system)
        status = "ok" if not errs else f"{len(errs)} error(s)"
        print(f"{system:10s} {status}")
        failures.extend(errs)
    errs = check_profile(ptm_sim)
    print(f"{'profile':10s} {'ok' if not errs else str(len(errs)) + ' error(s)'}")
    failures.extend(errs)
    errs = check_workload_options(ptm_sim)
    print(f"{'wl-opt':10s} {'ok' if not errs else str(len(errs)) + ' error(s)'}")
    failures.extend(errs)
    errs = check_hot_pages(ptm_sim)
    print(f"{'hot_pages':10s} {'ok' if not errs else str(len(errs)) + ' error(s)'}")
    failures.extend(errs)
    errs = check_forensics(ptm_sim)
    print(f"{'forensics':10s} {'ok' if not errs else str(len(errs)) + ' error(s)'}")
    failures.extend(errs)
    for e in failures:
        print(f"error: {e}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
