#!/usr/bin/env python3
"""Schema checker for ptm_sim --stats-json output.

Runs ptm_sim for every system kind at the tiny test scale, parses the
emitted ptm-stats-v1 JSON, and validates the schema: manifest fields
and types, required stat groups per system, and the per-kind stat
encodings. Exits non-zero (with a message per failure) if any run or
check fails.

With --self-test the document validator runs against crafted documents
(missing manifest field, bad stat kind, unordered percentiles, ...)
instead of driving the simulator.

Usage:
    check_stats_json.py PATH_TO_PTM_SIM
    check_stats_json.py --self-test
"""

import copy
import sys

from ptmtools import (SelfTest, checker_main, field_errors, finish,
                      has_type, run_sections, sim_stats, stat)

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
    "setup_seconds": (int, float),
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

HOST_SITE_FIELDS = {"name": str, "events": int, "sampled": int,
                    "sampled_ns": (int, float),
                    "estimated_ns": (int, float)}

FORENSICS_FIELDS = dict.fromkeys(
    ("depth", "generations", "live_records", "retired_records",
     "dropped_records", "wasted_ticks_total", "dropped_wasted_ticks",
     "max_wasted_ticks", "max_wasted_tx", "deepest_chain",
     "postmortems", "dropped_reports"), int)

KILLER_FIELDS = {"tx": int, "kills": int, "wasted_ticks": int}

HOT_ENTRY_FIELDS = {"count": int, "err": int}


def sim(ptm_sim, workload, system, threads, *extra):
    """A scale-0 ptm_sim command line."""
    return [ptm_sim, "--workload", workload, "--system", system,
            "--scale", "0", "--threads", str(threads), *extra]


def check_stat(path, st):
    """Encoding errors of the stat at `group.stat` path."""
    kind = st.get("kind")
    if kind not in STAT_KINDS:
        return [f"{path} has bad kind {kind!r}"]
    errors = [f"{path} ({kind}) missing {f!r}"
              for f in STAT_KINDS[kind] if f not in st]
    if kind == "distribution":
        counts = st.get("counts", [])
        if not isinstance(counts, list) or not counts:
            errors.append(f"{path} counts not a non-empty list")
        p50, p95, p99 = (st.get(p, 0) for p in ("p50", "p95", "p99"))
        if not p50 <= p95 <= p99:
            errors.append(f"{path} percentiles not ordered: "
                          f"{p50} / {p95} / {p99}")
        if st.get("samples") and not (
                st.get("min", 0) <= p50 and p99 <= st.get("max", 0)):
            errors.append(f"{path} percentiles outside [min, max]")
    return errors


def check_doc(doc, system):
    """Schema errors of the ptm-stats-v1 document of a `system` run."""
    errors = []
    if doc.get("schema") != "ptm-stats-v1":
        errors.append(f"bad schema tag {doc.get('schema')!r}")

    manifest = doc.get("manifest", {})
    errors += field_errors(manifest, MANIFEST_FIELDS, "manifest")
    if not manifest.get("verified", False):
        errors.append("run did not verify")

    groups = doc.get("groups", {})
    expected = list(BASE_GROUPS)
    if system in ("copy-ptm", "sel-ptm"):
        expected.append("vts")
    if system in ("vtm", "vc-vtm"):
        expected.append("vtm")
    for g in expected:
        if g not in groups:
            errors.append(f"missing group {g!r}")
        elif not groups[g]:
            errors.append(f"group {g!r} is empty")

    for gname, stats in groups.items():
        for sname, st in stats.items():
            errors += check_stat(f"{gname}.{sname}", st)

    # Spot-check run-level consistency.
    if "cycles" in groups.get("sys", {}) and \
            stat(doc, "sys.cycles") != manifest.get("cycles"):
        errors.append("sys.cycles != manifest.cycles")
    return errors


def check_workload_options(ptm_sim):
    """The manifest must echo the resolved per-workload options.

    User-given --wl-opt values must round-trip verbatim and options
    left at their declared default must still appear (the manifest
    records the *resolved* table, not just the overrides).
    """
    doc = sim_stats(sim(ptm_sim, "kv", "sel-ptm", 2, "--wl-opt",
                        "zipf=0.5", "--wl-opt", "tx-ops=4"))
    wopts = doc.get("manifest", {}).get("workload_options")
    if not isinstance(wopts, dict):
        return ["manifest.workload_options missing"]
    errors = []
    for key, want in (("zipf", "0.5"), ("tx-ops", "4")):
        if wopts.get(key) != want:
            errors.append(f"option {key!r} did not round-trip: "
                          f"{wopts.get(key)!r} != {want!r}")
    for key in ("keys", "ops", "scan-len"):
        if key not in wopts:
            errors.append(f"default option {key!r} not recorded")
    return errors


def check_profile(ptm_sim):
    """Validate the optional "profile" section under --profile.

    The cycle accounting is exact by construction: every core's bucket
    ticks must sum to its total, and every total must equal the run's
    elapsed ticks.
    """
    fft = sim(ptm_sim, "fft", "sel-ptm", 2)
    doc = sim_stats(fft + ["--profile", "--host-profile"])
    prof = doc.get("profile")
    if not isinstance(prof, dict):
        return ["section missing from --profile run"]

    errors = []
    elapsed = prof.get("elapsed_ticks")
    if not has_type(elapsed, int) or elapsed <= 0:
        errors.append(f"bad elapsed_ticks {elapsed!r}")
    cores = prof.get("cores")
    if not isinstance(cores, list) or not cores:
        errors.append("cores missing or empty")
        cores = []
    for i, core in enumerate(cores):
        ticks = core.get("ticks", {})
        unknown = set(ticks) - PROF_BUCKETS
        if unknown:
            errors.append(f"core {i} unknown buckets {sorted(unknown)}")
        total = core.get("total")
        if sum(ticks.values()) != total:
            errors.append(f"core {i} bucket sum {sum(ticks.values())} "
                          f"!= total {total}")
        if total != elapsed:
            errors.append(
                f"core {i} total {total} != elapsed_ticks {elapsed}")
    # Parked time behind older transactions is one quantity seen by
    # two components; fft's two threads do contend, so it is not 0.
    stalled = sum(c.get("ticks", {}).get("stall_conflict", 0)
                  for c in cores)
    parked = stat(doc, "tx.conflict_stall_ticks")
    if stalled <= 0 or stalled != parked:
        errors.append(f"stall_conflict ticks {stalled} != "
                      f"tx.conflict_stall_ticks {parked} (must be > 0)")
    sup = prof.get("supervisor")
    if not isinstance(sup, dict):
        errors.append("supervisor section missing")
    elif set(sup) - PROF_CHARGES:
        errors.append(
            f"unknown supervisor charges {sorted(set(sup) - PROF_CHARGES)}")
    host = prof.get("host")
    if not isinstance(host, dict):
        errors.append("host section missing under --host-profile")
    else:
        if not has_type(host.get("sample_interval"), int) or \
                host["sample_interval"] < 1:
            errors.append("bad host.sample_interval")
        sites = host.get("sites")
        if not isinstance(sites, list) or not sites:
            errors.append("host.sites missing or empty")
        else:
            for k, site in enumerate(sites):
                errors += field_errors(site, HOST_SITE_FIELDS,
                                       f"host site {k}")

    # Off by default: a plain run must not carry the section.
    if "profile" in sim_stats(fft):
        errors.append("section present without --profile")
    return errors


def check_hot_pages(ptm_sim):
    """Validate the optional "hot_pages" section under --heatmap.

    The per-page contention attribution must be present (and carry the
    documented shape) when --heatmap is given, and absent otherwise.
    The space-saving counters preserve totals exactly, so each cause's
    page-list counts must sum to that cause's total.
    """
    doc = sim_stats(sim(ptm_sim, "kv", "sel-ptm", 4, "--wl-opt",
                        "zipf=0.99", "--heatmap"))
    hot = doc.get("hot_pages")
    if not isinstance(hot, dict):
        return ["section missing from --heatmap run"]
    errors = []
    if not has_type(hot.get("k"), int) or hot["k"] < 1:
        errors.append(f"bad k {hot.get('k')!r}")

    def check_entries(where, entries, keyname):
        if not isinstance(entries, list):
            errors.append(f"{where} not a list")
            return 0
        total = 0
        prev = None
        for e in entries:
            bad = field_errors(e, {keyname: int, **HOT_ENTRY_FIELDS},
                               f"{where} entry")
            if bad:
                errors.extend(bad)
                return total
            if e["err"] > e["count"]:
                errors.append(
                    f"{where} err {e['err']} > count {e['count']}")
            if prev is not None and e["count"] > prev:
                errors.append(f"{where} not sorted by count")
            prev = e["count"]
            total += e["count"]
        return total

    conf = hot.get("conflicts")
    if not isinstance(conf, dict):
        errors.append("conflicts section missing")
    else:
        total = conf.get("total")
        page_sum = check_entries("conflicts.pages", conf.get("pages"),
                                 "page")
        check_entries("conflicts.blocks", conf.get("blocks"), "block")
        if not has_type(total, int) or total < 1:
            errors.append("no conflicts attributed under zipf=0.99")
        elif page_sum != total:
            errors.append(
                f"conflict page counts sum {page_sum} != total {total} "
                "(space-saving must preserve totals)")

    aborts = hot.get("aborts")
    if not isinstance(aborts, dict):
        errors.append("aborts section missing")
    else:
        for cause in ("conflict", "nontx", "multiwriter", "explicit"):
            sec = aborts.get(cause)
            if not isinstance(sec, dict):
                errors.append(f"aborts.{cause} missing")
                continue
            total = sec.get("total")
            page_sum = check_entries(f"aborts.{cause}.pages",
                                     sec.get("pages"), "page")
            if page_sum != total:
                errors.append(f"aborts.{cause} page sum {page_sum} "
                              f"!= total {total}")
            counter = stat(doc, f"tx.aborts_{cause}")
            if counter is not None and total != counter:
                errors.append(f"aborts.{cause}.total {total} != "
                              f"tx.aborts_{cause} {counter}")

    for sec in ("spt_misses", "tav_misses", "shadow_allocs"):
        entry = hot.get(sec)
        if not isinstance(entry, dict):
            errors.append(f"{sec} section missing")
            continue
        page_sum = check_entries(f"{sec}.pages", entry.get("pages"),
                                 "page")
        if page_sum != entry.get("total"):
            errors.append(f"{sec} page sum {page_sum} != total "
                          f"{entry.get('total')}")

    # Off by default: a plain run must not carry the section.
    if "hot_pages" in sim_stats(sim(ptm_sim, "kv", "sel-ptm", 4)):
        errors.append("section present without --heatmap")
    return errors


def check_forensics(ptm_sim):
    """Validate the always-on "forensics" section.

    The flight recorder runs by default, so every stats document must
    carry the section — with capture disarmed and no post-mortems on a
    plain run. `--flightrec-depth 0` removes the recorder entirely:
    both the section and the "flightrec" stat group must disappear.
    """
    fft = sim(ptm_sim, "fft", "sel-ptm", 2)
    f = sim_stats(fft).get("forensics")
    if not isinstance(f, dict):
        return ["section missing from a default run"]
    errors = field_errors(f, FORENSICS_FIELDS, "forensics")
    if f.get("armed") is not False:
        errors.append("default run reports armed != false")
    if f.get("postmortems", 0) != 0:
        errors.append("default run captured post-mortems")
    killers = f.get("top_killers")
    if not isinstance(killers, list):
        errors.append("top_killers missing")
    else:
        if len(killers) > 5:
            errors.append("top_killers longer than 5")
        prev = None
        for k, killer in enumerate(killers):
            errors += field_errors(killer, KILLER_FIELDS,
                                   f"top_killers entry {k}")
            kills = killer.get("kills")
            if prev is not None and isinstance(kills, int) \
                    and kills > prev:
                errors.append(
                    "top_killers not sorted by kills descending")
            prev = kills if isinstance(kills, int) else prev

    # --flightrec-depth 0 must remove the recorder entirely.
    off = sim_stats(fft + ["--flightrec-depth", "0"])
    if "forensics" in off:
        errors.append("section present with --flightrec-depth 0")
    if "flightrec" in off.get("groups", {}):
        errors.append("flightrec group present with --flightrec-depth 0")
    return errors


def check(ptm_sim):
    sections = [(system, lambda s=system: check_doc(
        sim_stats(sim(ptm_sim, "fft", s, 2)), s)) for system in SYSTEMS]
    sections += [
        ("profile", lambda: check_profile(ptm_sim)),
        ("wl-opt", lambda: check_workload_options(ptm_sim)),
        ("hot_pages", lambda: check_hot_pages(ptm_sim)),
        ("forensics", lambda: check_forensics(ptm_sim)),
    ]
    return finish(run_sections(sections, 10))


def self_test():
    """Exercise the document validator on crafted documents."""
    t = SelfTest()
    dist = {"kind": "distribution", "samples": 3, "sum": 60.0,
            "mean": 20.0, "min": 10, "max": 30, "p50": 20, "p95": 30,
            "p99": 30, "bucket_lo": 0, "bucket_width": 10,
            "underflow": 0, "overflow": 0, "counts": [0, 1, 1, 1]}
    clean = {
        "schema": "ptm-stats-v1",
        "manifest": {
            "tool": "ptm_sim", "workload": "fft", "system": "sel-ptm",
            "granularity": "blk", "seed": 1, "threads": 2, "scale": 0,
            "workload_options": {}, "cycles": 100, "verified": True,
            "wall_seconds": 0.5, "setup_seconds": 0.01,
            "events_per_sec": 1e6,
            "sim_events_per_sec": 1e6, "sim_ticks_per_wall_sec": 2e6,
            "git": "test", "params": {}},
        "groups": {g: {"n": {"kind": "counter", "value": 1}}
                   for g in BASE_GROUPS + ["vts"]},
    }
    clean["groups"]["sys"]["cycles"] = {"kind": "scalar", "value": 100}
    clean["groups"]["tx"]["commit_latency"] = dist

    def broken(edit):
        doc = copy.deepcopy(clean)
        edit(doc)
        return check_doc(doc, "sel-ptm")

    t.clean(check_doc(clean, "sel-ptm"), "clean document")
    t.flags(broken(lambda d: d["manifest"].pop("git")), "git missing",
            "missing manifest field")
    t.flags(broken(lambda d: d["manifest"].update(seed=True)),
            "seed has type bool", "bool as a number")
    t.flags(broken(lambda d: d["groups"]["tx"]["n"].update(
        kind="gauge")), "bad kind", "bad stat kind")
    t.flags(broken(lambda d: d["groups"]["tx"]["commit_latency"].update(
        p50=40)), "not ordered", "p50 > p99")
    t.flags(broken(lambda d: d["groups"].pop("vts")), "missing group",
            "missing backend group")
    t.flags(broken(lambda d: d["manifest"].update(cycles=99)),
            "sys.cycles", "cycle-count mismatch")
    return t.report()


if __name__ == "__main__":
    sys.exit(checker_main(check, self_test, __doc__))
