#!/usr/bin/env python3
"""Schema and reconciliation checker for ptm-postmortem-v1 dumps.

Runs ptm_sim on the contended KV workload (zipf 0.99) with a retry
budget so the starvation token fires, post-mortem capture armed, and
validates the dump file (concatenated JSON documents):

  * every document carries the schema tag, a known trigger kind, a
    repro line, and well-typed nodes / edges / records sections;
  * the abort-causality graph is a DAG: edges reference valid node
    ids, every edge goes to a strictly earlier tick (terminal nodes
    excepted), and a topological sort completes;
  * roots are generation 0 and edge targets are exactly one
    generation deeper than their source or already-known nodes;
  * records are sorted by tx id and every record's tx appears in the
    node list;
  * the run's ptm-stats-v1 "forensics" section reconciles: its
    wasted_ticks_total equals the profiler's tx_wasted bucket summed
    over cores (runs that finish before the tick limit), and the
    number of dumped documents equals forensics.postmortems;
  * off by default: a run without --postmortem / --postmortem-on-abort
    writes no dump, prints no post-mortem block, and reports
    armed=false with zero postmortems.

With --self-test the document validator and the reconciliation check
run against crafted inputs (bad schema, cyclic edges, dangling edge
index, tick ordering violation, wasted-tick mismatch) instead of
driving the simulator.

Usage:
    check_postmortem_json.py PATH_TO_PTM_SIM
    check_postmortem_json.py --self-test
"""

import json
import os
import subprocess
import sys
import tempfile

TRIGGER_KINDS = {
    "watchdog", "starvation-grant", "audit-violation", "chaos-inject",
    "abort-threshold",
}

NODE_CAUSES = {"conflict", "nontx", "multiwriter", "explicit",
               "terminal"}

NODE_FIELDS = {
    "id": int,
    "tx": int,
    "tick": int,
    "attempt": int,
    "cause": str,
    "where": int,
    "page": int,
    "winner": int,
    "generation": int,
}

RECORD_FIELDS = {
    "tx": int,
    "thread": int,
    "proc": int,
    "first_begin": int,
    "last_begin": int,
    "end_tick": int,
    "committed": bool,
    "attempts": int,
    "aborts": int,
    "kills": int,
    "spt_misses": int,
    "tav_misses": int,
    "shadow_allocs": int,
    "wasted_ticks": int,
    "lost_ticks": int,
    "recent_aborts": list,
}


def parse_docs(text):
    """Split a dump file of concatenated JSON documents."""
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


def validate_doc(doc, label="doc"):
    """Structural validation of one ptm-postmortem-v1 document."""
    errors = []

    def err(msg):
        errors.append(f"{label}: {msg}")

    if doc.get("schema") != "ptm-postmortem-v1":
        err(f"bad schema tag {doc.get('schema')!r}")
    trig = doc.get("trigger")
    if not isinstance(trig, dict):
        err("missing trigger object")
        trig = {}
    if trig.get("kind") not in TRIGGER_KINDS:
        err(f"unknown trigger kind {trig.get('kind')!r}")
    for f, ty in (("tick", int), ("tx", int), ("detail", str)):
        if not isinstance(trig.get(f), ty):
            err(f"trigger.{f} missing or mistyped")
    if not isinstance(doc.get("repro"), str):
        err("repro line missing")
    if not isinstance(doc.get("generations"), int):
        err("generations missing")
    chain = doc.get("chain_depth")
    if not isinstance(chain, int):
        err("chain_depth missing")

    nodes = doc.get("nodes")
    if not isinstance(nodes, list) or not nodes:
        err("nodes missing or empty")
        return errors
    for k, node in enumerate(nodes):
        for f, ty in NODE_FIELDS.items():
            if not isinstance(node.get(f), ty):
                err(f"node {k}: {f} missing or mistyped")
        if node.get("id") != k:
            err(f"node {k}: id {node.get('id')} not dense")
        if isinstance(node.get("cause"), str) and \
                node["cause"] not in NODE_CAUSES:
            err(f"node {k}: unknown cause {node['cause']!r}")

    edges = doc.get("edges")
    if not isinstance(edges, list):
        err("edges missing")
        return errors
    adj = {k: [] for k in range(len(nodes))}
    for k, edge in enumerate(edges):
        fr, to = edge.get("from"), edge.get("to")
        if not isinstance(fr, int) or not isinstance(to, int) or \
                not (0 <= fr < len(nodes)) or not (0 <= to < len(nodes)):
            err(f"edge {k}: dangling endpoint {fr!r} -> {to!r}")
            continue
        adj[fr].append(to)
        # Victim-abort -> killer-abort edges must go strictly back in
        # time; a terminal target (tick 0, no recorded abort) is the
        # one exception.
        src, dst = nodes[fr], nodes[to]
        if isinstance(src.get("tick"), int) and \
                isinstance(dst.get("tick"), int) and \
                dst["tick"] != 0 and dst["tick"] >= src["tick"]:
            err(f"edge {k}: target tick {dst['tick']} not strictly "
                f"before source tick {src['tick']}")

    # Acyclicity via DFS three-coloring (independent of the tick
    # argument above, so a forged tick can't mask a cycle).
    color = [0] * len(nodes)

    def has_cycle(v):
        color[v] = 1
        for w in adj[v]:
            if color[w] == 1:
                return True
            if color[w] == 0 and has_cycle(w):
                return True
        color[v] = 2
        return False

    sys.setrecursionlimit(max(1000, 10 * len(nodes) + 100))
    if any(color[v] == 0 and has_cycle(v) for v in range(len(nodes))):
        err("causality graph has a cycle")

    # A deduped node keeps the generation of the first path that
    # reached it, so chain_depth may exceed the deepest node's
    # generation — but never sit below it or above the search bound.
    max_gen = max((n.get("generation", 0) for n in nodes
                   if isinstance(n.get("generation"), int)), default=0)
    if isinstance(chain, int) and chain < max_gen:
        err(f"chain_depth {chain} < deepest node generation {max_gen}")
    gens = doc.get("generations")
    if isinstance(chain, int) and isinstance(gens, int) and chain > gens:
        err(f"chain_depth {chain} > generation bound {gens}")

    records = doc.get("records")
    if not isinstance(records, list):
        err("records missing")
        return errors
    node_txs = {n.get("tx") for n in nodes}
    prev = None
    for k, rec in enumerate(records):
        for f, ty in RECORD_FIELDS.items():
            if not isinstance(rec.get(f), ty):
                err(f"record {k}: {f} missing or mistyped")
        tx = rec.get("tx")
        if prev is not None and isinstance(tx, int) and tx <= prev:
            err(f"record {k}: tx {tx} not sorted ascending")
        prev = tx if isinstance(tx, int) else prev
        if tx not in node_txs:
            err(f"record {k}: tx {tx} not in the node list")

    fl = doc.get("flightrec")
    if not isinstance(fl, dict):
        err("flightrec section missing")
    else:
        for f in ("depth", "live", "retired", "dropped_records",
                  "dropped_wasted_ticks"):
            if not isinstance(fl.get(f), int):
                err(f"flightrec.{f} missing or mistyped")
    return errors


def reconcile_forensics(stats_doc):
    """Forensics totals vs. the profiler's tx_wasted bucket."""
    errors = []
    forensics = stats_doc.get("forensics")
    if not isinstance(forensics, dict):
        return ["stats json has no forensics section"]
    for f in ("depth", "generations", "live_records", "retired_records",
              "dropped_records", "wasted_ticks_total",
              "dropped_wasted_ticks", "max_wasted_ticks",
              "deepest_chain", "postmortems", "dropped_reports"):
        if not isinstance(forensics.get(f), int):
            errors.append(f"forensics.{f} missing or mistyped")
    if not isinstance(forensics.get("armed"), bool):
        errors.append("forensics.armed missing")
    if not isinstance(forensics.get("top_killers"), list):
        errors.append("forensics.top_killers missing")
    if errors:
        return errors

    group = stats_doc.get("groups", {}).get("flightrec")
    if not isinstance(group, dict):
        errors.append("stats json has no flightrec group")
    else:
        dropped = group.get("dropped_records", {}).get("value")
        if dropped != forensics["dropped_records"]:
            errors.append(
                f"flightrec.dropped_records {dropped} != forensics "
                f"section {forensics['dropped_records']}")

    profile = stats_doc.get("profile")
    hit_limit = stats_doc.get("groups", {}).get("sys", {}) \
        .get("hit_tick_limit", {}).get("value", 0)
    if isinstance(profile, dict) and not hit_limit:
        tx_wasted = sum(c.get("ticks", {}).get("tx_wasted", 0)
                        for c in profile.get("cores", []))
        if forensics["wasted_ticks_total"] != tx_wasted:
            errors.append(
                f"forensics.wasted_ticks_total "
                f"{forensics['wasted_ticks_total']} != profiler "
                f"tx_wasted bucket {tx_wasted}")
    return errors


def check_run(ptm_sim):
    ptm_sim = os.path.abspath(ptm_sim)
    errors = []
    with tempfile.TemporaryDirectory() as tmp:
        pm_path = os.path.join(tmp, "pm.json")
        stats_path = os.path.join(tmp, "stats.json")
        cmd = [
            ptm_sim, "--workload", "kv", "--system", "sel-ptm",
            "--scale", "0", "--threads", "4", "--seed", "7",
            "--wl-opt", "zipf=0.99", "--retry-budget", "3",
            "--profile", "--postmortem", pm_path,
            "--stats-json", stats_path,
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            return [f"ptm_sim exited {proc.returncode}: "
                    f"{proc.stderr.strip()[:500]}"]
        try:
            with open(pm_path) as f:
                docs = parse_docs(f.read())
        except (OSError, json.JSONDecodeError) as e:
            return [f"postmortem dump not readable: {e}"]
        try:
            with open(stats_path) as f:
                stats_doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            return [f"stats json not readable: {e}"]

        if not docs:
            errors.append("armed contended run captured no post-mortem")
        for i, doc in enumerate(docs):
            errors.extend(validate_doc(doc, label=f"doc {i}"))
        errors.extend(reconcile_forensics(stats_doc))

        forensics = stats_doc.get("forensics", {})
        if forensics.get("armed") is not True:
            errors.append("armed run reports forensics.armed != true")
        if forensics.get("postmortems") != len(docs):
            errors.append(
                f"forensics.postmortems {forensics.get('postmortems')} "
                f"!= {len(docs)} dumped documents")
        # The starvation token fired (retry budget 3 under zipf 0.99:
        # younger requesters mostly wait behind older transactions, so
        # three consecutive aborts are what the run reaches), so at
        # least one dump must name that trigger with a killer chain
        # behind it.
        grants = [d for d in docs
                  if d.get("trigger", {}).get("kind")
                  == "starvation-grant"]
        if not grants:
            errors.append("no starvation-grant post-mortem captured")
        elif not any(d.get("edges") for d in grants):
            errors.append("starvation-grant post-mortems have no "
                          "causality edges")
        if "post-mortem" not in proc.stderr:
            errors.append("armed run printed no human post-mortem "
                          "block on stderr")

        # Off by default: the same run without forensics flags.
        off_stats = os.path.join(tmp, "off.json")
        proc = subprocess.run(
            [ptm_sim, "--workload", "kv", "--system", "sel-ptm",
             "--scale", "0", "--threads", "4", "--seed", "7",
             "--wl-opt", "zipf=0.99", "--retry-budget", "3",
             "--stats-json", off_stats],
            capture_output=True, text=True, cwd=tmp)
        if proc.returncode != 0:
            errors.append(f"control run exited {proc.returncode}")
        if "post-mortem" in proc.stderr or "post-mortem" in proc.stdout:
            errors.append("control run printed a post-mortem block")
        try:
            with open(off_stats) as f:
                off_doc = json.load(f)
            off = off_doc.get("forensics", {})
            if off.get("armed") is not False:
                errors.append("control run reports armed != false")
            if off.get("postmortems") != 0:
                errors.append("control run captured post-mortems")
        except (OSError, json.JSONDecodeError) as e:
            errors.append(f"control stats not readable: {e}")
    return errors


def self_test():
    """Exercise the validator on crafted documents."""
    failures = []

    def node(i, tx, tick, gen, winner=-1):
        return {"id": i, "tx": tx, "tick": tick, "attempt": 1,
                "cause": "conflict", "where": 4096, "page": 1,
                "winner": winner, "generation": gen}

    def record(tx):
        return {"tx": tx, "thread": 0, "proc": 0, "first_begin": 1,
                "last_begin": 1, "end_tick": 0, "committed": False,
                "attempts": 2, "aborts": 1, "kills": 0,
                "spt_misses": 0, "tav_misses": 0, "shadow_allocs": 0,
                "wasted_ticks": 0, "lost_ticks": 5,
                "recent_aborts": []}

    def doc(**kw):
        d = {"schema": "ptm-postmortem-v1",
             "trigger": {"kind": "watchdog", "tick": 100, "tx": 1,
                         "detail": "test"},
             "repro": "--seed 1", "generations": 8, "chain_depth": 1,
             "nodes": [node(0, 1, 90, 0, winner=2),
                       node(1, 2, 80, 1)],
             "edges": [{"from": 0, "to": 1}],
             "records": [record(1), record(2)],
             "flightrec": {"depth": 256, "live": 2, "retired": 0,
                           "dropped_records": 0,
                           "dropped_wasted_ticks": 0}}
        d.update(kw)
        return d

    # 1. A well-formed document must pass clean.
    errs = validate_doc(doc())
    if errs:
        failures.append(f"clean document flagged: {errs}")

    # 2. A bad schema tag must be detected.
    errs = validate_doc(doc(schema="nope"))
    if not any("schema" in e for e in errs):
        failures.append("bad schema tag not detected")

    # 3. A cycle must be detected even when ticks are forged to pass
    # the ordering check.
    d = doc(edges=[{"from": 0, "to": 1}, {"from": 1, "to": 0}])
    d["nodes"][1]["tick"] = 0  # terminal: exempt from tick ordering
    errs = validate_doc(d)
    if not any("cycle" in e for e in errs):
        failures.append("cyclic edges not detected")

    # 4. A dangling edge index must be detected.
    errs = validate_doc(doc(edges=[{"from": 0, "to": 7}]))
    if not any("dangling" in e for e in errs):
        failures.append("dangling edge not detected")

    # 5. An edge forward in time must be detected.
    d = doc()
    d["nodes"][1]["tick"] = 95  # later than source's 90
    errs = validate_doc(d)
    if not any("strictly before" in e for e in errs):
        failures.append("tick ordering violation not detected")

    # 6. Unsorted records must be detected.
    d = doc(records=[record(2), record(1)])
    errs = validate_doc(d)
    if not any("sorted" in e for e in errs):
        failures.append("unsorted records not detected")

    # 7. Reconciliation must catch a wasted-tick mismatch and pass
    # the exact case.
    def stats(wasted_total, bucket):
        return {
            "forensics": {
                "depth": 256, "generations": 8, "armed": True,
                "live_records": 0, "retired_records": 1,
                "dropped_records": 0,
                "wasted_ticks_total": wasted_total,
                "dropped_wasted_ticks": 0, "max_wasted_ticks": 0,
                "deepest_chain": 0, "postmortems": 0,
                "dropped_reports": 0, "top_killers": []},
            "groups": {
                "flightrec": {"dropped_records": {"kind": "counter",
                                                  "value": 0}},
                "sys": {"hit_tick_limit": {"kind": "scalar",
                                           "value": 0}}},
            "profile": {"cores": [{"ticks": {"tx_wasted": bucket}}]},
        }

    errs = reconcile_forensics(stats(10, 12))
    if not any("tx_wasted" in e for e in errs):
        failures.append("wasted-tick mismatch not detected")
    errs = reconcile_forensics(stats(12, 12))
    if errs:
        failures.append(f"exact reconciliation flagged: {errs}")

    for f in failures:
        print(f"self-test FAIL: {f}", file=sys.stderr)
    print("self-test: " + ("ok" if not failures else
                           f"{len(failures)} failure(s)"))
    return 1 if failures else 0


def main():
    if len(sys.argv) == 2 and sys.argv[1] == "--self-test":
        return self_test()
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    errors = check_run(sys.argv[1])
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    print("postmortem: " + ("ok" if not errors else
                            f"{len(errors)} error(s)"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
