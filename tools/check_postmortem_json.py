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
    wasted_ticks_total equals the profile's
    supervisor.aborted_tx_ticks (both are the attempt ticks TxManager
    computes once per abort) and is non-zero when tx.aborts is, and
    the number of dumped documents equals forensics.postmortems;
  * the trace agrees: with a tx-only trace and a recorder that drop
    nothing, trace_analyze's wasted and useful ticks equal
    supervisor.aborted_tx_ticks and committed_tx_ticks;
  * off by default: a run without --postmortem / --postmortem-on-abort
    writes no dump, prints no post-mortem block, and reports
    armed=false with zero postmortems.

With --self-test the document validator and the reconciliation check
run against crafted inputs (bad schema, cyclic edges, dangling edge
index, tick ordering violation, wasted-tick mismatch, a vacuous 0 == 0
total, a trace that disagrees) instead of driving the simulator.

Usage:
    check_postmortem_json.py PATH_TO_PTM_SIM
    check_postmortem_json.py --self-test
"""

import json
import os
import sys
import tempfile

from ptmtools import (CheckError, SelfTest, checker_main, field_errors,
                      has_type, load_json, run, run_ok, stat, verdict)

TRIGGER_KINDS = {
    "watchdog", "starvation-grant", "audit-violation", "chaos-inject",
    "abort-threshold",
}

NODE_CAUSES = {"conflict", "nontx", "multiwriter", "explicit",
               "terminal"}

DOC_FIELDS = {"repro": str, "generations": int, "chain_depth": int}

TRIGGER_FIELDS = {"tick": int, "tx": int, "detail": str}

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
    "recent_aborts": list,
}

FLIGHTREC_FIELDS = dict.fromkeys(
    ("depth", "live", "retired", "dropped_records",
     "dropped_wasted_ticks"), int)

FORENSICS_FIELDS = {
    **dict.fromkeys(
        ("depth", "generations", "live_records", "retired_records",
         "dropped_records", "wasted_ticks_total",
         "dropped_wasted_ticks", "max_wasted_ticks", "deepest_chain",
         "postmortems", "dropped_reports"), int),
    "armed": bool,
    "top_killers": list,
}


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
    errors += field_errors(trig, TRIGGER_FIELDS, f"{label}: trigger")
    errors += field_errors(doc, DOC_FIELDS, label)
    chain = doc.get("chain_depth")

    nodes = doc.get("nodes")
    if not isinstance(nodes, list) or not nodes:
        err("nodes missing or empty")
        return errors
    for k, node in enumerate(nodes):
        errors += field_errors(node, NODE_FIELDS, f"{label}: node {k}")
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
        if not has_type(fr, int) or not has_type(to, int) or \
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
        errors += field_errors(rec, RECORD_FIELDS, f"{label}: record {k}")
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
        errors += field_errors(fl, FLIGHTREC_FIELDS, f"{label}: flightrec")
    return errors


def reconcile_forensics(stats_doc):
    """Forensics totals vs. the profiler's aborted-attempt ticks."""
    forensics = stats_doc.get("forensics")
    if not isinstance(forensics, dict):
        return ["stats json has no forensics section"]
    errors = field_errors(forensics, FORENSICS_FIELDS, "forensics")
    if errors:
        return errors

    if not isinstance(stats_doc.get("groups", {}).get("flightrec"), dict):
        errors.append("stats json has no flightrec group")
    else:
        dropped = stat(stats_doc, "flightrec.dropped_records")
        if dropped != forensics["dropped_records"]:
            errors.append(
                f"flightrec.dropped_records {dropped} != forensics "
                f"section {forensics['dropped_records']}")

    wasted = forensics["wasted_ticks_total"]
    aborts = stat(stats_doc, "tx.aborts", default=0)
    if aborts and not wasted:
        errors.append(f"forensics.wasted_ticks_total is 0 after "
                      f"{aborts} aborts")
    aborted = stats_doc.get("profile", {}).get("supervisor", {}).get(
        "aborted_tx_ticks")
    if aborted is not None and wasted != aborted:
        errors.append(
            f"forensics.wasted_ticks_total {wasted} != profile "
            f"supervisor.aborted_tx_ticks {aborted}")
    return errors


def sinks_agree(stats_doc, analysis):
    """The profile's outcome split vs. a trace_analyze digest."""
    cap = analysis["captures"][0]
    sup = stats_doc.get("profile", {}).get("supervisor", {})
    errors = [f"{sink} dropped {n}" for sink, n in (
        ("trace", cap["dropped"]),
        ("flight recorder",
         stats_doc.get("forensics", {}).get("dropped_records"))) if n]
    for ours, trace in (("aborted_tx_ticks", "wasted_ticks"),
                        ("committed_tx_ticks", "useful_ticks")):
        if sup.get(ours) != cap["wasted_work"][trace]:
            errors.append(f"supervisor.{ours} {sup.get(ours)} != trace "
                          f"{trace} {cap['wasted_work'][trace]}")
    return errors


def check_run(ptm_sim):
    run_args = [
        os.path.abspath(ptm_sim), "--workload", "kv", "--system",
        "sel-ptm", "--scale", "0", "--threads", "4", "--seed", "7",
        "--wl-opt", "zipf=0.99", "--retry-budget", "3",
    ]
    errors = []
    with tempfile.TemporaryDirectory() as tmp:
        pm_path = os.path.join(tmp, "pm.json")
        stats_path = os.path.join(tmp, "stats.json")
        trace = os.path.join(tmp, "tx.jsonl")
        # Every record and every tx event kept: the sinks must agree.
        proc = run_ok(run_args + [
            "--profile", "--postmortem", pm_path, "--stats-json",
            stats_path, "--flightrec-depth", "4096", "--trace", trace,
            "--trace-categories", "tx"])
        docs = load_json(pm_path, "postmortem dump", docs=True)
        stats_doc = load_json(stats_path, "stats json")
        analysis = run_ok([sys.executable, os.path.join(
            os.path.dirname(os.path.abspath(__file__)),
            "trace_analyze.py"), trace, "--json"]).stdout
        errors.extend(sinks_agree(stats_doc, json.loads(analysis)))

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
        proc = run(run_args + ["--stats-json", off_stats], cwd=tmp)
        if proc.returncode != 0:
            errors.append(f"control run exited {proc.returncode}")
        if "post-mortem" in proc.stderr or "post-mortem" in proc.stdout:
            errors.append("control run printed a post-mortem block")
        try:
            off = load_json(off_stats, "control stats").get(
                "forensics", {})
            if off.get("armed") is not False:
                errors.append("control run reports armed != false")
            if off.get("postmortems") != 0:
                errors.append("control run captured post-mortems")
        except CheckError as e:
            errors.append(str(e))
    return errors


def self_test():
    """Exercise the validator on crafted documents."""
    t = SelfTest()

    def node(i, tx, tick, gen, winner=-1):
        return {"id": i, "tx": tx, "tick": tick, "attempt": 1,
                "cause": "conflict", "where": 4096, "page": 1,
                "winner": winner, "generation": gen}

    def record(tx):
        return {"tx": tx, "thread": 0, "proc": 0, "first_begin": 1,
                "last_begin": 1, "end_tick": 0, "committed": False,
                "attempts": 2, "aborts": 1, "kills": 0,
                "spt_misses": 0, "tav_misses": 0, "shadow_allocs": 0,
                "wasted_ticks": 5, "recent_aborts": []}

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

    t.clean(validate_doc(doc()), "clean document")
    t.flags(validate_doc(doc(schema="nope")), "schema", "bad schema tag")
    # A cycle must be detected even when ticks are forged to pass the
    # ordering check.
    d = doc(edges=[{"from": 0, "to": 1}, {"from": 1, "to": 0}])
    d["nodes"][1]["tick"] = 0  # terminal: exempt from tick ordering
    t.flags(validate_doc(d), "cycle", "cyclic edges")
    t.flags(validate_doc(doc(edges=[{"from": 0, "to": 7}])), "dangling",
            "dangling edge")
    d = doc()
    d["nodes"][1]["tick"] = 95  # later than source's 90
    t.flags(validate_doc(d), "strictly before", "tick ordering violation")
    t.flags(validate_doc(doc(records=[record(2), record(1)])), "sorted",
            "unsorted records")
    # A JSON true is not a number, though Python's bool is an int.
    d = doc()
    d["records"][0]["aborts"] = True
    t.flags(validate_doc(d), "aborts has type bool", "bool as a count")

    # Reconciliation must catch a wasted-tick mismatch and a vacuous
    # 0 == 0 after aborts, and pass the exact case.
    def stats(wasted_total, aborted, aborts=3, committed=40):
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
                "tx": {"aborts": {"kind": "counter", "value": aborts}}},
            "profile": {"supervisor": {"aborted_tx_ticks": aborted,
                                       "committed_tx_ticks": committed}},
        }

    t.flags(reconcile_forensics(stats(10, 12)), "aborted_tx_ticks",
            "wasted-tick mismatch")
    t.flags(reconcile_forensics(stats(0, 0)), "is 0 after 3 aborts",
            "vacuous 0 == 0 reconciliation")
    t.clean(reconcile_forensics(stats(12, 12)), "exact reconciliation")
    t.clean(reconcile_forensics(stats(0, 0, aborts=0)),
            "abort-free run")

    def analysis(wasted, useful, dropped=0):
        return {"captures": [{"dropped": dropped, "wasted_work": {
            "wasted_ticks": wasted, "useful_ticks": useful}}]}

    t.clean(sinks_agree(stats(12, 12), analysis(12, 40)),
            "agreeing sinks")
    t.flags(sinks_agree(stats(12, 12), analysis(11, 40)),
            "wasted_ticks", "trace wasted ticks off by one")
    t.flags(sinks_agree(stats(12, 12), analysis(12, 41)),
            "useful_ticks", "trace useful ticks off by one")
    t.flags(sinks_agree(stats(12, 12), analysis(12, 40, dropped=5)),
            "trace dropped 5", "a trace that dropped events")
    return t.report()


if __name__ == "__main__":
    sys.exit(checker_main(
        lambda sim: verdict("postmortem", check_run, sim), self_test,
        __doc__))
