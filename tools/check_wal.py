#!/usr/bin/env python3
"""Validate PTMWAL1 crash dumps and their redo-log byte stream.

Independently re-implements the persistence-domain formats of
src/persist/wal.hh in Python and checks a dump against them:

 - dump framing: magic, version, header fields, workload options,
   checkpoint regions (each region's CRC32 must hold), log length
   accounting (durable <= total, log bytes actually present);
 - record schema: magic, length structure, CRC32, global commit
   sequence (1,2,3,...), per-thread commit ordinals (1,2,3,... within
   each thread) — exactly the checks recovery's replayWal() applies;
 - torn-tail semantics: an incomplete trailing record is legal on a
   crash dump (reported, not fatal) but illegal on a completed run;
 - replay idempotence: applying the redo records once and twice must
   produce the same word image (redo logs must be re-appliable).

Usage:
    check_wal.py DUMP [DUMP...]
    check_wal.py --self-test

Exits 0 when every dump passes, 1 otherwise. crash_sweep.py imports
parse_dump()/replay_log()/truncate_dump() from this module to
synthesize guaranteed torn-tail recovery cases.
"""

import argparse
import os
import struct
import sys
import tempfile
import zlib

from ptmtools import SelfTest

DUMP_MAGIC = b"PTMWAL1\n"
DUMP_VERSION = 1
REC_MAGIC = 0x43455243  # "CREC" little-endian
REC_HEADER = 40
REC_WRITE = 12
REC_CRC = 4


class BadDump(Exception):
    pass


class Reader:
    def __init__(self, buf, off=0):
        self.buf = buf
        self.off = off

    def need(self, n):
        if self.off + n > len(self.buf):
            raise BadDump(f"truncated at byte {self.off} "
                          f"(need {n} more)")

    def u32(self):
        self.need(4)
        v, = struct.unpack_from("<I", self.buf, self.off)
        self.off += 4
        return v

    def u64(self):
        self.need(8)
        v, = struct.unpack_from("<Q", self.buf, self.off)
        self.off += 8
        return v

    def string(self):
        n = self.u32()
        self.need(n)
        s = self.buf[self.off:self.off + n].decode()
        self.off += n
        return s


def replay_log(log):
    """Replay a log byte string exactly like replayWal().

    Returns a dict with records, image, per_thread, torn_offset,
    torn_bytes, and error (None when the stream is structurally
    clean up to an optional torn tail).
    """
    out = {"records": [], "image": {}, "per_thread": {},
           "torn_offset": None, "torn_bytes": 0, "error": None}
    off = 0
    n = len(log)
    while off < n:
        if n - off < 8:
            out["torn_offset"], out["torn_bytes"] = off, n - off
            return out
        magic, length = struct.unpack_from("<II", log, off)
        if magic != REC_MAGIC:
            out["error"] = f"bad record magic at log offset {off}"
            return out
        if length < REC_HEADER + REC_CRC or \
                (length - REC_HEADER - REC_CRC) % REC_WRITE != 0:
            out["error"] = f"bad record length at log offset {off}"
            return out
        if n - off < length:
            out["torn_offset"], out["torn_bytes"] = off, n - off
            return out
        seq, tx, thread, ordinal, kind, nwrites = struct.unpack_from(
            "<QQIIII", log, off + 8)
        if length != REC_HEADER + nwrites * REC_WRITE + REC_CRC:
            out["error"] = ("record length disagrees with write count "
                            f"at log offset {off}")
            return out
        crc, = struct.unpack_from("<I", log, off + length - REC_CRC)
        if crc != zlib.crc32(log[off:off + length - REC_CRC]):
            out["error"] = f"bad record crc at log offset {off}"
            return out
        if seq != len(out["records"]) + 1:
            out["error"] = \
                f"bad commit sequence number at log offset {off}"
            return out
        if ordinal != out["per_thread"].get(thread, 0) + 1:
            out["error"] = \
                f"bad per-thread commit ordinal at log offset {off}"
            return out
        writes = []
        woff = off + REC_HEADER
        for _ in range(nwrites):
            a, v = struct.unpack_from("<QI", log, woff)
            writes.append((a, v))
            out["image"][a] = v
            woff += REC_WRITE
        out["per_thread"][thread] = ordinal
        out["records"].append({"seq": seq, "tx": tx, "thread": thread,
                               "ordinal": ordinal, "kind": kind,
                               "writes": writes})
        off += length
    return out


def parse_dump(path):
    """Parse a PTMWAL1 dump file; raises BadDump on any framing error."""
    with open(path, "rb") as f:
        buf = f.read()
    if buf[:8] != DUMP_MAGIC:
        raise BadDump("not a PTMWAL1 dump (bad magic)")
    rd = Reader(buf, 8)
    d = {"version": rd.u32()}
    if d["version"] != DUMP_VERSION:
        raise BadDump(f"unsupported dump version {d['version']}")
    d["tm_kind"] = rd.u32()
    d["threads"] = rd.u32()
    d["seed"] = rd.u64()
    d["crash_tick"] = rd.u64()
    d["end_tick"] = rd.u64()
    d["workload"] = rd.string()
    d["options"] = [(rd.string(), rd.string())
                    for _ in range(rd.u32())]
    regions = []
    for i in range(rd.u32()):
        vbase = rd.u64()
        nwords = rd.u32()
        rd.need(nwords * 4 + 4)
        w0 = rd.off
        words = list(struct.unpack_from(f"<{nwords}I", buf, w0))
        rd.off += nwords * 4
        if rd.u32() != zlib.crc32(buf[w0:w0 + nwords * 4]):
            raise BadDump(f"checkpoint region {i} fails its crc")
        regions.append({"vbase": vbase, "words": words})
    d["checkpoint"] = regions
    d["log_bytes_total"] = rd.u64()
    durable = rd.u64()
    rd.need(durable)
    d["durable_off"] = rd.off - 8  # file offset of the durable count
    d["log"] = buf[rd.off:rd.off + durable]
    if rd.off + durable != len(buf):
        raise BadDump("trailing bytes after the durable log")
    if durable > d["log_bytes_total"]:
        raise BadDump("durable log longer than the bytes generated")
    return d


def truncate_dump(path, cut):
    """Shorten a dump's durable log by `cut` bytes (torn-tail forge).

    Rewrites the durable-byte count down and drops the file tail, so
    the log ends mid-record exactly as a crash inside a device drain
    would leave it. Returns the new durable length.
    """
    d = parse_dump(path)
    durable = len(d["log"])
    if cut <= 0 or cut >= durable:
        raise ValueError(f"cut {cut} outside (0, {durable})")
    with open(path, "r+b") as f:
        f.seek(d["durable_off"])
        f.write(struct.pack("<Q", durable - cut))
        f.seek(0, os.SEEK_END)
        f.truncate(f.tell() - cut)
    return durable - cut


def check_dump(path, verbose=False):
    """Validate one dump; returns a list of failure strings."""
    fails = []
    try:
        d = parse_dump(path)
    except BadDump as e:
        return [f"{path}: {e}"]

    r = replay_log(d["log"])
    if r["error"]:
        fails.append(f"{path}: {r['error']}")
    if r["torn_bytes"] and not d["crash_tick"]:
        fails.append(f"{path}: completed-run dump has a torn record "
                     f"({r['torn_bytes']} bytes at offset "
                     f"{r['torn_offset']})")
    for rec in r["records"]:
        if rec["kind"] != d["tm_kind"]:
            fails.append(f"{path}: record seq {rec['seq']} kind "
                         f"{rec['kind']} != dump kind {d['tm_kind']}")
        if rec["thread"] >= d["threads"]:
            fails.append(f"{path}: record seq {rec['seq']} thread "
                         f"{rec['thread']} out of range")

    # Replay idempotence: re-applying every record to the finished
    # image must not change it (redo logs are re-appliable).
    once_again = dict(r["image"])
    for rec in r["records"]:
        for a, v in rec["writes"]:
            once_again[a] = v
    if once_again != r["image"]:
        fails.append(f"{path}: replay is not idempotent")

    if verbose or fails:
        tick = d["crash_tick"]
        print(f"{path}: {d['workload']}/{d['threads']}t seed "
              f"{d['seed']}, "
              f"{'crash@' + str(tick) if tick else 'completed'}, "
              f"{len(d['checkpoint'])} regions, "
              f"{len(r['records'])} records, "
              f"{r['torn_bytes']} torn bytes")
    return fails


# ------------------------------------------------------------ self-test

def _mk_record(seq, tx, thread, ordinal, kind, writes):
    body = struct.pack("<II", REC_MAGIC,
                       REC_HEADER + len(writes) * REC_WRITE + REC_CRC)
    body += struct.pack("<QQIIII", seq, tx, thread, ordinal, kind,
                        len(writes))
    for a, v in writes:
        body += struct.pack("<QI", a, v)
    return body + struct.pack("<I", zlib.crc32(body))


def _mk_dump(log, crash_tick=100, regions=None):
    buf = bytearray(DUMP_MAGIC)
    buf += struct.pack("<III", DUMP_VERSION, 3, 2)
    buf += struct.pack("<QQQ", 7, crash_tick, 200)
    wl = b"kv"
    buf += struct.pack("<I", len(wl)) + wl
    buf += struct.pack("<I", 0)  # no options
    regions = regions if regions is not None else \
        [(0x1000, [1, 2, 3])]
    buf += struct.pack("<I", len(regions))
    for vbase, words in regions:
        buf += struct.pack("<QI", vbase, len(words))
        wb = struct.pack(f"<{len(words)}I", *words)
        buf += wb + struct.pack("<I", zlib.crc32(wb))
    buf += struct.pack("<QQ", len(log) + 64, len(log))
    buf += log
    return bytes(buf)


def self_test():
    t = SelfTest()
    fails = t.failures

    rec1 = _mk_record(1, 11, 0, 1, 3, [(0x1000, 5), (0x1008, 6)])
    rec2 = _mk_record(2, 12, 1, 1, 3, [(0x1000, 9)])
    rec3 = _mk_record(3, 13, 0, 2, 3, [])
    log = rec1 + rec2 + rec3

    # 1. A clean log replays fully, last writer wins.
    r = replay_log(log)
    if r["error"] or r["torn_bytes"]:
        fails.append(f"clean log rejected: {r['error']}")
    if len(r["records"]) != 3 or r["image"].get(0x1000) != 9:
        fails.append("replay image wrong")
    if r["per_thread"] != {0: 2, 1: 1}:
        fails.append(f"per-thread counts wrong: {r['per_thread']}")

    # 2. Truncation at EVERY byte boundary is torn or a clean prefix,
    # never an error and never a phantom record.
    whole = [0, len(rec1), len(rec1) + len(rec2), len(log)]
    for cut in range(len(log)):
        rr = replay_log(log[:cut])
        if rr["error"]:
            fails.append(f"truncation at {cut} misread as corrupt: "
                         f"{rr['error']}")
            break
        comp = [w for w in whole[1:] if w <= cut]
        if len(rr["records"]) != len(comp):
            fails.append(f"truncation at {cut}: {len(rr['records'])} "
                         f"records, want {len(comp)}")
            break
        if (cut not in whole) != (rr["torn_bytes"] > 0):
            fails.append(f"truncation at {cut}: torn flag wrong")
            break

    # 3. Single-byte corruption inside a record must be a hard error
    # naming an offset (flip a write byte: crc catches it).
    bad = bytearray(log)
    bad[REC_HEADER + 2] ^= 0xFF
    rb = replay_log(bytes(bad))
    if not rb["error"] or "offset" not in rb["error"]:
        fails.append(f"corrupt byte not rejected: {rb['error']}")

    # 4. A reordered log (seq out of order) must be rejected.
    ro = replay_log(rec2 + rec1)
    if not ro["error"] or "sequence" not in ro["error"]:
        fails.append(f"seq reorder not rejected: {ro['error']}")

    # 5. Dump round-trip, torn forging, and region CRC detection.
    with tempfile.TemporaryDirectory() as td:
        p = os.path.join(td, "t.wal")
        with open(p, "wb") as f:
            f.write(_mk_dump(log))
        if check_dump(p):
            fails.append("clean dump flagged")
        new_len = truncate_dump(p, 3)
        d = parse_dump(p)
        if len(d["log"]) != new_len:
            fails.append("truncate_dump length wrong")
        rt = replay_log(d["log"])
        if rt["error"] or rt["torn_bytes"] != len(rec3) - 3:
            fails.append(f"forged torn tail wrong: {rt}")
        # Completed-run dumps must not tolerate torn tails.
        with open(p, "wb") as f:
            f.write(_mk_dump(d["log"], crash_tick=0))
        if not any("torn" in x for x in check_dump(p)):
            fails.append("completed-run torn tail not flagged")
        # Region corruption must fail the region CRC.
        with open(p, "wb") as f:
            f.write(_mk_dump(log))
        with open(p, "r+b") as f:
            f.seek(len(DUMP_MAGIC) + 12 + 24 + 4 + 2 + 4 + 4 + 12 + 2)
            b = f.read(1)
            f.seek(-1, os.SEEK_CUR)
            f.write(bytes([b[0] ^ 0xFF]))
        if not any("crc" in x for x in check_dump(p)):
            fails.append("region corruption not detected")

    return t.report()


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("dumps", nargs="*", help="PTMWAL1 dump files")
    ap.add_argument("--verbose", action="store_true",
                    help="print a summary line per dump")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the parser against crafted streams")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if not args.dumps:
        ap.error("at least one DUMP file is required")
    bad = 0
    for path in args.dumps:
        fails = check_dump(path, verbose=args.verbose)
        for fl in fails:
            print(f"FAIL: {fl}", file=sys.stderr)
        bad += bool(fails)
    print(f"{len(args.dumps)} dump(s), {bad} failing")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
