/**
 * @file
 * The persistence domain: a write-ahead redo log under the TM.
 *
 * The paper's PTM makes transactions unbounded in space and time but
 * volatile: a power cut loses every commit still in the coherence
 * domain. Real deployments layer a persistence domain beneath the TM
 * (Giles et al., "Hardware Transactional Persistent Memory"; DUMBO's
 * durable transactions), and Select-PTM is unusually well suited to
 * it: a commit's effect on memory is a set of selection-bit flips
 * whose redo intent — the committed word values — is tiny. WalManager
 * models exactly that layer:
 *
 *  - While a transaction runs, its stores are captured as an absolute
 *    (vaddr, value) redo set (Select-PTM: the words whose selection
 *    bits will flip home; Copy-PTM: the shadow-to-home copy set).
 *  - At commit the redo set is serialized as one log record, appended
 *    to a modeled ordered log device, and the committing core stalls
 *    until the ordered flush drains (base fence latency plus record
 *    bytes over the device bandwidth) — redo-at-commit durability.
 *  - An abort discards the redo set; nothing aborted ever reaches the
 *    log, so the log byte order IS the commit serialization order.
 *
 * Crash semantics: a crash at tick T preserves every append whose
 * drain finished by T plus a proportional prefix of the in-flight
 * append — so the surviving log can end in a torn, partially-flushed
 * record. replayWal() discards such a tail with a diagnostic naming
 * the offset; a structurally complete record that fails its CRC is a
 * hard rejection, never a silent partial image.
 *
 * Serialized formats (all little-endian):
 *
 *  record := u32 magic 'CREC', u32 len (total record bytes),
 *            u64 seq (global commit order, from 1),
 *            u64 tx, u32 thread, u32 ordinal (per-thread order, from
 *            1), u32 kind (TmKind), u32 nwrites,
 *            nwrites x { u64 vaddr, u32 value },
 *            u32 crc32 (zlib polynomial, over all prior record bytes)
 *
 *  dump   := "PTMWAL1\n", u32 version, u32 tmKind, u32 threads,
 *            u64 seed, u64 crashTick (0 = completed), u64 endTick,
 *            str workload, u32 nopts x { str key, str value },
 *            u32 nregions x { u64 vbase, u32 nwords, words,
 *                             u32 crc32 },
 *            u64 logBytesTotal, u64 logBytesDurable,
 *            logBytesDurable raw log bytes
 *  (str := u32 len + bytes; region CRC covers the region's word
 *  bytes). tools/check_wal.py parses the same formats in Python.
 */

#ifndef PTM_PERSIST_WAL_HH
#define PTM_PERSIST_WAL_HH

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "sim/types.hh"

namespace ptm
{

class CycleProfiler;

/** CRC32 (zlib polynomial 0xEDB88320; Python zlib.crc32 agrees). */
std::uint32_t crc32(const std::uint8_t *data, std::size_t n);

/** Log-record magic: "CREC" read as a little-endian u32. */
constexpr std::uint32_t walRecordMagic = 0x43455243u;

/** Crash-dump file magic. */
constexpr char walDumpMagic[9] = "PTMWAL1\n";

/** Crash-dump format version. */
constexpr std::uint32_t walDumpVersion = 1;

/** Fixed byte sizes of the record encoding. */
constexpr std::size_t walRecordHeaderBytes = 40;
constexpr std::size_t walRecordWriteBytes = 12;
constexpr std::size_t walRecordCrcBytes = 4;

/** One parsed commit record. */
struct WalRecord
{
    std::uint64_t seq = 0;
    std::uint64_t tx = 0;
    std::uint32_t thread = 0;
    /** 1-based commit index within the thread. */
    std::uint32_t ordinal = 0;
    /** TmKind of the producing system. */
    std::uint32_t kind = 0;
    std::vector<std::pair<Addr, std::uint32_t>> writes;
};

/** Result of replaying a (possibly torn) log byte stream. */
struct WalReplay
{
    /** Absolute word image the durable commits produce. */
    std::map<Addr, std::uint32_t> image;
    /** Complete records, in log (= commit serialization) order. */
    std::vector<WalRecord> records;
    /** Durable commit count per producing thread. */
    std::unordered_map<std::uint32_t, std::uint32_t> perThread;
    /** Bytes of an incomplete trailing record discarded as torn. */
    std::uint64_t tornBytes = 0;
    /** Byte offset where the torn tail starts. */
    std::uint64_t tornOffset = 0;
    /** Non-empty: hard rejection (corrupt record), naming the offset. */
    std::string error;

    bool ok() const { return error.empty(); }
};

/**
 * Parse and replay @p n log bytes at @p data. A truncated trailing
 * record is reported via tornBytes/tornOffset and discarded; a
 * complete record failing its magic/length/sequence/CRC checks sets
 * error (with the bad byte offset) and aborts the replay.
 */
WalReplay replayWal(const std::uint8_t *data, std::size_t n);

/** One checkpoint region of the pre-run baseline image. */
struct WalRegion
{
    Addr vbase = 0;
    std::vector<std::uint32_t> words;
};

/** In-memory form of a serialized crash dump. */
struct WalDump
{
    std::uint32_t version = walDumpVersion;
    std::uint32_t tmKind = 0;
    unsigned threads = 0;
    std::uint64_t seed = 0;
    /** Tick of the crash cut; 0 = the run completed. */
    Tick crashTick = 0;
    /** Simulated tick at serialization time. */
    Tick endTick = 0;
    std::string workload;
    /** Resolved workload options, declaration order. */
    std::vector<std::pair<std::string, std::string>> options;
    /** The pre-run baseline image (the store's on-disk state). */
    std::vector<WalRegion> checkpoint;
    /** Log bytes the run generated (durable or not). */
    std::uint64_t logBytesTotal = 0;
    /** The durable log prefix (may end in a torn record). */
    std::vector<std::uint8_t> log;
};

/**
 * Serialize @p dump to @p path.
 * @return true on success; on failure @p err (if non-null) explains.
 */
bool writeWalDump(const std::string &path, const WalDump &dump,
                  std::string *err);

/**
 * Load a dump from @p path into @p out, verifying magic, version and
 * every checkpoint region's CRC.
 * @return true on success; on failure @p err (if non-null) explains.
 */
bool readWalDump(const std::string &path, WalDump &out,
                 std::string *err);

/**
 * The modeled write-ahead log device plus per-transaction redo
 * capture. Built only under `--durability wal` (System holds a
 * nullable unique_ptr), so durability-off runs stay bit-identical.
 *
 * The log lives on the modeled device, not in host memory: every
 * commit serializes its record into one reused buffer and advances a
 * running byte count, which the drain windows, durableBytesAt, the
 * trace and the persist.* statistics all read. The bytes themselves
 * are kept only when @p keepLog is set (System sets it when a
 * --wal-file dump will be written), so a run's host memory does not
 * grow with the log; everything but log() reads the same either way.
 */
class WalManager
{
  public:
    WalManager(const PersistParams &prm, TmKind kind, bool keepLog);

    /** Attach the event tracer (System wiring; defaults to nil). */
    void setTracer(Tracer *t) { tracer_ = t; }

    /** Attach the cycle profiler (System wiring; defaults to nil). */
    void setProfiler(CycleProfiler *p) { prof_ = p; }

    /** Capture one transactional store into @p tx's redo set. */
    void noteStore(TxId tx, Addr vaddr, std::uint32_t value);

    /** Abort of @p tx: drop its captured redo set. */
    void discard(TxId tx);

    /**
     * Commit of @p tx at tick @p now: assign the next global sequence
     * number and per-thread ordinal, serialize the record, and reserve
     * the ordered flush on the log-device timeline.
     * @return ticks the committing core must stall for durability.
     */
    Tick commitTx(TxId tx, std::uint32_t thread, Tick now);

    /**
     * Durable log prefix length had the power been cut at @p cut:
     * whole appends whose drain finished by then, plus the
     * proportionally-flushed prefix of an in-flight append.
     */
    std::uint64_t durableBytesAt(Tick cut) const;

    /**
     * The full serialized log, records in commit-sequence order —
     * kept only when constructed with keepLog (empty otherwise).
     */
    const std::vector<std::uint8_t> &log() const { return log_; }

    /** Log bytes appended so far (kept or not). */
    std::uint64_t logBytes() const { return log_bytes_; }

    /** Durable commits so far. */
    std::uint64_t commits() const { return commits_.value(); }

    /** Register this component's statistics under "persist". */
    void regStats(StatRegistry &reg);

  private:
    /** One log append's byte span and device-drain window. */
    struct Append
    {
        std::uint64_t off0 = 0;
        std::uint64_t off1 = 0;
        Tick t0 = 0;
        Tick t1 = 0;
    };

    const PersistParams prm_;
    const TmKind kind_;
    /** Keep the serialized bytes in log_ (a dump will be written). */
    const bool keep_log_;
    Tracer *tracer_ = &Tracer::nil();
    CycleProfiler *prof_ = nullptr;

    /** Captured redo sets of live transactions. */
    std::unordered_map<TxId, std::vector<std::pair<Addr, std::uint32_t>>>
        pending_;
    /** The kept log bytes (keep_log_ only). */
    std::vector<std::uint8_t> log_;
    /** Scratch buffer the commit being logged is serialized into. */
    std::vector<std::uint8_t> record_;
    /** Bytes appended so far: the log's end offset on the device. */
    std::uint64_t log_bytes_ = 0;
    /**
     * Append spans, in order (drain windows never overlap). One per
     * commit, so this still grows with run length (32 B a commit).
     */
    std::vector<Append> appends_;
    /** Tick the log device next falls idle. */
    Tick device_free_ = 0;
    std::uint64_t next_seq_ = 1;
    /** Per-thread commit ordinals (next to assign, 1-based). */
    std::unordered_map<std::uint32_t, std::uint32_t> ordinals_;

    /** @name Statistics */
    /// @{
    Counter commits_;        //!< durable commits logged
    Counter words_;          //!< redo words logged
    Counter bytes_;          //!< log bytes appended
    Counter emptyCommits_;   //!< read-only commits (no record needed)
    Counter stallTicks_;     //!< total durable-commit stall ticks
    Distribution commitWait_{0, 1u << 16, 256};
    /// @}
};

} // namespace ptm

#endif // PTM_PERSIST_WAL_HH
