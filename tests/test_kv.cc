/**
 * @file
 * The kv serving workload, host side first: the Zipfian sampler, the
 * deterministic op stream and its per-transaction source (retries
 * replay), the B+-tree page layout, and the sequential oracles
 * (streamed = materialized; a seeded lost update is caught),
 * then the full workload on every TM backend and its registry entry.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "sim_test_util.hh"
#include "workloads/kv.hh"
#include "workloads/zipfian.hh"

namespace ptm
{
namespace
{

using namespace ptm::test;

kv::Params
tinyParams()
{
    kv::Params p;
    p.threads = 4;
    p.keys = 2048;
    p.ops = 1500;
    p.scanLen = 8;
    return p;
}

/**
 * Thread @p thread's whole op program: every op of its OpStream in one
 * vector, the reference the streamed paths are compared against.
 */
std::vector<kv::Op>
generateProgram(const kv::Params &p, const Zipfian &zipf, unsigned thread)
{
    kv::OpStream s(p, zipf, thread);
    std::vector<kv::Op> ops;
    while (!s.done())
        ops.push_back(s.next());
    return ops;
}

TEST(KvZipfian, SameSeedBitExact)
{
    Zipfian z(1u << 17, 0.99);
    Pcg32 a(42, 7);
    Pcg32 b(42, 7);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(z.sample(a), z.sample(b)) << "diverged at draw " << i;
}

TEST(KvZipfian, SkewMatchesTheta)
{
    constexpr std::uint64_t n = 1024;
    constexpr int draws = 50000;
    auto head_share = [&](double theta) {
        Zipfian z(n, theta);
        Pcg32 rng(1, 2);
        int head = 0;
        for (int i = 0; i < draws; ++i) {
            std::uint64_t r = z.sample(rng);
            EXPECT_LT(r, n);
            head += r < 16;
        }
        return double(head) / draws;
    };
    // Under theta=0.99 the hottest 16 of 1024 ranks absorb most of the
    // traffic; uniform sampling gives them their fair 16/1024 ~ 1.6%.
    EXPECT_GT(head_share(0.99), 0.25);
    EXPECT_LT(head_share(0.0), 0.10);
}

// The closed-form zeta(n, theta) against the plain sum in long double,
// smallest terms first: both sides of the head/tail seam (n = 31, 32,
// 33), the smoke and default key spaces, and skews from near-uniform
// to theta -> 1, where the tail integral's 1/(1-theta) is largest.
TEST(KvZipfian, ClosedFormMatchesReferenceSum)
{
    for (double theta : {0.01, 0.5, 0.9, 0.99, 0.999}) {
        for (std::uint64_t n : {1u, 2u, 31u, 32u, 33u, 2048u, 131072u}) {
            long double ref = 0;
            for (std::uint64_t i = n; i >= 1; --i)
                ref += std::pow((long double)i, -(long double)theta);
            const double z = Zipfian::zeta(n, theta);
            EXPECT_LE(std::fabs((z - ref) / ref), 1e-14)
                << "theta " << theta << " n " << n;
        }
    }
}

/**
 * FNV-1a digest of 10^6 ranks: the first 62 500 of each of threads
 * 0-15, each from the Pcg32 stream kv's OpStream gives that thread
 * under seed 1 (ranks only, without the op-type draws between them).
 */
std::uint64_t
rankDigest(std::uint64_t n, double theta)
{
    const Zipfian z(n, theta);
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned t = 0; t < 16; ++t) {
        Pcg32 rng(1 + std::uint64_t(t) * 1000003, 0xC0FFEEull + t);
        for (int i = 0; i < 62500; ++i) {
            const std::uint64_t r = z.sample(rng);
            for (int b = 0; b < 8; ++b) {
                h ^= (r >> (8 * b)) & 0xff;
                h *= 1099511628211ull;
            }
        }
    }
    return h;
}

// The rank streams of the default (131072 keys) and smoke (2048 keys)
// stores, pinned to the digests of the summed-constant sampler the
// closed form replaced: every BENCH row and benchmark figure depends
// on these exact ranks.
TEST(KvZipfian, RankStreamPinned)
{
    EXPECT_EQ(rankDigest(131072, 0.99), 0xff027c061129c9cdull);
    EXPECT_EQ(rankDigest(2048, 0.99), 0x1bc9928319afe108ull);
}

TEST(KvProgram, DeterministicPerThread)
{
    kv::Params p = tinyParams();
    const Zipfian zipf(p.keys, p.zipf);
    for (unsigned t = 0; t < p.threads; ++t) {
        // A shared sampler and a fresh one draw the same stream.
        auto a = generateProgram(p, zipf, t);
        auto b = generateProgram(p, Zipfian(p.keys, p.zipf), t);
        ASSERT_EQ(a.size(), p.ops);
        EXPECT_TRUE(a == b) << "thread " << t;
    }
    // Different threads draw different streams.
    EXPECT_FALSE(generateProgram(p, zipf, 0) == generateProgram(p, zipf, 1));
}

TEST(KvProgram, WritesStayInOwnerPartition)
{
    kv::Params p = tinyParams();
    const Zipfian zipf(p.keys, p.zipf);
    std::map<kv::OpType, int> count;
    for (unsigned t = 0; t < p.threads; ++t) {
        for (const kv::Op &op : generateProgram(p, zipf, t)) {
            ASSERT_LT(op.key, p.keys);
            if (op.isWrite()) {
                EXPECT_EQ(op.key % p.threads, t);
            }
            if (op.type == kv::OpType::Scan) {
                EXPECT_EQ(op.len, p.scanLen);
            }
            ++count[op.type];
        }
    }
    // All four op types occur, roughly in the configured 60/15/15/10
    // mix (loose bounds; the draw is pseudo-random, not stratified).
    double total = double(p.ops) * p.threads;
    EXPECT_NEAR(count[kv::OpType::Lookup] / total, 0.60, 0.05);
    EXPECT_NEAR(count[kv::OpType::Scan] / total, 0.15, 0.05);
    EXPECT_NEAR(count[kv::OpType::Insert] / total, 0.15, 0.05);
    EXPECT_NEAR(count[kv::OpType::Delete] / total, 0.10, 0.05);
}

// The workload's per-transaction source must hand out exactly the
// materialized program, in tx-ops slices, and a second request for the
// same slice (a retry after an abort) must replay it unchanged.
TEST(KvProgram, TxSourceYieldsTheProgramAndReplaysRetries)
{
    kv::Params p = tinyParams();
    p.txOps = 7; // 1500 ops: 214 full transactions and a 2-op tail
    const Zipfian zipf(p.keys, p.zipf);
    for (unsigned t = 0; t < p.threads; ++t) {
        const auto prog = generateProgram(p, zipf, t);
        kv::TxOpSource src(p, zipf, t);
        for (std::uint64_t o0 = 0; o0 < p.ops; o0 += p.txOps) {
            const std::uint64_t o1 = std::min(p.ops, o0 + p.txOps);
            const std::vector<kv::Op> want(prog.begin() + o0,
                                           prog.begin() + o1);
            ASSERT_TRUE(src.ops(o0, o1) == want)
                << "thread " << t << " ops [" << o0 << ", " << o1 << ")";
            // Transactions are retried 0, 1 or 2 times in turn.
            for (std::uint64_t r = 0; r < (o0 / p.txOps) % 3; ++r)
                ASSERT_TRUE(src.ops(o0, o1) == want)
                    << "retry of thread " << t << " ops [" << o0
                    << ", " << o1 << ")";
        }
        kv::OpStream s(p, zipf, t);
        for (std::uint64_t i = 0; i < p.ops; ++i)
            ASSERT_TRUE(s.next() == prog[i]) << "thread " << t;
        EXPECT_TRUE(s.done());
    }
}

TEST(KvProgramDeathTest, TxSourceRefusesOutOfOrderRequests)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    kv::Params p = tinyParams();
    const Zipfian zipf(p.keys, p.zipf);
    kv::TxOpSource src(p, zipf, 0);
    src.ops(0, 32);
    EXPECT_DEATH(src.ops(64, 96), "out of order");
}

/**
 * The oracles, recomputed from materialized programs: what the host
 * checks a run against must not depend on how the ops are produced.
 */
std::vector<std::uint32_t>
referenceTags(const kv::Params &p, const Zipfian &zipf,
              const std::vector<std::uint64_t> &nops)
{
    std::vector<std::uint32_t> tags(p.keys, 0);
    for (std::uint32_t k = 0; k < p.keys; ++k)
        if (kv::preloaded(p, k))
            tags[k] = kv::preloadTag(p.seed, k);
    for (unsigned t = 0; t < p.threads; ++t) {
        const auto prog = generateProgram(p, zipf, t);
        for (std::size_t i = 0; i < nops[t]; ++i) {
            if (prog[i].type == kv::OpType::Insert)
                tags[prog[i].key] =
                    kv::valueTag(p.seed, t, i, prog[i].key);
            else if (prog[i].type == kv::OpType::Delete)
                tags[prog[i].key] = 0;
        }
    }
    return tags;
}

TEST(KvOracle, StreamedOraclesEqualMaterializedReference)
{
    kv::Params p = tinyParams();
    const Zipfian zipf(p.keys, p.zipf);
    const std::vector<std::uint64_t> all(p.threads, p.ops);
    EXPECT_TRUE(kv::expectedFinal(p, zipf) == referenceTags(p, zipf, all));

    // Committed prefixes: none, some, all (the last transaction is
    // partial, so the count is clamped to the program), more than all,
    // and missing thread entries.
    const std::uint64_t txs = (p.ops + p.txOps - 1) / p.txOps;
    const std::vector<std::uint64_t> counts = {0, 5, txs, txs + 3};
    const std::vector<std::uint64_t> nops = {0, 5 * p.txOps, p.ops, p.ops};
    EXPECT_TRUE(kv::expectedAfterCommits(p, zipf, counts) ==
                referenceTags(p, zipf, nops));
    EXPECT_TRUE(kv::expectedAfterCommits(p, zipf, {17}) ==
                referenceTags(p, zipf, {17 * p.txOps, 0, 0, 0}));
    EXPECT_TRUE(kv::expectedAfterCommits(p, zipf, all) ==
                kv::expectedFinal(p, zipf));
}

TEST(KvLayout, NodeGeometry)
{
    kv::Layout lay(2048, 2);
    EXPECT_EQ(lay.leaves(), 2048 / kv::Layout::kLeafKeys);
    EXPECT_EQ(lay.depth(), 2u); // 128 leaves -> 8 inners -> 1 root
    EXPECT_EQ(lay.innerCount(1), 8u);
    EXPECT_EQ(lay.innerCount(2), 1u);
    EXPECT_EQ(lay.innerTotal(), 9u);

    // Leaves are 64-byte aligned: [occ][next][16 slots * vwords].
    EXPECT_EQ(lay.leafStrideWords() % 16, 0u);
    EXPECT_GE(lay.leafStrideWords(), 2 + 16 * lay.vwords());
    for (std::uint64_t l = 0; l < lay.leaves(); ++l)
        EXPECT_EQ(lay.leafAddr(l) % 64, 0u);

    // Slots of one leaf are disjoint and inside the leaf.
    for (std::uint64_t k = 0; k + 1 < kv::Layout::kLeafKeys; ++k)
        EXPECT_EQ(lay.slotAddr(k + 1) - lay.slotAddr(k),
                  4 * lay.vwords());
    Addr leaf0_end = lay.leafAddr(0) + 4 * lay.leafStrideWords();
    EXPECT_LE(lay.slotAddr(kv::Layout::kLeafKeys - 1) + 4 * lay.vwords(),
              leaf0_end);
    EXPECT_EQ(lay.leafAddr(1), leaf0_end);

    // The three regions cannot collide.
    Addr inner_end = lay.innerAddr(1, lay.innerCount(1) - 1) +
                     4 * kv::Layout::kInnerWords;
    EXPECT_GT(lay.innerAddr(1, 0), lay.metaAddr());
    EXPECT_LE(inner_end, kv::Layout::kLeafBase);
    EXPECT_EQ(lay.rootAddr(), lay.innerAddr(lay.depth(), 0));
}

TEST(KvLayout, SeparatorDescentReachesEveryLeaf)
{
    kv::Layout lay(2048, 2);
    // Walk root -> leaf exactly as the simulated program does (binary
    // search over the 15 separators, then the chosen child pointer) and
    // check the walk lands on leafOf(key) for every key.
    for (std::uint64_t key = 0; key < lay.keys(); ++key) {
        unsigned level = lay.depth();
        std::uint64_t idx = 0;
        while (level > 0) {
            unsigned c = 0;
            while (c < kv::Layout::kFanout - 1 &&
                   key >= lay.sepValue(level, idx, c))
                ++c;
            Addr child = lay.childAddr(level, idx, c);
            ASSERT_NE(child, 0u) << "key " << key;
            --level;
            std::uint64_t next =
                level == 0
                    ? (child - kv::Layout::kLeafBase) /
                          (4 * lay.leafStrideWords())
                    : idx * kv::Layout::kFanout + c;
            if (level > 0) {
                ASSERT_EQ(child, lay.innerAddr(level, next));
            }
            idx = next;
        }
        EXPECT_EQ(idx, lay.leafOf(key)) << "key " << key;
    }
}

TEST(KvOracle, DropIndexTargetsNeverRewrittenInsert)
{
    kv::Params p = tinyParams();
    const Zipfian zipf(p.keys, p.zipf);
    auto program = generateProgram(p, zipf, 0);
    std::size_t drop = kv::chooseDropIndex(kv::OpStream(p, zipf, 0));
    ASSERT_NE(drop, std::size_t(-1));
    ASSERT_EQ(program[drop].type, kv::OpType::Insert);
    // No later write of thread 0 may mask the suppressed insert.
    for (std::size_t i = drop + 1; i < program.size(); ++i) {
        if (program[i].isWrite()) {
            EXPECT_NE(program[i].key, program[drop].key);
        }
    }
}

/** The drop-write choice as a backward scan of the whole program. */
std::size_t
reverseScanDropIndex(const std::vector<kv::Op> &program)
{
    std::size_t fallback = SIZE_MAX;
    std::set<std::uint32_t> written_later;
    for (std::size_t i = program.size(); i-- > 0;) {
        const kv::Op &op = program[i];
        if (op.type == kv::OpType::Insert) {
            if (fallback == SIZE_MAX)
                fallback = i;
            if (!written_later.count(op.key))
                return i;
        }
        if (op.isWrite())
            written_later.insert(op.key);
    }
    return fallback;
}

// The streamed forward walk picks the insert a backward scan over the
// stored program would, for every thread of: the tiny preset at three
// seeds, the full-size default store, uniform keys, delete-heavy
// churn over 16 keys per partition (the last insert is often deleted
// again, so the choice is an earlier one, or, when every insert is
// rewritten, the fallback), and a read-only mix with no insert. Each
// of those four outcomes must occur at least once.
TEST(KvOracle, StreamedDropIndexEqualsReverseScan)
{
    std::vector<kv::Params> configs;
    for (std::uint64_t seed : {1, 2, 7}) {
        kv::Params p = tinyParams();
        p.seed = seed;
        configs.push_back(p);
    }
    configs.push_back(kv::Params{}); // 131072 keys, 12000 ops
    kv::Params uniform = tinyParams();
    uniform.zipf = 0.0;
    configs.push_back(uniform);
    for (std::uint64_t insert_pct : {2, 10})
        for (std::uint64_t seed : {1, 2, 3, 4}) {
            kv::Params churn = tinyParams();
            churn.seed = seed;
            churn.keys = 64;
            churn.ops = 400;
            churn.lookupPct = churn.scanPct = 0;
            churn.insertPct = insert_pct;
            churn.deletePct = 100 - insert_pct;
            configs.push_back(churn);
        }
    kv::Params readonly = tinyParams();
    readonly.lookupPct = 100;
    readonly.scanPct = readonly.insertPct = readonly.deletePct = 0;
    configs.push_back(readonly);

    enum Outcome { LastInsert, EarlierInsert, Fallback, NoInsert };
    std::set<Outcome> seen;
    for (const kv::Params &p : configs) {
        const Zipfian zipf(p.keys, p.zipf);
        for (unsigned t = 0; t < p.threads; ++t) {
            const auto prog = generateProgram(p, zipf, t);
            const std::size_t want = reverseScanDropIndex(prog);
            EXPECT_EQ(kv::chooseDropIndex(kv::OpStream(p, zipf, t)), want)
                << "seed " << p.seed << " keys " << p.keys << " insert "
                << p.insertPct << "% thread " << t;
            if (want == SIZE_MAX) {
                seen.insert(NoInsert);
                continue;
            }
            bool rewritten = false;
            bool later_insert = false;
            for (std::size_t j = want + 1; j < prog.size(); ++j) {
                rewritten = rewritten || (prog[j].isWrite() &&
                                          prog[j].key == prog[want].key);
                later_insert =
                    later_insert || prog[j].type == kv::OpType::Insert;
            }
            seen.insert(rewritten      ? Fallback
                        : later_insert ? EarlierInsert
                                       : LastInsert);
        }
    }
    EXPECT_EQ(seen.size(), 4u) << "an outcome went untested";
}

TEST(KvOracle, ExpectedFinalRespectsPreloadAndWrites)
{
    kv::Params p = tinyParams();
    const Zipfian zipf(p.keys, p.zipf);
    auto final = kv::expectedFinal(p, zipf);
    ASSERT_EQ(final.size(), p.keys);
    // Keys nobody writes keep their preload state.
    std::vector<bool> written(p.keys, false);
    for (unsigned t = 0; t < p.threads; ++t)
        for (const kv::Op &op : generateProgram(p, zipf, t))
            if (op.isWrite())
                written[op.key] = true;
    int untouched = 0;
    for (std::uint32_t k = 0; k < p.keys; ++k) {
        if (written[k])
            continue;
        ++untouched;
        if (kv::preloaded(p, k))
            EXPECT_EQ(final[k], kv::preloadTag(p.seed, k));
        else
            EXPECT_EQ(final[k], 0u);
    }
    EXPECT_GT(untouched, 0);
}

TEST(KvWorkload, OracleCatchesLostUpdate)
{
    SystemParams prm = quietParams(TmKind::SelectPtm);
    ExperimentResult r = runWorkload("kv", prm, 0, 4,
                                     {{"drop-write", "1"}});
    EXPECT_FALSE(r.verified)
        << "a silently dropped insert must fail verification";
}

TEST(KvWorkload, VerifiesOnAllBackends)
{
    for (TmKind kind :
         {TmKind::Serial, TmKind::Locks, TmKind::SelectPtm,
          TmKind::CopyPtm, TmKind::Vtm, TmKind::VcVtm}) {
        SystemParams prm = quietParams(kind);
        ExperimentResult r = runWorkload("kv", prm, 0, 4);
        EXPECT_TRUE(r.verified) << "kv on " << tmKindName(kind);
        EXPECT_GT(r.setupSeconds, 0.0);
        EXPECT_EQ(r.snapshot.counter("sys.hit_tick_limit"), 0u);
        if (syncModeFor(kind) == SyncMode::Tx) {
            EXPECT_GT(r.snapshot.counter("tx.commits"), 0u);
        }
    }
}

/**
 * kv's hot leaves on 16 cores: younger requesters wait behind running
 * older transactions instead of aborting into them again, the run
 * completes and verifies, and the parked time the profiler attributes
 * to stall_conflict is exactly the tx.conflict_stall_ticks total.
 */
TEST(KvWorkload, SixteenCoresWaitBehindOlderTransactions)
{
    SystemParams prm;
    prm.tmKind = TmKind::SelectPtm;
    prm.numCores = 16;
    prm.maxTicks = 500 * 1000 * 1000;
    prm.profile.enabled = true;
    ExperimentResult r = runWorkload("kv", prm, 0, 16);
    EXPECT_TRUE(r.verified);
    EXPECT_EQ(r.snapshot.counter("sys.hit_tick_limit"), 0u);
    const std::uint64_t stalls = r.snapshot.counter("tx.conflict_stalls");
    const std::uint64_t ticks =
        r.snapshot.counter("tx.conflict_stall_ticks");
    EXPECT_GT(stalls, 0u);
    EXPECT_GE(ticks, stalls);
    ASSERT_TRUE(r.profile.enabled);
    EXPECT_EQ(r.profile.bucketTotal(ProfBucket::StallConflict), ticks);
    for (unsigned c = 0; c < r.profile.cores.size(); ++c)
        EXPECT_EQ(r.profile.coreTotal(c), r.profile.elapsed) << "core "
                                                             << c;
}

// Thread programs are made one step at a time: building a run of
// 10^12 ops per thread (which a stored program could not hold)
// materializes each thread's first step, its plain init stripe, and
// no transaction; the transactions are then made as the run reaches
// them.
TEST(KvWorkload, BuildMaterializesNoTransaction)
{
    WorkloadConfig cfg;
    cfg.threads = 4;
    auto wl = makeWorkload("kv", cfg,
                           {{"scale", "0"}, {"ops", "1000000000000"}});
    SystemParams prm = quietParams(TmKind::SelectPtm);
    prm.maxTicks = 2 * 1000 * 1000;
    System sys(prm);
    wl->build(sys);
    ASSERT_EQ(sys.numThreads(), 4u);
    for (unsigned t = 0; t < 4; ++t) {
        const ThreadCtx &th = sys.thread(t);
        EXPECT_EQ(th.stepIndex(), 0u) << "thread " << t;
        EXPECT_TRUE(std::holds_alternative<PlainStep>(th.currentStep()))
            << "thread " << t;
    }
    sys.run();
    const StatSnapshot s = sys.snapshot();
    EXPECT_EQ(s.counter("sys.hit_tick_limit"), 1u);
    EXPECT_GT(s.counter("tx.commits"), 0u);
    // Past init and the barrier, a thread retires one step per
    // committed transaction.
    std::uint64_t retired_txs = 0;
    for (unsigned t = 0; t < 4; ++t) {
        ASSERT_GE(sys.thread(t).stepIndex(), 2u) << "thread " << t;
        EXPECT_FALSE(sys.thread(t).finished()) << "thread " << t;
        retired_txs += sys.thread(t).stepIndex() - 2;
    }
    EXPECT_EQ(retired_txs, s.counter("tx.commits"));
}

TEST(KvRegistry, EntryAndOptionTable)
{
    const WorkloadInfo *info = WorkloadRegistry::instance().find("kv");
    ASSERT_NE(info, nullptr);
    EXPECT_FALSE(info->description.empty());
    EXPECT_FALSE(info->paperKernel);
    for (const char *name : {"scale", "keys", "zipf", "ops", "tx-ops",
                             "scan-len", "drop-write"})
        EXPECT_NE(WorkloadRegistry::findOption(*info, name), nullptr)
            << name;

    // kv is registered but is not part of the Table 1 suite.
    auto names = workloadNames();
    EXPECT_EQ(names.size(), 5u);
    for (const auto &n : names)
        EXPECT_NE(n, "kv");
    bool listed = false;
    for (const WorkloadInfo *w : WorkloadRegistry::instance().all())
        listed = listed || w->name == "kv";
    EXPECT_TRUE(listed);
}

TEST(KvRegistry, UnknownOptionDiagnosticNamesAlternatives)
{
    const WorkloadInfo *info = WorkloadRegistry::instance().find("kv");
    ASSERT_NE(info, nullptr);
    WorkloadOptions out;
    std::string err;
    EXPECT_FALSE(WorkloadRegistry::instance().resolve(
        *info, {{"bogus", "1"}}, out, &err));
    EXPECT_NE(err.find("bogus"), std::string::npos);
    EXPECT_NE(err.find("zipf"), std::string::npos)
        << "diagnostic should list the declared options: " << err;

    err.clear();
    EXPECT_FALSE(WorkloadRegistry::instance().resolve(
        *info, {{"zipf", "hot"}}, out, &err));
    EXPECT_NE(err.find("zipf"), std::string::npos) << err;
}

} // namespace
} // namespace ptm
