/**
 * @file
 * Thread programs made one step at a time: a generator StepSource is
 * asked for each step once, in order; an aborted transaction restarts
 * from the step the thread holds without asking for it again; and the
 * run is bit-identical to the same program handed over as a vector.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "harness/stats_io.hh"
#include "sim_test_util.hh"
#include "tx/tx_manager.hh"

namespace ptm
{
namespace
{

using namespace ptm::test;

constexpr Addr kBase = 0x20000;

/** What the subject thread's step bodies observed. */
struct Observed
{
    unsigned plainA = 0;
    unsigned plainC = 0;
    unsigned txD = 0;
    /** Step index the thread held at each attempt of transaction B. */
    std::vector<std::uint64_t> txBAttempts;
    /** Steps the generator was asked for, in order. */
    std::vector<std::uint64_t> made;
    unsigned injected = 0;
};

/**
 * Step @p k of the subject thread: plain A, the start barrier,
 * transaction B (long enough for the injector to abort it once),
 * plain C, transaction D; five steps in all.
 */
bool
subjectStep(std::uint64_t k, System &sys, unsigned barrier_id,
            Observed &tr, Step &out)
{
    switch (k) {
      case 0:
        out = plain([&tr](MemCtx m) -> TxCoro {
            ++tr.plainA;
            co_await m.store(kBase, 1);
        });
        return true;
      case 1:
        out = barrier(barrier_id);
        return true;
      case 2:
        out = tx([&sys, &tr](MemCtx m) -> TxCoro {
            tr.txBAttempts.push_back(sys.thread(0).stepIndex());
            std::uint64_t v = co_await m.load(kBase + 64);
            co_await m.compute(4000);
            co_await m.store(kBase + 64, std::uint32_t(v + 1));
        });
        return true;
      case 3:
        out = plain([&tr](MemCtx m) -> TxCoro {
            ++tr.plainC;
            co_await m.store(kBase + 128, 3);
        });
        return true;
      case 4:
        out = tx([&tr](MemCtx m) -> TxCoro {
            ++tr.txD;
            co_await m.store(kBase + 192, 4);
        });
        return true;
      default:
        return false;
    }
}

/**
 * Run the subject next to an injector thread that, once past the
 * barrier, explicitly aborts whatever transaction the subject has
 * open. @return the run's ptm-stats-v1 document.
 */
std::string
runProgram(bool generated, Observed &tr)
{
    System sys(quietParams(TmKind::SelectPtm));
    ProcId p = sys.createProcess();
    const unsigned b = sys.createBarrier(2);
    if (generated) {
        sys.addThread(p, [&, k = std::uint64_t(0)](Step &out) mutable {
            tr.made.push_back(k);
            return subjectStep(k++, sys, b, tr, out);
        });
    } else {
        std::vector<Step> steps;
        Step s;
        for (std::uint64_t k = 0; subjectStep(k, sys, b, tr, s); ++k)
            steps.push_back(std::move(s));
        sys.addThread(p, std::move(steps));
    }
    sys.addThread(p, {plain([](MemCtx m) -> TxCoro {
                          co_await m.compute(10);
                      }),
                      barrier(b),
                      plain([&sys, &tr](MemCtx m) -> TxCoro {
                          co_await m.compute(1000);
                          const TxId victim = sys.thread(0).curTx;
                          if (victim != invalidTxId) {
                              ++tr.injected;
                              sys.txmgr().abort(victim,
                                                AbortReason::Explicit);
                          }
                          co_await m.compute(10);
                      })});
    sys.run();

    EXPECT_TRUE(sys.thread(0).finished());
    EXPECT_EQ(sys.thread(0).stepIndex(), 5u);
    EXPECT_EQ(sys.readWord32(p, kBase + 64), 1u);
    EXPECT_EQ(sys.readWord32(p, kBase + 192), 4u);
    EXPECT_EQ(sys.txmgr().abortsExplicit.value(), 1u);
    std::ostringstream os;
    RunManifest m;
    m.tool = "test";
    emitRunJson(os, m, sys.snapshot());
    return os.str();
}

TEST(ThreadProgram, GeneratedStepsRunOnceAndRestartInPlace)
{
    Observed gen;
    const std::string gen_stats = runProgram(true, gen);
    EXPECT_EQ(gen.injected, 1u) << "the injector missed transaction B";
    // Each step made once, in order, plus the one call that ends it;
    // the abort asked for nothing.
    EXPECT_EQ(gen.made, (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5}));
    EXPECT_EQ(gen.plainA, 1u);
    EXPECT_EQ(gen.plainC, 1u);
    EXPECT_EQ(gen.txD, 1u);
    // B ran twice, both times as step 2: the restart reused the step.
    EXPECT_EQ(gen.txBAttempts, (std::vector<std::uint64_t>{2, 2}));

    Observed vec;
    const std::string vec_stats = runProgram(false, vec);
    EXPECT_EQ(vec.txBAttempts, gen.txBAttempts);
    EXPECT_EQ(vec.injected, 1u);
    EXPECT_EQ(vec_stats, gen_stats)
        << "a generated program must run exactly like its vector";
}

} // namespace
} // namespace ptm
