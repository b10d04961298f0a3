/**
 * @file
 * The shared command-line surface: the options addSystemOptions
 * registers (implied flags, rejected values, values landing in the
 * right SystemParams field) and the output-sink collision rules of
 * checkOutputSinks.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/cli.hh"

namespace ptm
{
namespace
{

/** Parse @p args (without the program name) into a fresh table. */
CliStatus
parseSystem(SystemParams &prm, std::vector<std::string> args)
{
    OptionTable opts("test_cli", "");
    addSystemOptions(opts, prm);
    std::string prog = "test_cli";
    std::vector<char *> argv{prog.data()};
    for (auto &a : args)
        argv.push_back(a.data());
    return opts.parse(int(argv.size()), argv.data());
}

TEST(CliSystemOptions, DefaultsLeaveEverythingOff)
{
    SystemParams prm;
    ASSERT_EQ(parseSystem(prm, {}), CliStatus::Ok);
    EXPECT_FALSE(prm.chaos.enabled);
    EXPECT_FALSE(prm.audit.enabled);
    EXPECT_FALSE(prm.profile.enabled);
    EXPECT_FALSE(prm.heatmap.enabled);
    EXPECT_TRUE(prm.timeseries.path.empty());
    EXPECT_EQ(prm.memBanks, 1u);
}

TEST(CliSystemOptions, ChaosValueOptionsImplyChaos)
{
    for (std::vector<std::string> args :
         {std::vector<std::string>{"--chaos-seed", "7"},
          {"--chaos-plan", "abort,swap"},
          {"--chaos-interval", "1000"}}) {
        SystemParams prm;
        ASSERT_EQ(parseSystem(prm, args), CliStatus::Ok) << args[0];
        EXPECT_TRUE(prm.chaos.enabled) << args[0];
    }
    SystemParams prm;
    ASSERT_EQ(parseSystem(prm, {"--chaos-seed", "7", "--chaos-interval",
                                "1000"}),
              CliStatus::Ok);
    EXPECT_EQ(prm.chaos.seed, 7u);
    EXPECT_EQ(prm.chaos.interval, Tick(1000));

    // The tuning knobs alone do not switch fault injection on.
    SystemParams tuned;
    ASSERT_EQ(parseSystem(tuned, {"--chaos-squeeze", "2"}),
              CliStatus::Ok);
    EXPECT_FALSE(tuned.chaos.enabled);
    EXPECT_EQ(tuned.chaos.squeezeEntries, 2u);
}

TEST(CliSystemOptions, AuditIntervalImpliesAudit)
{
    SystemParams prm;
    ASSERT_EQ(parseSystem(prm, {"--audit-interval", "0"}), CliStatus::Ok);
    EXPECT_TRUE(prm.audit.enabled);
    EXPECT_EQ(prm.audit.interval, Tick(0));
}

TEST(CliSystemOptions, HostProfileImpliesProfile)
{
    SystemParams prm;
    ASSERT_EQ(parseSystem(prm, {"--host-profile"}), CliStatus::Ok);
    EXPECT_TRUE(prm.profile.enabled);
    EXPECT_TRUE(prm.profile.host);

    SystemParams plain;
    ASSERT_EQ(parseSystem(plain, {"--profile"}), CliStatus::Ok);
    EXPECT_TRUE(plain.profile.enabled);
    EXPECT_FALSE(plain.profile.host);
}

TEST(CliSystemOptions, StreamingOptionsImplyHeatmap)
{
    SystemParams live;
    ASSERT_EQ(parseSystem(live, {"--live-stats"}), CliStatus::Ok);
    EXPECT_TRUE(live.heatmap.enabled);
    EXPECT_EQ(live.timeseries.path, "stderr");

    SystemParams period;
    ASSERT_EQ(parseSystem(period, {"--live-stats=5000"}), CliStatus::Ok);
    EXPECT_TRUE(period.heatmap.enabled);
    EXPECT_EQ(period.timeseries.interval, Tick(5000));

    SystemParams file;
    ASSERT_EQ(parseSystem(file, {"--timeseries", "ts.jsonl"}),
              CliStatus::Ok);
    EXPECT_TRUE(file.heatmap.enabled);
    EXPECT_EQ(file.timeseries.path, "ts.jsonl");

    SystemParams dash;
    ASSERT_EQ(parseSystem(dash, {"--timeseries", "-"}), CliStatus::Ok);
    EXPECT_EQ(dash.timeseries.path, "stderr");

    SystemParams topk;
    ASSERT_EQ(parseSystem(topk, {"--heatmap-k", "8"}), CliStatus::Ok);
    EXPECT_TRUE(topk.heatmap.enabled);
    EXPECT_EQ(topk.heatmap.topK, 8u);

    // The sampling period alone streams nothing.
    SystemParams interval;
    ASSERT_EQ(parseSystem(interval, {"--timeseries-interval", "100"}),
              CliStatus::Ok);
    EXPECT_FALSE(interval.heatmap.enabled);
    EXPECT_TRUE(interval.timeseries.path.empty());
}

TEST(CliSystemOptions, RejectsBadValues)
{
    for (std::vector<std::string> args :
         {std::vector<std::string>{"--mem-banks", "3"},
          {"--mem-banks", "0"},
          {"--mem-banks", "512"},
          {"--trace-buffer-events", "0"},
          {"--trace-format", "bogus"},
          {"--trace-categories", "tx,bogus"},
          {"--watch-addr", "zz"},
          {"--chaos-interval", "0"},
          {"--chaos-plan", "bogus"},
          {"--durability", "sometimes"},
          {"--wal-file", "-"},
          {"--wal-bytes-per-cycle", "0"},
          {"--live-stats=0"}}) {
        SystemParams prm;
        EXPECT_EQ(parseSystem(prm, args), CliStatus::Error) << args[0];
    }
    // A rejected value leaves the default in place.
    SystemParams prm;
    ASSERT_EQ(parseSystem(prm, {"--mem-banks", "3"}), CliStatus::Error);
    EXPECT_EQ(prm.memBanks, 1u);
}

TEST(CliSystemOptions, StoresAcceptedValues)
{
    SystemParams prm;
    ASSERT_EQ(parseSystem(prm, {"--mem-banks", "8", "--watch-addr",
                                "0x40", "--durability", "wal",
                                "--wal-flush-latency", "9",
                                "--postmortem", "-", "--retry-budget",
                                "3", "--backoff"}),
              CliStatus::Ok);
    EXPECT_EQ(prm.memBanks, 8u);
    EXPECT_EQ(prm.trace.watchAddr, Addr(0x40));
    EXPECT_TRUE(prm.persist.enabled());
    EXPECT_EQ(prm.persist.flushLatency, Tick(9));
    EXPECT_EQ(prm.forensics.postmortemPath, "stderr");
    EXPECT_EQ(prm.contention.retryBudget, 3u);
    EXPECT_TRUE(prm.contention.randomBackoff);
}

TEST(CliOutputSinks, RefusesTwoSinksOnOneFile)
{
    EXPECT_FALSE(checkOutputSinks(
        "test_cli", {{"--json", "out.json"}, {"--trace", "out.json"}}));
}

TEST(CliOutputSinks, RefusesTwoSinksOnStdout)
{
    EXPECT_FALSE(checkOutputSinks("test_cli",
                                  {{"--json", "-"}, {"--trace", "-"}}));
}

TEST(CliOutputSinks, AllowsSeveralSinksOnStderr)
{
    EXPECT_TRUE(checkOutputSinks("test_cli",
                                 {{"--json", "-"},
                                  {"--timeseries", "stderr"},
                                  {"--postmortem", "stderr"},
                                  {"--trace", ""},
                                  {"--wal-file", ""}}));
}

TEST(CliOutputSinks, CoversTheSharedSinks)
{
    // --timeseries - and --postmortem - both mean stderr: allowed.
    SystemParams prm;
    ASSERT_EQ(parseSystem(prm, {"--timeseries", "-", "--postmortem", "-",
                                "--trace", "t.jsonl"}),
              CliStatus::Ok);
    EXPECT_TRUE(checkOutputSinks(
        "test_cli", outputSinks({"--json", "b.json"}, prm)));
    // The front end's own sink collides with a shared one.
    EXPECT_FALSE(checkOutputSinks(
        "test_cli", outputSinks({"--json", "t.jsonl"}, prm)));

    SystemParams wal;
    ASSERT_EQ(parseSystem(wal, {"--wal-file", "run.wal", "--timeseries",
                                "run.wal"}),
              CliStatus::Ok);
    EXPECT_FALSE(checkOutputSinks(
        "test_cli", outputSinks({"--stats-json", ""}, wal)));
}

} // namespace
} // namespace ptm
