/**
 * @file
 * Ablation D: context-switch handling.
 *
 * PTM tags cache lines with transaction IDs, so a transaction's cached
 * state survives a context switch (section 4.7). VTM instead requires
 * the blocks touched by the departing transaction to be evicted and
 * invalidated. This ablation runs an oversubscribed system (8 threads
 * on 4 cores, aggressive quantum) with and without flush-on-switch.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "harness/bench_main.hh"
#include "harness/report.hh"

int
main(int argc, char **argv)
{
    using namespace ptm;

    BenchFrontEnd fe("ablation_ctxsw",
                     "Context-switch handling: PTM tx-ID tags vs "
                     "flush-on-switch.");
    if (auto rc = fe.parse(argc, argv))
        return *rc;
    std::FILE *hout = fe.out();

    std::fprintf(hout, "Ablation D: context switches — PTM tx-ID tags vs "
                "flush-on-switch (8 threads / 4 cores)\n\n");
    Report table({"app", "mode", "cycles", "ctx-switches",
                  "tx evictions", "flush aborts", "verified"});

    for (const char *app : {"lu", "water"}) {
        for (bool flush : {false, true}) {
            const char *mode =
                flush ? "flush-on-switch" : "tx-ID tags (PTM)";
            SystemParams prm = fe.params(TmKind::SelectPtm);
            prm.osQuantum = 20 * 1000;
            prm.daemonInterval = 300 * 1000;
            prm.flushOnContextSwitch = flush;
            ExperimentResult r =
                fe.run(app, prm, 8, std::string(app) + "/" + mode);
            auto row = rowFromStats(
                {app, mode, cellU(r.cycles)}, r.snapshot,
                {"os.context_switches", "mem.tx_evictions",
                 "mem.ctxsw_flush_aborts"});
            row.push_back(r.verified ? "yes" : "NO");
            table.row(std::move(row));
            fe.row()
                .field("app", app)
                .field("mode", mode)
                .field("cycles", std::uint64_t(r.cycles))
                .field("context_switches",
                       r.snapshot.counter("os.context_switches"))
                .field("tx_evictions",
                       r.snapshot.counter("mem.tx_evictions"))
                .field("ctxsw_flush_aborts",
                       r.snapshot.counter("mem.ctxsw_flush_aborts"))
                .field("verified", r.verified);
            fe.endRow(r);
        }
    }
    table.print(hout);

    std::fprintf(hout, "\n(Flushing forces overflow handling on every switch "
                "inside a transaction; PTM's tagged lines avoid it.)\n");
    return fe.finish();
}
