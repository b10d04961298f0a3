/**
 * @file
 * Ablation C: Select-PTM shadow-page freeing policies (section 3.5.2).
 *
 * After commits, the committed blocks of a page may sit in the shadow
 * page, which therefore cannot be freed. The paper proposes two
 * reclamation policies:
 *
 *  - MergeOnSwap: merge the shadow's committed blocks into the home
 *    frame when the OS swaps the page out (exercises the Swap Index
 *    Table);
 *  - LazyMigrate: force non-speculative write-backs to the home page,
 *    toggling the selection bit, until the vector clears and the
 *    shadow frees.
 *
 * The microbenchmark dirties waves of pages transactionally under
 * memory pressure (small physical memory with swapping enabled), then
 * rewrites them non-transactionally, and reports shadow-page and swap
 * activity for both policies.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "harness/bench_main.hh"
#include "harness/report.hh"
#include "harness/system.hh"

namespace
{

using namespace ptm;

const char *
policyName(ShadowFreePolicy policy)
{
    return policy == ShadowFreePolicy::MergeOnSwap ? "merge-on-swap"
                                                   : "lazy-migrate";
}

/**
 * @param p      the shared options of a Select-PTM run
 * @param scale  0 = tiny test size, 1 = benchmark size
 * @return the run, verified when every page holds its rewritten value
 */
ExperimentResult
run(SystemParams p, ShadowFreePolicy policy, int scale)
{
    p.shadowFree = policy;
    p.swapEnabled = true;
    // Pressure: homes + shadows exceed the frame count at either size.
    p.physFrames = scale ? 360 : 90;
    p.l2Bytes = 16 * 1024;
    p.l2Assoc = 2;
    p.l1Bytes = 1024;
    p.daemonInterval = 0;
    p.osQuantum = 0;
    p.maxTicks = 2ull * 1000 * 1000 * 1000;

    System sys(p);
    ProcId proc = sys.createProcess();
    const unsigned kPages = scale ? 200 : 50;
    constexpr unsigned kWave = 25;
    constexpr Addr base = 0x1000000;

    std::vector<Step> steps;
    for (unsigned wave = 0; wave * kWave < kPages; ++wave) {
        unsigned p0 = wave * kWave;
        // A transaction dirtying one block on each page of the wave
        // (allocating a shadow page per page) and overflowing.
        TxStep tx;
        tx.body = [p0](MemCtx m) -> TxCoro {
            for (unsigned pg = p0; pg < p0 + kWave; ++pg)
                for (unsigned b = 0; b < blocksPerPage; b += 4)
                    co_await m.store(base + Addr(pg) * pageBytes +
                                         b * blockBytes,
                                     pg * 1000 + b);
        };
        steps.push_back(std::move(tx));
        // Non-transactional rewrites of the same pages: under
        // LazyMigrate each write-back migrates committed blocks home.
        steps.push_back(PlainStep{[p0](MemCtx m) -> TxCoro {
            for (unsigned pg = p0; pg < p0 + kWave; ++pg)
                for (unsigned b = 0; b < blocksPerPage; b += 4)
                    co_await m.store(base + Addr(pg) * pageBytes +
                                         b * blockBytes,
                                     pg * 1000 + b + 7);
        }});
    }
    // Final sweep touching everything (forces residency / swap-ins).
    steps.push_back(PlainStep{[kPages](MemCtx m) -> TxCoro {
        for (unsigned pg = 0; pg < kPages; ++pg)
            co_await m.load(base + Addr(pg) * pageBytes);
    }});
    sys.addThread(proc, std::move(steps), "waves");
    ExperimentResult r = runSystem(
        sys, std::string("shadow-free/") + policyName(policy));
    r.verified = true;
    for (unsigned pg = 0; pg < kPages && r.verified; ++pg)
        for (unsigned b = 0; b < blocksPerPage; b += 4)
            if (sys.readWord32(proc, base + Addr(pg) * pageBytes +
                                         b * blockBytes) !=
                pg * 1000 + b + 7)
                r.verified = false;
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchFrontEnd fe("ablation_shadow_free",
                     "Shadow-page freeing policies under memory "
                     "pressure.");
    if (auto rc = fe.parse(argc, argv))
        return *rc;
    std::FILE *hout = fe.out();

    std::fprintf(hout, "Ablation C: shadow-page freeing policies under "
                "memory pressure (Select-PTM, swap on)\n\n");
    Report table({"policy", "cycles", "shadow allocs", "shadow frees",
                  "live shadows at end", "lazy migrations", "swap-outs",
                  "swap-ins", "verified"});
    for (ShadowFreePolicy pol :
         {ShadowFreePolicy::MergeOnSwap, ShadowFreePolicy::LazyMigrate}) {
        const char *label = policyName(pol);
        SystemParams prm = fe.params(TmKind::SelectPtm);
        ExperimentResult r = run(prm, pol, fe.scale());
        fe.account(r, prm, "", label);
        const StatSnapshot &s = r.snapshot;
        table.row({label, cellU(r.cycles),
                   cellU(s.counter("vts.shadow_allocs")),
                   cellU(s.counter("vts.shadow_frees")),
                   cellU(s.counter("vts.live_shadow_pages")),
                   cellU(s.counter("vts.lazy_migrations")),
                   cellU(s.counter("os.swap_outs")),
                   cellU(s.counter("os.swap_ins")),
                   r.verified ? "yes" : "NO"});
        fe.row()
            .field("policy", label)
            .field("cycles", std::uint64_t(r.cycles))
            .field("shadow_allocs", s.counter("vts.shadow_allocs"))
            .field("shadow_frees", s.counter("vts.shadow_frees"))
            .field("live_shadows", s.counter("vts.live_shadow_pages"))
            .field("lazy_migrations", s.counter("vts.lazy_migrations"))
            .field("swap_outs", s.counter("os.swap_outs"))
            .field("swap_ins", s.counter("os.swap_ins"))
            .field("verified", r.verified);
        fe.endRow(r);
    }
    table.print(hout);

    std::fprintf(hout, "\n(LazyMigrate reclaims shadows through ordinary "
                "write-backs; MergeOnSwap holds them until the OS "
                "pages the home out and merges into the SIT image.)\n");
    return fe.finish();
}
