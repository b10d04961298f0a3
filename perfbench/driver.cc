/**
 * @file
 * perfbench_driver — runs one benchmark workload through the public
 * API that runWorkload() uses (makeWorkload -> System -> build -> run
 * -> snapshot -> verify), times each call from outside, and prints
 * the raw record of the whole run as one JSON document when it ends.
 * perfbench/run.py builds this driver, turns the record into metrics
 * and checks it.
 *
 *     perfbench_driver --workload kv-hot-16c --seed 1 --seconds 20 \
 *                      --trace 0 [--wl-opt KEY=VALUE ...]
 *
 * A run first sets the workload up (make, construct, build) several
 * times without running it, then runs whole experiments until
 * --seconds have passed since the start, cycling through the
 * workload's sub-seeds; the first pass over the sub-seeds always
 * completes. With --trace 1 each experiment is a pair: an untraced one
 * and a traced one (cycle profiler, host event-site profile and
 * auditor on) of the same sub-seed.
 *
 * Spans are kept in memory and printed with the record; nothing is
 * printed while the clock runs. Each experiment's statistics, cycle
 * profile and host profile are kept as ptm-stats-v1 JSON (the
 * ptm_sim --stats-json format).
 */

#include <sys/resource.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/stats_io.hh"
#include "harness/system.hh"
#include "sim/profile.hh"
#include "sim/stats.hh"
#include "workloads/workload.hh"

namespace
{

using namespace ptm;
using Clock = std::chrono::steady_clock;

/** One benchmark workload: a kernel, its machine and its options. */
struct Spec
{
    const char *name;
    const char *kernel;
    unsigned threads;
    unsigned cores;
    WorkloadOptList options;
    Durability durability;
    /**
     * Distinct inputs per run. The simulated metrics of a run are the
     * medians over these sub-seeds, which narrows their spread from
     * one --seed to the next; sub-seed 0 is --seed itself.
     */
    unsigned subSeeds;
};

// Why each workload is here is written up in perfbench/README.md.
const std::vector<Spec> &
specs()
{
    static const std::vector<Spec> s = {
        {"kv-hot-16c", "kv", 16, 16, {{"ops", "2000"}}, Durability::Off,
         2},
        {"fft-overflow", "fft", 4, 4, {}, Durability::Off, 8},
        {"kv-durable-writes",
         "kv",
         4,
         4,
         {{"zipf", "0"},
          {"lookup-pct", "40"},
          {"scan-pct", "0"},
          {"insert-pct", "40"},
          {"delete-pct", "20"},
          {"ops", "96000"}},
         Durability::Wal,
         4},
    };
    return s;
}

/** Setup-only repetitions before the experiments (setup_s samples). */
constexpr unsigned setupReps = 15;

/** A timed call: name, start/end nanoseconds since driver start. */
struct Span
{
    const char *name;
    std::uint64_t startNs;
    std::uint64_t endNs;
    int parent; //!< index into the span list; -1 for a root
    unsigned run;
};

/** What one experiment leaves behind besides its spans. */
struct Experiment
{
    unsigned run = 0;
    unsigned subSeed = 0;
    bool traced = false;
    /** Abort restarts counted by the cores (ThreadCtx::restarts). */
    std::uint64_t restarts = 0;
    /** Each commit's latency in ticks, in commit order. */
    std::vector<Tick> commitLatencies;
    std::vector<AuditViolation> violations;
    std::uint64_t auditChecks = 0;
    /** The run as ptm-stats-v1 JSON (stats, profile, host profile). */
    std::string stats;
};

const Clock::time_point driverStart = Clock::now();

std::uint64_t
since(Clock::time_point t)
{
    return std::uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t -
                                                             driverStart)
            .count());
}

/** Times one call and appends its span. */
template <typename F>
void
timed(std::vector<Span> &spans, const char *name, int parent,
      unsigned run, F &&call)
{
    Clock::time_point s = Clock::now();
    call();
    Clock::time_point e = Clock::now();
    spans.push_back({name, since(s), since(e), parent, run});
}

std::uint64_t
subSeedValue(std::uint64_t seed, unsigned j)
{
    return j == 0 ? seed : seed ^ (0x9E3779B97F4A7C15ull * j);
}

SystemParams
systemParams(const Spec &spec, std::uint64_t seed, bool traced)
{
    // Program defaults throughout (runWorkload's tick cap included),
    // so a change of default shows in the numbers.
    SystemParams p;
    p.tmKind = TmKind::SelectPtm;
    p.numCores = spec.cores;
    p.seed = seed;
    p.maxTicks = 20ull * 1000 * 1000 * 1000;
    p.persist.policy = spec.durability;
    if (traced) {
        p.profile.enabled = true;
        p.profile.host = true;
        p.audit.enabled = true;
    }
    return p;
}

WorkloadConfig
workloadConfig(const Spec &spec, std::uint64_t seed)
{
    WorkloadConfig c;
    c.threads = spec.threads;
    c.mode = syncModeFor(TmKind::SelectPtm);
    c.seed = seed;
    return c;
}

/**
 * The setup calls shared by setup-only repetitions and experiments:
 * each is timed as a child of span @p root.
 */
void
setUp(const Spec &spec, const WorkloadOptList &opts, std::uint64_t seed,
      bool traced, int root, unsigned run, std::vector<Span> &spans,
      std::unique_ptr<Workload> &wl, std::unique_ptr<System> &sys)
{
    timed(spans, "workloads.make", root, run, [&] {
        wl = makeWorkload(spec.kernel, workloadConfig(spec, seed), opts);
    });
    timed(spans, "harness.system", root, run, [&] {
        sys = std::make_unique<System>(systemParams(spec, seed, traced));
    });
    timed(spans, "workloads.build", root, run, [&] { wl->build(*sys); });
}

/**
 * Records every commit's latency, from first begin to logical commit,
 * as the flight recorder holds it for the transaction that has just
 * committed. The tx.commit_latency histogram ends at 2^20 ticks, which
 * fft's commits exceed, so the percentiles come from these exact
 * values. The hook only reads; the model runs as before.
 */
void
recordCommitLatencies(System &sys, std::vector<Tick> &out)
{
    TxManager &tm = sys.txmgr();
    const FlightRecorder *fr = sys.flightrec();
    tm.onLogicalCommit = [inner = std::move(tm.onLogicalCommit), fr,
                          &out](TxId id) {
        if (const FlightRecord *r = fr ? fr->record(id) : nullptr)
            out.push_back(r->endTick - r->firstBegin);
        if (inner)
            inner(id);
    };
}

void
setupOnly(const Spec &spec, const WorkloadOptList &opts,
          std::uint64_t seed, unsigned run, std::vector<Span> &spans)
{
    int root = int(spans.size());
    spans.push_back({"setup", 0, 0, -1, run});
    std::unique_ptr<Workload> wl;
    std::unique_ptr<System> sys;
    Clock::time_point t0 = Clock::now();
    setUp(spec, opts, seed, false, root, run, spans, wl, sys);
    Clock::time_point t1 = Clock::now();
    spans[root].startNs = since(t0);
    spans[root].endNs = since(t1);
}

Experiment
experiment(const Spec &spec, const WorkloadOptList &opts,
           std::uint64_t seed, unsigned sub, bool traced, unsigned run,
           std::vector<Span> &spans)
{
    Experiment x;
    x.run = run;
    x.subSeed = sub;
    x.traced = traced;
    int root = int(spans.size());
    spans.push_back({"experiment", 0, 0, -1, run});
    std::unique_ptr<Workload> wl;
    std::unique_ptr<System> sys;
    RunManifest m;
    StatSnapshot snap;

    Clock::time_point t0 = Clock::now();
    setUp(spec, opts, seed, traced, root, run, spans, wl, sys);
    recordCommitLatencies(*sys, x.commitLatencies);
    timed(spans, "sim.run", root, run, [&] { m.cycles = sys->run(); });
    timed(spans, "harness.snapshot", root, run,
          [&] { snap = sys->snapshot(); });
    timed(spans, "workloads.verify", root, run,
          [&] { m.verified = wl->verify(*sys); });
    Clock::time_point t1 = Clock::now();
    spans[root].startNs = since(t0);
    spans[root].endNs = since(t1);

    for (unsigned t = 0; t < sys->numThreads(); ++t)
        x.restarts += sys->thread(t).restarts;
    x.violations = sys->auditor().violations();
    x.auditChecks = sys->auditor().checksRun.value();
    m.tool = "perfbench_driver";
    m.workload = spec.name;
    m.workloadOptions = wl->config().options.items();
    m.threads = spec.threads;
    m.scale = 1;
    m.wallSeconds = std::chrono::duration<double>(t1 - t0).count();
    m.params = &sys->params();
    ProfSnapshot prof = sys->profiler().snapshot();
    HostProfile host = sys->eq().hostProfile();
    std::ostringstream os;
    emitRunJson(os, m, snap, &prof, &host);
    x.stats = os.str();
    return x;
}

// ---------------------------------------------------------------- JSON

/** The run-wide header: manifest, peak memory and every span. */
void
putHeader(const Spec &spec, const WorkloadOptList &opts,
          std::uint64_t seed, std::uint64_t seconds, bool trace,
          const std::vector<Span> &spans)
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);

    JsonWriter w(std::cout);
    w.beginObject();
    w.key("manifest");
    w.beginObject();
    w.member("workload", spec.name);
    w.member("kernel", spec.kernel);
    w.member("system", tmKindArg(TmKind::SelectPtm));
    w.member("threads", spec.threads);
    w.member("cores", spec.cores);
    w.member("durability", durabilityName(spec.durability));
    w.key("options");
    w.beginObject();
    for (const auto &[k, v] : opts)
        w.member(k, v);
    w.endObject();
    w.member("seed", seed);
    w.member("sub_seeds", spec.subSeeds);
    w.member("seconds", seconds);
    w.member("trace", trace);
    w.member("compiler", PERFBENCH_COMPILER);
    w.member("build_type", PERFBENCH_BUILD_TYPE);
    w.member("nproc", std::thread::hardware_concurrency());
    w.endObject();
    w.member("peak_rss_kb", std::uint64_t(ru.ru_maxrss));
    w.key("spans");
    w.beginArray();
    for (const Span &s : spans) {
        w.beginObject();
        w.member("name", s.name);
        w.member("start_ns", s.startNs);
        w.member("end_ns", s.endNs);
        w.member("parent", s.parent);
        w.member("run", s.run);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

/** What the stats document of an experiment does not carry. */
void
putExperiment(const Experiment &x)
{
    JsonWriter w(std::cout);
    w.beginObject();
    w.member("run", x.run);
    w.member("sub_seed", x.subSeed);
    w.member("traced", x.traced);
    w.member("restarts", x.restarts);
    w.member("audit_checks", x.auditChecks);
    w.key("commit_latencies");
    w.beginArray();
    for (Tick t : x.commitLatencies)
        w.value(std::uint64_t(t));
    w.endArray();
    w.key("audit_violations");
    w.beginArray();
    for (const AuditViolation &v : x.violations)
        w.value(v.check + " @" + std::to_string(v.tick) + " (" + v.where +
                "): " + v.detail);
    w.endArray();
    w.endObject();
}

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\nusage: perfbench_driver "
                 "--workload NAME --seed N --seconds S --trace 0|1 "
                 "[--wl-opt KEY=VALUE ...]\nworkloads:",
                 msg);
    for (const Spec &s : specs())
        std::fprintf(stderr, " %s", s.name);
    std::fprintf(stderr, "\n");
    return 2;
}

bool
parseU64(const char *s, std::uint64_t &out)
{
    if (!*s)
        return false;
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (*end || errno || s[0] == '-')
        return false;
    out = v;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    const Spec *spec = nullptr;
    std::uint64_t seed = 0, seconds = 0, trace = 2;
    bool have_seed = false, have_seconds = false;
    WorkloadOptList extra;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        if (a == "--workload") {
            for (const Spec &s : specs())
                if (s.name == std::string(v))
                    spec = &s;
            if (!spec)
                return usage(("unknown workload " + std::string(v)).c_str());
        } else if (a == "--seed") {
            have_seed = parseU64(v, seed);
        } else if (a == "--seconds") {
            have_seconds = parseU64(v, seconds);
        } else if (a == "--trace") {
            if (!parseU64(v, trace) || trace > 1)
                return usage("--trace takes 0 or 1");
        } else if (a == "--wl-opt") {
            const char *eq = std::strchr(v, '=');
            if (!eq || eq == v)
                return usage("--wl-opt takes KEY=VALUE");
            extra.emplace_back(std::string(v, eq), std::string(eq + 1));
        } else {
            return usage(("unknown argument " + a).c_str());
        }
    }
    if (!spec || !have_seed || !have_seconds || trace > 1)
        return usage("--workload, --seed, --seconds and --trace are "
                     "required");
    if (seconds > 3600)
        return usage("--seconds must be at most 3600");

    WorkloadOptList opts = {{"scale", "1"}};
    opts.insert(opts.end(), spec->options.begin(), spec->options.end());
    opts.insert(opts.end(), extra.begin(), extra.end());

    std::vector<Span> spans;
    std::vector<Experiment> exps;
    unsigned run = 0;
    const Clock::time_point deadline =
        driverStart + std::chrono::seconds(seconds);
    for (unsigned i = 0; i < setupReps; ++i)
        setupOnly(*spec, opts, seed, run++, spans);
    for (unsigned n = 0; n < spec->subSeeds || Clock::now() < deadline;
         ++n) {
        unsigned sub = n % spec->subSeeds;
        std::uint64_t s = subSeedValue(seed, sub);
        exps.push_back(experiment(*spec, opts, s, sub, false, run++, spans));
        if (trace)
            exps.push_back(
                experiment(*spec, opts, s, sub, true, run++, spans));
    }

    // One JSON array: the header, then per experiment its extra fields
    // followed by its ptm-stats-v1 document.
    std::cout << "[\n";
    putHeader(*spec, opts, seed, seconds, trace, spans);
    for (const Experiment &x : exps) {
        std::cout << ",\n";
        putExperiment(x);
        std::cout << ",\n" << x.stats;
    }
    std::cout << "\n]\n";
    std::cout.flush();
    return std::cout ? 0 : 1;
}
