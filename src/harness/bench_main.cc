/**
 * @file
 * BenchFrontEnd implementation.
 */

#include "harness/bench_main.hh"

#include "harness/profile_io.hh"
#include "sim/logging.hh"

namespace ptm
{

BenchFrontEnd::BenchFrontEnd(const std::string &bench,
                             const std::string &summary,
                             const std::string &scale_help)
    : prog_("bench_" + bench), opts_(prog_, summary), rec_(bench)
{
    opts_.optionString("json", "FILE",
                       "write ptm-bench-v1 results to FILE (- = stdout)",
                       jsonPath_);
    opts_.optionInt("scale", "N", scale_help, scale_);
}

std::optional<int>
BenchFrontEnd::parse(int argc, char **argv)
{
    opts_.flag("host-metrics",
               "emit host-derived throughput (sim_events_per_sec) in "
               "bench result rows (machine-dependent; off in "
               "checked-in baselines)",
               [this] { hostMetrics_ = true; });
    addSystemOptions(opts_, base_);
    switch (opts_.parse(argc, argv)) {
      case CliStatus::Ok:
        break;
      case CliStatus::Exit:
        return 0;
      case CliStatus::Error:
        return 2;
    }

    // Crash dumps are single-run artifacts; a sweep would overwrite
    // one per configuration. Durable-commit policy knobs still apply.
    if (!base_.persist.walPath.empty() || base_.persist.crashAtTick) {
        std::fprintf(stderr,
                     "%s: --wal-file / --crash-at-tick are single-run "
                     "options; use ptm_sim\n",
                     prog_.c_str());
        return 2;
    }
    if (!checkOutputSinks(prog_.c_str(),
                          outputSinks({"--json", jsonPath_}, base_)))
        return 2;

    // Machine-readable output on stdout moves the human tables and
    // inform() status lines to stderr so the stream stays parseable.
    if (jsonPath_ == "-" || base_.trace.path == "-") {
        setInformToStderr(true);
        hout_ = stderr;
    }
    return std::nullopt;
}

SystemParams
BenchFrontEnd::params(TmKind kind) const
{
    SystemParams prm = base_;
    prm.tmKind = kind;
    if (kind == TmKind::Serial || kind == TmKind::Locks)
        prm.persist = PersistParams();
    return prm;
}

ExperimentResult
BenchFrontEnd::run(const std::string &workload, const SystemParams &prm,
                   unsigned threads, const std::string &label,
                   const WorkloadOptList &wl_opts)
{
    ExperimentResult r =
        runWorkload(workload, prm, scale_, threads, wl_opts);
    account(r, prm, workload, label);
    return r;
}

void
BenchFrontEnd::account(ExperimentResult &r, const SystemParams &prm,
                       const std::string &workload,
                       const std::string &label)
{
    violations_ +=
        reportAuditViolations(prog_.c_str(), workload, prm, r);
    if (!prm.trace.path.empty())
        captures_.push_back(std::move(r.trace));
    printRunProfile(hout_, label, r.profile, r.host);
    // A crash cut is an injected fault, not a failure: the run has no
    // final state to verify in-process.
    if (!r.verified && !r.crashed)
        ++failed_;
}

void
BenchFrontEnd::endRow(const ExperimentResult &r, bool profile)
{
    if (hostMetrics_)
        rec_.field("sim_events_per_sec",
                   r.wallSeconds > 0 ? r.eventsExecuted / r.wallSeconds
                                     : 0.0);
    if (profile)
        addProfileFields(rec_, r.profile);
}

int
BenchFrontEnd::finish()
{
    if (!rec_.writeJson(jsonPath_)) {
        std::fprintf(stderr, "%s: cannot write %s\n", prog_.c_str(),
                     jsonPath_.c_str());
        return 2;
    }
    if (!base_.trace.path.empty()) {
        std::string err;
        if (!writeTrace(base_.trace.path, base_.trace.format, captures_,
                        &err)) {
            std::fprintf(stderr, "%s: %s\n", prog_.c_str(), err.c_str());
            return 2;
        }
        inform("trace written to %s (%zu captures)",
               base_.trace.path.c_str(), captures_.size());
    }
    return failed_ == 0 && violations_ == 0 ? 0 : 1;
}

} // namespace ptm
