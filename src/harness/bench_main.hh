/**
 * @file
 * BenchFrontEnd — the one front end of the bench_* binaries.
 *
 * Every bench reproduces one table, figure or ablation as a sweep of
 * runs. Everything around the sweep is the same in all of them and
 * lives here: the shared option surface (--json, --scale,
 * --host-metrics and addSystemOptions), the refusal of single-run
 * options, the output-sink collision check, stdout ownership, the
 * per-run bookkeeping (audit violations, trace captures, profile
 * tables, verification) and the JSON / trace writers. A bench declares
 * only its sweep, its table and its row fields:
 *
 * @code
 *     BenchFrontEnd fe("fig4", "Reproduce Figure 4: ...");
 *     if (auto rc = fe.parse(argc, argv))
 *         return *rc;
 *     for (...) {
 *         SystemParams prm = fe.params(TmKind::SelectPtm);
 *         ExperimentResult r = fe.run("fft", prm, 4, "fft/Sel-PTM");
 *         fe.row().field("app", "fft").field("cycles", r.cycles);
 *         fe.endRow(r);
 *     }
 *     return fe.finish();
 * @endcode
 */

#ifndef PTM_HARNESS_BENCH_MAIN_HH
#define PTM_HARNESS_BENCH_MAIN_HH

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "harness/cli.hh"
#include "harness/experiment.hh"
#include "harness/stats_io.hh"
#include "harness/trace_io.hh"

namespace ptm
{

class BenchFrontEnd
{
  public:
    /**
     * @param bench       ptm-bench-v1 bench name ("fig4"); the program
     *                    is called "bench_<bench>"
     * @param summary     one-line description atop --help
     * @param scale_help  help text of --scale
     */
    BenchFrontEnd(const std::string &bench, const std::string &summary,
                  const std::string &scale_help =
                      "0 = tiny test size, 1 = benchmark size");

    /** The option handlers point into this object: it never moves. */
    BenchFrontEnd(const BenchFrontEnd &) = delete;
    BenchFrontEnd &operator=(const BenchFrontEnd &) = delete;

    /**
     * The option table, for bench-specific options. Register them
     * before parse(); they are listed after --json and --scale.
     */
    OptionTable &options() { return opts_; }

    /**
     * Register the shared options and parse @p argv. Refuses the
     * single-run options --wal-file and --crash-at-tick (a sweep would
     * overwrite one dump per configuration) and colliding output
     * sinks. When --json or --trace claims stdout, the human output
     * and inform() lines move to stderr.
     *
     * @return std::nullopt to run the bench, otherwise the exit code:
     *         0 after --help / an exit flag, 2 on bad usage
     */
    std::optional<int> parse(int argc, char **argv);

    int scale() const { return scale_; }

    /** Where the human-readable tables go (stderr if stdout is taken). */
    std::FILE *out() const { return hout_; }

    /**
     * A copy of the shared options for one configuration of kind
     * @p kind. The persistence domain needs transactions to log, so
     * serial and locks runs stay volatile.
     */
    SystemParams params(TmKind kind) const;

    /**
     * runWorkload() at the --scale of the command line, then account()
     * for the result.
     */
    ExperimentResult run(const std::string &workload,
                         const SystemParams &prm, unsigned threads,
                         const std::string &label,
                         const WorkloadOptList &wl_opts = {});

    /**
     * Book one finished run: print its audit violations (with a repro
     * line for @p workload, "" when the bench built the system
     * itself), keep its trace capture, print its profile under
     * @p label, and count it as failed when it is neither verified nor
     * cut by an injected crash.
     */
    void account(ExperimentResult &r, const SystemParams &prm,
                 const std::string &workload, const std::string &label);

    /** Start a result row. */
    BenchRecorder &row() { return rec_.beginRow(); }

    /**
     * Close the current row with the fields every run row shares:
     * sim_events_per_sec under --host-metrics (machine-dependent, so
     * off in checked-in baselines), then the prof_* cycle
     * decomposition of @p r when @p profile is set and the run was
     * profiled.
     */
    void endRow(const ExperimentResult &r, bool profile = true);

    /** No accounted run has failed verification so far. */
    bool allVerified() const { return failed_ == 0; }

    /**
     * Write the JSON rows and the trace captures.
     * @return the exit code: 2 if an output cannot be written, 1 if a
     *         run failed verification or reported audit violations,
     *         else 0
     */
    int finish();

  private:
    std::string prog_;
    OptionTable opts_;
    std::string jsonPath_;
    int scale_ = 1;
    bool hostMetrics_ = false;
    /** The shared options, filled by parse(). */
    SystemParams base_;
    std::FILE *hout_ = stdout;
    BenchRecorder rec_;
    std::vector<TraceCapture> captures_;
    std::size_t failed_ = 0;
    std::size_t violations_ = 0;
};

} // namespace ptm

#endif // PTM_HARNESS_BENCH_MAIN_HH
