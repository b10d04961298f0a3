/**
 * @file
 * Profile presentation implementation.
 */

#include "harness/profile_io.hh"

#include <algorithm>
#include <string>
#include <vector>

namespace ptm
{

void
printProfileTable(std::FILE *out, const ProfSnapshot &prof)
{
    if (!prof.enabled)
        return;

    const unsigned cores = unsigned(prof.cores.size());
    const double elapsed = prof.elapsed ? double(prof.elapsed) : 1.0;

    std::fprintf(out,
                 "cycle accounting  (%% of %llu elapsed ticks per "
                 "core)\n",
                 (unsigned long long)prof.elapsed);
    std::fprintf(out, "  %-14s", "bucket");
    for (unsigned c = 0; c < cores; ++c)
        std::fprintf(out, "  core%-3u", c);
    std::fprintf(out, "      all\n");

    for (unsigned b = 0; b < profBuckets; ++b) {
        // Skip all-zero rows to keep small runs readable.
        if (!prof.bucketTotal(ProfBucket(b)))
            continue;
        std::fprintf(out, "  %-14s", profBucketName(ProfBucket(b)));
        for (unsigned c = 0; c < cores; ++c)
            std::fprintf(out, "  %6.2f%%",
                         100.0 * double(prof.cores[c][b]) / elapsed);
        std::fprintf(out, "  %6.2f%%\n",
                     100.0 * double(prof.bucketTotal(ProfBucket(b))) /
                         (elapsed * (cores ? cores : 1)));
    }

    std::fprintf(out, "  %-14s", "total");
    std::uint64_t all = 0;
    for (unsigned c = 0; c < cores; ++c) {
        std::uint64_t t = prof.coreTotal(c);
        all += t;
        std::fprintf(out, "  %6.2f%%", 100.0 * double(t) / elapsed);
    }
    std::fprintf(out, "  %6.2f%%\n",
                 100.0 * double(all) / (elapsed * (cores ? cores : 1)));

    std::fprintf(out, "supervisor charges  (overlay ticks; may overlap "
                      "stall buckets)\n");
    for (unsigned c = 0; c < profCharges; ++c) {
        if (!prof.charges[c])
            continue;
        std::fprintf(out, "  %-18s %llu\n",
                     profChargeName(ProfCharge(c)),
                     (unsigned long long)prof.charges[c]);
    }
}

void
printHostProfile(std::FILE *out, const HostProfile &host)
{
    if (!host.enabled)
        return;

    std::vector<HostProfile::Site> sites = host.sites;
    std::sort(sites.begin(), sites.end(),
              [](const HostProfile::Site &a, const HostProfile::Site &b) {
                  return a.estimatedNs() > b.estimatedNs();
              });

    std::fprintf(out,
                 "host event-loop profile  (every %u-th event timed)\n",
                 HostProfile::sampleInterval);
    std::fprintf(out, "  %-16s %12s %10s %12s\n", "site", "events",
                 "sampled", "est. ms");
    for (const auto &s : sites)
        std::fprintf(out, "  %-16s %12llu %10llu %12.3f\n",
                     s.name.c_str(), (unsigned long long)s.events,
                     (unsigned long long)s.sampled,
                     double(s.estimatedNs()) / 1e6);
}

void
printRunProfile(std::FILE *out, const std::string &label,
                const ProfSnapshot &prof, const HostProfile &host)
{
    if (!prof.enabled)
        return;
    std::fprintf(out, "\n--- profile: %s ---\n", label.c_str());
    printProfileTable(out, prof);
    printHostProfile(out, host);
    std::fprintf(out, "\n");
}

void
addProfileFields(BenchRecorder &rec, const ProfSnapshot &prof)
{
    if (!prof.enabled)
        return;

    std::uint64_t all = 0;
    for (unsigned c = 0; c < prof.cores.size(); ++c)
        all += prof.coreTotal(c);
    rec.field("prof_total_ticks", all);
    for (unsigned b = 0; b < profBuckets; ++b)
        rec.field(std::string("prof_") +
                      profBucketName(ProfBucket(b)),
                  prof.bucketTotal(ProfBucket(b)));
}

} // namespace ptm
