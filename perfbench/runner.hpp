/**
 * @file
 * The two kinds of benchmark run.
 *
 * measureEndToEnd repeats the workload's rep until the run length has
 * passed, timing the set-up-shaped run a few times after each rep, and
 * reports end-to-end medians. measureLayers runs two untraced and two
 * traced reps, replays the first through the library's layers and
 * reports per-layer metrics, writing the Chrome trace on the way. Both
 * put every cell through the gate.
 */

#ifndef PERFBENCH_RUNNER_HPP
#define PERFBENCH_RUNNER_HPP

#include <string>
#include <vector>

#include "bench_core.hpp"
#include "workloads.hpp"

namespace perfbench {

struct RunOptions
{
    BenchConfig cfg;
    /** Timed phase length; at least three reps run regardless. */
    double seconds = 20.0;
    /** Chrome trace of the traced run. */
    std::string trace_out = "campaign_bench_trace.json";
};

/** setup_s, wall_s, cpu_s, trials, peak_rss_mb, cell_pass_frac. */
std::vector<Metric> measureEndToEnd(const RunOptions& o, Gate& gate);

/** The per-layer metrics (see NOTES.md); writes o.trace_out. */
std::vector<Metric> measureLayers(const RunOptions& o, Gate& gate);

/** Print the exhaustive tallies in pinned_counts.inc form. */
void printExactTable(const BenchConfig& cfg);

/** Print 2^24-sample reference tallies in pinned_rates.inc form. */
void printRateTable(const BenchConfig& cfg);

/** Print sampled masks and their classes in pinned_masks.inc form. */
void printMaskTable(const BenchConfig& cfg);

} // namespace perfbench

#endif // PERFBENCH_RUNNER_HPP
