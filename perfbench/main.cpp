/**
 * @file
 * campaign_bench: the repository's end-to-end benchmark.
 *
 *   campaign_bench --workload rare_sdc_ci|exhaustive_tab2|fleet_fine_units
 *                  [--seed N] [--seconds S] [--trace 0|1]
 *                  [--trace-out PATH]
 *   campaign_bench --print-exact | --print-rates | --print-masks
 *
 * --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
 * ones and a Chrome trace at --trace-out (see runner.hpp). Every cell
 * of every run goes through the correctness gate; the last stdout
 * line is the JSON result, and the exit code is non-zero when any
 * check failed.
 *
 * --print-exact, --print-rates and --print-masks print the tables
 * pinned in pinned_counts.inc, pinned_rates.inc and pinned_masks.inc
 * (the last two at the default seed; they take a few minutes).
 */

#include <malloc.h>

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_core.hpp"
#include "runner.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

struct Options
{
    RunOptions run;
    bool trace = false;
    /** --print-exact, --print-rates or --print-masks, or empty. */
    std::string print;
};

[[noreturn]] void
usage(const std::string& error)
{
    std::cerr << "campaign_bench: " << error
              << "\nusage: campaign_bench --workload "
                 "rare_sdc_ci|exhaustive_tab2|fleet_fine_units "
                 "[--seed N] [--seconds S] [--trace 0|1] "
                 "[--trace-out PATH] | --print-exact | --print-rates | "
                 "--print-masks\n";
    std::exit(2);
}

Options
parseArgs(int argc, char** argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--print-exact" || flag == "--print-rates" ||
            flag == "--print-masks") {
            o.print = flag;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--trace-out") {
            o.run.trace_out = value;
            continue;
        }
        char* end = nullptr;
        if (flag == "--workload") {
            const std::optional<Workload> w = parseWorkload(value);
            if (!w)
                usage("unknown workload " + value);
            o.run.cfg.workload = *w;
            have_workload = true;
            continue;
        }
        if (flag == "--seed") {
            o.run.cfg.seed = std::strtoull(value.c_str(), &end, 0);
        } else if (flag == "--seconds") {
            o.run.seconds = std::strtod(value.c_str(), &end);
        } else if (flag == "--trace") {
            o.trace = std::strtol(value.c_str(), &end, 10) != 0;
        } else {
            usage("unknown flag " + flag);
        }
        if (end == nullptr || *end != '\0' || value.empty())
            usage("bad value for " + flag + ": " + value);
    }
    if (!have_workload && o.print.empty())
        usage("--workload is required");
    if (o.run.seconds < 0.0)
        usage("--seconds must be >= 0");
    return o;
}

} // namespace

int
main(int argc, char** argv)
{
    // Fixed malloc thresholds. glibc otherwise raises its mmap
    // threshold as large blocks are freed, and then keeps later large
    // blocks in the heap, where the layout of unrelated small
    // allocations decides how much of it stays resident. peak_rss_mb
    // moved by a fifth with the length of a path string; with fixed
    // thresholds it does not (NOTES.md, "Memory"). Forked fleet
    // workers inherit the setting.
    constexpr int kMallocThresholdBytes = 64 * 1024;
    ::mallopt(M_MMAP_THRESHOLD, kMallocThresholdBytes);
    ::mallopt(M_TRIM_THRESHOLD, kMallocThresholdBytes);

    const Options o = parseArgs(argc, argv);
    if (o.print == "--print-exact")
        printExactTable(o.run.cfg);
    else if (o.print == "--print-rates")
        printRateTable(o.run.cfg);
    else if (o.print == "--print-masks")
        printMaskTable(o.run.cfg);
    if (!o.print.empty())
        return 0;

    Gate gate;
    const std::vector<Metric> metrics =
        o.trace ? measureLayers(o.run, gate)
                : measureEndToEnd(o.run, gate);
    for (const std::string& message : gate.messages())
        std::cerr << "campaign_bench: FAIL " << message << "\n";
    std::cout << "{\"provenance\": " << provenanceJson()
              << ", \"workload\": \"" << workloadName(o.run.cfg.workload)
              << "\", \"seed\": " << o.run.cfg.seed << "}\n";
    std::cout << resultLine(gate.ok(), gate.attempted(), gate.failed(),
                            metrics)
              << std::endl;
    return gate.ok() ? 0 : 1;
}
