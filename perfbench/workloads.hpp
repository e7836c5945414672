/**
 * @file
 * The benchmark's three workloads, each a fixed amount of campaign
 * work (a "rep") driven through sim::CampaignRunner, plus the
 * set-up-shaped run that prices a workload's fixed cost and the
 * untimed checks that follow the timed reps.
 *
 * rare_sdc_ci       duet, trio and ssc-dsd+ over all seven patterns.
 *                   The exact cells run once; then four independent
 *                   replicates of the 1 Beat / 1 Entry cells grow in
 *                   waves of 12288 samples until each scheme's
 *                   weighted SDC interval is at most kTargetWidth
 *                   wide. Sampling dominates.
 * exhaustive_tab2   the nine Table 2 schemes over the five enumerable
 *                   patterns (35.9M exact trials, no RNG). Decode and
 *                   enumeration dominate.
 * fleet_fine_units  duet, trio and ssc-dsd+ x {1 Beat, 1 Entry}
 *                   through forked fleet workers, one 1024-sample
 *                   shard per unit, so dispatch and the JSON wire are
 *                   a large share of the run.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench_core.hpp"
#include "layers.hpp"

namespace perfbench {

enum class Workload
{
    rare_sdc_ci,
    exhaustive_tab2,
    fleet_fine_units
};

std::optional<Workload> parseWorkload(const std::string& name);
const char* workloadName(Workload w);

/**
 * rare_sdc_ci stops a scheme's replicate once its Table-1-weighted SDC
 * interval is at most this wide.
 */
constexpr double kTargetWidth = 8e-7;

/** A workload and its seed. */
struct BenchConfig
{
    Workload workload = Workload::rare_sdc_ci;
    std::uint64_t seed = kDefaultSeed;
    /** Threads of in-process runs. */
    int threads = 3;
};

/** What one rep did. */
struct RepResult
{
    /** Every CampaignRunner::run of the rep, in order. */
    std::vector<CampaignCall> calls;
    /** Trials injected across all calls. */
    std::uint64_t trials = 0;
    /** Sampled waves (rare_sdc_ci); 1 for the single-call workloads. */
    std::uint64_t waves = 0;
    /**
     * Per replicate, per scheme, the merged tallies the target was
     * judged on (exact cells plus every wave). rare_sdc_ci only.
     */
    std::vector<std::map<std::string, PatternCounts>> replicates;
    /** Sampled trials each replicate needed, summed over schemes. */
    std::vector<std::uint64_t> replicate_trials;
};

/** One rep of the workload's timed work; every cell goes through @p gate. */
RepResult runRep(const BenchConfig& cfg, Gate& gate);

/**
 * The workload's fixed cost: the same schemes and execution mode
 * (threads or forked fleet workers) at one stream block per sampled
 * cell — or, for the exact-only workload, over the 1 Bit cells.
 */
void runSetup(const BenchConfig& cfg, Gate& gate);

/**
 * Untimed checks after the timed reps, on the first rep (every later
 * rep must equal it): the pinned decodes of the sampled schemes, the
 * paper's headline figures, and for fleet_fine_units bit-identity
 * with an in-process run of the same spec and that run's rates.
 * @return that in-process run's CPU seconds (fleet_fine_units; 0
 * otherwise).
 */
double verifyWorkload(const BenchConfig& cfg, const RepResult& rep,
                      Gate& gate);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
