/**
 * @file
 * Layer attribution for the traced run.
 *
 * The library is not instrumented per stage, so the traced run
 * replays a rep's campaigns from the benchmark's own code through the
 * same public calls the runner makes — makeScheme, makeGolden,
 * planShards, evaluateShardBatched — and, in a second staged pass,
 * through the kernel's stages one by one: sampleErrorMask or
 * forEachErrorMaskInRange, the inject XOR, EntryScheme::decodeBatch
 * and the tally sweep, each timed per 256-entry batch. Both passes
 * must reproduce the campaign's tallies bit for bit; a mismatch fails
 * the correctness gate.
 *
 * LayerSpan records an obs::TraceSpan around each call with the
 * span's id, its parent's id and the workload id as arguments, so the
 * Chrome trace written at the end of the run links every span to the
 * call that caused it.
 */

#ifndef PERFBENCH_LAYERS_HPP
#define PERFBENCH_LAYERS_HPP

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench_core.hpp"
#include "obs/trace.hpp"
#include "sim/campaign.hpp"

namespace perfbench {

/** Identifier shared by every span of this run ("workload/seed"). */
void setTraceWorkload(const std::string& workload_id);

/**
 * One traced call into a layer. @p layer is the trace category
 * ("faultsim", "ecc", "sim", "common", "fleet", "obs") and must be a
 * string literal. The parent is the innermost LayerSpan open on this
 * thread unless @p parent names one explicitly (pool tasks pass the
 * span that scheduled them). A no-op while tracing is off.
 */
class LayerSpan
{
  public:
    static constexpr std::uint64_t kInherit = ~std::uint64_t{0};

    LayerSpan(const char* layer, const std::string& name,
              std::uint64_t parent = kInherit);
    LayerSpan(const LayerSpan&) = delete;
    LayerSpan& operator=(const LayerSpan&) = delete;
    ~LayerSpan();

    /** This span's id (0 while tracing is off). */
    std::uint64_t id() const { return id_; }

  private:
    std::optional<gpuecc::obs::TraceSpan> span_;
    std::uint64_t id_ = 0;
    std::uint64_t restore_ = 0;
};

/**
 * One CampaignRunner::run a rep made, kept for checks and
 * attribution. Only what those read is kept: holding whole
 * CampaignResults across a run's campaigns would fragment the heap
 * and put the benchmark's own bookkeeping into peak_rss_mb.
 */
struct CampaignCall
{
    gpuecc::sim::CampaignSpec spec;
    /** Threads the runner resolved. */
    int threads = 0;
    std::vector<gpuecc::sim::CampaignCell> cells;
    /** Wall seconds of the evaluation phase (the runner's clock). */
    double seconds = 0.0;
    /** Pool telemetry without the per-worker breakdown. */
    gpuecc::obs::PoolTelemetry pool;
    /** Fleet telemetry without the per-worker records... */
    gpuecc::obs::FleetTelemetry fleet;
    /** ...whose busy seconds are summed here. */
    double fleet_busy_seconds = 0.0;

    /** Trials across all cells. */
    std::uint64_t trials() const;
};

/** Summed stage time (ns) and work counts over a replay. */
struct StageTotals
{
    double sample_beat_ns = 0.0;
    std::uint64_t sampled_beat = 0;
    double sample_entry_ns = 0.0;
    std::uint64_t sampled_entry = 0;
    double enumerate_ns = 0.0;
    std::uint64_t enumerated = 0;
    double inject_ns = 0.0;
    double tally_ns = 0.0;
    /**
     * evaluateShardBatched thread CPU time and trials (the unsplit
     * kernel; the staged pass runs the same trials).
     */
    double kernel_ns = 0.0;
    std::uint64_t kernel_trials = 0;
    /** decodeBatch time (ns) and entries, per scheme id. */
    std::map<std::string, std::pair<double, std::uint64_t>> decode;

    void merge(const StageTotals& other);
    double sampleNs() const { return sample_beat_ns + sample_entry_ns; }
    double decodeNs() const;
    /** Sample + enumerate + inject + decode + tally. */
    double stageNs() const;
};

/** Everything a replay measured. */
struct ReplayResult
{
    StageTotals stages;
    /** makeScheme wall time per call, ms, per scheme id. */
    std::map<std::string, std::vector<double>> construct_ms;
    /**
     * Per call, per plan task, the kernel's tallies (kept only for
     * fleet calls, whose result lines the wire probe rebuilds).
     */
    std::vector<std::vector<OutcomeCounts>> task_counts;
};

/**
 * Replay @p calls on a @p threads-thread pool: kernel pass and staged
 * pass per shard, both checked against the call's merged cells.
 */
ReplayResult replayCalls(const std::vector<CampaignCall>& calls,
                         int threads, Gate& gate);

/** Fleet wire cost of one call's result lines. */
struct WireCost
{
    double encode_us = 0.0; //!< encodeResultLine per unit
    double decode_us = 0.0; //!< decodeWorkerLine per unit
    double line_bytes = 0.0; //!< mean result line size
    std::uint64_t units = 0;
};

/**
 * Rebuild the result line each unit of a pipe-fleet call sends (one
 * unit per shard task, as fleet_fine_units plans it), then time
 * encodeResultLine and decodeWorkerLine over all of them. The decoded
 * tallies must round-trip exactly.
 */
WireCost probeWire(const CampaignCall& call,
                   const std::vector<OutcomeCounts>& task_counts,
                   Gate& gate);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HPP
