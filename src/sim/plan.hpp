/**
 * @file
 * The campaign plan, and one run of it, shared by every executor.
 *
 * A campaign's work is a fixed list of shard tasks — every shard of
 * every (scheme, pattern) cell, scheme-major and pattern-minor — and
 * a task's tallies depend only on (plan, task index). The in-process
 * runner (sim/campaign), the fleet dispatcher and the fleet worker
 * (src/fleet) all execute that one list. CampaignPlan builds it and
 * is the only code that knows the rules tied to it: scheme
 * resolution, the fingerprint, how a checkpoint entry is checked
 * against its shard, and how one task is evaluated with one retry.
 * PlanRun is one execution of a plan: the checkpoint log and its
 * flush, failed cells, per-scheme clocks, progress, and how the run
 * ends. The executors keep only what really differs between them — a
 * thread pool against a unit queue, task- against unit-level resume —
 * and speak in their own metric family and log prefix ("campaign" or
 * "fleet").
 */

#ifndef GPUECC_SIM_PLAN_HPP
#define GPUECC_SIM_PLAN_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "faultsim/shard.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "sim/campaign.hpp"
#include "sim/checkpoint.hpp"

namespace gpuecc::sim {

/** Whole microseconds from @p origin to @p at. */
inline std::uint64_t
microsBetween(std::chrono::steady_clock::time_point origin,
              std::chrono::steady_clock::time_point at)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(at - origin)
            .count());
}

/** One plan entry: a shard of one (scheme, pattern) cell. */
struct PlanTask
{
    std::size_t cell;
    Shard shard;
};

/** The immutable task list of one campaign, and its rules. */
class CampaignPlan
{
  public:
    /**
     * Resolve @p scheme_ids (with their golden entries) and shard
     * every cell at @p chunk, the *effective* chunk the executor
     * picked. A scheme that fails to resolve is warned about and
     * listed in skipped(); notFound when none resolves. @p family is
     * the executor's metric family and log prefix ("campaign" or
     * "fleet"). Registers the plan's metrics, so build on the
     * executor's thread before it spawns any worker thread.
     */
    static Result<CampaignPlan>
    build(const std::string& family,
          const std::vector<std::string>& scheme_ids,
          const std::vector<ErrorPattern>& patterns,
          std::uint64_t samples, std::uint64_t seed, std::uint64_t chunk);

    const std::string& family() const { return family_; }
    /** The resolved scheme ids, in spec order. */
    const std::vector<std::string>& schemeIds() const { return ids_; }
    /** Schemes that failed to resolve, with the reason. */
    const std::vector<CampaignError>& skipped() const { return skipped_; }
    const std::vector<ErrorPattern>& patterns() const { return patterns_; }
    std::uint64_t samples() const { return samples_; }
    std::uint64_t seed() const { return seed_; }
    std::uint64_t chunk() const { return chunk_; }
    const std::string& codecBackend() const { return codec_backend_; }
    const std::string& fingerprint() const { return fingerprint_; }
    const std::vector<PlanTask>& tasks() const { return tasks_; }
    std::size_t schemeOf(std::size_t cell) const
    {
        return cell / patterns_.size();
    }
    /** Every cell with empty tallies, scheme-major, pattern-minor. */
    std::vector<CampaignCell> emptyCells() const;

    /**
     * Check one tally entry against its planned shard: the index lies
     * in the plan, exactness matches the pattern class, and a sampled
     * shard's trials equal its sample span. @p source prefixes the
     * dataLoss message (a checkpoint path, "worker 2 unit 7").
     */
    Status checkEntry(const CheckpointEntry& entry,
                      const std::string& source) const;

    /**
     * Load the checkpoint at @p path for a resume and check it
     * against the plan: its fingerprint (failedPrecondition when a
     * different campaign wrote it) and every entry (checkEntry). A
     * missing file is no error: it is logged and yields no entries.
     */
    Result<std::vector<CheckpointEntry>>
    resumeEntries(const std::string& path) const;

    /**
     * Evaluate task @p task. A throwing attempt is warned about,
     * counted in campaign.shard_retries and retried once; a second
     * failure is returned ("shard task N failed twice: ..."), failing
     * the cell rather than the run. Chaos task faults fire before
     * each attempt.
     */
    Result<OutcomeCounts> evaluate(std::uint64_t task,
                                   ShardBatchArena& arena) const;

    /**
     * Evaluate tasks [first, first + count) in order, appending their
     * tallies to @p out — one work unit. Stops at the first task that
     * fails twice and returns its status.
     */
    Status evaluateRange(std::uint64_t first, std::uint64_t count,
                         ShardBatchArena& arena,
                         std::vector<CheckpointEntry>& out) const;

  private:
    friend class PlanRun;

    std::string family_;
    std::vector<std::string> ids_;
    std::vector<std::shared_ptr<EntryScheme>> schemes_;
    std::vector<GoldenEntry> goldens_;
    std::vector<CampaignError> skipped_;
    std::vector<ErrorPattern> patterns_;
    std::uint64_t samples_ = 0;
    std::uint64_t seed_ = 0;
    std::uint64_t chunk_ = 0;
    std::string codec_backend_;
    std::vector<PlanTask> tasks_;
    std::string fingerprint_;

    obs::MetricId shard_retries_ = 0;
    obs::MetricId checkpoint_flushes_ = 0;
    obs::MetricId checkpoint_failures_ = 0;
    obs::MetricId schemes_dropped_ = 0;
};

/**
 * One execution of a plan: what every executor accounts the same way.
 *
 * Progress, clock and cell-failure reads are lock-free (relaxed
 * atomics) and safe from any thread. The checkpoint log (restore,
 * complete, flushCheckpoint) and failCell mutate shared state: the
 * executor serializes them under its own mutex.
 */
class PlanRun
{
  public:
    using Clock = std::chrono::steady_clock;

    /**
     * @p manifest heads the provenance block every checkpoint flush
     * persists (threads, ...); the build and chaos fields are
     * appended. Checkpointing is on iff spec.checkpoint_path is set,
     * and then SIGINT/SIGTERM become clean interrupts from here on.
     */
    PlanRun(const CampaignPlan& plan, const CampaignSpec& spec,
            std::vector<std::pair<std::string, std::string>> manifest);

    bool checkpointing() const { return checkpointing_; }

    /** @name Checkpoint log (caller serializes) */
    ///@{
    /** Log a task restored from the resume checkpoint. */
    void restore(const CheckpointEntry& entry);
    /**
     * Log freshly evaluated tasks: they count toward the chaos
     * kill-point, and the checkpoint is flushed when its interval has
     * passed (a failed write warns once and the run goes on).
     */
    void complete(std::span<const CheckpointEntry> entries);
    /** Write every logged task to the checkpoint now. */
    Status flushCheckpoint();
    ///@}

    /**
     * Start the clocks and the progress line over the tasks not
     * restored. Call once, after restoring and after any fork (the
     * progress reporter may own a thread).
     */
    void begin(obs::ProgressMode mode);
    Clock::time_point startedAt() const { return start_; }

    /** Whether a task of @p cell failed for good. */
    bool cellFailed(std::size_t cell) const
    {
        return cell_failed_[cell].load(std::memory_order_relaxed);
    }
    /** Fail @p cell (caller serializes); finish drops its scheme. */
    void failCell(std::size_t cell, std::string message);

    /**
     * Account @p tasks evaluated tasks of @p cell: @p trials trials,
     * @p busy_us of evaluation between @p from and @p to.
     */
    void ran(std::size_t cell, std::uint64_t tasks, std::uint64_t trials,
             std::uint64_t busy_us, Clock::time_point from,
             Clock::time_point to);
    /**
     * Account @p tasks tasks of @p cell retired without running — a
     * failed task, the rest of its failed cell, a poison unit — so
     * the progress line still reaches the planned total.
     */
    void skipped(std::size_t cell, std::uint64_t tasks);

    /** Tasks settled so far, restored ones included. */
    std::uint64_t shardsDone() const
    {
        return shards_done_.load(std::memory_order_relaxed);
    }
    /** Trials evaluated by this run. */
    std::uint64_t trialsDone() const
    {
        return trials_done_.load(std::memory_order_relaxed);
    }
    /** The progress reporter (null before begin). */
    const obs::ProgressReporter* progress() const
    {
        return progress_.get();
    }

    /**
     * End the run, once every executor thread has joined: stop the
     * progress line, fill per-scheme timings (each with a synthetic
     * span on its own trace track), flush the final checkpoint, then
     * drop every scheme with a failed cell from result.cells into
     * result.errors — a partial scheme row would read as a measured
     * (wrong) rate. Reads result.interrupted.
     */
    void finish(CampaignResult& result);

  private:
    /** Per-scheme clocks, µs since begin(). */
    struct SchemeClock
    {
        std::atomic<std::uint64_t> busy_us{0};
        std::atomic<std::uint64_t> trials{0};
        std::atomic<std::uint64_t> shards{0};
        std::atomic<std::uint64_t> first_us{~std::uint64_t{0}};
        std::atomic<std::uint64_t> last_us{0};
        /** Unsettled tasks; 0 means the scheme finished. */
        std::atomic<std::uint64_t> pending{0};
    };

    void settle(std::size_t cell, std::uint64_t tasks);

    const CampaignPlan& plan_;
    const std::string checkpoint_path_;
    const double checkpoint_interval_s_;
    const bool checkpointing_;
    std::vector<std::pair<std::string, std::string>> manifest_;

    std::vector<char> restored_;
    /** Logged task indices (restored and fresh); partial_ by index. */
    std::vector<std::uint64_t> completed_;
    std::vector<OutcomeCounts> partial_;
    std::uint64_t fresh_completed_ = 0;
    Clock::time_point last_flush_;
    bool warned_checkpoint_failure_ = false;

    std::vector<std::atomic<bool>> cell_failed_;
    std::vector<std::pair<std::size_t, std::string>> cell_errors_;

    std::vector<SchemeClock> clocks_;
    std::atomic<std::uint64_t> shards_done_{0};
    std::atomic<std::uint64_t> trials_done_{0};
    std::unique_ptr<obs::ProgressReporter> progress_;
    Clock::time_point start_;
    std::uint64_t trace_start_us_ = 0;
};

} // namespace gpuecc::sim

#endif // GPUECC_SIM_PLAN_HPP
