/**
 * @file
 * Live campaign progress on one rewritten stderr line.
 *
 * The reporter owns a background render thread that samples atomic
 * completion counters every ~500 ms and redraws a single status line
 * (percent done, shards, schemes, trials/s, ETA) in place. The hot
 * path — shardDone() from a pool worker — is two relaxed atomic adds,
 * so progress reporting cannot perturb campaign determinism or
 * measurably slow the shard kernel. The reporter registers a log
 * pre-line hook so any warn()/inform() clears the status line before
 * printing, then the next render repaints it.
 */

#ifndef GPUECC_OBS_PROGRESS_HPP
#define GPUECC_OBS_PROGRESS_HPP

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

namespace gpuecc::obs {

/** When the live progress line is shown. */
enum class ProgressMode
{
    autoTty, //!< on iff stderr is a terminal
    on,
    off,
};

/**
 * The denominator side of the progress line. Shards are the unit of
 * completion (and of the percent/ETA): the planner knows the exact
 * shard count up front, whereas the trial count of an enumerable
 * pattern's shard is only discovered as the mask filter runs.
 */
struct ProgressTotals
{
    std::uint64_t shards = 0;
    std::uint64_t schemes = 0;
};

/** One sampled numerator+rate snapshot, for formatting. */
struct ProgressSample
{
    ProgressTotals totals;
    std::uint64_t shards_done = 0;
    std::uint64_t trials_done = 0;
    std::uint64_t schemes_done = 0;
    double trials_per_second = 0.0;
    /** Negative = unknown (no throughput measured yet). */
    double eta_seconds = -1.0;
};

/** Pure formatter for one status line (exposed for tests). */
std::string formatProgressLine(const ProgressSample& sample);

/** Renders the live line; safe to drive from many threads. */
class ProgressReporter
{
  public:
    /** Starts the render thread iff the mode (and TTY) says so. */
    ProgressReporter(ProgressMode mode, const ProgressTotals& totals);

    ProgressReporter(const ProgressReporter&) = delete;
    ProgressReporter& operator=(const ProgressReporter&) = delete;

    /** Stops and clears the line if still running. */
    ~ProgressReporter();

    /** True when a render thread is live. */
    bool enabled() const { return enabled_; }

    /** Record @p shards finished shards worth @p trials samples. */
    void shardDone(std::uint64_t trials, std::uint64_t shards = 1)
    {
        if (!enabled_)
            return;
        shards_done_.fetch_add(shards, std::memory_order_relaxed);
        trials_done_.fetch_add(trials, std::memory_order_relaxed);
    }

    /**
     * Record @p shards shards settled without running any trials — a
     * failed cell's units skipped at claim time, a poison unit
     * retired at the requeue cap. Without these the fleet status line
     * freezes short of 100% whenever a unit retires through a failure
     * path instead of completing.
     */
    void shardsSkipped(std::uint64_t shards)
    {
        if (!enabled_)
            return;
        shards_done_.fetch_add(shards, std::memory_order_relaxed);
    }

    /** Record one scheme fully evaluated. */
    void schemeDone()
    {
        if (!enabled_)
            return;
        schemes_done_.fetch_add(1, std::memory_order_relaxed);
    }

    /** Join the render thread and erase the status line. */
    void stop();

    /** The counters as one consistent sample (exposed for tests). */
    ProgressSample sample() const { return sampleNow(); }

  private:
    void renderLoop();
    ProgressSample sampleNow() const;

    ProgressTotals totals_;
    bool enabled_ = false;
    std::atomic<std::uint64_t> shards_done_{0};
    std::atomic<std::uint64_t> trials_done_{0};
    std::atomic<std::uint64_t> schemes_done_{0};
    std::chrono::steady_clock::time_point start_;
    std::mutex stop_mutex_;
    std::condition_variable stop_cv_;
    bool stopping_ = false;
    std::thread thread_;
};

} // namespace gpuecc::obs

#endif // GPUECC_OBS_PROGRESS_HPP
