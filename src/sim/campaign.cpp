#include "sim/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>

#include "common/codec_mode.hpp"
#include "common/interrupt.hpp"
#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "ecc/registry.hpp"
#include "faultsim/shard.hpp"
#include "net/service.hpp"
#include "obs/trace.hpp"
#include "sim/chaos.hpp"
#include "sim/checkpoint.hpp"

namespace gpuecc::sim {

std::vector<ErrorPattern>
CampaignSpec::resolvedPatterns() const
{
    if (!patterns.empty())
        return patterns;
    const auto& all = allErrorPatterns();
    return {all.begin(), all.end()};
}

std::uint64_t
CampaignResult::totalTrials() const
{
    std::uint64_t total = 0;
    for (const CampaignCell& cell : cells)
        total += cell.counts.trials;
    return total;
}

bool
CampaignResult::hasScheme(const std::string& scheme_id) const
{
    for (const CampaignCell& cell : cells) {
        if (cell.scheme_id == scheme_id)
            return true;
    }
    return false;
}

double
CampaignResult::trialsPerSecond() const
{
    return seconds > 0.0 ? static_cast<double>(totalTrials()) / seconds
                         : 0.0;
}

const OutcomeCounts&
CampaignResult::counts(const std::string& scheme_id,
                       ErrorPattern pattern) const
{
    for (const CampaignCell& cell : cells) {
        if (cell.scheme_id == scheme_id && cell.pattern == pattern)
            return cell.counts;
    }
    fatal("CampaignResult: no cell for scheme " + scheme_id);
}

std::map<ErrorPattern, OutcomeCounts>
CampaignResult::perPattern(const std::string& scheme_id) const
{
    std::map<ErrorPattern, OutcomeCounts> out;
    for (const CampaignCell& cell : cells) {
        if (cell.scheme_id == scheme_id)
            out[cell.pattern] = cell.counts;
    }
    require(!out.empty(),
            "CampaignResult: unknown scheme " + scheme_id);
    return out;
}

CampaignRunner::CampaignRunner(CampaignSpec spec) : spec_(std::move(spec))
{
    require(!spec_.scheme_ids.empty(),
            "CampaignRunner: spec names no schemes");
    require(spec_.chunk > 0, "CampaignRunner: chunk must be positive");
    require(spec_.fleet_workers >= 0 && spec_.fleet_workers <= 4096,
            "CampaignRunner: fleet workers must be in [0, 4096]");
    require(spec_.fleet_unit_shards > 0,
            "CampaignRunner: fleet unit must hold at least one shard");
}

CampaignResult
CampaignRunner::run() const
{
    Result<CampaignResult> result = tryRun();
    if (!result.ok())
        fatal("campaign: " + result.status().toString());
    return std::move(result).value();
}

namespace {

/** One pool task: a shard of one (scheme, pattern) cell. */
struct Task
{
    std::size_t cell;
    Shard shard;
};

/**
 * Completion log shared by the workers and the checkpoint flusher.
 * partial[i] is written by exactly one task execution *before* index
 * i is appended here under the mutex, so any reader holding the
 * mutex sees fully written tallies (and the final merge runs after
 * the pool joins).
 */
struct Collector
{
    std::mutex mutex;
    /** Plan indices whose partial tallies are valid. */
    std::vector<std::uint64_t> completed;
    /** Tasks evaluated by this run (excludes restored ones). */
    std::uint64_t fresh_completed = 0;
    std::chrono::steady_clock::time_point last_flush;
    bool warned_checkpoint_failure = false;
};

/** Ids of the campaign.* metrics, registered once per process. */
struct CampaignMetricIds
{
    obs::MetricId shards_completed;
    obs::MetricId trials;
    obs::MetricId shard_retries;
    obs::MetricId checkpoint_flushes;
    obs::MetricId checkpoint_failures;
    obs::MetricId schemes_dropped;
    obs::MetricId shard_micros;
};

const CampaignMetricIds&
campaignMetricIds()
{
    // Registration happens here, on the first campaign's calling
    // thread, before any pool exists — the register-before-spawn
    // contract the lock-free metric hot path relies on.
    static const CampaignMetricIds ids = [] {
        obs::MetricsRegistry& m = obs::metrics();
        CampaignMetricIds out;
        out.shards_completed = m.counter("campaign.shards_completed");
        out.trials = m.counter("campaign.trials");
        out.shard_retries = m.counter("campaign.shard_retries");
        out.checkpoint_flushes =
            m.counter("campaign.checkpoint_flushes");
        out.checkpoint_failures =
            m.counter("campaign.checkpoint_failures");
        out.schemes_dropped = m.counter("campaign.schemes_dropped");
        out.shard_micros = m.histogram(
            "campaign.shard_micros",
            {100, 1000, 10000, 100000, 1000000, 10000000});
        return out;
    }();
    return ids;
}

/** Per-scheme clocks the workers bump; µs since evaluation start. */
struct SchemeClock
{
    std::atomic<std::uint64_t> busy_us{0};
    std::atomic<std::uint64_t> trials{0};
    std::atomic<std::uint64_t> shards{0};
    std::atomic<std::uint64_t> first_us{~std::uint64_t{0}};
    std::atomic<std::uint64_t> last_us{0};
    /** Unaccounted tasks; 0 means the scheme finished this run. */
    std::atomic<std::uint64_t> pending{0};
};

void
atomicMin(std::atomic<std::uint64_t>& slot, std::uint64_t value)
{
    std::uint64_t cur = slot.load(std::memory_order_relaxed);
    while (value < cur &&
           !slot.compare_exchange_weak(cur, value,
                                       std::memory_order_relaxed)) {
    }
}

void
atomicMax(std::atomic<std::uint64_t>& slot, std::uint64_t value)
{
    std::uint64_t cur = slot.load(std::memory_order_relaxed);
    while (value > cur &&
           !slot.compare_exchange_weak(cur, value,
                                       std::memory_order_relaxed)) {
    }
}

std::uint64_t
microsSince(std::chrono::steady_clock::time_point origin,
            std::chrono::steady_clock::time_point at)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            at - origin)
            .count());
}

} // namespace

Result<CampaignResult>
CampaignRunner::tryRun() const
{
    // Fleet mode forks worker processes and must do so before this
    // process spawns any threads — the fleet service owns that
    // ordering, so hand over before the pool (or progress reporter)
    // exists. A listen address adds remote agents, with
    // --fleet-workers as the local standby rung.
    if (spec_.fleet_workers > 0 || !spec_.fleet_listen.empty())
        return net::runFleetService(spec_);

    const CampaignMetricIds& mid = campaignMetricIds();
    obs::MetricsRegistry& reg = obs::metrics();
    // Flush this thread first so the baseline holds everything older
    // runs recorded and since() isolates exactly this run's activity.
    reg.flushThisThread();
    const obs::MetricsSnapshot metrics_baseline = reg.snapshot();
    obs::TraceSpan campaign_span("campaign", "campaign");

    CampaignResult result;
    result.spec = spec_;
    result.spec.threads = ThreadPool::resolveThreadCount(spec_.threads);
    result.codec_backend = codecBackendName();

    const std::vector<ErrorPattern> patterns = spec_.resolvedPatterns();

    // Resolve schemes and golden entries once; decode() is const and
    // thread-safe, so one instance serves all workers. A scheme that
    // fails to resolve is skipped and recorded, not fatal.
    std::vector<std::string> ids;
    std::vector<std::shared_ptr<EntryScheme>> schemes;
    std::vector<GoldenEntry> goldens;
    for (const std::string& id : spec_.scheme_ids) {
        // Covers codec (table) construction and golden derivation.
        obs::TraceSpan span("codec:" + id, "codec");
        Result<std::shared_ptr<EntryScheme>> scheme = findScheme(id);
        if (!scheme.ok()) {
            warn("campaign: skipping scheme " + id + ": " +
                 scheme.status().toString());
            result.errors.push_back({id, scheme.status().toString()});
            continue;
        }
        schemes.push_back(scheme.value());
        goldens.push_back(makeGolden(*schemes.back(), spec_.seed));
        ids.push_back(id);
    }
    if (schemes.empty()) {
        return Status::notFound(
            "no scheme in the spec could be constructed");
    }
    for (const std::string& id : ids) {
        for (ErrorPattern p : patterns)
            result.cells.push_back({id, p, OutcomeCounts{}});
    }

    // Flatten the plan: every shard of every cell is one pool task.
    // The same pattern plan (and thus the same RNG streams and masks)
    // is shared by every scheme, which keeps scheme columns paired.
    // The chunk may shrink so short runs still feed every worker;
    // tallies are chunk-invariant, so the report is unaffected.
    const std::uint64_t effective_chunk = effectiveShardChunk(
        spec_.samples, spec_.chunk, result.spec.threads);
    std::vector<Task> tasks;
    {
        obs::TraceSpan span("plan", "campaign");
        for (std::size_t s = 0; s < schemes.size(); ++s) {
            for (std::size_t p = 0; p < patterns.size(); ++p) {
                const std::size_t cell = s * patterns.size() + p;
                for (const Shard& shard : planShards(
                         patterns[p], spec_.samples, effective_chunk))
                    tasks.push_back({cell, shard});
            }
        }
    }
    result.shards = tasks.size();

    const bool checkpointing = !spec_.checkpoint_path.empty();
    std::string fingerprint;
    if (checkpointing) {
        // Fingerprint the *effective* chunk: it determines the task
        // indexing a checkpoint records, and unlike the requested
        // chunk it can differ between two invocations of the same
        // spec (different --threads), which must be detected rather
        // than silently mis-restored.
        fingerprint = campaignFingerprint(
            ids, patterns, spec_.samples, spec_.seed, effective_chunk,
            result.codec_backend, tasks.size());
        // From here on SIGINT/SIGTERM mean "finish in-flight shards,
        // flush, exit" rather than dying mid-write.
        installInterruptHandlers();
    }

    // Fresh tallies accumulate in per-worker cache-line-aligned
    // arenas (merged once after the pool joins); the per-task log is
    // only materialized when a checkpoint needs to serialize it.
    std::vector<OutcomeCounts> partial(
        checkpointing ? tasks.size() : 0);
    // done[i]: task i needs no evaluation (restored or fresh).
    // Distinct bytes, each written by at most one task execution.
    std::vector<char> done(tasks.size(), 0);
    Collector collector;

    if (checkpointing && spec_.resume) {
        obs::TraceSpan span("resume-load", "campaign");
        Result<CampaignCheckpoint> loaded =
            loadCheckpoint(spec_.checkpoint_path);
        if (loaded.status().code() == ErrorCode::notFound) {
            inform("campaign: no checkpoint at " +
                   spec_.checkpoint_path + "; starting fresh");
        } else if (!loaded.ok()) {
            return loaded.status();
        } else {
            const CampaignCheckpoint& ckpt = loaded.value();
            if (ckpt.fingerprint != fingerprint) {
                return Status::failedPrecondition(
                    "checkpoint " + spec_.checkpoint_path +
                    " was written by a different campaign\n  theirs: " +
                    ckpt.fingerprint + "\n  ours:   " + fingerprint);
            }
            for (const CheckpointEntry& entry : ckpt.done) {
                if (entry.task >= tasks.size()) {
                    return Status::dataLoss(
                        "checkpoint " + spec_.checkpoint_path +
                        ": task index " + std::to_string(entry.task) +
                        " is outside the plan");
                }
                const Shard& shard = tasks[entry.task].shard;
                // Width validation: a sampled shard's trial count is
                // exactly its sample span, and exactness must match
                // the pattern class.
                const bool enumerable =
                    patternIsEnumerable(shard.pattern);
                if (entry.counts.exhaustive != enumerable ||
                    (!enumerable &&
                     entry.counts.trials != shard.end - shard.begin)) {
                    return Status::dataLoss(
                        "checkpoint " + spec_.checkpoint_path +
                        ": task " + std::to_string(entry.task) +
                        " tallies don't match its shard");
                }
                partial[entry.task] = entry.counts;
                done[entry.task] = 1;
                collector.completed.push_back(entry.task);
                // Restored tallies merge into their cell right away;
                // merge order against the fresh shards is irrelevant
                // (commutative, associative, same exactness per cell).
                result.cells[tasks[entry.task].cell].counts.merge(
                    entry.counts);
            }
            result.resumed_shards = ckpt.done.size();
            inform("campaign: resumed " +
                   std::to_string(result.resumed_shards) + " of " +
                   std::to_string(tasks.size()) + " shard tasks from " +
                   spec_.checkpoint_path);
        }
    }

    // Failure bookkeeping: a cell whose shard task fails twice marks
    // its whole scheme failed; remaining tasks of failed cells are
    // skipped. cell_errors is guarded by collector.mutex.
    std::unique_ptr<std::atomic<bool>[]> cell_failed(
        new std::atomic<bool>[result.cells.size()]);
    for (std::size_t i = 0; i < result.cells.size(); ++i)
        cell_failed[i].store(false, std::memory_order_relaxed);
    std::vector<std::pair<std::size_t, std::string>> cell_errors;

    // Per-scheme clocks and the progress denominator cover only the
    // work this run will actually evaluate (resumed tasks excluded).
    std::vector<SchemeClock> scheme_clocks(schemes.size());
    obs::ProgressTotals totals;
    totals.schemes = schemes.size();
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        if (done[i] != 0)
            continue;
        const std::size_t scheme = tasks[i].cell / patterns.size();
        scheme_clocks[scheme].pending.fetch_add(
            1, std::memory_order_relaxed);
        ++totals.shards;
    }
    obs::ProgressReporter progress(spec_.progress, totals);
    for (const SchemeClock& clock : scheme_clocks) {
        if (clock.pending.load(std::memory_order_relaxed) == 0)
            progress.schemeDone(); // fully restored from checkpoint
    }

    // The provenance block persisted with every checkpoint flush.
    std::vector<std::pair<std::string, std::string>> ckpt_manifest;
    if (checkpointing) {
        const obs::BuildInfo build = obs::buildInfo();
        ckpt_manifest = {
            {"threads", std::to_string(result.spec.threads)},
            {"codec_backend", result.codec_backend},
            {"build_type", build.build_type},
            {"compiler", build.compiler},
            {"platform", build.platform},
            {"chaos", obs::chaosEnvText()},
        };
    }

    // Serialize completed tallies; call with collector.mutex held.
    auto flushCheckpoint = [&]() -> Status {
        obs::TraceSpan span("checkpoint-flush", "checkpoint");
        CampaignCheckpoint ckpt;
        ckpt.fingerprint = fingerprint;
        ckpt.manifest = ckpt_manifest;
        std::vector<std::uint64_t> indices = collector.completed;
        std::sort(indices.begin(), indices.end());
        ckpt.done.reserve(indices.size());
        for (std::uint64_t i : indices)
            ckpt.done.push_back({i, partial[i]});
        span.arg("tasks", indices.size());
        Status s = saveCheckpoint(spec_.checkpoint_path, ckpt);
        reg.add(s.ok() ? mid.checkpoint_flushes
                       : mid.checkpoint_failures);
        return s;
    };

    const auto interval = std::chrono::duration<double>(
        std::max(0.0, spec_.checkpoint_interval_s));
    // Rebase the flush timer at evaluation start (i.e. after any
    // resume restore), so the first interval is a full one.
    collector.last_flush = std::chrono::steady_clock::now();

    const double cpu_start = obs::processCpuSeconds();
    const auto start = std::chrono::steady_clock::now();
    const std::uint64_t trace_eval_start_us = obs::traceNowUs();

    // Per-worker execution state: the batched kernel's SoA scratch
    // plus one tally accumulator per cell, all in one cache-line-
    // aligned WorkerArena slot so no two workers ever write the same
    // line on the hot path. Created with the pool (below); the body
    // reaches it through this pointer.
    struct WorkerState
    {
        ShardBatchArena batch;
        std::vector<OutcomeCounts> cells;
    };
    WorkerArena<WorkerState>* worker_states = nullptr;

    auto body = [&](std::uint64_t i) {
        if (done[i] != 0 || interruptRequested())
            return;
        const Task& t = tasks[i];
        const std::size_t scheme = t.cell / patterns.size();
        SchemeClock& clock = scheme_clocks[scheme];
        if (cell_failed[t.cell].load(std::memory_order_relaxed)) {
            if (clock.pending.fetch_sub(
                    1, std::memory_order_relaxed) == 1)
                progress.schemeDone();
            return;
        }

        obs::TraceSpan span(patternInfo(t.shard.pattern).label,
                            "shard");
        span.arg("scheme", ids[scheme])
            .arg("task", i)
            .arg("begin", t.shard.begin)
            .arg("end", t.shard.end);

        const auto shard_start = std::chrono::steady_clock::now();
        WorkerState& ws = worker_states->local();
        OutcomeCounts counts;
        try {
            chaosOnTaskAttempt(i);
            counts = evaluateShardBatched(*schemes[scheme],
                                          goldens[scheme], spec_.seed,
                                          t.shard, ws.batch);
        } catch (const std::exception& first) {
            // Transient faults (chaos, OOM churn) get one retry; a
            // second failure fails the scheme, not the campaign.
            reg.add(mid.shard_retries);
            warn("campaign: shard task " + std::to_string(i) +
                 " failed (" + first.what() + "); retrying once");
            try {
                chaosOnTaskAttempt(i);
                counts = evaluateShardBatched(*schemes[scheme],
                                              goldens[scheme],
                                              spec_.seed, t.shard,
                                              ws.batch);
            } catch (const std::exception& second) {
                cell_failed[t.cell].store(true,
                                          std::memory_order_relaxed);
                if (clock.pending.fetch_sub(
                        1, std::memory_order_relaxed) == 1)
                    progress.schemeDone();
                std::lock_guard<std::mutex> lock(collector.mutex);
                cell_errors.emplace_back(
                    t.cell, std::string("shard task failed twice: ") +
                                second.what());
                return;
            }
        }
        const auto shard_stop = std::chrono::steady_clock::now();
        // Tallies land in the worker's own aligned accumulator; the
        // per-task log is populated only for checkpoint serialization
        // (a cold, once-per-shard write).
        ws.cells[t.cell].merge(counts);
        if (checkpointing)
            partial[i] = counts;
        done[i] = 1;

        // Telemetry: thread-local metric shards and relaxed atomics
        // only — nothing here can reorder work or touch the tallies.
        const std::uint64_t shard_us =
            microsSince(shard_start, shard_stop);
        reg.add(mid.shards_completed);
        reg.add(mid.trials, counts.trials);
        reg.observe(mid.shard_micros, shard_us);
        clock.busy_us.fetch_add(shard_us, std::memory_order_relaxed);
        clock.trials.fetch_add(counts.trials,
                               std::memory_order_relaxed);
        clock.shards.fetch_add(1, std::memory_order_relaxed);
        atomicMin(clock.first_us, microsSince(start, shard_start));
        atomicMax(clock.last_us, microsSince(start, shard_stop));
        progress.shardDone(counts.trials);
        if (clock.pending.fetch_sub(1, std::memory_order_relaxed) ==
            1)
            progress.schemeDone();

        std::lock_guard<std::mutex> lock(collector.mutex);
        collector.completed.push_back(i);
        ++collector.fresh_completed;
        chaosOnTaskDone(collector.fresh_completed);
        if (checkpointing && !interruptRequested()) {
            const auto now = std::chrono::steady_clock::now();
            if (now - collector.last_flush >= interval) {
                Status s = flushCheckpoint();
                // Rebase from *after* the write completed, so slow
                // flushes can't compress the next interval and the
                // cadence stays uniform from flush to flush.
                collector.last_flush =
                    std::chrono::steady_clock::now();
                if (!s.ok() &&
                    !collector.warned_checkpoint_failure) {
                    // Degrade gracefully: the campaign still runs,
                    // it just can't persist progress right now.
                    warn("campaign: checkpoint write failed (" +
                         s.toString() + "); continuing without");
                    collector.warned_checkpoint_failure = true;
                }
            }
        }
    };

    ThreadPool::Stats pool_stats;
    {
        obs::TraceSpan span("evaluate", "campaign");
        ThreadPool pool(result.spec.threads, spec_.affinity);
        result.pool.affinity = pool.affinityApplied();
        WorkerArena<WorkerState> states(pool);
        for (int w = 0; w < states.size(); ++w)
            states.at(w).cells.resize(result.cells.size());
        worker_states = &states;
        pool.parallelFor(tasks.size(), body);
        pool_stats = pool.stats();
        // Merge the per-worker accumulators in worker order; the
        // outcome is order-independent (commutative merge), and
        // workers that ran nothing hold empty accumulators whose
        // default non-exhaustive flag must not dilute enumerable
        // cells, hence the trials guard.
        obs::TraceSpan merge_span("merge", "campaign");
        for (int w = 0; w < states.size(); ++w) {
            const std::vector<OutcomeCounts>& cells =
                states.at(w).cells;
            for (std::size_t c = 0; c < cells.size(); ++c) {
                if (cells[c].trials > 0)
                    result.cells[c].counts.merge(cells[c]);
            }
        }
        worker_states = nullptr;
    }
    const auto stop = std::chrono::steady_clock::now();
    result.seconds =
        std::chrono::duration<double>(stop - start).count();
    result.cpu_seconds = obs::processCpuSeconds() - cpu_start;
    result.pool.threads = result.spec.threads;
    result.pool.tasks_executed = pool_stats.tasks_executed;
    result.pool.steals = pool_stats.steals;
    result.pool.busy_seconds = pool_stats.busy_seconds;
    result.pool.wall_seconds = pool_stats.wall_seconds;
    result.pool.worker_busy_seconds =
        std::move(pool_stats.worker_busy_seconds);
    progress.stop();
    result.interrupted = interruptRequested();

    // Per-scheme timings, plus one synthetic aggregate span per
    // scheme on its own trace track (the workers interleave schemes,
    // so per-shard spans alone don't show scheme-level overlap).
    for (std::size_t s = 0; s < schemes.size(); ++s) {
        const SchemeClock& clock = scheme_clocks[s];
        obs::SchemeTiming timing;
        timing.scheme_id = ids[s];
        timing.cpu_seconds =
            static_cast<double>(
                clock.busy_us.load(std::memory_order_relaxed)) *
            1e-6;
        timing.shards = clock.shards.load(std::memory_order_relaxed);
        timing.trials = clock.trials.load(std::memory_order_relaxed);
        const std::uint64_t first =
            clock.first_us.load(std::memory_order_relaxed);
        const std::uint64_t last =
            clock.last_us.load(std::memory_order_relaxed);
        const bool ran = first != ~std::uint64_t{0} && last > first;
        if (ran)
            timing.wall_seconds =
                static_cast<double>(last - first) * 1e-6;
        result.scheme_timings.push_back(timing);
        if (ran && obs::traceEnabled()) {
            const int tid = 1000 + static_cast<int>(s);
            obs::setTrackName(tid, "scheme " + ids[s]);
            obs::emitSpan(
                ids[s], "scheme", trace_eval_start_us + first,
                last - first,
                "\"shards\":" + std::to_string(timing.shards) +
                    ",\"trials\":" + std::to_string(timing.trials),
                tid);
        }
    }

    // Always flush a final checkpoint: complete on success (so a
    // later --resume is a no-op), partial on interrupt (so --resume
    // loses nothing but the shards in flight).
    if (checkpointing) {
        std::lock_guard<std::mutex> lock(collector.mutex);
        if (Status s = flushCheckpoint(); !s.ok()) {
            warn("campaign: final checkpoint write failed: " +
                 s.toString());
        } else if (result.interrupted) {
            inform("campaign: interrupted; " +
                   std::to_string(collector.completed.size()) + " of " +
                   std::to_string(tasks.size()) +
                   " shard tasks checkpointed to " +
                   spec_.checkpoint_path);
        }
    }

    // Cell tallies are already merged: restored shards at resume
    // time, fresh shards from the per-worker accumulators after the
    // pool joined. Merging is associative and commutative, so the
    // outcome is independent of which worker ran which shard; tasks
    // skipped by an interrupt or a failed scheme contributed nothing.

    // Drop failed schemes from the cells and record them — a partial
    // scheme row would read as a measured (wrong) rate.
    if (!cell_errors.empty()) {
        std::set<std::string> failed;
        for (const auto& [cell, message] : cell_errors) {
            const CampaignCell& c = result.cells[cell];
            if (failed.insert(c.scheme_id).second) {
                warn("campaign: dropping scheme " + c.scheme_id +
                     ": " + message);
                reg.add(mid.schemes_dropped);
                result.errors.push_back(
                    {c.scheme_id,
                     "unavailable: pattern " +
                         patternInfo(c.pattern).label + ": " + message});
            }
        }
        std::erase_if(result.cells, [&](const CampaignCell& c) {
            return failed.count(c.scheme_id) != 0;
        });
    }

    // Workers flushed their metric shards when the pool joined; flush
    // the calling thread's (it was worker 0) and delta the baseline
    // so the result reports only this run's activity.
    reg.flushThisThread();
    result.metrics = reg.snapshot().since(metrics_baseline);
    return result;
}

} // namespace gpuecc::sim
