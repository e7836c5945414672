#include "sim/campaign.hpp"

#include <chrono>
#include <mutex>

#include "common/interrupt.hpp"
#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "net/service.hpp"
#include "obs/trace.hpp"
#include "sim/plan.hpp"

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

/** Ids of the runner's own campaign.* metrics, registered once. */
struct CampaignMetricIds
{
    obs::MetricId shards_completed;
    obs::MetricId trials;
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
        out.shard_micros = m.histogram(
            "campaign.shard_micros",
            {100, 1000, 10000, 100000, 1000000, 10000000});
        return out;
    }();
    return ids;
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

    // The chunk may shrink so short runs still feed every worker;
    // tallies are chunk-invariant, so the report is unaffected.
    Result<CampaignPlan> built = CampaignPlan::build(
        "campaign", spec_.scheme_ids, spec_.resolvedPatterns(),
        spec_.samples, spec_.seed,
        effectiveShardChunk(spec_.samples, spec_.chunk,
                            result.spec.threads));
    if (!built.ok())
        return built.status();
    const CampaignPlan& plan = built.value();
    const std::vector<PlanTask>& tasks = plan.tasks();
    result.codec_backend = plan.codecBackend();
    result.errors = plan.skipped();
    result.cells = plan.emptyCells();
    result.shards = tasks.size();

    PlanRun run(plan, spec_,
                {{"threads", std::to_string(result.spec.threads)}});
    // The run's checkpoint log, its failed cells and the workers'
    // completion order are guarded by this mutex; each task is logged
    // under it only after its tallies are written.
    std::mutex mutex;

    // Fresh tallies accumulate in per-worker cache-line-aligned
    // arenas (merged once after the pool joins). done[i]: task i
    // needs no evaluation (restored or fresh) — distinct bytes, each
    // written by at most one task execution.
    std::vector<char> done(tasks.size(), 0);

    if (run.checkpointing() && spec_.resume) {
        Result<std::vector<CheckpointEntry>> entries =
            plan.resumeEntries(spec_.checkpoint_path);
        if (!entries.ok())
            return entries.status();
        for (const CheckpointEntry& entry : entries.value()) {
            run.restore(entry);
            done[entry.task] = 1;
            // Restored tallies merge into their cell right away; merge
            // order against the fresh shards is irrelevant
            // (commutative, associative, same exactness per cell).
            result.cells[tasks[entry.task].cell].counts.merge(
                entry.counts);
        }
        result.resumed_shards = entries.value().size();
        if (result.resumed_shards > 0) {
            inform("campaign: resumed " +
                   std::to_string(result.resumed_shards) + " of " +
                   std::to_string(tasks.size()) + " shard tasks from " +
                   spec_.checkpoint_path);
        }
    }

    run.begin(spec_.progress);
    const double cpu_start = obs::processCpuSeconds();
    const auto start = run.startedAt();

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
        const PlanTask& t = tasks[i];
        // A cell whose task failed twice fails its whole scheme; its
        // remaining tasks are skipped.
        if (run.cellFailed(t.cell)) {
            run.skipped(t.cell, 1);
            return;
        }

        obs::TraceSpan span(patternInfo(t.shard.pattern).label,
                            "shard");
        span.arg("scheme", plan.schemeIds()[plan.schemeOf(t.cell)])
            .arg("task", i)
            .arg("begin", t.shard.begin)
            .arg("end", t.shard.end);

        const auto shard_start = std::chrono::steady_clock::now();
        WorkerState& ws = worker_states->local();
        Result<OutcomeCounts> evaluated = plan.evaluate(i, ws.batch);
        if (!evaluated.ok()) {
            run.skipped(t.cell, 1);
            std::lock_guard<std::mutex> lock(mutex);
            run.failCell(t.cell, evaluated.status().message());
            return;
        }
        const OutcomeCounts& counts = evaluated.value();
        const auto shard_stop = std::chrono::steady_clock::now();
        // Tallies land in the worker's own aligned accumulator.
        ws.cells[t.cell].merge(counts);
        done[i] = 1;

        // Telemetry: thread-local metric shards and relaxed atomics
        // only — nothing here can reorder work or touch the tallies.
        const std::uint64_t shard_us =
            microsBetween(shard_start, shard_stop);
        reg.add(mid.shards_completed);
        reg.add(mid.trials, counts.trials);
        reg.observe(mid.shard_micros, shard_us);
        run.ran(t.cell, 1, counts.trials, shard_us, shard_start,
                shard_stop);

        const CheckpointEntry entry{i, counts};
        std::lock_guard<std::mutex> lock(mutex);
        run.complete({&entry, 1});
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
    result.interrupted = interruptRequested();

    // Cell tallies are already merged: restored shards at resume
    // time, fresh shards from the per-worker accumulators after the
    // pool joined. Tasks skipped by an interrupt or a failed scheme
    // contributed nothing.
    {
        std::lock_guard<std::mutex> lock(mutex);
        run.finish(result);
    }

    // Workers flushed their metric shards when the pool joined; flush
    // the calling thread's (it was worker 0) and delta the baseline
    // so the result reports only this run's activity.
    reg.flushThisThread();
    result.metrics = reg.snapshot().since(metrics_baseline);
    return result;
}

} // namespace gpuecc::sim
