#include "sim/plan.hpp"

#include <algorithm>
#include <exception>
#include <set>

#include "common/codec_mode.hpp"
#include "common/interrupt.hpp"
#include "common/log.hpp"
#include "ecc/registry.hpp"
#include "obs/manifest.hpp"
#include "obs/trace.hpp"
#include "sim/chaos.hpp"

namespace gpuecc::sim {

namespace {

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

} // namespace

Result<CampaignPlan>
CampaignPlan::build(const std::string& family,
                    const std::vector<std::string>& scheme_ids,
                    const std::vector<ErrorPattern>& patterns,
                    std::uint64_t samples, std::uint64_t seed,
                    std::uint64_t chunk)
{
    CampaignPlan plan;
    plan.family_ = family;
    plan.patterns_ = patterns;
    plan.samples_ = samples;
    plan.seed_ = seed;
    plan.chunk_ = chunk;
    plan.codec_backend_ = codecBackendName();

    obs::MetricsRegistry& m = obs::metrics();
    plan.shard_retries_ = m.counter("campaign.shard_retries");
    plan.checkpoint_flushes_ = m.counter(family + ".checkpoint_flushes");
    plan.checkpoint_failures_ =
        m.counter(family + ".checkpoint_failures");
    plan.schemes_dropped_ = m.counter(family + ".schemes_dropped");

    // Resolve schemes and golden entries once; decode() is const and
    // thread-safe, so one instance serves every worker. A scheme that
    // fails to resolve is skipped and recorded, not fatal.
    for (const std::string& id : scheme_ids) {
        // Covers codec (table) construction and golden derivation.
        obs::TraceSpan span("codec:" + id, "codec");
        Result<std::shared_ptr<EntryScheme>> scheme = findScheme(id);
        if (!scheme.ok()) {
            warn(family + ": skipping scheme " + id + ": " +
                 scheme.status().toString());
            plan.skipped_.push_back({id, scheme.status().toString()});
            continue;
        }
        plan.schemes_.push_back(scheme.value());
        plan.goldens_.push_back(makeGolden(*plan.schemes_.back(), seed));
        plan.ids_.push_back(id);
    }
    if (plan.schemes_.empty())
        return Status::notFound(
            "no scheme in the spec could be constructed");

    // Every shard of every cell is one task. The same pattern plan
    // (and thus the same RNG streams and masks) is shared by every
    // scheme, which keeps scheme columns paired.
    {
        obs::TraceSpan span("plan", "campaign");
        for (std::size_t s = 0; s < plan.schemes_.size(); ++s) {
            for (std::size_t p = 0; p < patterns.size(); ++p) {
                for (const Shard& shard :
                     planShards(patterns[p], samples, chunk))
                    plan.tasks_.push_back({s * patterns.size() + p, shard});
            }
        }
    }
    // The effective chunk determines the task indexing, and unlike the
    // requested chunk it can differ between two invocations of the
    // same spec (thread or worker count), which the fingerprint must
    // catch rather than let a checkpoint mis-restore.
    plan.fingerprint_ = campaignFingerprint(
        plan.ids_, patterns, samples, seed, chunk, plan.codec_backend_,
        plan.tasks_.size());
    return plan;
}

std::vector<CampaignCell>
CampaignPlan::emptyCells() const
{
    std::vector<CampaignCell> cells;
    for (const std::string& id : ids_) {
        for (ErrorPattern p : patterns_)
            cells.push_back({id, p, OutcomeCounts{}});
    }
    return cells;
}

Status
CampaignPlan::checkEntry(const CheckpointEntry& entry,
                         const std::string& source) const
{
    if (entry.task >= tasks_.size()) {
        return Status::dataLoss(source + ": task index " +
                                std::to_string(entry.task) +
                                " is outside the plan");
    }
    // A sampled shard's trial count is exactly its sample span, and
    // exactness must match the pattern class.
    const Shard& shard = tasks_[entry.task].shard;
    const bool enumerable = patternIsEnumerable(shard.pattern);
    if (entry.counts.exhaustive != enumerable ||
        (!enumerable && entry.counts.trials != shard.end - shard.begin)) {
        return Status::dataLoss(source + ": task " +
                                std::to_string(entry.task) +
                                " tallies don't match its shard");
    }
    return {};
}

Result<std::vector<CheckpointEntry>>
CampaignPlan::resumeEntries(const std::string& path) const
{
    obs::TraceSpan span("resume-load", "campaign");
    Result<CampaignCheckpoint> loaded = loadCheckpoint(path);
    if (loaded.status().code() == ErrorCode::notFound) {
        inform(family_ + ": no checkpoint at " + path +
               "; starting fresh");
        return std::vector<CheckpointEntry>{};
    }
    if (!loaded.ok())
        return loaded.status();
    CampaignCheckpoint& ckpt = loaded.value();
    if (ckpt.fingerprint != fingerprint_) {
        return Status::failedPrecondition(
            "checkpoint " + path +
            " was written by a different campaign\n  theirs: " +
            ckpt.fingerprint + "\n  ours:   " + fingerprint_);
    }
    for (const CheckpointEntry& entry : ckpt.done) {
        if (Status s = checkEntry(entry, "checkpoint " + path); !s.ok())
            return s;
    }
    return std::move(ckpt.done);
}

Result<OutcomeCounts>
CampaignPlan::evaluate(std::uint64_t task, ShardBatchArena& arena) const
{
    const PlanTask& t = tasks_[task];
    const std::size_t s = schemeOf(t.cell);
    const auto attempt = [&] {
        chaosOnTaskAttempt(task);
        return evaluateShardBatched(*schemes_[s], goldens_[s], seed_,
                                    t.shard, arena);
    };
    // Transient faults (chaos, OOM churn) get one retry; a second
    // failure fails the cell, not the run.
    try {
        return attempt();
    } catch (const std::exception& first) {
        obs::metrics().add(shard_retries_);
        warn(family_ + ": shard task " + std::to_string(task) +
             " failed (" + first.what() + "); retrying once");
    }
    try {
        return attempt();
    } catch (const std::exception& second) {
        return Status::unavailable("shard task " + std::to_string(task) +
                                   " failed twice: " + second.what());
    }
}

Status
CampaignPlan::evaluateRange(std::uint64_t first, std::uint64_t count,
                            ShardBatchArena& arena,
                            std::vector<CheckpointEntry>& out) const
{
    out.reserve(out.size() + count);
    for (std::uint64_t i = first; i < first + count; ++i) {
        Result<OutcomeCounts> counts = evaluate(i, arena);
        if (!counts.ok())
            return counts.status();
        out.push_back({i, counts.value()});
    }
    return {};
}

PlanRun::PlanRun(const CampaignPlan& plan, const CampaignSpec& spec,
                 std::vector<std::pair<std::string, std::string>> manifest)
    : plan_(plan),
      checkpoint_path_(spec.checkpoint_path),
      checkpoint_interval_s_(std::max(0.0, spec.checkpoint_interval_s)),
      checkpointing_(!spec.checkpoint_path.empty()),
      manifest_(std::move(manifest)),
      restored_(plan.tasks().size(), 0),
      partial_(checkpointing_ ? plan.tasks().size() : 0),
      cell_failed_(plan.schemeIds().size() * plan.patterns().size()),
      clocks_(plan.schemeIds().size())
{
    if (checkpointing_) {
        const obs::BuildInfo build = obs::buildInfo();
        manifest_.insert(manifest_.end(),
                         {{"codec_backend", plan.codecBackend()},
                          {"build_type", build.build_type},
                          {"compiler", build.compiler},
                          {"platform", build.platform},
                          {"chaos", obs::chaosEnvText()}});
        // From here on SIGINT/SIGTERM mean "finish in-flight shards,
        // flush, exit" rather than dying mid-write.
        installInterruptHandlers();
    }
}

void
PlanRun::restore(const CheckpointEntry& entry)
{
    restored_[entry.task] = 1;
    completed_.push_back(entry.task);
    if (checkpointing_)
        partial_[entry.task] = entry.counts;
    shards_done_.fetch_add(1, std::memory_order_relaxed);
}

void
PlanRun::complete(std::span<const CheckpointEntry> entries)
{
    for (const CheckpointEntry& e : entries) {
        completed_.push_back(e.task);
        if (checkpointing_)
            partial_[e.task] = e.counts;
    }
    fresh_completed_ += entries.size();
    chaosOnTaskDone(fresh_completed_);
    if (!checkpointing_ || interruptRequested())
        return;
    const auto interval =
        std::chrono::duration<double>(checkpoint_interval_s_);
    if (Clock::now() - last_flush_ < interval)
        return;
    Status s = flushCheckpoint();
    // Rebase from *after* the write completed, so slow flushes can't
    // compress the next interval and the cadence stays uniform.
    last_flush_ = Clock::now();
    if (!s.ok() && !warned_checkpoint_failure_) {
        // Degrade gracefully: the run goes on, it just can't persist
        // progress right now.
        warn(plan_.family() + ": checkpoint write failed (" +
             s.toString() + "); continuing without");
        warned_checkpoint_failure_ = true;
    }
}

Status
PlanRun::flushCheckpoint()
{
    obs::TraceSpan span("checkpoint-flush", "checkpoint");
    CampaignCheckpoint ckpt;
    ckpt.fingerprint = plan_.fingerprint();
    ckpt.manifest = manifest_;
    std::vector<std::uint64_t> indices = completed_;
    std::sort(indices.begin(), indices.end());
    ckpt.done.reserve(indices.size());
    for (std::uint64_t i : indices)
        ckpt.done.push_back({i, partial_[i]});
    span.arg("tasks", indices.size());
    Status s = saveCheckpoint(checkpoint_path_, ckpt);
    obs::metrics().add(s.ok() ? plan_.checkpoint_flushes_
                              : plan_.checkpoint_failures_);
    return s;
}

void
PlanRun::begin(obs::ProgressMode mode)
{
    // The clocks and the progress denominator cover only the work
    // this run will actually evaluate (restored tasks excluded).
    obs::ProgressTotals totals;
    totals.schemes = clocks_.size();
    for (std::size_t i = 0; i < restored_.size(); ++i) {
        if (restored_[i] != 0)
            continue;
        clocks_[plan_.schemeOf(plan_.tasks()[i].cell)].pending.fetch_add(
            1, std::memory_order_relaxed);
        ++totals.shards;
    }
    progress_ = std::make_unique<obs::ProgressReporter>(mode, totals);
    for (const SchemeClock& clock : clocks_) {
        if (clock.pending.load(std::memory_order_relaxed) == 0)
            progress_->schemeDone(); // fully restored from checkpoint
    }
    // Rebase the flush timer too, so the first interval is a full one.
    start_ = Clock::now();
    last_flush_ = start_;
    trace_start_us_ = obs::traceNowUs();
}

void
PlanRun::failCell(std::size_t cell, std::string message)
{
    cell_failed_[cell].store(true, std::memory_order_relaxed);
    cell_errors_.emplace_back(cell, std::move(message));
}

void
PlanRun::settle(std::size_t cell, std::uint64_t tasks)
{
    shards_done_.fetch_add(tasks, std::memory_order_relaxed);
    SchemeClock& clock = clocks_[plan_.schemeOf(cell)];
    if (clock.pending.fetch_sub(tasks, std::memory_order_relaxed) ==
        tasks)
        progress_->schemeDone();
}

void
PlanRun::ran(std::size_t cell, std::uint64_t tasks, std::uint64_t trials,
             std::uint64_t busy_us, Clock::time_point from,
             Clock::time_point to)
{
    // Relaxed atomics only: nothing here can reorder work or touch
    // the tallies.
    SchemeClock& clock = clocks_[plan_.schemeOf(cell)];
    clock.busy_us.fetch_add(busy_us, std::memory_order_relaxed);
    clock.trials.fetch_add(trials, std::memory_order_relaxed);
    clock.shards.fetch_add(tasks, std::memory_order_relaxed);
    atomicMin(clock.first_us, microsBetween(start_, from));
    atomicMax(clock.last_us, microsBetween(start_, to));
    trials_done_.fetch_add(trials, std::memory_order_relaxed);
    progress_->shardDone(trials, tasks);
    settle(cell, tasks);
}

void
PlanRun::skipped(std::size_t cell, std::uint64_t tasks)
{
    progress_->shardsSkipped(tasks);
    settle(cell, tasks);
}

void
PlanRun::finish(CampaignResult& result)
{
    if (progress_)
        progress_->stop();

    // Per-scheme timings, plus one synthetic aggregate span per scheme
    // on its own trace track (executors interleave schemes, so
    // per-shard or per-unit spans alone don't show scheme overlap).
    const std::vector<std::string>& ids = plan_.schemeIds();
    for (std::size_t s = 0; s < ids.size(); ++s) {
        const SchemeClock& clock = clocks_[s];
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
            timing.wall_seconds = static_cast<double>(last - first) * 1e-6;
        result.scheme_timings.push_back(timing);
        if (ran && obs::traceEnabled()) {
            const int tid = 1000 + static_cast<int>(s);
            obs::setTrackName(tid, "scheme " + ids[s]);
            obs::emitSpan(
                ids[s], "scheme", trace_start_us_ + first, last - first,
                "\"shards\":" + std::to_string(timing.shards) +
                    ",\"trials\":" + std::to_string(timing.trials),
                tid);
        }
    }

    // Always flush a final checkpoint: complete on success (so a later
    // --resume is a no-op), partial on interrupt (so --resume loses
    // nothing but the tasks in flight).
    const std::string& family = plan_.family();
    if (checkpointing_) {
        if (Status s = flushCheckpoint(); !s.ok()) {
            warn(family + ": final checkpoint write failed: " +
                 s.toString());
        } else if (result.interrupted) {
            inform(family + ": interrupted; " +
                   std::to_string(completed_.size()) + " of " +
                   std::to_string(plan_.tasks().size()) +
                   " shard tasks checkpointed to " + checkpoint_path_);
        }
    }

    if (cell_errors_.empty())
        return;
    std::set<std::string> failed;
    for (const auto& [cell, message] : cell_errors_) {
        const CampaignCell& c = result.cells[cell];
        if (failed.insert(c.scheme_id).second) {
            warn(family + ": dropping scheme " + c.scheme_id + ": " +
                 message);
            obs::metrics().add(plan_.schemes_dropped_);
            result.errors.push_back(
                {c.scheme_id, "unavailable: pattern " +
                                  patternInfo(c.pattern).label + ": " +
                                  message});
        }
    }
    std::erase_if(result.cells, [&](const CampaignCell& c) {
        return failed.count(c.scheme_id) != 0;
    });
}

} // namespace gpuecc::sim
