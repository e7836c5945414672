#include "fleet/dispatch.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <set>

#include "common/codec_mode.hpp"
#include "common/interrupt.hpp"
#include "common/log.hpp"
#include "common/mpmc_queue.hpp"
#include "ecc/registry.hpp"
#include "faultsim/shard.hpp"
#include "obs/trace.hpp"
#include "sim/chaos.hpp"
#include "sim/checkpoint.hpp"

namespace gpuecc::sim::fleet {

namespace {

/** One plan entry: a shard of one (scheme, pattern) cell. */
struct Task
{
    std::size_t cell;
    Shard shard;
};

/** Ids of the fleet.* metrics, registered once per process. */
struct FleetMetricIds
{
    obs::MetricId units_completed;
    obs::MetricId units_requeued;
    obs::MetricId units_poisoned;
    obs::MetricId duplicate_results;
    obs::MetricId workers_lost;
    obs::MetricId worker_timeouts;
    obs::MetricId heartbeat_expiries;
    obs::MetricId agents_connected;
    obs::MetricId auth_failures;
    obs::MetricId shards_completed;
    obs::MetricId trials;
    obs::MetricId checkpoint_flushes;
    obs::MetricId checkpoint_failures;
    obs::MetricId schemes_dropped;
    /** High-water queue depth (gauges merge by maximum). */
    obs::MetricId queue_depth;
};

const FleetMetricIds&
fleetMetricIds()
{
    // Register before the liaison threads exist — the same
    // register-before-spawn contract the campaign metrics follow.
    static const FleetMetricIds ids = [] {
        obs::MetricsRegistry& m = obs::metrics();
        FleetMetricIds out;
        out.units_completed = m.counter("fleet.units_completed");
        out.units_requeued = m.counter("fleet.units_requeued");
        out.units_poisoned = m.counter("fleet.units_poisoned");
        out.duplicate_results = m.counter("fleet.duplicate_results");
        out.workers_lost = m.counter("fleet.workers_lost");
        out.worker_timeouts = m.counter("fleet.worker_timeouts");
        out.heartbeat_expiries = m.counter("fleet.heartbeat_expiries");
        out.agents_connected = m.counter("fleet.agents_connected");
        out.auth_failures = m.counter("fleet.auth_failures");
        out.shards_completed = m.counter("fleet.shards_completed");
        out.trials = m.counter("fleet.trials");
        out.checkpoint_flushes = m.counter("fleet.checkpoint_flushes");
        out.checkpoint_failures =
            m.counter("fleet.checkpoint_failures");
        out.schemes_dropped = m.counter("fleet.schemes_dropped");
        out.queue_depth = m.gauge("fleet.queue_depth");
        return out;
    }();
    return ids;
}

/** Per-scheme aggregates; guarded by the dispatcher's state mutex. */
struct SchemeAgg
{
    std::uint64_t busy_us = 0;
    std::uint64_t trials = 0;
    std::uint64_t shards = 0;
    std::uint64_t first_us = ~std::uint64_t{0};
    std::uint64_t last_us = 0;
    std::uint64_t pending_units = 0;
};

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

struct FleetDispatch::Impl
{
    CampaignSpec spec;
    CampaignResult result;
    std::vector<std::string> ids;
    std::vector<std::shared_ptr<EntryScheme>> schemes;
    std::vector<GoldenEntry> goldens;
    std::vector<ErrorPattern> patterns;
    std::vector<Task> tasks;
    std::uint64_t effective_chunk = 0;
    bool checkpointing = false;
    int max_attempts = 3;

    std::unique_ptr<MpmcQueue<std::uint64_t>> queue;
    std::atomic<std::uint64_t> remaining{0};

    std::mutex state_mutex; // everything below, unless noted
    std::vector<char> unit_settled;
    std::vector<char> task_done;
    std::vector<int> unit_attempts; // failed dispatches per unit
    std::vector<OutcomeCounts> partial;
    std::vector<std::uint64_t> completed_log;
    std::uint64_t fresh_completed = 0;
    std::chrono::steady_clock::time_point last_flush;
    bool warned_checkpoint_failure = false;
    std::vector<SchemeAgg> scheme_aggs;
    std::vector<std::pair<std::size_t, std::string>> cell_errors;
    std::vector<std::pair<std::string, std::string>> ckpt_manifest;
    std::uint64_t fallback_shards = 0; // finishInProcess only

    /** Lock-free flags so tryClaim can peek without the mutex. */
    std::unique_ptr<std::atomic<bool>[]> cell_failed;

    /** Transport telemetry (atomic: any liaison thread bumps them). */
    std::atomic<std::uint64_t> requeues{0};
    std::atomic<std::uint64_t> poisoned{0};
    std::atomic<std::uint64_t> duplicates{0};
    std::atomic<std::uint64_t> workers_lost{0};
    std::atomic<std::uint64_t> worker_timeouts{0};
    std::atomic<std::uint64_t> heartbeat_expiries{0};
    std::atomic<std::uint64_t> agents_connected{0};
    std::atomic<std::uint64_t> auth_failures{0};

    /** Live progress for status() (atomic: sampled by HTTP thread). */
    std::atomic<std::uint64_t> shards_done{0};
    std::atomic<std::uint64_t> trials_done{0};
    std::atomic<std::uint64_t> units_settled_live{0};

    /**
     * One slot per host *connection* (a reconnecting agent gets a new
     * slot; finalize merges slots by label). Guarded by state_mutex.
     */
    struct HostSlot
    {
        int worker = -1;
        std::string label;
        bool remote = false;
        std::uint64_t units = 0;
        std::uint64_t shards = 0;
        std::uint64_t trials = 0;
        std::uint64_t busy_us = 0;
        /** Shipped counter deltas, accumulated by name. */
        std::vector<std::pair<std::string, std::uint64_t>> counters;
        /** Shipped spans, timestamps in the host's config clock. */
        std::vector<SpanRecord> spans;
        std::chrono::steady_clock::time_point config_sent_at;
        std::uint64_t config_sent_trace_us = 0;
        /**
         * Best (minimum) observed "server µs since config send minus
         * host µs since config receipt" — converges on the one-way
         * config delivery latency, the wall-clock correction remote
         * span timestamps need.
         */
        bool has_offset = false;
        std::int64_t min_offset_us = 0;
    };
    std::vector<HostSlot> hosts; // state_mutex

    /** The --journal event stream (null when not journaling). */
    std::unique_ptr<obs::EventJournal> journal;

    obs::MetricsSnapshot metrics_baseline;
    obs::ProgressTotals totals;
    std::unique_ptr<obs::ProgressReporter> progress;
    std::unique_ptr<obs::TraceSpan> campaign_span;
    std::unique_ptr<obs::TraceSpan> evaluate_span;
    std::chrono::steady_clock::time_point start_at;
    std::uint64_t trace_eval_start_us = 0;
    double cpu_start = 0.0;
    bool started = false;

    /** Serialize completed tallies; call with state_mutex held. */
    Status flushCheckpoint()
    {
        obs::TraceSpan span("checkpoint-flush", "checkpoint");
        CampaignCheckpoint ckpt;
        ckpt.fingerprint = fingerprint;
        ckpt.manifest = ckpt_manifest;
        std::vector<std::uint64_t> indices = completed_log;
        std::sort(indices.begin(), indices.end());
        ckpt.done.reserve(indices.size());
        for (std::uint64_t i : indices)
            ckpt.done.push_back({i, partial[i]});
        span.arg("tasks", indices.size());
        Status s = saveCheckpoint(spec.checkpoint_path, ckpt);
        const FleetMetricIds& mid = fleetMetricIds();
        obs::metrics().add(s.ok() ? mid.checkpoint_flushes
                                  : mid.checkpoint_failures);
        return s;
    }

    /** Periodic flush after fresh completions; state_mutex held. */
    void maybeFlush()
    {
        if (!checkpointing || interruptRequested())
            return;
        const auto interval = std::chrono::duration<double>(
            std::max(0.0, spec.checkpoint_interval_s));
        const auto now = std::chrono::steady_clock::now();
        if (now - last_flush < interval)
            return;
        Status s = flushCheckpoint();
        last_flush = std::chrono::steady_clock::now();
        if (!s.ok() && !warned_checkpoint_failure) {
            warn("fleet: checkpoint write failed (" + s.toString() +
                 "); continuing without");
            warned_checkpoint_failure = true;
        }
    }

    /**
     * Settle one unit's scheme accounting; state_mutex held. Every
     * settlement path (complete, fail, skip, poison) funnels here so
     * remaining and the per-scheme pending counts stay consistent.
     */
    void settleLocked(std::uint64_t u)
    {
        unit_settled[u] = 1;
        SchemeAgg& agg =
            scheme_aggs[units[u].cell / patterns.size()];
        if (--agg.pending_units == 0 && progress)
            progress->schemeDone();
        units_settled_live.fetch_add(1, std::memory_order_relaxed);
        remaining.fetch_sub(1, std::memory_order_acq_rel);
    }

    /**
     * Account a unit retired through a failure path — no trials ran,
     * but its shards are disposed of. Without this the progress line
     * and /status freeze short of 100% whenever a cell fails or a
     * poison unit retires. State_mutex held.
     */
    void skipShardsLocked(std::uint64_t u)
    {
        const std::uint64_t n = units[u].task_count;
        if (progress)
            progress->shardsSkipped(n);
        shards_done.fetch_add(n, std::memory_order_relaxed);
    }

    /**
     * Fail a unit's cell with a message; state_mutex held. The unit
     * must not be settled yet.
     */
    void failCellLocked(std::uint64_t u, const std::string& message)
    {
        cell_failed[units[u].cell].store(true,
                                         std::memory_order_relaxed);
        cell_errors.emplace_back(units[u].cell, message);
        skipShardsLocked(u);
        settleLocked(u);
    }

    /** Append to the journal if one is open (any thread, any locks). */
    void journalAppend(const std::string& event,
                       const obs::EventJournal::Fields& fields = {},
                       const obs::EventJournal::Nums& nums = {})
    {
        if (journal)
            journal->append(event, fields, nums);
    }

    /** Latest slot registered for @p worker; state_mutex held. */
    HostSlot* slotForLocked(int worker)
    {
        for (auto it = hosts.rbegin(); it != hosts.rend(); ++it)
            if (it->worker == worker)
                return &*it;
        return nullptr;
    }

    /** Host label for journal events; state_mutex held. */
    std::string hostLabelLocked(int worker)
    {
        const HostSlot* slot = slotForLocked(worker);
        if (slot != nullptr)
            return slot->label;
        return "worker-" + std::to_string(worker);
    }

    /** Fold one now_us report into the offset; state_mutex held. */
    void clockSampleLocked(HostSlot& slot, std::uint64_t now_us)
    {
        if (now_us == 0)
            return;
        const std::int64_t elapsed = static_cast<std::int64_t>(
            microsSince(slot.config_sent_at,
                        std::chrono::steady_clock::now()));
        const std::int64_t offset =
            elapsed - static_cast<std::int64_t>(now_us);
        if (!slot.has_offset || offset < slot.min_offset_us) {
            slot.has_offset = true;
            slot.min_offset_us = offset;
        }
    }

    // Plan facts duplicated from the owner for internal use.
    std::string fingerprint;
    std::vector<WorkUnit> units;
};

FleetDispatch::~FleetDispatch() = default;

Result<std::unique_ptr<FleetDispatch>>
FleetDispatch::create(const CampaignSpec& spec)
{
    auto impl = std::make_unique<Impl>();
    impl->spec = spec;
    impl->max_attempts = std::max(1, spec.fleet_max_unit_attempts);

    if (!spec.journal_path.empty()) {
        auto journal = obs::EventJournal::open(spec.journal_path);
        if (!journal.ok())
            return journal.status();
        impl->journal = std::move(journal).value();
    }

    const FleetMetricIds& mid = fleetMetricIds();
    (void)mid;
    obs::MetricsRegistry& reg = obs::metrics();
    reg.flushThisThread();
    impl->metrics_baseline = reg.snapshot();
    impl->campaign_span = std::make_unique<obs::TraceSpan>(
        "fleet-campaign", "campaign");

    CampaignResult& result = impl->result;
    result.spec = spec;
    // Evaluation happens in single-threaded worker processes or
    // remote agents; the parent runs no pool. Resolve threads to the
    // truthful value so reports don't claim pool parallelism that
    // never existed.
    result.spec.threads = 1;
    result.codec_backend = codecBackendName();

    impl->patterns = spec.resolvedPatterns();

    // Resolve schemes in the parent: validates ids before any fork,
    // and provides the evaluation path for the all-hosts-lost
    // fallback. A scheme that fails to resolve is skipped, recorded.
    for (const std::string& id : spec.scheme_ids) {
        obs::TraceSpan span("codec:" + id, "codec");
        Result<std::shared_ptr<EntryScheme>> scheme = findScheme(id);
        if (!scheme.ok()) {
            warn("fleet: skipping scheme " + id + ": " +
                 scheme.status().toString());
            result.errors.push_back({id, scheme.status().toString()});
            continue;
        }
        impl->schemes.push_back(scheme.value());
        impl->goldens.push_back(
            makeGolden(*impl->schemes.back(), spec.seed));
        impl->ids.push_back(id);
    }
    if (impl->schemes.empty()) {
        return Status::notFound(
            "no scheme in the spec could be constructed");
    }
    for (const std::string& id : impl->ids) {
        for (ErrorPattern p : impl->patterns)
            result.cells.push_back({id, p, OutcomeCounts{}});
    }

    // Size shards so every host can hold whole units. The pipe
    // transport knows its exact worker count; the socket service
    // cannot know how many agents will ever join, so it plans for a
    // reasonable floor — the two modes therefore fingerprint
    // differently (documented; tallies are chunk-invariant, so the
    // CSV is identical either way).
    const bool service = !spec.fleet_listen.empty();
    const std::uint64_t width =
        service ? std::max<std::uint64_t>(
                      static_cast<std::uint64_t>(spec.fleet_workers), 8)
                : static_cast<std::uint64_t>(spec.fleet_workers);
    const std::uint64_t slots = std::min<std::uint64_t>(
        width * spec.fleet_unit_shards, std::uint64_t{1} << 20);
    impl->effective_chunk = effectiveShardChunk(
        spec.samples, spec.chunk, static_cast<int>(slots));

    {
        obs::TraceSpan span("plan", "campaign");
        for (std::size_t s = 0; s < impl->schemes.size(); ++s) {
            for (std::size_t p = 0; p < impl->patterns.size(); ++p) {
                const std::size_t cell =
                    s * impl->patterns.size() + p;
                for (const Shard& shard :
                     planShards(impl->patterns[p], spec.samples,
                                impl->effective_chunk))
                    impl->tasks.push_back({cell, shard});
            }
        }
    }
    result.shards = impl->tasks.size();

    // The fingerprint is always needed in fleet mode — it is the
    // config line's plan-identity proof, checkpointing or not.
    impl->fingerprint = campaignFingerprint(
        impl->ids, impl->patterns, spec.samples, spec.seed,
        impl->effective_chunk, result.codec_backend,
        impl->tasks.size());
    impl->checkpointing = !spec.checkpoint_path.empty();
    if (impl->checkpointing)
        installInterruptHandlers();

    // Work units: contiguous task runs that never straddle a cell
    // boundary, so one unit failing persistently fails exactly one
    // (scheme, pattern) cell.
    for (std::uint64_t i = 0; i < impl->tasks.size();) {
        WorkUnit u;
        u.unit = impl->units.size();
        u.cell = impl->tasks[i].cell;
        u.first_task = i;
        while (i < impl->tasks.size() &&
               impl->tasks[i].cell == u.cell &&
               u.task_count < spec.fleet_unit_shards) {
            ++i;
            ++u.task_count;
        }
        impl->units.push_back(u);
    }

    impl->partial.resize(impl->checkpointing ? impl->tasks.size() : 0);
    impl->task_done.assign(impl->tasks.size(), 0);
    impl->unit_settled.assign(impl->units.size(), 0);
    impl->unit_attempts.assign(impl->units.size(), 0);
    impl->last_flush = std::chrono::steady_clock::now();

    // Resume at unit granularity: a unit all of whose tasks are in
    // the checkpoint is settled (merged, never dispatched); a
    // partially covered unit — possible when resuming a checkpoint an
    // in-process run wrote — is re-dispatched whole, dropping the
    // partial entries (re-evaluation is bit-identical by design).
    if (impl->checkpointing && spec.resume) {
        obs::TraceSpan span("resume-load", "campaign");
        Result<CampaignCheckpoint> loaded =
            loadCheckpoint(spec.checkpoint_path);
        if (loaded.status().code() == ErrorCode::notFound) {
            inform("fleet: no checkpoint at " + spec.checkpoint_path +
                   "; starting fresh");
        } else if (!loaded.ok()) {
            return loaded.status();
        } else {
            const CampaignCheckpoint& ckpt = loaded.value();
            if (ckpt.fingerprint != impl->fingerprint) {
                return Status::failedPrecondition(
                    "checkpoint " + spec.checkpoint_path +
                    " was written by a different campaign\n  theirs: " +
                    ckpt.fingerprint +
                    "\n  ours:   " + impl->fingerprint);
            }
            std::vector<OutcomeCounts> restored(impl->tasks.size());
            std::vector<char> has(impl->tasks.size(), 0);
            for (const CheckpointEntry& entry : ckpt.done) {
                if (entry.task >= impl->tasks.size()) {
                    return Status::dataLoss(
                        "checkpoint " + spec.checkpoint_path +
                        ": task index " + std::to_string(entry.task) +
                        " is outside the plan");
                }
                const Shard& shard = impl->tasks[entry.task].shard;
                const bool enumerable =
                    patternIsEnumerable(shard.pattern);
                if (entry.counts.exhaustive != enumerable ||
                    (!enumerable && entry.counts.trials !=
                                        shard.end - shard.begin)) {
                    return Status::dataLoss(
                        "checkpoint " + spec.checkpoint_path +
                        ": task " + std::to_string(entry.task) +
                        " tallies don't match its shard");
                }
                restored[entry.task] = entry.counts;
                has[entry.task] = 1;
            }
            std::uint64_t dropped = 0;
            for (const WorkUnit& u : impl->units) {
                bool whole = true;
                for (std::uint64_t i = u.first_task;
                     i < u.first_task + u.task_count; ++i)
                    whole = whole && has[i] != 0;
                if (!whole) {
                    for (std::uint64_t i = u.first_task;
                         i < u.first_task + u.task_count; ++i)
                        dropped += has[i] != 0;
                    continue;
                }
                impl->unit_settled[u.unit] = 1;
                for (std::uint64_t i = u.first_task;
                     i < u.first_task + u.task_count; ++i) {
                    impl->task_done[i] = 1;
                    if (impl->checkpointing)
                        impl->partial[i] = restored[i];
                    impl->completed_log.push_back(i);
                    result.cells[impl->tasks[i].cell].counts.merge(
                        restored[i]);
                    ++result.resumed_shards;
                }
            }
            inform("fleet: resumed " +
                   std::to_string(result.resumed_shards) + " of " +
                   std::to_string(impl->tasks.size()) +
                   " shard tasks from " + spec.checkpoint_path);
            if (dropped > 0) {
                inform("fleet: re-evaluating " +
                       std::to_string(dropped) +
                       " checkpointed tasks from partially covered "
                       "work units");
            }
        }
    }

    // Queue every pending unit. Capacity covers the whole plan, so a
    // re-queue after a host death can never fail for space.
    impl->queue = std::make_unique<MpmcQueue<std::uint64_t>>(
        std::max<std::size_t>(impl->units.size(), 1));
    std::uint64_t pending_units = 0;
    for (const WorkUnit& u : impl->units) {
        if (impl->unit_settled[u.unit] != 0)
            continue;
        require(impl->queue->tryPush(u.unit),
                "fleet: queue sized too small");
        ++pending_units;
    }
    impl->remaining.store(pending_units, std::memory_order_release);

    impl->scheme_aggs.assign(impl->schemes.size(), SchemeAgg{});
    impl->totals.schemes = impl->schemes.size();
    for (const WorkUnit& u : impl->units) {
        if (impl->unit_settled[u.unit] != 0)
            continue;
        impl->scheme_aggs[u.cell / impl->patterns.size()]
            .pending_units += 1;
        impl->totals.shards += u.task_count;
    }

    impl->cell_failed.reset(
        new std::atomic<bool>[result.cells.size()]);
    for (std::size_t i = 0; i < result.cells.size(); ++i)
        impl->cell_failed[i].store(false, std::memory_order_relaxed);

    if (impl->checkpointing) {
        const obs::BuildInfo build = obs::buildInfo();
        impl->ckpt_manifest = {
            {"threads", std::to_string(result.spec.threads)},
            {"fleet_workers", std::to_string(spec.fleet_workers)},
            {"codec_backend", result.codec_backend},
            {"build_type", build.build_type},
            {"compiler", build.compiler},
            {"platform", build.platform},
            {"chaos", obs::chaosEnvText()},
        };
    }

    impl->shards_done.store(result.resumed_shards,
                            std::memory_order_relaxed);

    auto out = std::unique_ptr<FleetDispatch>(new FleetDispatch());
    out->fingerprint_ = impl->fingerprint;
    out->units_ = impl->units;
    out->initial_pending_ = pending_units;
    out->impl_ = std::move(impl);
    return out;
}

FleetConfig
FleetDispatch::configFor(int worker) const
{
    FleetConfig config;
    config.worker = worker;
    config.scheme_ids = impl_->ids;
    config.patterns = impl_->patterns;
    config.samples = impl_->spec.samples;
    config.seed = impl_->spec.seed;
    config.chunk = impl_->effective_chunk;
    config.fingerprint = impl_->fingerprint;
    config.codec_backend = impl_->result.codec_backend;
    return config;
}

const CampaignSpec&
FleetDispatch::spec() const
{
    return impl_->spec;
}

std::string
FleetDispatch::unitLabel(std::uint64_t u) const
{
    const WorkUnit& unit = impl_->units[u];
    const CampaignCell& cell = impl_->result.cells[unit.cell];
    return cell.scheme_id + "/" + patternInfo(cell.pattern).label;
}

void
FleetDispatch::start()
{
    Impl& d = *impl_;
    require(!d.started, "fleet: dispatch started twice");
    d.started = true;
    d.cpu_start =
        obs::processCpuSeconds() + obs::processChildrenCpuSeconds();
    d.start_at = std::chrono::steady_clock::now();
    d.trace_eval_start_us = obs::traceNowUs();
    d.evaluate_span =
        std::make_unique<obs::TraceSpan>("evaluate-fleet", "campaign");
    d.progress = std::make_unique<obs::ProgressReporter>(
        d.spec.progress, d.totals);
    d.journalAppend(
        "start", {},
        {{"units", units_.size()},
         {"pending", initial_pending_},
         {"resumed", units_.size() - initial_pending_},
         {"shards", d.tasks.size()}});
    std::lock_guard<std::mutex> lock(d.state_mutex);
    for (const SchemeAgg& agg : d.scheme_aggs) {
        if (agg.pending_units == 0)
            d.progress->schemeDone(); // fully restored
    }
}

bool
FleetDispatch::allSettled() const
{
    return impl_->remaining.load(std::memory_order_acquire) == 0;
}

bool
FleetDispatch::tryClaim(std::uint64_t& u)
{
    Impl& d = *impl_;
    std::uint64_t candidate = 0;
    while (d.queue->tryPop(candidate)) {
        obs::metrics().setGauge(
            fleetMetricIds().queue_depth,
            static_cast<std::int64_t>(d.queue->sizeApprox()));
        const WorkUnit& unit = d.units[candidate];
        if (d.cell_failed[unit.cell].load(std::memory_order_relaxed)) {
            // Its cell already failed: settle it silently (progress
            // moves on; the checkpoint just never lists its tasks).
            std::lock_guard<std::mutex> lock(d.state_mutex);
            if (d.unit_settled[candidate] == 0) {
                d.skipShardsLocked(candidate);
                d.settleLocked(candidate);
                d.journalAppend("skip", {}, {{"unit", candidate}});
            }
            continue;
        }
        {
            std::lock_guard<std::mutex> lock(d.state_mutex);
            if (d.unit_settled[candidate] != 0)
                continue; // a late result beat the requeue to it
        }
        u = candidate;
        return true;
    }
    return false;
}

Status
FleetDispatch::validateResult(std::uint64_t u,
                              const WorkerMessage& msg) const
{
    const Impl& d = *impl_;
    const WorkUnit& unit = d.units[u];
    if (msg.unit != unit.unit ||
        msg.checkpoint.fingerprint != d.fingerprint ||
        msg.checkpoint.done.size() != unit.task_count) {
        return Status::dataLoss(
            "worker result doesn't match the dispatched unit");
    }
    for (const CheckpointEntry& e : msg.checkpoint.done) {
        if (e.task < unit.first_task ||
            e.task >= unit.first_task + unit.task_count) {
            return Status::dataLoss(
                "worker result entry outside its unit");
        }
        const Shard& shard = d.tasks[e.task].shard;
        const bool enumerable = patternIsEnumerable(shard.pattern);
        if (e.counts.exhaustive != enumerable ||
            (!enumerable &&
             e.counts.trials != shard.end - shard.begin)) {
            return Status::dataLoss(
                "worker " + std::to_string(msg.worker) + " unit " +
                std::to_string(u) + ": task " +
                std::to_string(e.task) +
                " tallies don't match its shard");
        }
    }
    return {};
}

bool
FleetDispatch::completeUnit(std::uint64_t u, const WorkerMessage& msg,
                            Clock::time_point dispatch_at,
                            Clock::time_point done_at)
{
    Impl& d = *impl_;
    const FleetMetricIds& mid = fleetMetricIds();
    obs::MetricsRegistry& reg = obs::metrics();
    const WorkUnit& unit = d.units[u];

    std::lock_guard<std::mutex> lock(d.state_mutex);
    if (d.unit_settled[u] != 0) {
        // Idempotent delivery: a host presumed dead (or a duplicated
        // wire line) re-delivered a settled unit — discard, count.
        d.duplicates.fetch_add(1, std::memory_order_relaxed);
        reg.add(mid.duplicate_results);
        d.journalAppend("duplicate", {}, {{"unit", u}});
        return false;
    }

    std::uint64_t unit_trials = 0;
    for (const CheckpointEntry& e : msg.checkpoint.done) {
        d.result.cells[d.tasks[e.task].cell].counts.merge(e.counts);
        d.task_done[e.task] = 1;
        if (d.checkpointing)
            d.partial[e.task] = e.counts;
        unit_trials += e.counts.trials;
        d.progress->shardDone(e.counts.trials);
        d.completed_log.push_back(e.task);
    }
    reg.add(mid.units_completed);
    reg.add(mid.shards_completed, unit.task_count);
    reg.add(mid.trials, unit_trials);

    SchemeAgg& agg = d.scheme_aggs[unit.cell / d.patterns.size()];
    agg.busy_us += msg.busy_us;
    agg.trials += unit_trials;
    agg.shards += unit.task_count;
    agg.first_us = std::min(agg.first_us,
                            microsSince(d.start_at, dispatch_at));
    agg.last_us =
        std::max(agg.last_us, microsSince(d.start_at, done_at));

    // Host credit rides the same settled-exactly-once gate as the
    // tallies, so a duplicated delivery can never double-count a
    // host's unit/shard/trial series.
    d.shards_done.fetch_add(unit.task_count,
                            std::memory_order_relaxed);
    d.trials_done.fetch_add(unit_trials, std::memory_order_relaxed);
    if (Impl::HostSlot* slot = d.slotForLocked(msg.worker)) {
        slot->units += 1;
        slot->shards += unit.task_count;
        slot->trials += unit_trials;
        slot->busy_us += msg.busy_us;
    }
    d.journalAppend("result", {{"host", d.hostLabelLocked(msg.worker)}},
                    {{"unit", u},
                     {"shards", unit.task_count},
                     {"trials", unit_trials},
                     {"busy_us", msg.busy_us}});

    d.settleLocked(u);
    d.fresh_completed += unit.task_count;
    chaosOnTaskDone(d.fresh_completed);
    d.maybeFlush();
    return true;
}

void
FleetDispatch::failUnit(std::uint64_t u, const std::string& message)
{
    Impl& d = *impl_;
    std::lock_guard<std::mutex> lock(d.state_mutex);
    if (d.unit_settled[u] != 0)
        return;
    d.journalAppend("unit_error", {{"error", message.substr(0, 200)}},
                    {{"unit", u}});
    d.failCellLocked(u, message);
}

RequeueOutcome
FleetDispatch::requeueUnit(std::uint64_t u, const std::string& why)
{
    Impl& d = *impl_;
    const FleetMetricIds& mid = fleetMetricIds();
    std::lock_guard<std::mutex> lock(d.state_mutex);
    if (d.unit_settled[u] != 0)
        return RequeueOutcome::settled;
    const int attempts = ++d.unit_attempts[u];
    if (attempts >= d.max_attempts) {
        // Poison: the unit took down max_attempts hosts in a row.
        // Retire it (failing its cell) instead of feeding it the rest
        // of the fleet.
        const WorkUnit& unit = d.units[u];
        const std::string message =
            "work unit " + std::to_string(u) + " (" + unitLabel(u) +
            ", tasks [" + std::to_string(unit.first_task) + ", " +
            std::to_string(unit.first_task + unit.task_count) +
            ")) poisoned after " + std::to_string(attempts) +
            " failed dispatch attempts; last: " + why;
        warn("fleet: " + message);
        d.poisoned.fetch_add(1, std::memory_order_relaxed);
        obs::metrics().add(mid.units_poisoned);
        d.journalAppend(
            "poison", {},
            {{"unit", u},
             {"attempts", static_cast<std::uint64_t>(attempts)}});
        d.failCellLocked(u, message);
        return RequeueOutcome::poisoned;
    }
    require(d.queue->tryPush(u),
            "fleet: re-queue cannot fail by construction");
    d.requeues.fetch_add(1, std::memory_order_relaxed);
    obs::metrics().add(mid.units_requeued);
    d.journalAppend(
        "requeue", {},
        {{"unit", u},
         {"attempts", static_cast<std::uint64_t>(attempts)}});
    return RequeueOutcome::requeued;
}

void
FleetDispatch::finishInProcess()
{
    Impl& d = *impl_;
    if (interruptRequested() || allSettled())
        return;
    warn("fleet: no hosts left with " +
         std::to_string(d.remaining.load(std::memory_order_acquire)) +
         " units pending; finishing in-process");
    registerHost(-1, "parent", false);
    d.journalAppend(
        "fallback", {},
        {{"remaining",
          d.remaining.load(std::memory_order_acquire)}});
    ShardBatchArena arena;
    std::uint64_t u = 0;
    while (!interruptRequested() && tryClaim(u)) {
        const WorkUnit& unit = d.units[u];
        const auto dispatch_at = std::chrono::steady_clock::now();
        std::uint64_t unit_trials = 0;
        std::string failure;
        WorkerMessage msg;
        msg.unit = unit.unit;
        msg.worker = -1;
        msg.checkpoint.fingerprint = d.fingerprint;
        msg.checkpoint.done.reserve(unit.task_count);
        for (std::uint64_t i = unit.first_task;
             i < unit.first_task + unit.task_count; ++i) {
            const Task& t = d.tasks[i];
            const std::size_t scheme = t.cell / d.patterns.size();
            OutcomeCounts counts;
            try {
                chaosOnTaskAttempt(i);
                counts = evaluateShardBatched(
                    *d.schemes[scheme], d.goldens[scheme], d.spec.seed,
                    t.shard, arena);
            } catch (const std::exception& first) {
                // Same contract as the in-process runner: one retry,
                // then the *cell* fails, not the campaign.
                try {
                    chaosOnTaskAttempt(i);
                    counts = evaluateShardBatched(
                        *d.schemes[scheme], d.goldens[scheme],
                        d.spec.seed, t.shard, arena);
                } catch (const std::exception& second) {
                    failure =
                        std::string("shard task failed twice: ") +
                        second.what();
                    break;
                }
            }
            msg.checkpoint.done.push_back({i, counts});
            unit_trials += counts.trials;
        }
        const auto done_at = std::chrono::steady_clock::now();
        msg.busy_us = microsSince(dispatch_at, done_at);
        if (!failure.empty()) {
            failUnit(u, failure);
            continue;
        }
        if (completeUnit(u, msg, dispatch_at, done_at)) {
            std::lock_guard<std::mutex> lock(d.state_mutex);
            d.fallback_shards += unit.task_count;
        }
    }
}

void
FleetDispatch::noteWorkerLost()
{
    impl_->workers_lost.fetch_add(1, std::memory_order_relaxed);
    obs::metrics().add(fleetMetricIds().workers_lost);
    impl_->journalAppend("host_lost");
}

void
FleetDispatch::noteWorkerTimeout()
{
    impl_->worker_timeouts.fetch_add(1, std::memory_order_relaxed);
    obs::metrics().add(fleetMetricIds().worker_timeouts);
    impl_->journalAppend("timeout");
}

void
FleetDispatch::noteHeartbeatExpiry()
{
    impl_->heartbeat_expiries.fetch_add(1, std::memory_order_relaxed);
    obs::metrics().add(fleetMetricIds().heartbeat_expiries);
    impl_->journalAppend("expiry");
}

void
FleetDispatch::noteAgentConnected()
{
    impl_->agents_connected.fetch_add(1, std::memory_order_relaxed);
    obs::metrics().add(fleetMetricIds().agents_connected);
}

void
FleetDispatch::noteAuthFailure()
{
    impl_->auth_failures.fetch_add(1, std::memory_order_relaxed);
    obs::metrics().add(fleetMetricIds().auth_failures);
    impl_->journalAppend("auth_fail");
}

void
FleetDispatch::registerHost(int worker, const std::string& label,
                            bool remote)
{
    Impl& d = *impl_;
    std::lock_guard<std::mutex> lock(d.state_mutex);
    Impl::HostSlot slot;
    slot.worker = worker;
    slot.label = label;
    slot.remote = remote;
    slot.config_sent_at = std::chrono::steady_clock::now();
    slot.config_sent_trace_us = obs::traceNowUs();
    d.hosts.push_back(std::move(slot));
    d.journalAppend("connect", {{"host", label}},
                    {{"remote", std::uint64_t{remote ? 1u : 0u}}});
}

void
FleetDispatch::noteUnitDispatched(std::uint64_t u, int worker)
{
    Impl& d = *impl_;
    if (!d.journal)
        return;
    std::lock_guard<std::mutex> lock(d.state_mutex);
    d.journalAppend("dispatch",
                    {{"host", d.hostLabelLocked(worker)}},
                    {{"unit", u}});
}

void
FleetDispatch::absorbTelemetry(const WorkerMessage& msg)
{
    Impl& d = *impl_;
    std::lock_guard<std::mutex> lock(d.state_mutex);
    Impl::HostSlot* slot = d.slotForLocked(msg.worker);
    if (slot == nullptr)
        return;
    for (const auto& [name, value] : msg.counters) {
        auto it = std::find_if(
            slot->counters.begin(), slot->counters.end(),
            [&](const auto& c) { return c.first == name; });
        if (it == slot->counters.end())
            slot->counters.emplace_back(name, value);
        else
            it->second += value;
    }
    slot->spans.insert(slot->spans.end(), msg.spans.begin(),
                       msg.spans.end());
    d.clockSampleLocked(*slot, msg.now_us);
}

void
FleetDispatch::noteHeartbeat(int worker, std::uint64_t now_us)
{
    if (now_us == 0)
        return;
    Impl& d = *impl_;
    std::lock_guard<std::mutex> lock(d.state_mutex);
    if (Impl::HostSlot* slot = d.slotForLocked(worker))
        d.clockSampleLocked(*slot, now_us);
}

void
FleetDispatch::journalEvent(const std::string& event,
                            const obs::EventJournal::Fields& fields,
                            const obs::EventJournal::Nums& nums)
{
    impl_->journalAppend(event, fields, nums);
}

DispatchStatus
FleetDispatch::status() const
{
    Impl& d = *impl_;
    DispatchStatus s;
    s.units_total = units_.size();
    s.units_resumed = units_.size() - initial_pending_;
    const std::uint64_t live =
        d.units_settled_live.load(std::memory_order_acquire);
    s.units_settled = s.units_resumed + live;
    s.shards_total = d.tasks.size();
    s.shards_done = d.shards_done.load(std::memory_order_relaxed);
    s.trials_done = d.trials_done.load(std::memory_order_relaxed);
    s.queue_depth = d.queue->sizeApprox();
    const std::uint64_t pending =
        d.remaining.load(std::memory_order_acquire);
    s.units_in_flight =
        pending > s.queue_depth ? pending - s.queue_depth : 0;
    s.requeues = d.requeues.load(std::memory_order_relaxed);
    s.poisoned = d.poisoned.load(std::memory_order_relaxed);
    s.duplicates = d.duplicates.load(std::memory_order_relaxed);
    s.workers_lost = d.workers_lost.load(std::memory_order_relaxed);
    s.worker_timeouts =
        d.worker_timeouts.load(std::memory_order_relaxed);
    s.heartbeat_expiries =
        d.heartbeat_expiries.load(std::memory_order_relaxed);
    s.agents_connected =
        d.agents_connected.load(std::memory_order_relaxed);
    s.auth_failures = d.auth_failures.load(std::memory_order_relaxed);
    if (d.started) {
        s.elapsed_seconds = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() -
                                d.start_at)
                                .count();
        if (s.elapsed_seconds > 0.0 && live > 0) {
            s.units_per_second =
                static_cast<double>(live) / s.elapsed_seconds;
            s.eta_seconds =
                static_cast<double>(pending) / s.units_per_second;
        }
    }
    std::lock_guard<std::mutex> lock(d.state_mutex);
    s.hosts.reserve(d.hosts.size());
    for (const Impl::HostSlot& slot : d.hosts) {
        HostStatus h;
        h.worker = slot.worker;
        h.label = slot.label;
        h.remote = slot.remote;
        h.units = slot.units;
        h.shards = slot.shards;
        h.trials = slot.trials;
        h.busy_us = slot.busy_us;
        s.hosts.push_back(std::move(h));
    }
    return s;
}

CampaignResult
FleetDispatch::finalize(int workers,
                        std::vector<obs::FleetWorkerRecord> records)
{
    Impl& d = *impl_;
    const FleetMetricIds& mid = fleetMetricIds();
    obs::MetricsRegistry& reg = obs::metrics();
    CampaignResult& result = d.result;

    const auto stop = std::chrono::steady_clock::now();
    result.seconds = d.started
                         ? std::chrono::duration<double>(stop -
                                                         d.start_at)
                               .count()
                         : 0.0;
    result.cpu_seconds = d.started
                             ? obs::processCpuSeconds() +
                                   obs::processChildrenCpuSeconds() -
                                   d.cpu_start
                             : 0.0;
    if (d.progress)
        d.progress->stop();
    d.evaluate_span.reset();
    result.interrupted = interruptRequested();

    // Per-scheme timings (host-side busy time, parent-side wall
    // span), plus the synthetic per-scheme trace spans the in-process
    // runner emits.
    for (std::size_t s = 0; s < d.schemes.size(); ++s) {
        const SchemeAgg& agg = d.scheme_aggs[s];
        obs::SchemeTiming timing;
        timing.scheme_id = d.ids[s];
        timing.cpu_seconds = static_cast<double>(agg.busy_us) * 1e-6;
        timing.shards = agg.shards;
        timing.trials = agg.trials;
        const bool ran = agg.first_us != ~std::uint64_t{0} &&
                         agg.last_us > agg.first_us;
        if (ran)
            timing.wall_seconds =
                static_cast<double>(agg.last_us - agg.first_us) * 1e-6;
        result.scheme_timings.push_back(timing);
        if (ran && obs::traceEnabled()) {
            const int tid = 1000 + static_cast<int>(s);
            obs::setTrackName(tid, "scheme " + d.ids[s]);
            obs::emitSpan(
                d.ids[s], "scheme",
                d.trace_eval_start_us + agg.first_us,
                agg.last_us - agg.first_us,
                "\"shards\":" + std::to_string(timing.shards) +
                    ",\"trials\":" + std::to_string(timing.trials),
                tid);
        }
    }

    // Fleet telemetry for reports and the strong-scaling bench.
    result.fleet.workers = workers;
    result.fleet.units = d.units.size();
    result.fleet.unit_shards = d.spec.fleet_unit_shards;
    result.fleet.queue_capacity = d.queue->capacity();
    result.fleet.requeues =
        d.requeues.load(std::memory_order_relaxed);
    result.fleet.workers_lost =
        d.workers_lost.load(std::memory_order_relaxed);
    result.fleet.parent_fallback_shards = d.fallback_shards;
    result.fleet.units_poisoned =
        d.poisoned.load(std::memory_order_relaxed);
    result.fleet.duplicate_results =
        d.duplicates.load(std::memory_order_relaxed);
    result.fleet.worker_timeouts =
        d.worker_timeouts.load(std::memory_order_relaxed);
    result.fleet.heartbeat_expiries =
        d.heartbeat_expiries.load(std::memory_order_relaxed);
    result.fleet.agents_connected =
        d.agents_connected.load(std::memory_order_relaxed);
    result.fleet.auth_failures =
        d.auth_failures.load(std::memory_order_relaxed);
    result.fleet.worker_records = std::move(records);

    if (d.checkpointing) {
        std::lock_guard<std::mutex> lock(d.state_mutex);
        if (Status s = d.flushCheckpoint(); !s.ok()) {
            warn("fleet: final checkpoint write failed: " +
                 s.toString());
        } else if (result.interrupted) {
            inform("fleet: interrupted; " +
                   std::to_string(d.completed_log.size()) + " of " +
                   std::to_string(d.tasks.size()) +
                   " shard tasks checkpointed to " +
                   d.spec.checkpoint_path);
        }
    }

    // Drop failed schemes from the cells and record them — a partial
    // scheme row would read as a measured (wrong) rate.
    if (!d.cell_errors.empty()) {
        std::set<std::string> failed;
        for (const auto& [cell, message] : d.cell_errors) {
            const CampaignCell& c = result.cells[cell];
            if (failed.insert(c.scheme_id).second) {
                warn("fleet: dropping scheme " + c.scheme_id + ": " +
                     message);
                reg.add(mid.schemes_dropped);
                result.errors.push_back(
                    {c.scheme_id,
                     "unavailable: pattern " +
                         patternInfo(c.pattern).label + ": " +
                         message});
            }
        }
        std::erase_if(result.cells, [&](const CampaignCell& c) {
            return failed.count(c.scheme_id) != 0;
        });
    }

    reg.flushThisThread();
    result.metrics = reg.snapshot().since(d.metrics_baseline);

    // Observability-plane merge: replay each host's shipped spans
    // onto its own trace track (rebased from "µs since config
    // receipt" to the parent's trace clock via the minimum-latency
    // offset), and append host-labelled counter series to the
    // campaign metrics. Slots merge by label so a reconnecting agent
    // reports as one host.
    {
        std::lock_guard<std::mutex> lock(d.state_mutex);
        if (obs::traceEnabled()) {
            for (std::size_t i = 0; i < d.hosts.size(); ++i) {
                const Impl::HostSlot& slot = d.hosts[i];
                if (slot.spans.empty())
                    continue;
                const int tid = 2000 + static_cast<int>(i);
                obs::setTrackName(tid, "host " + slot.label);
                const std::int64_t base =
                    static_cast<std::int64_t>(
                        slot.config_sent_trace_us) +
                    (slot.has_offset ? slot.min_offset_us : 0);
                for (const SpanRecord& span : slot.spans) {
                    std::int64_t ts =
                        base + static_cast<std::int64_t>(span.ts_us);
                    if (ts < 0)
                        ts = 0;
                    obs::emitSpan(
                        span.name, span.cat.c_str(),
                        static_cast<std::uint64_t>(ts), span.dur_us,
                        "\"unit\":" + std::to_string(span.unit), tid);
                }
            }
        }

        std::vector<std::string> labels;
        std::map<std::string, Impl::HostSlot> merged;
        for (const Impl::HostSlot& slot : d.hosts) {
            auto [it, fresh] = merged.emplace(slot.label, slot);
            if (fresh) {
                labels.push_back(slot.label);
                continue;
            }
            Impl::HostSlot& into = it->second;
            into.units += slot.units;
            into.shards += slot.shards;
            into.trials += slot.trials;
            into.busy_us += slot.busy_us;
            for (const auto& [name, value] : slot.counters) {
                auto found = std::find_if(
                    into.counters.begin(), into.counters.end(),
                    [&](const auto& c) { return c.first == name; });
                if (found == into.counters.end())
                    into.counters.emplace_back(name, value);
                else
                    found->second += value;
            }
        }
        for (const std::string& label : labels) {
            const Impl::HostSlot& slot = merged.at(label);
            const std::string prefix = "fleet.host." + label + ".";
            result.metrics.counters.push_back(
                {prefix + "units", slot.units});
            result.metrics.counters.push_back(
                {prefix + "shards", slot.shards});
            result.metrics.counters.push_back(
                {prefix + "trials", slot.trials});
            for (const auto& [name, value] : slot.counters)
                result.metrics.counters.push_back(
                    {prefix + name, value});
        }
    }

    d.journalAppend(
        "drain", {},
        {{"settled",
          units_.size() - d.remaining.load(std::memory_order_acquire)},
         {"interrupted",
          std::uint64_t{result.interrupted ? 1u : 0u}}});

    d.campaign_span.reset();
    return std::move(result);
}

} // namespace gpuecc::sim::fleet
