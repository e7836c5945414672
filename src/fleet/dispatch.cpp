#include "fleet/dispatch.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>

#include "common/interrupt.hpp"
#include "common/log.hpp"
#include "common/mpmc_queue.hpp"
#include "obs/trace.hpp"
#include "sim/plan.hpp"

namespace gpuecc::sim::fleet {

namespace {

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
        out.queue_depth = m.gauge("fleet.queue_depth");
        return out;
    }();
    return ids;
}

/** Add @p value to the counter named @p name, appending it if new. */
void
addCounter(std::vector<std::pair<std::string, std::uint64_t>>& counters,
           const std::string& name, std::uint64_t value)
{
    auto it = std::find_if(counters.begin(), counters.end(),
                           [&](const auto& c) { return c.first == name; });
    if (it == counters.end())
        counters.emplace_back(name, value);
    else
        it->second += value;
}

} // namespace

struct FleetDispatch::Impl
{
    CampaignSpec spec;
    CampaignResult result;
    std::unique_ptr<CampaignPlan> plan;
    int max_attempts = 3;

    std::unique_ptr<MpmcQueue<std::uint64_t>> queue;
    std::atomic<std::uint64_t> remaining{0};

    std::mutex state_mutex; // everything below, unless noted
    /** The plan's run: its checkpoint log and failCell need the mutex. */
    std::unique_ptr<PlanRun> run;
    std::vector<char> unit_settled;
    std::vector<int> unit_attempts; // failed dispatches per unit
    std::uint64_t fallback_shards = 0; // finishInProcess only

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
    std::unique_ptr<obs::TraceSpan> campaign_span;
    std::unique_ptr<obs::TraceSpan> evaluate_span;
    double cpu_start = 0.0;
    bool started = false;

    /**
     * Mark a unit settled; state_mutex held. Every settlement path
     * (complete, fail, skip, poison) funnels here, after accounting
     * the unit's tasks as run or skipped with the plan's run.
     */
    void settleLocked(std::uint64_t u)
    {
        unit_settled[u] = 1;
        units_settled_live.fetch_add(1, std::memory_order_relaxed);
        remaining.fetch_sub(1, std::memory_order_acq_rel);
    }

    /**
     * Retire a unit through a failure path — no trials ran, but its
     * tasks are skipped, so the progress line and /status still reach
     * 100%. State_mutex held; the unit must not be settled yet.
     */
    void skipLocked(std::uint64_t u)
    {
        run->skipped(units[u].cell, units[u].task_count);
        settleLocked(u);
    }

    /** Fail a unit's cell with a message and retire the unit. */
    void failCellLocked(std::uint64_t u, const std::string& message)
    {
        run->failCell(units[u].cell, message);
        skipLocked(u);
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
            microsBetween(slot.config_sent_at,
                        std::chrono::steady_clock::now()));
        const std::int64_t offset =
            elapsed - static_cast<std::int64_t>(now_us);
        if (!slot.has_offset || offset < slot.min_offset_us) {
            slot.has_offset = true;
            slot.min_offset_us = offset;
        }
    }

    // Plan facts duplicated from the owner for internal use.
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

    fleetMetricIds(); // register before the liaison threads exist
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

    // Resolving the schemes in the parent validates the ids before any
    // fork and provides the evaluation path for the all-hosts-lost
    // fallback. The fingerprint is always needed in fleet mode — it is
    // the config line's plan-identity proof, checkpointing or not.
    Result<CampaignPlan> built = CampaignPlan::build(
        "fleet", spec.scheme_ids, spec.resolvedPatterns(), spec.samples,
        spec.seed,
        effectiveShardChunk(spec.samples, spec.chunk,
                            static_cast<int>(slots)));
    if (!built.ok())
        return built.status();
    impl->plan = std::make_unique<CampaignPlan>(std::move(built).value());
    const CampaignPlan& plan = *impl->plan;
    const std::vector<PlanTask>& tasks = plan.tasks();
    result.codec_backend = plan.codecBackend();
    result.errors = plan.skipped();
    result.cells = plan.emptyCells();
    result.shards = tasks.size();
    impl->run = std::make_unique<PlanRun>(
        plan, spec,
        std::vector<std::pair<std::string, std::string>>{
            {"threads", std::to_string(result.spec.threads)},
            {"fleet_workers", std::to_string(spec.fleet_workers)}});
    PlanRun& run = *impl->run;

    // Work units: contiguous task runs that never straddle a cell
    // boundary, so one unit failing persistently fails exactly one
    // (scheme, pattern) cell.
    for (std::uint64_t i = 0; i < tasks.size();) {
        WorkUnit u;
        u.unit = impl->units.size();
        u.cell = tasks[i].cell;
        u.first_task = i;
        while (i < tasks.size() && tasks[i].cell == u.cell &&
               u.task_count < spec.fleet_unit_shards) {
            ++i;
            ++u.task_count;
        }
        impl->units.push_back(u);
    }
    impl->unit_settled.assign(impl->units.size(), 0);
    impl->unit_attempts.assign(impl->units.size(), 0);

    // Resume at unit granularity: a unit all of whose tasks are in
    // the checkpoint is settled (merged, never dispatched); a
    // partially covered unit — possible when resuming a checkpoint an
    // in-process run wrote — is re-dispatched whole, dropping the
    // partial entries (re-evaluation is bit-identical by design).
    if (run.checkpointing() && spec.resume) {
        Result<std::vector<CheckpointEntry>> entries =
            plan.resumeEntries(spec.checkpoint_path);
        if (!entries.ok())
            return entries.status();
        std::vector<const CheckpointEntry*> restored(tasks.size(),
                                                     nullptr);
        for (const CheckpointEntry& entry : entries.value())
            restored[entry.task] = &entry;
        std::uint64_t dropped = 0;
        for (const WorkUnit& u : impl->units) {
            const auto first = restored.begin() + u.first_task;
            const auto last = first + u.task_count;
            if (std::find(first, last, nullptr) != last) {
                dropped += u.task_count -
                           std::count(first, last, nullptr);
                continue;
            }
            impl->unit_settled[u.unit] = 1;
            for (auto it = first; it != last; ++it) {
                run.restore(**it);
                result.cells[u.cell].counts.merge((*it)->counts);
            }
            result.resumed_shards += u.task_count;
        }
        if (!entries.value().empty()) {
            inform("fleet: resumed " +
                   std::to_string(result.resumed_shards) + " of " +
                   std::to_string(tasks.size()) + " shard tasks from " +
                   spec.checkpoint_path);
        }
        if (dropped > 0) {
            inform("fleet: re-evaluating " + std::to_string(dropped) +
                   " checkpointed tasks from partially covered "
                   "work units");
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

    auto out = std::unique_ptr<FleetDispatch>(new FleetDispatch());
    out->fingerprint_ = plan.fingerprint();
    out->units_ = impl->units;
    out->initial_pending_ = pending_units;
    out->impl_ = std::move(impl);
    return out;
}

FleetConfig
FleetDispatch::configFor(int worker) const
{
    const CampaignPlan& plan = *impl_->plan;
    FleetConfig config;
    config.worker = worker;
    config.scheme_ids = plan.schemeIds();
    config.patterns = plan.patterns();
    config.samples = plan.samples();
    config.seed = plan.seed();
    config.chunk = plan.chunk();
    config.fingerprint = plan.fingerprint();
    config.codec_backend = plan.codecBackend();
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
    d.evaluate_span =
        std::make_unique<obs::TraceSpan>("evaluate-fleet", "campaign");
    d.run->begin(d.spec.progress);
    d.journalAppend(
        "start", {},
        {{"units", units_.size()},
         {"pending", initial_pending_},
         {"resumed", units_.size() - initial_pending_},
         {"shards", d.plan->tasks().size()}});
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
        if (d.run->cellFailed(unit.cell)) {
            // Its cell already failed: settle it silently (progress
            // moves on; the checkpoint just never lists its tasks).
            std::lock_guard<std::mutex> lock(d.state_mutex);
            if (d.unit_settled[candidate] == 0) {
                d.skipLocked(candidate);
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
    if (msg.unit != unit.unit || msg.checkpoint.fingerprint != fingerprint_ ||
        msg.checkpoint.done.size() != unit.task_count) {
        return Status::dataLoss(
            "worker result doesn't match the dispatched unit");
    }
    const std::string source = "worker " + std::to_string(msg.worker) +
                               " unit " + std::to_string(u);
    for (const CheckpointEntry& e : msg.checkpoint.done) {
        if (e.task < unit.first_task ||
            e.task >= unit.first_task + unit.task_count) {
            return Status::dataLoss(
                "worker result entry outside its unit");
        }
        if (Status s = d.plan->checkEntry(e, source); !s.ok())
            return s;
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
        d.result.cells[unit.cell].counts.merge(e.counts);
        unit_trials += e.counts.trials;
    }
    reg.add(mid.units_completed);
    reg.add(mid.shards_completed, unit.task_count);
    reg.add(mid.trials, unit_trials);

    // Host credit rides the same settled-exactly-once gate as the
    // tallies, so a duplicated delivery can never double-count a
    // host's unit/shard/trial series.
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

    d.run->ran(unit.cell, unit.task_count, unit_trials, msg.busy_us,
               dispatch_at, done_at);
    d.settleLocked(u);
    d.run->complete(msg.checkpoint.done);
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
        WorkerMessage msg;
        msg.unit = unit.unit;
        msg.worker = -1;
        msg.checkpoint.fingerprint = fingerprint_;
        const auto dispatch_at = std::chrono::steady_clock::now();
        const Status evaluated = d.plan->evaluateRange(
            unit.first_task, unit.task_count, arena, msg.checkpoint.done);
        const auto done_at = std::chrono::steady_clock::now();
        msg.busy_us = microsBetween(dispatch_at, done_at);
        if (!evaluated.ok()) {
            failUnit(u, evaluated.message());
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
    for (const auto& [name, value] : msg.counters)
        addCounter(slot->counters, name, value);
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
    s.shards_total = d.plan->tasks().size();
    s.shards_done = d.run->shardsDone();
    s.trials_done = d.run->trialsDone();
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
                                d.run->startedAt())
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
    obs::MetricsRegistry& reg = obs::metrics();
    CampaignResult& result = d.result;

    const auto stop = std::chrono::steady_clock::now();
    result.seconds =
        d.started ? std::chrono::duration<double>(stop - d.run->startedAt())
                        .count()
                  : 0.0;
    result.cpu_seconds = d.started
                             ? obs::processCpuSeconds() +
                                   obs::processChildrenCpuSeconds() -
                                   d.cpu_start
                             : 0.0;
    d.evaluate_span.reset();
    result.interrupted = interruptRequested();

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

    {
        std::lock_guard<std::mutex> lock(d.state_mutex);
        d.run->finish(result);
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
            for (const auto& [name, value] : slot.counters)
                addCounter(into.counters, name, value);
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
