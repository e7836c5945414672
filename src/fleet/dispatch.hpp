/**
 * @file
 * Transport-independent fleet dispatch core.
 *
 * FleetDispatch owns everything about a fleet campaign that does not
 * depend on *how* work units travel: the units cut from the shared
 * campaign plan (sim/plan.hpp, which also holds the fingerprint,
 * checkpoint flushing and the end-of-run step), the unit queue,
 * unit-level resume, per-cell tallies, requeue/poison accounting, and
 * result finalization. The one liaison
 * (fleet/liaison.hpp) is a thin loop over this surface, whatever the
 * host's channel: claim a unit, round-trip it to a host, then settle
 * it exactly once via completeUnit / failUnit / requeueUnit.
 *
 * Settlement is idempotent by construction: every unit settles at
 * most once (a mutex-guarded per-unit flag), so a late or duplicated
 * result from a host that was presumed dead is discarded — counted in
 * fleet.duplicate_results — instead of double-merging. That is what
 * makes the merged tallies bit-identical to an in-process run no
 * matter how many hosts died, reconnected, or replayed lines along
 * the way.
 *
 * Requeues are capped (spec.fleet_max_unit_attempts): a poison unit
 * that kills every host it lands on is retired after the cap — its
 * (scheme, pattern) cell fails with the unit's shard range in the
 * message, counted in fleet.units_poisoned — instead of cycling
 * through the whole fleet forever.
 */

#ifndef GPUECC_FLEET_DISPATCH_HPP
#define GPUECC_FLEET_DISPATCH_HPP

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "fleet/protocol.hpp"
#include "obs/journal.hpp"
#include "sim/campaign.hpp"

namespace gpuecc::sim::fleet {

/** How requeueUnit disposed of an in-flight unit. */
enum class RequeueOutcome
{
    requeued, //!< back in the queue for another host
    poisoned, //!< attempt cap hit: cell failed, unit retired
    settled,  //!< a late result settled it first; nothing to do
};

/** One registered host's live accounting (a /status row). */
struct HostStatus
{
    int worker = -1;
    std::string label;
    bool remote = false;
    std::uint64_t units = 0;
    std::uint64_t shards = 0;
    std::uint64_t trials = 0;
    std::uint64_t busy_us = 0;
};

/**
 * One consistent sample of the live campaign, cheap enough to take
 * from an HTTP handler thread mid-run: unit/shard/trial progress,
 * every transport fault counter, throughput and an ETA, and the
 * per-host credit rows. Reading it never touches the tallies or the
 * queue ordering, so sampling cannot perturb determinism.
 */
struct DispatchStatus
{
    std::uint64_t units_total = 0;
    std::uint64_t units_settled = 0; //!< includes resumed units
    std::uint64_t units_resumed = 0;
    std::uint64_t units_in_flight = 0;
    std::uint64_t queue_depth = 0;
    std::uint64_t shards_total = 0;
    std::uint64_t shards_done = 0; //!< includes resumed shards
    std::uint64_t trials_done = 0; //!< evaluated this run
    std::uint64_t requeues = 0;
    std::uint64_t poisoned = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t workers_lost = 0;
    std::uint64_t worker_timeouts = 0;
    std::uint64_t heartbeat_expiries = 0;
    std::uint64_t agents_connected = 0;
    std::uint64_t auth_failures = 0;
    double elapsed_seconds = 0.0;
    double units_per_second = 0.0;
    /** Negative = unknown (nothing settled live yet). */
    double eta_seconds = -1.0;
    std::vector<HostStatus> hosts;
};

class FleetDispatch
{
  public:
    using Clock = std::chrono::steady_clock;

    /**
     * Build the plan: resolve schemes (skipping broken ones into
     * result.errors), shard every cell, cut units that never straddle
     * a cell boundary, restore a resume checkpoint. Errors here are
     * unrecoverable setup problems (no usable scheme, corrupt or
     * mismatched checkpoint). Runs on the calling thread; fork any
     * worker processes between create() and start().
     */
    static Result<std::unique_ptr<FleetDispatch>>
    create(const CampaignSpec& spec);

    ~FleetDispatch();

    /** @name Plan facts (immutable after create) */
    ///@{
    const std::string& fingerprint() const { return fingerprint_; }
    std::size_t unitCount() const { return units_.size(); }
    const WorkUnit& unit(std::uint64_t u) const { return units_[u]; }
    /** Units not settled by resume restore at create() time. */
    std::uint64_t initialPendingUnits() const { return initial_pending_; }
    /** The config line payload for one worker/agent. */
    FleetConfig configFor(int worker) const;
    /** The campaign spec (liveness budgets, deadlines). */
    const CampaignSpec& spec() const;
    /** Human label of a unit's cell, e.g. "rs-dueh/two_bit_row". */
    std::string unitLabel(std::uint64_t u) const;
    ///@}

    /**
     * Start the clocks and the progress reporter. Call exactly once,
     * after every fork (the reporter owns a thread) and before any
     * liaison thread touches the dispatcher.
     */
    void start();

    /** Whether every unit has settled (the campaign is done). */
    bool allSettled() const;

    /**
     * Pop the next dispatchable unit. Units whose cell already failed
     * are settled-and-skipped internally; units settled by a late
     * result are dropped. Returns false when the queue is empty —
     * which, while !allSettled(), means other liaisons hold the last
     * units in flight (stay subscribed: they may come back).
     */
    bool tryClaim(std::uint64_t& u);

    /**
     * Validate a decoded result message against the dispatched unit
     * and the plan (fingerprint, entry range, per-entry tallies) —
     * the same CampaignPlan::checkEntry checkpoint resume uses.
     */
    Status validateResult(std::uint64_t u,
                          const WorkerMessage& msg) const;

    /**
     * Merge a validated result and settle the unit. Returns false if
     * the unit was already settled — a late or duplicated delivery,
     * counted in fleet.duplicate_results, tallies untouched.
     */
    bool completeUnit(std::uint64_t u, const WorkerMessage& msg,
                      Clock::time_point dispatch_at,
                      Clock::time_point done_at);

    /**
     * Settle a unit whose cell failed persistently inside a host
     * (unit_error line): the scheme is dropped at finalize, the
     * campaign continues.
     */
    void failUnit(std::uint64_t u, const std::string& message);

    /**
     * Put an in-flight unit back after its host died, hung, or broke
     * protocol. @p why feeds the poison message when the attempt cap
     * (spec.fleet_max_unit_attempts) is reached.
     */
    RequeueOutcome requeueUnit(std::uint64_t u, const std::string& why);

    /**
     * Serve every still-pending unit on the calling thread — the
     * last-resort degradation when no worker or agent is left.
     * Respects interrupts; failures fail cells, never the campaign.
     */
    void finishInProcess();

    /** @name Transport telemetry (fleet.* counters + timing.fleet) */
    ///@{
    void noteWorkerLost();
    void noteWorkerTimeout();
    void noteHeartbeatExpiry();
    void noteAgentConnected();
    void noteAuthFailure();
    ///@}

    /** @name Observability plane */
    ///@{

    /**
     * Register a host connection — a forked worker, an
     * authenticated remote agent, or the in-process fallback. Call at
     * config-send time: the instant is captured on both the steady
     * and trace clocks and becomes the reference every span timestamp
     * the host later ships is rebased against (a host's clock reads
     * "µs since it received the config"). Journals the connect.
     */
    void registerHost(int worker, const std::string& label,
                      bool remote);

    /** Journal one unit dispatch (host looked up by @p worker). */
    void noteUnitDispatched(std::uint64_t u, int worker);

    /**
     * Merge one telemetry line from a host: shipped counter deltas
     * accumulate under the host's slot (surfaced at finalize as
     * fleet.host.<label>.<name> series), completed spans queue for
     * replay onto the host's trace track, and now_us contributes a
     * clock-offset sample. Hosts ship telemetry *before* the result
     * it accompanies, so absorbing is always safe pre-settlement and
     * never double-counts: the counters are deltas, shipped once.
     */
    void absorbTelemetry(const WorkerMessage& msg);

    /**
     * A heartbeat's now_us as a clock-offset sample (0 = heartbeat
     * from an older worker; ignored). More samples tighten the
     * minimum-latency offset estimate used for span rebasing.
     */
    void noteHeartbeat(int worker, std::uint64_t now_us);

    /** Append one event to the journal (no-op without --journal). */
    void journalEvent(const std::string& event,
                      const obs::EventJournal::Fields& fields = {},
                      const obs::EventJournal::Nums& nums = {});

    /** Sample the live state — the /status and /metrics source. */
    DispatchStatus status() const;

    ///@}

    /**
     * Stop the clocks, flush the final checkpoint, drop failed
     * schemes, fill timing.fleet, and return the campaign result.
     * @p workers is the dispatch width for telemetry; @p records the
     * per-host audit trail. Call once, after all liaisons joined.
     */
    CampaignResult
    finalize(int workers, std::vector<obs::FleetWorkerRecord> records);

  private:
    FleetDispatch() = default;

    struct Impl;
    std::unique_ptr<Impl> impl_;
    std::string fingerprint_;
    std::vector<WorkUnit> units_;
    std::uint64_t initial_pending_ = 0;
};

} // namespace gpuecc::sim::fleet

#endif // GPUECC_FLEET_DISPATCH_HPP
