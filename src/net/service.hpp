/**
 * @file
 * Failure-hardened fleet campaign service: the one fleet entry point.
 *
 * FleetService runs a fleet campaign over forked local workers,
 * remote agent processes (tools/fleet_agent), or both, and merges
 * their checkpoint-format results through one FleetDispatch core and
 * one liaison per host (fleet/liaison.hpp) — so the tallies and the
 * CSV report are bit-identical to an in-process run of the same spec,
 * no matter how hosts come and go.
 *
 * Without spec.fleet_listen it binds nothing: the spec.fleet_workers
 * forked workers are engaged at once and carry the campaign. With a
 * listen address it also streams the fleet wire protocol to agents
 * that connect, and the forked workers become a standby rung.
 *
 * Liveness and failure model (every host kind alike):
 *  - Every agent connection is authenticated with an HMAC
 *    challenge-response over spec.fleet_secret before any plan data
 *    moves (net/auth.hpp); a failed proof is rejected and counted
 *    (fleet.auth_failures).
 *  - Hosts heartbeat while evaluating; a host silent past
 *    spec.fleet_heartbeat_timeout_s is retired and its in-flight unit
 *    requeued (fleet.heartbeat_expiries). An optional per-unit
 *    round-trip deadline (spec.fleet_worker_timeout_s) catches hosts
 *    that beat but never answer (fleet.worker_timeouts).
 *  - Requeues are capped (spec.fleet_max_unit_attempts): a poison
 *    unit is retired into the report instead of cycling forever.
 *  - Degradation ladder: when no agent is connected for
 *    spec.fleet_grace_s, the service engages its local standby forked
 *    workers; when those are gone too, it finishes the remaining
 *    units in-process. The campaign completes unless interrupted.
 *  - SIGTERM/SIGINT drain gracefully: in-flight units are requeued
 *    into the final checkpoint, hosts get shutdown lines, and the
 *    partial result is reported. A listening service always installs
 *    the handlers; a local-only run only when checkpointing.
 */

#ifndef GPUECC_NET_SERVICE_HPP
#define GPUECC_NET_SERVICE_HPP

#include <memory>

#include "common/status.hpp"
#include "net/socket.hpp"
#include "sim/campaign.hpp"

namespace gpuecc::net {

class ObsHttpServer;

class FleetService
{
  public:
    /**
     * Validate the platform and bind the listener (spec.fleet_listen,
     * port 0 for an ephemeral port; none when it is empty). Binding
     * before run() lets a caller learn port() first and point agents
     * at it — tests and scripts launch agents before the campaign
     * plan finishes building, and the connects simply wait in the
     * backlog.
     */
    static Result<std::unique_ptr<FleetService>>
    create(const sim::CampaignSpec& spec);

    ~FleetService();

    /** The bound port (the ephemeral one when the spec said 0; 0
        without a listener). */
    int port() const { return listener_.port(); }

    /**
     * The bound observability endpoint port, or -1 when the spec did
     * not ask for one. Like the fleet listener, the endpoint binds in
     * create() so a caller (or test) can learn the port before run();
     * it serves nothing until the campaign starts.
     */
    int obsPort() const;

    /**
     * Run the campaign to completion (or interrupt). Call once, while
     * the process is single-threaded — local workers are forked
     * inside. Returns the merged campaign result; errors are
     * unrecoverable setup problems only.
     */
    Result<sim::CampaignResult> run();

  private:
    FleetService() = default;

    sim::CampaignSpec spec_;
    TcpListener listener_;
    std::unique_ptr<ObsHttpServer> obs_server_;
    bool ran_ = false;
};

/** Convenience: create + run (the campaign runner's entry point). */
Result<sim::CampaignResult>
runFleetService(const sim::CampaignSpec& spec);

} // namespace gpuecc::net

#endif // GPUECC_NET_SERVICE_HPP
