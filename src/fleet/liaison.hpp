/**
 * @file
 * The one parent-side liaison every fleet host is served through.
 *
 * A host is a line channel to one worker process plus the record the
 * report keeps of it. A forked worker's channel is its pipe pair; a
 * remote agent's is its authenticated TCP socket (net/service.cpp
 * builds those). How the channel was made is the only difference:
 * runLiaison drives every host through the same state machine —
 * claim a unit, send it, absorb telemetry and heartbeats while
 * awaiting the answer, and settle the unit exactly once through the
 * FleetDispatch (completeUnit / failUnit / requeueUnit).
 *
 * Every host lives under the same rules:
 *  - a host silent past spec.fleet_heartbeat_timeout_s is retired and
 *    its in-flight unit requeued (fleet.heartbeat_expiries); workers
 *    beat from a background thread, so a busy host is never silent;
 *  - an optional round-trip deadline (spec.fleet_worker_timeout_s)
 *    retires a host that beats but never answers
 *    (fleet.worker_timeouts);
 *  - a line that does not decode, a result that fails validation, a
 *    unit index outside the plan, or a worker_error retires the host
 *    and requeues its unit — a corrupt host, never a corrupt campaign;
 *  - results for units that settled elsewhere are discarded as
 *    duplicates (fleet.duplicate_results);
 *  - when the campaign settles or an interrupt drains it, the host
 *    gets a shutdown line and is hung up on; a unit still in flight is
 *    requeued and its forked worker killed rather than awaited.
 */

#ifndef GPUECC_FLEET_LIAISON_HPP
#define GPUECC_FLEET_LIAISON_HPP

#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.hpp"
#include "common/subprocess.hpp"
#include "fleet/dispatch.hpp"
#include "obs/manifest.hpp"

namespace gpuecc::sim::fleet {

/**
 * One host: its line channel, its hang-up step and its record. Its
 * liaison thread holds its address, so a Host never moves.
 */
struct Host
{
    Host() = default;
    Host(Host&&) = delete;
    Host& operator=(Host&&) = delete;

    /** The host's lines; null when the host never came up. */
    std::unique_ptr<LineReader> reader;
    /** Send one protocol line; deadline in ms (< 0 blocks). */
    std::function<Status(const std::string& line, int deadline_ms)>
        write_line;
    /**
     * Close the channel and reap the host's process, if the parent
     * owns one (@p kill: SIGKILL it first). Returns the exit code for
     * the record; 0 for a socket host.
     */
    std::function<int(bool kill)> hang_up;
    obs::FleetWorkerRecord record;
    std::thread thread;
};

/**
 * Fork worker @p w as a host labelled "local-<w>" and send its config
 * line. Appends the child's pipe fds to @p inherited_fds (later
 * children close them); callers add any other fds a child must not
 * inherit — a listening socket, say — before the first fork. On
 * failure the host comes back lost with no reader, never fatal. Must
 * run while the process is single-threaded (fork safety).
 */
std::unique_ptr<Host> forkWorkerHost(FleetDispatch& dispatch, int w,
                                     std::vector<int>& inherited_fds);

/**
 * Serve @p host until the campaign settles, an interrupt drains it,
 * or the host is lost (retired, its in-flight unit requeued). Either
 * way the host is hung up on before this returns. Runs on its own
 * thread; call dispatch.start() before the first liaison starts.
 */
void runLiaison(FleetDispatch& dispatch, Host& host);

} // namespace gpuecc::sim::fleet

#endif // GPUECC_FLEET_LIAISON_HPP
