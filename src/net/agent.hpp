/**
 * @file
 * Remote fleet worker agent (the client side of net/service).
 *
 * An agent connects to a running fleet campaign service,
 * authenticates with the shared secret (mutually — it refuses to
 * serve a listener that cannot prove it holds the secret too), and
 * then serves work units with the same loop as a forked worker, plus
 * a read deadline so a dead server is detected.
 *
 * Connection loss is normal life, not an error: the agent reconnects
 * with exponential backoff (reset after every successful handshake)
 * until the server drains it with a shutdown line, an interrupt asks
 * it to stop, or the reconnect budget runs out. An authentication
 * failure is the one non-retryable outcome — retrying a wrong secret
 * only hammers the server.
 */

#ifndef GPUECC_NET_AGENT_HPP
#define GPUECC_NET_AGENT_HPP

#include <string>

namespace gpuecc::net {

/** Process exit code for an authentication failure (no retry). */
constexpr int kAgentAuthExit = 2;

/** Process exit code when the reconnect budget ran out. */
constexpr int kAgentLostServerExit = 5;

/** Knobs for one agent process (tools/fleet_agent maps flags here). */
struct FleetAgentOptions
{
    std::string host;   //!< empty = loopback
    int port = 0;
    std::string secret; //!< must match the server's --fleet-secret
    std::string name;   //!< empty = "agent-<pid>"
    /** Beat interval; keep it a small fraction of the server's
        --fleet-heartbeat-timeout (default pairs 2s with 10s). */
    double heartbeat_interval_s = 2.0;
    /** Max wire silence before the server is presumed dead. */
    double io_timeout_s = 30.0;
    double backoff_initial_s = 0.5;
    double backoff_max_s = 30.0;
    /** Consecutive failed connect/serve rounds before giving up;
        -1 retries forever (a daemonized lab agent). */
    int max_reconnects = 10;
};

/**
 * Run the agent until drained: returns a process exit code — 0 for a
 * graceful shutdown (server drain or interrupt), kAgentAuthExit,
 * kAgentLostServerExit, or fleet::kWorkerSetupExit when the server's
 * plan doesn't validate locally (fingerprint mismatch).
 */
int runFleetAgent(const FleetAgentOptions& options);

} // namespace gpuecc::net

#endif // GPUECC_NET_AGENT_HPP
