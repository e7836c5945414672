#include "net/service.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/interrupt.hpp"
#include "common/log.hpp"
#include "common/subprocess.hpp"
#include "fleet/dispatch.hpp"
#include "fleet/liaison.hpp"
#include "fleet/protocol.hpp"
#include "net/auth.hpp"
#include "net/obs_http.hpp"
#include "net/wire.hpp"
#include "obs/exposition.hpp"
#include "sim/report.hpp"

namespace gpuecc::net {

namespace fleet = sim::fleet;

namespace {

using Clock = std::chrono::steady_clock;

/** Budget for each handshake step (a connect is cheap to retry). */
constexpr int kHandshakeMs = 5000;

/** Accept poll slice: the lifecycle loop wakes this often. */
constexpr int kPollMs = 200;

int
elapsedMs(Clock::time_point since)
{
    return static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            Clock::now() - since)
            .count());
}

/** The /status document: one DispatchStatus snapshot as JSON. */
std::string
renderStatusJson(const fleet::DispatchStatus& s)
{
    sim::JsonWriter w;
    w.beginObject();
    w.key("units").beginObject();
    w.kv("total", s.units_total);
    w.kv("settled", s.units_settled);
    w.kv("resumed", s.units_resumed);
    w.kv("in_flight", s.units_in_flight);
    w.kv("queue_depth", s.queue_depth);
    w.endObject();
    w.key("shards").beginObject();
    w.kv("total", s.shards_total);
    w.kv("done", s.shards_done);
    w.endObject();
    w.kv("trials_done", s.trials_done);
    w.key("fleet").beginObject();
    w.kv("requeues", s.requeues);
    w.kv("units_poisoned", s.poisoned);
    w.kv("duplicate_results", s.duplicates);
    w.kv("workers_lost", s.workers_lost);
    w.kv("worker_timeouts", s.worker_timeouts);
    w.kv("heartbeat_expiries", s.heartbeat_expiries);
    w.kv("agents_connected", s.agents_connected);
    w.kv("auth_failures", s.auth_failures);
    w.endObject();
    w.kv("elapsed_seconds", s.elapsed_seconds);
    w.kv("units_per_second", s.units_per_second);
    w.kv("eta_seconds", s.eta_seconds);
    w.key("hosts").beginArray();
    for (const fleet::HostStatus& h : s.hosts) {
        w.beginObject();
        w.kv("worker", static_cast<std::uint64_t>(
                           h.worker < 0 ? 0 : h.worker));
        w.kv("label", h.label);
        w.kv("remote", h.remote);
        w.kv("units", h.units);
        w.kv("shards", h.shards);
        w.kv("trials", h.trials);
        w.kv("busy_seconds", static_cast<double>(h.busy_us) * 1e-6);
        w.kv("units_per_second",
             s.elapsed_seconds > 0.0
                 ? static_cast<double>(h.units) / s.elapsed_seconds
                 : 0.0);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

/** The /metrics document: the same snapshot as Prometheus text. */
std::string
renderMetricsText(const fleet::DispatchStatus& s)
{
    std::vector<obs::PromSample> samples = {
        {"fleet.units_total", s.units_total},
        {"fleet.units_settled", s.units_settled},
        {"fleet.units_in_flight", s.units_in_flight},
        {"fleet.shards_total", s.shards_total},
        {"fleet.shards_done", s.shards_done},
        {"fleet.trials_done", s.trials_done},
        {"fleet.units_requeued", s.requeues},
        {"fleet.units_poisoned", s.poisoned},
        {"fleet.duplicate_results", s.duplicates},
        {"fleet.workers_lost", s.workers_lost},
        {"fleet.worker_timeouts", s.worker_timeouts},
        {"fleet.heartbeat_expiries", s.heartbeat_expiries},
        {"fleet.agents_connected", s.agents_connected},
        {"fleet.auth_failures", s.auth_failures},
    };
    // Slots merge by label so a reconnecting agent reports one series
    // per metric, same as the finalize-time merge.
    std::vector<std::pair<std::string, fleet::HostStatus>> merged;
    for (const fleet::HostStatus& h : s.hosts) {
        auto it = std::find_if(
            merged.begin(), merged.end(),
            [&](const auto& m) { return m.first == h.label; });
        if (it == merged.end()) {
            merged.emplace_back(h.label, h);
            continue;
        }
        it->second.units += h.units;
        it->second.shards += h.shards;
        it->second.trials += h.trials;
    }
    for (const auto& [label, h] : merged) {
        const std::string prefix = "fleet.host." + label + ".";
        samples.push_back({prefix + "units", h.units});
        samples.push_back({prefix + "shards", h.shards});
        samples.push_back({prefix + "trials", h.trials});
    }
    return obs::renderPrometheusText(samples);
}

/** An accepted connection as a host: worker index @p worker, socket
    lines through the chaos-aware sender. */
std::unique_ptr<fleet::Host>
agentHost(int fd, int worker)
{
    auto host = std::make_unique<fleet::Host>();
    host->record.worker = worker;
    host->record.remote = true;
    host->reader =
        std::make_unique<LineReader>(fd, fleet::kMaxWireLineBytes);
    host->write_line = [fd](const std::string& line, int deadline_ms) {
        return sendWireLine(fd, line, deadline_ms);
    };
    host->hang_up = [fd](bool) mutable {
        closeFd(fd);
        return 0;
    };
    return host;
}

/**
 * Challenge-response handshake on a fresh agent host, then its config
 * line. Fills the record's agent name; a failed proof is
 * failedPrecondition.
 */
Status
handshake(fleet::FleetDispatch& dispatch, const std::string& secret,
          fleet::Host& host)
{
    const std::string nonce = makeNonceHex();
    if (Status s = host.write_line(fleet::encodeChallengeLine(nonce),
                                   kHandshakeMs);
        !s.ok())
        return s;
    Result<std::string> line = host.reader->readLine(kHandshakeMs);
    if (!line.ok())
        return line.status();
    Result<fleet::AuthRequest> auth = fleet::decodeAuthLine(line.value());
    if (!auth.ok())
        return auth.status();
    if (!constantTimeEquals(
            auth.value().mac,
            agentMac(secret, nonce, auth.value().agent))) {
        (void)host.write_line(
            fleet::encodeAuthErrorLine("authentication failed"), 1000);
        return Status::failedPrecondition("agent '" + auth.value().agent +
                                          "' failed authentication");
    }
    host.record.agent = auth.value().agent;
    const int worker = host.record.worker;
    if (Status s = host.write_line(
            fleet::encodeWelcomeLine(worker, serverMac(secret, nonce)),
            kHandshakeMs);
        !s.ok())
        return s;
    if (Status s = host.write_line(
            fleet::encodeConfigLine(dispatch.configFor(worker)),
            kHandshakeMs);
        !s.ok())
        return s;
    // Registration is the clock-rebasing reference: the host's
    // telemetry timestamps count from its config receipt, which
    // happened within one network hop of right now.
    dispatch.registerHost(worker, host.record.agent, true);
    return Status{};
}

} // namespace

Result<std::unique_ptr<FleetService>>
FleetService::create(const sim::CampaignSpec& spec)
{
    auto service = std::unique_ptr<FleetService>(new FleetService());
    service->spec_ = spec;
    if (spec.fleet_listen.empty()) {
        if (!subprocessSupported()) {
            return Status::unavailable(
                "fleet mode needs fork/pipe, which this platform lacks; "
                "run without --fleet-workers");
        }
    } else {
        if (!socketsSupported() || !subprocessSupported()) {
            return Status::unavailable(
                "the fleet service needs sockets and fork/pipe, which "
                "this platform lacks; run without --fleet-listen");
        }
        Result<SocketAddress> address =
            parseSocketAddress(spec.fleet_listen);
        if (!address.ok())
            return address.status();
        Result<TcpListener> listener =
            TcpListener::listen(address.value());
        if (!listener.ok())
            return listener.status();
        service->listener_ = std::move(listener.value());
    }
    // The observability endpoint binds here too, so callers can learn
    // obsPort() before run() — and so its fd exists before the local
    // workers fork and can go on the children's close list.
    if (!spec.obs_listen.empty()) {
        Result<SocketAddress> obs_address =
            parseSocketAddress(spec.obs_listen);
        if (!obs_address.ok())
            return obs_address.status();
        Result<std::unique_ptr<ObsHttpServer>> obs =
            ObsHttpServer::create(obs_address.value());
        if (!obs.ok())
            return obs.status();
        service->obs_server_ = std::move(obs).value();
        inform("fleet: observability endpoint on port " +
               std::to_string(service->obs_server_->port()) +
               " (/metrics, /status)");
    }
    return service;
}

FleetService::~FleetService() = default;

int
FleetService::obsPort() const
{
    return obs_server_ != nullptr ? obs_server_->port() : -1;
}

Result<sim::CampaignResult>
FleetService::run()
{
    require(!ran_, "fleet service: run() called twice");
    ran_ = true;

    Result<std::unique_ptr<fleet::FleetDispatch>> created =
        fleet::FleetDispatch::create(spec_);
    if (!created.ok())
        return created.status();
    fleet::FleetDispatch& dispatch = *created.value();
    const bool listening = listener_.fd() >= 0;

    // A network service always drains on SIGTERM/SIGINT: in-flight
    // units are requeued, hosts get shutdown lines, the partial result
    // is reported. A local-only run, like the in-process runner, gets
    // these only when checkpointing (FleetDispatch::create installs
    // them then).
    ignoreSigpipe();
    if (listening)
        installInterruptHandlers();

    // ---- Fork phase -------------------------------------------------
    // Local workers fork now, while the process is still
    // single-threaded. Without a listener they are the fleet; with one
    // they are the standby rung, beating on their config'd pipes until
    // the degradation ladder engages them (or never, if agents carry
    // the campaign). Neither the listening socket nor the
    // observability endpoint (bound in create(), serving nothing until
    // the campaign threads exist) may leak into them.
    const std::uint64_t pending = dispatch.initialPendingUnits();
    const int local_count =
        pending == 0 ? 0
                     : static_cast<int>(std::min<std::uint64_t>(
                           static_cast<std::uint64_t>(
                               spec_.fleet_workers),
                           pending));
    std::vector<int> inherited_fds;
    if (listening)
        inherited_fds.push_back(listener_.fd());
    if (obs_server_)
        inherited_fds.push_back(obs_server_->fd());
    std::vector<std::unique_ptr<fleet::Host>> locals;
    for (int w = 0; w < local_count; ++w)
        locals.push_back(fleet::forkWorkerHost(dispatch, w, inherited_fds));

    // Threads are safe from here on.
    dispatch.start();
    if (obs_server_) {
        obs_server_->serve([&dispatch](const std::string& path) {
            ObsResponse out;
            if (path == "/metrics") {
                out.found = true;
                out.content_type = "text/plain; version=0.0.4";
                out.body = renderMetricsText(dispatch.status());
            } else if (path == "/status") {
                out.found = true;
                out.content_type = "application/json";
                out.body = renderStatusJson(dispatch.status());
            }
            return out;
        });
    }

    std::atomic<int> active_remote{0};
    std::atomic<int> active_local{0};
    const auto engage = [&dispatch](fleet::Host& host,
                                    std::atomic<int>& active) {
        active.fetch_add(1);
        host.thread = std::thread([&dispatch, &host, &active] {
            fleet::runLiaison(dispatch, host);
            active.fetch_sub(1);
        });
    };
    // Start a liaison for every forked worker that has none yet.
    const auto engageLocals = [&] {
        int engaged = 0;
        for (auto& local : locals) {
            if (local->reader && !local->thread.joinable()) {
                engage(*local, active_local);
                ++engaged;
            }
        }
        return engaged;
    };

    // ---- Accept / lifecycle loop ------------------------------------
    const int grace_ms = std::max(
        0, static_cast<int>(spec_.fleet_grace_s * 1000.0));
    std::vector<std::unique_ptr<fleet::Host>> agents;
    int agent_seq = 0;
    bool locals_engaged = !listening;
    if (!listening)
        engageLocals();
    auto last_activity = Clock::now();

    while (listening && pending != 0) {
        if (interruptRequested() || dispatch.allSettled())
            break;

        // Degradation ladder: no connected agent for the grace window
        // engages the local standby workers; when those are gone too
        // (or never existed), fall through to in-process completion.
        if (active_remote.load() == 0 &&
            elapsedMs(last_activity) >= grace_ms) {
            if (!locals_engaged) {
                locals_engaged = true;
                last_activity = Clock::now();
                if (const int engaged = engageLocals(); engaged > 0) {
                    warn("fleet: no agent connected for " +
                         std::to_string(grace_ms / 1000) +
                         "s; engaging " + std::to_string(engaged) +
                         " local standby worker(s)");
                    continue;
                }
            }
            if (active_local.load() == 0) {
                warn("fleet: no remote or local host left; finishing "
                     "the remaining units in-process");
                break;
            }
        }

        Result<int> accepted = listener_.accept(kPollMs);
        if (!accepted.ok()) {
            if (isDeadlineExpired(accepted.status()))
                continue;
            warn("fleet: accept failed: " +
                 accepted.status().toString());
            break;
        }

        std::unique_ptr<fleet::Host> agent = agentHost(
            accepted.value(), spec_.fleet_workers + agent_seq);
        if (Status s = handshake(dispatch, spec_.fleet_secret, *agent);
            !s.ok()) {
            if (s.code() == ErrorCode::failedPrecondition)
                dispatch.noteAuthFailure();
            warn("fleet: rejecting connection: " + s.toString());
            agent->hang_up(true);
            continue;
        }
        ++agent_seq;
        last_activity = Clock::now();
        dispatch.noteAgentConnected();
        engage(*agent, active_remote);
        agents.push_back(std::move(agent));
    }

    // ---- Drain ------------------------------------------------------
    listener_.close();
    // Standby workers the ladder never engaged still owe a shutdown
    // line and a reap: their liaisons find the campaign settled or
    // draining and hang up at once. After an accept failure they join
    // the hosts still serving instead.
    engageLocals();
    for (auto& host : locals) {
        if (host->thread.joinable())
            host->thread.join();
    }
    for (auto& host : agents)
        host->thread.join();

    // Last rung: whatever is still pending runs right here. A no-op
    // when the campaign settled or an interrupt asked us to stop.
    dispatch.finishInProcess();

    // The endpoint outlives the liaisons (a curl mid-drain is fine)
    // but not finalize, which consumes the dispatcher.
    if (obs_server_)
        obs_server_->stop();

    std::vector<obs::FleetWorkerRecord> records;
    for (const auto& host : locals)
        records.push_back(host->record);
    for (const auto& host : agents)
        records.push_back(host->record);
    // Count before the move: argument evaluation order is unspecified,
    // so records.size() inside the call could see the moved-out vector.
    const int worker_count = static_cast<int>(records.size());
    return dispatch.finalize(worker_count, std::move(records));
}

Result<sim::CampaignResult>
runFleetService(const sim::CampaignSpec& spec)
{
    Result<std::unique_ptr<FleetService>> service =
        FleetService::create(spec);
    if (!service.ok())
        return service.status();
    return service.value()->run();
}

} // namespace gpuecc::net
