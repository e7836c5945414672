#include "fleet/liaison.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>

#include "common/interrupt.hpp"
#include "common/log.hpp"
#include "fleet/protocol.hpp"
#include "fleet/worker.hpp"

namespace gpuecc::sim::fleet {

namespace {

using Clock = std::chrono::steady_clock;

/** Idle read slice: how soon an idle liaison sees a requeued unit or
    the campaign's end. */
constexpr int kIdlePollMs = 1;

/** Busy read slice: how often a liaison awaiting a unit re-checks
    drain and liveness. */
constexpr int kAwaitPollMs = 200;

int
elapsedMs(Clock::time_point since)
{
    return static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            Clock::now() - since)
            .count());
}

int
toMs(double seconds)
{
    return static_cast<int>(seconds * 1000.0);
}

} // namespace

std::unique_ptr<Host>
forkWorkerHost(FleetDispatch& dispatch, int w,
               std::vector<int>& inherited_fds)
{
    auto host = std::make_unique<Host>();
    host->record.worker = w;
    // Four beats per liveness window, so one late beat never reads as
    // silence.
    const int beat_ms = std::max(
        1, toMs(dispatch.spec().fleet_heartbeat_timeout_s) / 4);
    Result<ChildProcess> child = spawnChild(
        [beat_ms](int read_fd, int write_fd) {
            return fleetWorkerMain(read_fd, write_fd, beat_ms);
        },
        inherited_fds);
    if (!child.ok()) {
        warn("fleet: cannot fork worker " + std::to_string(w) + ": " +
             child.status().toString());
        host->record.lost = true;
        return host;
    }
    ChildProcess proc = child.value();
    host->record.pid = proc.pid;
    inherited_fds.push_back(proc.to_child);
    inherited_fds.push_back(proc.from_child);
    host->reader =
        std::make_unique<LineReader>(proc.from_child, kMaxWireLineBytes);
    host->write_line = [fd = proc.to_child](const std::string& line,
                                            int deadline_ms) {
        return writeAllFd(fd, line, deadline_ms);
    };
    host->hang_up = [proc](bool kill) mutable {
        // Both ends close before the wait, so a worker blocked writing
        // to a full pipe — a standby that beat unread for hours —
        // fails that write and exits instead of stalling the reap.
        closeFd(proc.to_child);
        closeFd(proc.from_child);
        if (kill)
            killChild(proc.pid);
        Result<int> exit = waitForExit(proc.pid);
        return exit.ok() ? exit.value() : -1;
    };

    dispatch.registerHost(w, "local-" + std::to_string(w), false);
    if (Status s = host->write_line(
            encodeConfigLine(dispatch.configFor(w)), -1);
        !s.ok()) {
        warn("fleet: worker " + std::to_string(w) +
             " rejected its config: " + s.toString());
        host->record.exit_code = host->hang_up(true);
        host->record.lost = true;
        host->reader.reset();
    }
    return host;
}

void
runLiaison(FleetDispatch& dispatch, Host& host)
{
    const CampaignSpec& spec = dispatch.spec();
    const int heartbeat_ms =
        std::max(1, toMs(spec.fleet_heartbeat_timeout_s));
    const int unit_deadline_ms = spec.fleet_worker_timeout_s > 0
                                     ? toMs(spec.fleet_worker_timeout_s)
                                     : -1;
    obs::FleetWorkerRecord& record = host.record;
    const std::string name =
        "worker " + std::to_string(record.worker) +
        (record.agent.empty() ? "" : " ('" + record.agent + "')");

    bool busy = false; // a unit is in flight on this host
    std::uint64_t u = 0;
    auto dispatch_at = Clock::now();
    auto last_heard = Clock::now();

    // The host is gone: requeue its unit, hang up, count the loss.
    const auto lose = [&](const std::string& why) {
        if (busy)
            dispatch.requeueUnit(u, why);
        warn("fleet: losing " + name + ": " + why);
        record.exit_code = host.hang_up(true);
        record.lost = true;
        dispatch.noteWorkerLost();
    };

    for (;;) {
        if (interruptRequested() || dispatch.allSettled()) {
            if (busy)
                dispatch.requeueUnit(
                    u, "graceful drain with the unit in flight");
            // Best-effort: a host that is already gone just fails the
            // write — we are hanging up either way. A host still
            // evaluating is killed, not waited for: it may be hung,
            // and its unit is requeued already.
            (void)host.write_line(encodeShutdownLine(), 1000);
            record.exit_code = host.hang_up(busy);
            return;
        }
        if (!busy && dispatch.tryClaim(u)) {
            busy = true;
            dispatch.noteUnitDispatched(u, record.worker);
            dispatch_at = Clock::now();
            if (Status sent = host.write_line(
                    encodeUnitLine(dispatch.unit(u)), heartbeat_ms);
                !sent.ok())
                return lose(sent.toString());
        }
        int slice = busy ? kAwaitPollMs : kIdlePollMs;
        if (busy && unit_deadline_ms > 0) {
            const int left = unit_deadline_ms - elapsedMs(dispatch_at);
            if (left <= 0) {
                dispatch.noteWorkerTimeout();
                return lose("unit " + std::to_string(u) +
                            " exceeded its round-trip deadline");
            }
            slice = std::min(slice, left);
        }

        Result<std::string> line = host.reader->readLine(slice);
        if (!line.ok()) {
            if (!isDeadlineExpired(line.status()))
                return lose(line.status().toString());
            if (elapsedMs(last_heard) < heartbeat_ms)
                continue;
            dispatch.noteHeartbeatExpiry();
            return lose("heartbeats stopped");
        }
        last_heard = Clock::now();
        Result<WorkerMessage> decoded = decodeWorkerLine(line.value());
        if (!decoded.ok())
            return lose(decoded.status().toString());
        const WorkerMessage& msg = decoded.value();
        // Every index a host sends is checked before the dispatcher
        // sees it: its per-unit state is indexed without bounds checks.
        if (msg.unit >= dispatch.unitCount())
            return lose("message names unknown unit " +
                        std::to_string(msg.unit));

        switch (msg.kind) {
          case WorkerMessage::Kind::heartbeat:
            dispatch.noteHeartbeat(msg.worker, msg.now_us);
            break;
          case WorkerMessage::Kind::telemetry:
            // Shipped ahead of the settlement it accompanies.
            dispatch.absorbTelemetry(msg);
            break;
          case WorkerMessage::Kind::worker_error:
            return lose(msg.message);
          case WorkerMessage::Kind::unit_error:
            // The cell failed persistently inside the host — the same
            // graceful degradation as in-process: the scheme is
            // dropped, the campaign continues.
            dispatch.failUnit(msg.unit, msg.message);
            busy = busy && msg.unit != u;
            break;
          case WorkerMessage::Kind::result: {
            // It may name a unit other than the one in flight: a
            // replayed delivery for a unit that settled elsewhere,
            // which completeUnit discards idempotently.
            if (Status valid = dispatch.validateResult(msg.unit, msg);
                !valid.ok())
                return lose(valid.toString());
            const bool mine = busy && msg.unit == u;
            if (dispatch.completeUnit(msg.unit, msg, dispatch_at,
                                      Clock::now()) &&
                mine) {
                const WorkUnit& unit = dispatch.unit(u);
                record.units += 1;
                record.shards += unit.task_count;
                for (const CheckpointEntry& e : msg.checkpoint.done)
                    record.trials += e.counts.trials;
                record.busy_seconds +=
                    static_cast<double>(msg.busy_us) * 1e-6;
            }
            busy = busy && !mine;
            break;
          }
        }
    }
}

} // namespace gpuecc::sim::fleet
