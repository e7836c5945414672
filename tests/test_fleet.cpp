/** @file Tests for the fleet dispatcher and its wire protocol. */

#include <gtest/gtest.h>

#include <cstdio>
#include <poll.h>
#include <unistd.h>
#include <string>
#include <vector>

#include "common/interrupt.hpp"
#include "fleet/protocol.hpp"
#include "sim/campaign.hpp"
#include "sim/chaos.hpp"
#include "sim/checkpoint.hpp"

namespace gpuecc {
namespace {

using sim::fleet::FleetConfig;
using sim::fleet::WorkerMessage;
using sim::fleet::WorkUnit;

std::string
tempPath(const std::string& name)
{
    return ::testing::TempDir() + name;
}

void
expectCellsIdentical(const sim::CampaignResult& a,
                     const sim::CampaignResult& b)
{
    ASSERT_EQ(a.cells.size(), b.cells.size());
    for (std::size_t i = 0; i < a.cells.size(); ++i) {
        EXPECT_EQ(a.cells[i].scheme_id, b.cells[i].scheme_id);
        EXPECT_EQ(a.cells[i].pattern, b.cells[i].pattern);
        const OutcomeCounts& x = a.cells[i].counts;
        const OutcomeCounts& y = b.cells[i].counts;
        EXPECT_EQ(x.trials, y.trials) << "cell " << i;
        EXPECT_EQ(x.dce, y.dce) << "cell " << i;
        EXPECT_EQ(x.due, y.due) << "cell " << i;
        EXPECT_EQ(x.sdc, y.sdc) << "cell " << i;
        EXPECT_EQ(x.exhaustive, y.exhaustive) << "cell " << i;
    }
}

sim::CampaignSpec
smallSpec()
{
    sim::CampaignSpec spec;
    spec.scheme_ids = {"ni-secded", "duet"};
    spec.patterns = {ErrorPattern::oneBit, ErrorPattern::oneBeat};
    spec.samples = 20000;
    spec.seed = 0xF1EE7;
    spec.threads = 1;
    return spec;
}

TEST(FleetProtocol, ConfigLineRoundTrips)
{
    FleetConfig cfg;
    cfg.worker = 3;
    cfg.scheme_ids = {"duet", "trio"};
    cfg.patterns = {ErrorPattern::oneBit, ErrorPattern::wholeEntry};
    cfg.samples = 123456;
    cfg.seed = 0x5EED;
    cfg.chunk = 4096;
    cfg.fingerprint = "schemes=duet,trio;...";
    cfg.codec_backend = "compiled";

    const std::string line = sim::fleet::encodeConfigLine(cfg);
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.back(), '\n');
    const auto decoded = sim::fleet::decodeConfigLine(line);
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    const FleetConfig& d = decoded.value();
    EXPECT_EQ(d.worker, cfg.worker);
    EXPECT_EQ(d.scheme_ids, cfg.scheme_ids);
    ASSERT_EQ(d.patterns.size(), cfg.patterns.size());
    EXPECT_EQ(d.patterns[0], cfg.patterns[0]);
    EXPECT_EQ(d.patterns[1], cfg.patterns[1]);
    EXPECT_EQ(d.samples, cfg.samples);
    EXPECT_EQ(d.seed, cfg.seed);
    EXPECT_EQ(d.chunk, cfg.chunk);
    EXPECT_EQ(d.fingerprint, cfg.fingerprint);
    EXPECT_EQ(d.codec_backend, cfg.codec_backend);
}

TEST(FleetProtocol, UnitLineRoundTripsWithoutParentBookkeeping)
{
    WorkUnit unit;
    unit.unit = 7;
    unit.cell = 5; // parent-side only; must not travel
    unit.first_task = 40;
    unit.task_count = 4;

    const auto decoded =
        sim::fleet::decodeUnitLine(sim::fleet::encodeUnitLine(unit));
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    EXPECT_EQ(decoded.value().unit, 7u);
    EXPECT_EQ(decoded.value().first_task, 40u);
    EXPECT_EQ(decoded.value().task_count, 4u);
    EXPECT_EQ(decoded.value().cell, 0u);
}

TEST(FleetProtocol, ResultLineCarriesCheckpointTallies)
{
    WorkerMessage msg;
    msg.kind = WorkerMessage::Kind::result;
    msg.unit = 11;
    msg.worker = 2;
    msg.busy_us = 123456;
    msg.checkpoint.fingerprint = "fp";
    sim::CheckpointEntry sampled;
    sampled.task = 40;
    sampled.counts.trials = 100;
    sampled.counts.dce = 90;
    sampled.counts.due = 7;
    sampled.counts.sdc = 3;
    msg.checkpoint.done.push_back(sampled);
    sim::CheckpointEntry exhaustive;
    exhaustive.task = 41;
    exhaustive.counts.trials = 288;
    exhaustive.counts.dce = 288;
    exhaustive.counts.exhaustive = true;
    msg.checkpoint.done.push_back(exhaustive);

    const auto decoded = sim::fleet::decodeWorkerLine(
        sim::fleet::encodeResultLine(msg));
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    const WorkerMessage& d = decoded.value();
    EXPECT_EQ(d.kind, WorkerMessage::Kind::result);
    EXPECT_EQ(d.unit, 11u);
    EXPECT_EQ(d.worker, 2);
    EXPECT_EQ(d.busy_us, 123456u);
    EXPECT_EQ(d.checkpoint.fingerprint, "fp");
    ASSERT_EQ(d.checkpoint.done.size(), 2u);
    EXPECT_EQ(d.checkpoint.done[0].task, 40u);
    EXPECT_EQ(d.checkpoint.done[0].counts.trials, 100u);
    EXPECT_EQ(d.checkpoint.done[0].counts.sdc, 3u);
    EXPECT_TRUE(d.checkpoint.done[1].counts.exhaustive);
}

TEST(FleetProtocol, ErrorLinesRoundTrip)
{
    const auto unit_err = sim::fleet::decodeWorkerLine(
        sim::fleet::encodeUnitErrorLine(9, 1, "cell failed twice"));
    ASSERT_TRUE(unit_err.ok());
    EXPECT_EQ(unit_err.value().kind, WorkerMessage::Kind::unit_error);
    EXPECT_EQ(unit_err.value().unit, 9u);
    EXPECT_EQ(unit_err.value().worker, 1);
    EXPECT_EQ(unit_err.value().message, "cell failed twice");

    const auto worker_err = sim::fleet::decodeWorkerLine(
        sim::fleet::encodeWorkerErrorLine(4, "fingerprint mismatch"));
    ASSERT_TRUE(worker_err.ok());
    EXPECT_EQ(worker_err.value().kind,
              WorkerMessage::Kind::worker_error);
    EXPECT_EQ(worker_err.value().worker, 4);
    EXPECT_EQ(worker_err.value().message, "fingerprint mismatch");
}

TEST(FleetProtocol, GarbageLinesAreStructuredErrors)
{
    EXPECT_FALSE(sim::fleet::decodeConfigLine("not json\n").ok());
    EXPECT_FALSE(sim::fleet::decodeConfigLine("{}\n").ok());
    EXPECT_FALSE(sim::fleet::decodeUnitLine("[1,2]\n").ok());
    EXPECT_FALSE(sim::fleet::decodeWorkerLine("{\"type\":\"bogus\"}\n")
                     .ok());
}

TEST(Fleet, TalliesBitIdenticalToInProcess)
{
    sim::CampaignSpec spec = smallSpec();
    const sim::CampaignResult in_process =
        sim::CampaignRunner(spec).run();
    ASSERT_EQ(in_process.fleet.workers, 0);

    spec.fleet_workers = 2;
    const sim::CampaignResult fleet =
        sim::CampaignRunner(spec).run();
    EXPECT_EQ(fleet.fleet.workers, 2);
    EXPECT_GT(fleet.fleet.units, 0u);
    EXPECT_EQ(fleet.fleet.worker_records.size(), 2u);
    EXPECT_EQ(fleet.fleet.workers_lost, 0);
    EXPECT_TRUE(fleet.errors.empty());
    expectCellsIdentical(in_process, fleet);
}

/** Pipe of the killed-worker hand-off; forked workers inherit it. */
int g_handoff[2] = {-1, -1};

/**
 * Hold worker 0 at its first unit until worker 1 starts its second:
 * worker 1 writes a byte just before its chaos exit fires, and only
 * then does worker 0 go on. Without it, worker 0 can drain the queue
 * while worker 1 is still on its first unit, and nobody dies. The
 * wait is bounded so a broken hand-off fails the assertions instead
 * of hanging the run.
 */
void
holdWorker0UntilWorker1StartsASecondUnit(int worker, std::uint64_t,
                                         std::uint64_t units_completed)
{
    if (worker == 1 && units_completed == 1) {
        // This runs in the forked worker, where a gtest assertion
        // would go unseen; a failed write shows as worker 0's timeout.
        const char go = 'g';
        [[maybe_unused]] const ssize_t sent = ::write(g_handoff[1], &go, 1);
    } else if (worker == 0 && units_completed == 0) {
        pollfd ready = {g_handoff[0], POLLIN, 0};
        ::poll(&ready, 1, 60 * 1000);
    }
}

TEST(Fleet, KilledWorkerUnitIsRequeuedBitIdentically)
{
    sim::CampaignSpec spec = smallSpec();
    const sim::CampaignResult reference =
        sim::CampaignRunner(spec).run();

    // Worker 1 self-kills when it starts its second unit; its
    // in-flight unit must be re-queued and finished by worker 0, which
    // the hook holds on its first unit until then.
    ASSERT_EQ(::pipe(g_handoff), 0);
    sim::setFleetUnitStartHook(holdWorker0UntilWorker1StartsASecondUnit);
    sim::ChaosSpec chaos;
    chaos.fleet_exit_worker = 1;
    chaos.fleet_exit_after = 1;
    sim::setChaosSpec(chaos);
    spec.fleet_workers = 2;
    const sim::CampaignResult fleet =
        sim::CampaignRunner(spec).run();
    sim::clearChaosSpec();
    sim::setFleetUnitStartHook(nullptr);
    ::close(g_handoff[0]);
    ::close(g_handoff[1]);

    EXPECT_EQ(fleet.fleet.workers_lost, 1);
    EXPECT_GE(fleet.fleet.requeues, 1u);
    ASSERT_EQ(fleet.fleet.worker_records.size(), 2u);
    EXPECT_TRUE(fleet.fleet.worker_records[1].lost);
    EXPECT_FALSE(fleet.fleet.worker_records[0].lost);
    EXPECT_TRUE(fleet.errors.empty());
    expectCellsIdentical(reference, fleet);
}

TEST(Fleet, AllWorkersLostFallsBackToParent)
{
    sim::CampaignSpec spec = smallSpec();
    const sim::CampaignResult reference =
        sim::CampaignRunner(spec).run();

    sim::ChaosSpec chaos;
    chaos.fleet_exit_worker = 0;
    chaos.fleet_exit_after = 0; // dies on its very first unit
    sim::setChaosSpec(chaos);
    spec.fleet_workers = 1;
    const sim::CampaignResult fleet =
        sim::CampaignRunner(spec).run();
    sim::clearChaosSpec();

    EXPECT_EQ(fleet.fleet.workers_lost, 1);
    EXPECT_GT(fleet.fleet.parent_fallback_shards, 0u);
    EXPECT_TRUE(fleet.errors.empty());
    expectCellsIdentical(reference, fleet);
}

TEST(Fleet, PoisonUnitIsRetiredAtTheRequeueCap)
{
    sim::CampaignSpec spec = smallSpec();
    const sim::CampaignResult reference =
        sim::CampaignRunner(spec).run();

    // Unit 0 kills every worker it lands on; after
    // fleet_max_unit_attempts hosts die, the dispatcher must retire
    // it as poisoned (dropping its scheme) instead of feeding it the
    // whole fleet.
    sim::ChaosSpec chaos;
    chaos.fleet_exit_unit = 0;
    chaos.fleet_exit_unit_count = -1;
    sim::setChaosSpec(chaos);
    spec.fleet_workers = 4;
    spec.fleet_max_unit_attempts = 3;
    const sim::CampaignResult fleet =
        sim::CampaignRunner(spec).run();
    sim::clearChaosSpec();

    EXPECT_EQ(fleet.fleet.units_poisoned, 1u);
    EXPECT_EQ(fleet.fleet.workers_lost, 3u);
    ASSERT_FALSE(fleet.errors.empty());
    // Unit 0 belongs to the first scheme of the plan; that scheme is
    // dropped and reported, the survivor stays bit-identical.
    EXPECT_EQ(fleet.errors[0].scheme_id, "ni-secded");
    EXPECT_FALSE(fleet.hasScheme("ni-secded"));
    ASSERT_TRUE(fleet.hasScheme("duet"));
    for (const ErrorPattern pattern :
         {ErrorPattern::oneBit, ErrorPattern::oneBeat}) {
        const OutcomeCounts& want = reference.counts("duet", pattern);
        const OutcomeCounts& got = fleet.counts("duet", pattern);
        EXPECT_EQ(want.trials, got.trials);
        EXPECT_EQ(want.dce, got.dce);
        EXPECT_EQ(want.due, got.due);
        EXPECT_EQ(want.sdc, got.sdc);
    }
}

TEST(Fleet, HungWorkerTripsTheUnitDeadline)
{
    sim::CampaignSpec spec = smallSpec();
    const sim::CampaignResult reference =
        sim::CampaignRunner(spec).run();

    // Worker 0 hangs on its first unit without dying; only the
    // --fleet-worker-timeout round-trip deadline can catch it.
    sim::ChaosSpec chaos;
    chaos.fleet_stall_worker = 0;
    chaos.fleet_stall_after = 0;
    sim::setChaosSpec(chaos);
    spec.fleet_workers = 2;
    spec.fleet_worker_timeout_s = 1.0;
    const sim::CampaignResult fleet =
        sim::CampaignRunner(spec).run();
    sim::clearChaosSpec();

    EXPECT_GE(fleet.fleet.worker_timeouts, 1u);
    EXPECT_GE(fleet.fleet.requeues, 1u);
    EXPECT_EQ(fleet.fleet.workers_lost, 1u);
    ASSERT_EQ(fleet.fleet.worker_records.size(), 2u);
    EXPECT_TRUE(fleet.fleet.worker_records[0].lost);
    EXPECT_TRUE(fleet.errors.empty());
    expectCellsIdentical(reference, fleet);
}

TEST(Fleet, SilentWorkerTripsTheHeartbeatDeadline)
{
    sim::CampaignSpec spec = smallSpec();
    const sim::CampaignResult reference =
        sim::CampaignRunner(spec).run();

    // Worker 0 hangs on its first unit with its heartbeats silenced,
    // and no round-trip deadline is set: only the liveness rule every
    // host shares can catch it.
    sim::ChaosSpec chaos;
    chaos.fleet_stall_worker = 0;
    chaos.fleet_stall_after = 0;
    sim::setChaosSpec(chaos);
    spec.fleet_workers = 2;
    spec.fleet_heartbeat_timeout_s = 1.0;
    spec.fleet_worker_timeout_s = 0.0;
    const sim::CampaignResult fleet =
        sim::CampaignRunner(spec).run();
    sim::clearChaosSpec();

    EXPECT_GE(fleet.fleet.heartbeat_expiries, 1u);
    EXPECT_GE(fleet.fleet.requeues, 1u);
    ASSERT_EQ(fleet.fleet.worker_records.size(), 2u);
    EXPECT_TRUE(fleet.fleet.worker_records[0].lost);
    EXPECT_TRUE(fleet.errors.empty());
    expectCellsIdentical(reference, fleet);
}

TEST(Fleet, ResumesFromInterruptedFleetCheckpoint)
{
    const std::string path = tempPath("gpuecc_fleet_resume_ck.json");
    std::remove(path.c_str());

    sim::CampaignSpec spec = smallSpec();
    const sim::CampaignResult reference =
        sim::CampaignRunner(spec).run();

    // Interrupt a checkpointed fleet run partway through...
    sim::ChaosSpec chaos;
    chaos.kill_after = 30;
    sim::setChaosSpec(chaos);
    spec.fleet_workers = 2;
    spec.checkpoint_path = path;
    spec.checkpoint_interval_s = 0;
    const sim::CampaignResult interrupted =
        sim::CampaignRunner(spec).run();
    sim::clearChaosSpec();
    clearInterrupt(); // the simulated SIGTERM latches until cleared
    ASSERT_TRUE(interrupted.interrupted);

    // ...then resume it in fleet mode and demand bit-identity.
    spec.resume = true;
    const sim::CampaignResult resumed =
        sim::CampaignRunner(spec).run();
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_GT(resumed.resumed_shards, 0u);
    expectCellsIdentical(reference, resumed);
    std::remove(path.c_str());
}

TEST(Fleet, ShardRetryIsCountedOnItsHost)
{
    sim::CampaignSpec spec = smallSpec();
    const sim::CampaignResult reference =
        sim::CampaignRunner(spec).run();

    // Task 3 throws once inside whichever worker evaluates it; the
    // shared retry step re-runs it there and counts the retry.
    sim::ChaosSpec chaos;
    chaos.task_fault = 3;
    chaos.task_fault_count = 1;
    sim::setChaosSpec(chaos);
    spec.fleet_workers = 2;
    const sim::CampaignResult fleet =
        sim::CampaignRunner(spec).run();
    sim::clearChaosSpec();

    EXPECT_TRUE(fleet.errors.empty());
    expectCellsIdentical(reference, fleet);
    const std::string prefix = "fleet.host.";
    const std::string suffix = ".campaign.shard_retries";
    std::uint64_t retries = 0;
    for (const obs::CounterValue& c : fleet.metrics.counters) {
        if (c.name.size() > prefix.size() + suffix.size() &&
            c.name.compare(0, prefix.size(), prefix) == 0 &&
            c.name.compare(c.name.size() - suffix.size(),
                           suffix.size(), suffix) == 0)
            retries += c.value;
    }
    EXPECT_EQ(retries, 1u);
}

/**
 * A spec whose effective chunk is 2048 both in-process on one thread
 * and on a 2-worker fleet (20000 samples over 2 x 4 unit slots leave
 * 2 blocks each), so both modes share one plan and one fingerprint.
 */
sim::CampaignSpec
crossModeSpec()
{
    sim::CampaignSpec spec = smallSpec();
    spec.chunk = 2048;
    return spec;
}

TEST(Fleet, InProcessCheckpointResumesInFleetMode)
{
    const std::string path = tempPath("gpuecc_cross_to_fleet_ck.json");
    std::remove(path.c_str());

    sim::CampaignSpec spec = crossModeSpec();
    const sim::CampaignResult reference =
        sim::CampaignRunner(spec).run();

    // Interrupt a single-threaded in-process run after 7 tasks: the
    // checkpoint then ends inside a 4-task work unit.
    sim::ChaosSpec chaos;
    chaos.kill_after = 7;
    sim::setChaosSpec(chaos);
    spec.checkpoint_path = path;
    spec.checkpoint_interval_s = 0;
    const sim::CampaignResult interrupted =
        sim::CampaignRunner(spec).run();
    sim::clearChaosSpec();
    clearInterrupt(); // the simulated SIGTERM latches until cleared
    ASSERT_TRUE(interrupted.interrupted);
    const Result<sim::CampaignCheckpoint> written =
        sim::loadCheckpoint(path);
    ASSERT_TRUE(written.ok());

    // Resume it on the fleet: whole units restore, the partly covered
    // one is re-dispatched, and the tallies match an unbroken run.
    spec.fleet_workers = 2;
    spec.resume = true;
    const sim::CampaignResult resumed =
        sim::CampaignRunner(spec).run();
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_TRUE(resumed.errors.empty());
    EXPECT_GT(resumed.resumed_shards, 0u);
    EXPECT_LT(resumed.resumed_shards, written.value().done.size());
    expectCellsIdentical(reference, resumed);
    std::remove(path.c_str());
}

TEST(Fleet, FleetCheckpointResumesInProcess)
{
    const std::string path = tempPath("gpuecc_cross_to_local_ck.json");
    std::remove(path.c_str());

    sim::CampaignSpec spec = crossModeSpec();
    const sim::CampaignResult reference =
        sim::CampaignRunner(spec).run();

    sim::ChaosSpec chaos;
    chaos.kill_after = 9;
    sim::setChaosSpec(chaos);
    spec.fleet_workers = 2;
    spec.checkpoint_path = path;
    spec.checkpoint_interval_s = 0;
    const sim::CampaignResult interrupted =
        sim::CampaignRunner(spec).run();
    sim::clearChaosSpec();
    clearInterrupt();
    ASSERT_TRUE(interrupted.interrupted);

    spec.fleet_workers = 0;
    spec.resume = true;
    const sim::CampaignResult resumed =
        sim::CampaignRunner(spec).run();
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_TRUE(resumed.errors.empty());
    EXPECT_GT(resumed.resumed_shards, 0u);
    EXPECT_LT(resumed.resumed_shards, resumed.shards);
    expectCellsIdentical(reference, resumed);
    std::remove(path.c_str());
}

} // namespace
} // namespace gpuecc
