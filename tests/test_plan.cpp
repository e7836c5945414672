/** @file Tests for the shared campaign plan and its run accounting. */

#include <gtest/gtest.h>

#include <string>

#include "common/interrupt.hpp"
#include "obs/metrics.hpp"
#include "sim/campaign.hpp"
#include "sim/chaos.hpp"
#include "sim/plan.hpp"

namespace gpuecc {
namespace {

/** Every test leaves the process-global chaos harness disarmed. */
class PlanTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        sim::clearChaosSpec();
        clearInterrupt();
    }
    void TearDown() override
    {
        sim::clearChaosSpec();
        clearInterrupt();
    }
};

sim::CampaignPlan
smallPlan()
{
    Result<sim::CampaignPlan> plan = sim::CampaignPlan::build(
        "campaign", {"duet", "trio"},
        {ErrorPattern::oneBit, ErrorPattern::oneBeat}, 8192, 0x91A4,
        1024);
    EXPECT_TRUE(plan.ok()) << plan.status().toString();
    return std::move(plan).value();
}

TEST_F(PlanTest, TasksAreSchemeMajorAndFingerprinted)
{
    const sim::CampaignPlan plan = smallPlan();
    ASSERT_FALSE(plan.tasks().empty());
    std::size_t previous = 0;
    for (const sim::PlanTask& t : plan.tasks()) {
        EXPECT_GE(t.cell, previous);
        previous = t.cell;
    }
    EXPECT_EQ(previous, 3u); // 2 schemes x 2 patterns
    EXPECT_EQ(plan.fingerprint(),
              sim::campaignFingerprint(plan.schemeIds(), plan.patterns(),
                                       8192, 0x91A4, 1024,
                                       plan.codecBackend(),
                                       plan.tasks().size()));
    ASSERT_EQ(plan.emptyCells().size(), 4u);
    EXPECT_EQ(plan.emptyCells()[2].scheme_id, "trio");
}

TEST_F(PlanTest, CheckEntryRejectsForeignTallies)
{
    const sim::CampaignPlan plan = smallPlan();
    ShardBatchArena arena;
    Result<OutcomeCounts> counts = plan.evaluate(0, arena);
    ASSERT_TRUE(counts.ok());
    EXPECT_TRUE(plan.checkEntry({0, counts.value()}, "src").ok());

    const Status outside =
        plan.checkEntry({plan.tasks().size(), counts.value()}, "src");
    EXPECT_EQ(outside.code(), ErrorCode::dataLoss);
    EXPECT_NE(outside.message().find("outside the plan"),
              std::string::npos);

    // Task 0 is an exhaustive 1-bit shard: non-exhaustive tallies, or
    // a sampled shard's tallies, do not belong to it.
    OutcomeCounts wrong = counts.value();
    wrong.exhaustive = false;
    const Status mismatch = plan.checkEntry({0, wrong}, "src");
    EXPECT_EQ(mismatch.code(), ErrorCode::dataLoss);
    EXPECT_EQ(mismatch.message(),
              "src: task 0 tallies don't match its shard");
}

TEST_F(PlanTest, EvaluateRetriesOnceAndNamesTheTaskThatFailedTwice)
{
    const sim::CampaignPlan plan = smallPlan();
    ShardBatchArena arena;
    const Result<OutcomeCounts> clean = plan.evaluate(2, arena);
    ASSERT_TRUE(clean.ok());

    obs::MetricsRegistry& reg = obs::metrics();
    reg.flushThisThread();
    const obs::MetricsSnapshot before = reg.snapshot();

    sim::ChaosSpec chaos;
    chaos.task_fault = 2;
    chaos.task_fault_count = 1;
    sim::setChaosSpec(chaos);
    const Result<OutcomeCounts> retried = plan.evaluate(2, arena);
    ASSERT_TRUE(retried.ok());
    EXPECT_EQ(retried.value().trials, clean.value().trials);
    EXPECT_EQ(retried.value().sdc, clean.value().sdc);

    chaos.task_fault_count = 2;
    sim::setChaosSpec(chaos);
    std::vector<sim::CheckpointEntry> out;
    const Status failed = plan.evaluateRange(1, 3, arena, out);
    EXPECT_FALSE(failed.ok());
    EXPECT_EQ(failed.message().rfind("shard task 2 failed twice: ", 0),
              0u)
        << failed.message();
    ASSERT_EQ(out.size(), 1u); // task 1 ran; the range stopped at 2
    EXPECT_EQ(out[0].task, 1u);

    reg.flushThisThread();
    const obs::MetricsSnapshot delta = reg.snapshot().since(before);
    const obs::CounterValue* counted =
        delta.findCounter("campaign.shard_retries");
    ASSERT_NE(counted, nullptr);
    EXPECT_EQ(counted->value, 2u); // one retry per faulted evaluation
}

TEST_F(PlanTest, SkippedTasksOfAFailedCellCompleteTheProgressLine)
{
    const sim::CampaignPlan plan = smallPlan();
    sim::CampaignSpec spec;
    sim::PlanRun run(plan, spec, {});
    run.begin(obs::ProgressMode::on);

    // Run the plan the way the in-process runner does, with the first
    // task of cell 1 failing for good: that task and every later task
    // of its cell are skipped, the rest run.
    const std::size_t failing_cell = 1;
    const auto now = sim::PlanRun::Clock::now();
    for (const sim::PlanTask& t : plan.tasks()) {
        if (run.cellFailed(t.cell)) {
            run.skipped(t.cell, 1);
        } else if (t.cell == failing_cell) {
            run.failCell(t.cell, "shard task failed twice: injected");
            run.skipped(t.cell, 1);
        } else {
            run.ran(t.cell, 1, 1024, 1, now, now);
        }
    }

    ASSERT_NE(run.progress(), nullptr);
    const obs::ProgressSample sample = run.progress()->sample();
    EXPECT_EQ(sample.shards_done, plan.tasks().size());
    EXPECT_EQ(sample.totals.shards, plan.tasks().size());
    EXPECT_EQ(sample.schemes_done, 2u);
    EXPECT_EQ(run.shardsDone(), plan.tasks().size());

    // Ending the run drops the failed cell's scheme, keeps the other.
    sim::CampaignResult result;
    result.cells = plan.emptyCells();
    run.finish(result);
    ASSERT_EQ(result.errors.size(), 1u);
    EXPECT_EQ(result.errors[0].scheme_id, "duet");
    EXPECT_FALSE(result.hasScheme("duet"));
    EXPECT_TRUE(result.hasScheme("trio"));
    ASSERT_EQ(result.scheme_timings.size(), 2u);
}

TEST_F(PlanTest, InProcessPersistentFailureNamesTheTask)
{
    sim::ChaosSpec chaos;
    chaos.task_fault = 0;
    chaos.task_fault_count = 2;
    sim::setChaosSpec(chaos);
    sim::CampaignSpec spec;
    spec.scheme_ids = {"duet", "trio"};
    spec.patterns = {ErrorPattern::oneBit};
    spec.samples = 0;
    spec.threads = 1;
    const sim::CampaignResult result = sim::CampaignRunner(spec).run();

    ASSERT_EQ(result.errors.size(), 1u);
    EXPECT_EQ(result.errors[0].scheme_id, "duet");
    EXPECT_NE(result.errors[0].message.find("shard task 0 failed twice"),
              std::string::npos)
        << result.errors[0].message;
    EXPECT_TRUE(result.hasScheme("trio"));
}

} // namespace
} // namespace gpuecc
