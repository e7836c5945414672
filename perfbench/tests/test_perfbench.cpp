/**
 * @file
 * Tests of the benchmark itself, at the benchmark's own workload
 * shapes: determinism of the target-driven workload, the
 * weighted-interval arithmetic, the correctness gate, and the traced
 * run's Chrome trace.
 */

#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "bench_core.hpp"
#include "ecc/registry.hpp"
#include "runner.hpp"
#include "sim/json.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

BenchConfig
rareSdcCi(int threads)
{
    BenchConfig cfg;
    cfg.workload = Workload::rare_sdc_ci;
    cfg.seed = 7;
    cfg.threads = threads;
    return cfg;
}

/** A broken decoder: it flags every silent corruption as a DUE. */
class SdcToDue : public gpuecc::EntryScheme
{
  public:
    explicit SdcToDue(std::shared_ptr<gpuecc::EntryScheme> inner)
        : inner_(std::move(inner)), golden_(gpuecc::makeGolden(*inner_, 0))
    {
    }

    std::string id() const override { return inner_->id(); }
    std::string name() const override { return inner_->name(); }
    gpuecc::Bits288
    encode(const gpuecc::EntryData& data) const override
    {
        return inner_->encode(data);
    }
    gpuecc::EntryDecode
    decode(const gpuecc::Bits288& received) const override
    {
        gpuecc::EntryDecode d = inner_->decode(received);
        if (d.status != gpuecc::EntryDecode::Status::due &&
            d.data != golden_.data)
            d.status = gpuecc::EntryDecode::Status::due;
        return d;
    }
    bool correctsPinErrors() const override
    {
        return inner_->correctsPinErrors();
    }

  private:
    std::shared_ptr<gpuecc::EntryScheme> inner_;
    gpuecc::GoldenEntry golden_;
};

TEST(RareSdcCi, TrialsToTargetIdenticalAtOneAndThreeThreads)
{
    Gate gate_one;
    Gate gate_three;
    const RepResult one = runRep(rareSdcCi(1), gate_one);
    const RepResult three = runRep(rareSdcCi(3), gate_three);
    EXPECT_TRUE(gate_one.ok());
    EXPECT_TRUE(gate_three.ok());

    // The target takes several waves, so the stopping rule is exercised.
    EXPECT_GT(one.waves, 4u);
    EXPECT_EQ(one.trials, three.trials);
    EXPECT_EQ(one.waves, three.waves);
    EXPECT_EQ(one.replicate_trials, three.replicate_trials);
    ASSERT_EQ(one.replicates.size(), three.replicates.size());
    for (std::size_t r = 0; r < one.replicates.size(); ++r) {
        for (const auto& [id, counts] : one.replicates[r]) {
            EXPECT_LE(weightedSdcInterval(counts).width, kTargetWidth)
                << id;
            const PatternCounts& other = three.replicates[r].at(id);
            for (const auto& [p, c] : counts) {
                const OutcomeCounts& d = other.at(p);
                EXPECT_EQ(c.trials, d.trials);
                EXPECT_EQ(c.dce, d.dce);
                EXPECT_EQ(c.due, d.due);
                EXPECT_EQ(c.sdc, d.sdc);
            }
        }
    }
}

TEST(WeightedInterval, MatchesHandComputedCase)
{
    PatternCounts c;
    OutcomeCounts bit;
    bit.trials = 288;
    bit.dce = 288;
    bit.exhaustive = true;
    c[ErrorPattern::oneBit] = bit;
    OutcomeCounts beat;
    beat.trials = 1000;
    beat.due = 990;
    beat.sdc = 10;
    c[ErrorPattern::oneBeat] = beat;
    OutcomeCounts entry;
    entry.trials = 400;
    entry.due = 400;
    c[ErrorPattern::wholeEntry] = entry;

    // 95% Wilson intervals, z = 1.96:
    //   10 of 1000: [0.0054406953093, 0.0183096653054]
    //    0 of  400: [0, z^2 / (400 + z^2) = 3.8416 / 403.8416]
    // Table 1 weights: 1 Beat 0.0090, 1 Entry 0.0223.
    const double beat_lo = 0.005440695309270557;
    const double beat_hi = 0.01830966530539216;
    const double entry_hi = 3.8416 / 403.8416;
    const WeightedInterval w = weightedSdcInterval(c);
    EXPECT_NEAR(w.sdc, 0.0090 * 0.01, 1e-15);
    EXPECT_NEAR(w.lo, 0.0090 * beat_lo, 1e-15);
    EXPECT_NEAR(w.hi, 0.0090 * beat_hi + 0.0223 * entry_hi, 1e-15);
    EXPECT_NEAR(w.width, 3.279526153379733e-4, 1e-15);

    // An exact cell moves the value but adds no width.
    c[ErrorPattern::oneBit].dce = 287;
    c[ErrorPattern::oneBit].sdc = 1;
    const WeightedInterval exact = weightedSdcInterval(c);
    EXPECT_NEAR(exact.width, w.width, 1e-18);
    EXPECT_NEAR(exact.sdc - w.sdc, 0.7398 / 288.0, 1e-15);
}

TEST(Gate, RejectsPerturbedTally)
{
    const std::optional<OutcomeCounts> pinned =
        pinnedExactCounts("trio", ErrorPattern::threeBits);
    ASSERT_TRUE(pinned.has_value());
    Gate clean;
    clean.checkCell("trio", ErrorPattern::threeBits, *pinned, 0);
    EXPECT_TRUE(clean.ok());
    EXPECT_EQ(clean.attempted(), 1u);

    // Self-consistent but different from the pinned exact counts.
    OutcomeCounts moved = *pinned;
    --moved.due;
    ++moved.sdc;
    Gate gate_moved;
    gate_moved.checkCell("trio", ErrorPattern::threeBits, moved, 0);
    EXPECT_FALSE(gate_moved.ok());
    EXPECT_EQ(gate_moved.failed(), 1u);

    // Classes no longer sum to the trials.
    OutcomeCounts torn = *pinned;
    ++torn.sdc;
    Gate gate_torn;
    gate_torn.checkCell("trio", ErrorPattern::threeBits, torn, 0);
    EXPECT_FALSE(gate_torn.ok());

    OutcomeCounts sampled;
    sampled.trials = 1024;
    sampled.dce = 1000;
    sampled.due = 20;
    sampled.sdc = 4;
    Gate gate_sampled;
    gate_sampled.checkCell("trio", ErrorPattern::oneBeat, sampled, 1024);
    EXPECT_TRUE(gate_sampled.ok());
    Gate gate_short;
    gate_short.checkCell("trio", ErrorPattern::oneBeat, sampled, 2048);
    EXPECT_FALSE(gate_short.ok());

    OutcomeCounts other = sampled;
    --other.dce;
    ++other.sdc;
    Gate gate_identical;
    gate_identical.checkIdentical("trio", ErrorPattern::oneBeat, sampled,
                                  sampled);
    EXPECT_TRUE(gate_identical.ok());
    gate_identical.checkIdentical("trio", ErrorPattern::oneBeat, other,
                                  sampled);
    EXPECT_FALSE(gate_identical.ok());

    Gate gate_headline;
    gate_headline.checkHeadline("ni-secded", {0.74, 0.20, 0.054});
    gate_headline.checkHeadline("trio", {0.97, 0.02, 0.01});
    EXPECT_TRUE(gate_headline.ok());
    gate_headline.checkHeadline("ni-secded", {0.74, 0.17, 0.09});
    EXPECT_FALSE(gate_headline.ok());
    EXPECT_EQ(gate_headline.attempted(), 3u);
}

TEST(Gate, RejectsSdcMovedToDue)
{
    // Decoder side: the pinned SDC masks of every sampled scheme stay
    // SDCs under the real decoder and fail under one that flags them.
    for (const std::string& id : rareSchemes()) {
        const std::shared_ptr<gpuecc::EntryScheme> scheme =
            gpuecc::makeScheme(id);
        Gate real;
        real.checkPinnedDecodes(id, *scheme);
        EXPECT_TRUE(real.ok()) << id;
        EXPECT_GT(real.attempted(), 8u) << id << ": too few pinned masks";
        Gate broken;
        broken.checkPinnedDecodes(id, SdcToDue(scheme));
        EXPECT_FALSE(broken.ok()) << id << ": no pinned SDC mask";
    }

    // Tally side: a cell as large as the reference, with its SDCs moved
    // to DUE, departs from the reference rates; the cell as sampled
    // does not.
    const std::optional<OutcomeCounts> ref =
        referenceCounts("trio", ErrorPattern::wholeEntry);
    ASSERT_TRUE(ref.has_value());
    Gate same;
    same.checkRates("trio", ErrorPattern::wholeEntry, *ref);
    EXPECT_TRUE(same.ok());
    OutcomeCounts moved = *ref;
    moved.due += moved.sdc;
    moved.sdc = 0;
    Gate gate_moved;
    gate_moved.checkRates("trio", ErrorPattern::wholeEntry, moved);
    EXPECT_FALSE(gate_moved.ok());
    EXPECT_EQ(gate_moved.attempted(), 1u);

    // At a replicate's size (about 170k samples, where the reference
    // expects 0.47 SDCs) five corrected dense masks, or twelve SDCs,
    // already fail.
    OutcomeCounts replicate;
    replicate.trials = 172032;
    replicate.due = replicate.trials;
    Gate none;
    none.checkRates("trio", ErrorPattern::wholeEntry, replicate);
    EXPECT_TRUE(none.ok());
    OutcomeCounts corrected = replicate;
    corrected.due -= 5;
    corrected.dce += 5;
    Gate gate_corrected;
    gate_corrected.checkRates("trio", ErrorPattern::wholeEntry, corrected);
    EXPECT_FALSE(gate_corrected.ok());
    OutcomeCounts more_sdc = replicate;
    more_sdc.due -= 12;
    more_sdc.sdc += 12;
    Gate gate_more_sdc;
    gate_more_sdc.checkRates("trio", ErrorPattern::wholeEntry, more_sdc);
    EXPECT_FALSE(gate_more_sdc.ok());
}

TEST(Trace, TracedRunHasSpansForEveryLayer)
{
    RunOptions o;
    o.cfg.workload = Workload::fleet_fine_units;
    o.cfg.seed = 3;
    o.trace_out = testing::TempDir() + "perfbench_trace_test.json";
    Gate gate;
    const std::vector<Metric> metrics = measureLayers(o, gate);
    EXPECT_TRUE(gate.ok());

    std::set<std::string> names;
    for (const Metric& m : metrics)
        names.insert(m.name);
    for (const char* name :
         {"faultsim.sample_ns.beat", "faultsim.sample_share",
          "ecc.decode_ns.ssc-dsd-plus", "ecc.construct_ms.trio",
          "common.pool_idle_frac", "sim.unattributed_cpu_s",
          "fleet.encode_result_us", "fleet.units_poisoned",
          "obs.trace_overhead_frac"})
        EXPECT_EQ(names.count(name), 1u) << name;

    std::ifstream in(o.trace_out);
    ASSERT_TRUE(in.good());
    std::stringstream text;
    text << in.rdbuf();
    const gpuecc::Result<gpuecc::sim::JsonValue> doc =
        gpuecc::sim::parseJson(text.str());
    ASSERT_TRUE(doc.ok()) << doc.status().toString();
    const gpuecc::sim::JsonValue* events = doc.value().find("traceEvents");
    ASSERT_NE(events, nullptr);

    std::set<std::string> layers;
    std::set<std::uint64_t> ids = {0};
    std::vector<std::uint64_t> parents;
    for (const gpuecc::sim::JsonValue& e : events->elements()) {
        const gpuecc::sim::JsonValue* args = e.find("args");
        if (args == nullptr || args->find("id") == nullptr)
            continue; // the library's own spans
        ASSERT_NE(args->find("parent"), nullptr);
        ASSERT_NE(args->find("workload"), nullptr);
        EXPECT_EQ(args->find("workload")->asString().value(),
                  "fleet_fine_units/3");
        layers.insert(e.find("cat")->asString().value());
        ids.insert(args->find("id")->asUint64().value());
        parents.push_back(args->find("parent")->asUint64().value());
    }
    for (const char* layer :
         {"faultsim", "ecc", "sim", "common", "fleet", "obs"})
        EXPECT_EQ(layers.count(layer), 1u) << layer;
    for (std::uint64_t parent : parents)
        EXPECT_EQ(ids.count(parent), 1u) << "dangling parent " << parent;
}

} // namespace
} // namespace perfbench
