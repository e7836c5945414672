/** @file Unit and statistical tests for the RNG. */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"

namespace gpuecc {
namespace {

TEST(Rng, DeterministicPerSeed)
{
    Rng a(123), b(123), c(124);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next64(), b.next64());
    bool differs = false;
    Rng a2(123);
    for (int i = 0; i < 100; ++i)
        differs = differs || (a2.next64() != c.next64());
    EXPECT_TRUE(differs);
}

TEST(Rng, BoundedStaysInRange)
{
    Rng rng(5);
    for (std::uint64_t bound : {1ull, 2ull, 7ull, 100ull, 1ull << 40}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.nextBounded(bound), bound);
    }
}

TEST(Rng, BoundedCoversSmallRange)
{
    Rng rng(6);
    std::array<int, 5> seen{};
    for (int i = 0; i < 1000; ++i)
        ++seen[rng.nextBounded(5)];
    for (int count : seen)
        EXPECT_GT(count, 100); // uniform: expect ~200 each
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(7);
    OnlineStats stats;
    for (int i = 0; i < 20000; ++i) {
        const double u = rng.nextDouble();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        stats.add(u);
    }
    EXPECT_NEAR(stats.mean(), 0.5, 0.01);
    EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.005);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(8);
    OnlineStats stats;
    for (int i = 0; i < 50000; ++i)
        stats.add(rng.nextGaussian());
    EXPECT_NEAR(stats.mean(), 0.0, 0.02);
    EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(9);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.nextBool(0.3);
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.015);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(10);
    OnlineStats stats;
    for (int i = 0; i < 50000; ++i)
        stats.add(rng.nextExponential(2.0));
    EXPECT_NEAR(stats.mean(), 0.5, 0.01);
}

class PoissonMeanProperty : public ::testing::TestWithParam<double>
{
};

TEST_P(PoissonMeanProperty, MeanAndVarianceMatch)
{
    const double mean = GetParam();
    Rng rng(static_cast<std::uint64_t>(mean * 1000) + 11);
    OnlineStats stats;
    for (int i = 0; i < 30000; ++i)
        stats.add(static_cast<double>(rng.nextPoisson(mean)));
    EXPECT_NEAR(stats.mean(), mean, std::max(0.05, mean * 0.03));
    EXPECT_NEAR(stats.variance(), mean, std::max(0.1, mean * 0.06));
}

INSTANTIATE_TEST_SUITE_P(Means, PoissonMeanProperty,
                         ::testing::Values(0.1, 0.5, 2.0, 10.0, 50.0,
                                           200.0));

TEST(Rng, PoissonZeroMean)
{
    Rng rng(12);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.nextPoisson(0.0), 0u);
}

TEST(Rng, BinomialEdgeCases)
{
    Rng rng(14);
    EXPECT_EQ(rng.nextBinomial(0, 0.5), 0u);
    EXPECT_EQ(rng.nextBinomial(100, 0.0), 0u);
    EXPECT_EQ(rng.nextBinomial(100, 1.0), 100u);
    // p extremely close to 1 must still exhaust n (the displacement
    // damage pool-exhaustion case).
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(rng.nextBinomial(500, 1.0 - 1e-18), 500u);
}

class BinomialMoments
    : public ::testing::TestWithParam<std::pair<std::uint64_t, double>>
{
};

TEST_P(BinomialMoments, MeanMatches)
{
    const auto [n, p] = GetParam();
    Rng rng(15);
    OnlineStats stats;
    for (int i = 0; i < 20000; ++i)
        stats.add(static_cast<double>(rng.nextBinomial(n, p)));
    const double mean = static_cast<double>(n) * p;
    EXPECT_NEAR(stats.mean(), mean, std::max(0.05, mean * 0.03));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BinomialMoments,
    ::testing::Values(std::pair<std::uint64_t, double>{20, 0.3},
                      std::pair<std::uint64_t, double>{500, 0.01},
                      std::pair<std::uint64_t, double>{2700, 0.4},
                      std::pair<std::uint64_t, double>{2700, 0.97}));

TEST(Rng, SplitStreamsDiffer)
{
    Rng parent(13);
    Rng child = parent.split();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += parent.next64() == child.next64();
    EXPECT_LT(same, 3);
}

TEST(Rng, ForStreamIsDeterministic)
{
    Rng a = Rng::forStream(42, 7);
    Rng b = Rng::forStream(42, 7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next64(), b.next64());
}

TEST(Rng, ForStreamSeparatesStreams)
{
    // Adjacent stream ids (the campaign's shard indices) must give
    // unrelated sequences, as must the same stream id under another
    // seed.
    Rng base = Rng::forStream(42, 7);
    Rng next_stream = Rng::forStream(42, 8);
    Rng other_seed = Rng::forStream(43, 7);
    int same_stream = 0, same_seed = 0;
    for (int i = 0; i < 200; ++i) {
        const std::uint64_t v = base.next64();
        same_stream += v == next_stream.next64();
        same_seed += v == other_seed.next64();
    }
    EXPECT_LT(same_stream, 3);
    EXPECT_LT(same_seed, 3);
}

TEST(Rng, ForStreamZeroStreamDiffersFromPlainSeed)
{
    // Stream derivation perturbs the state even for stream 0, so
    // campaign shard 0 does not replay the golden-entry draw.
    Rng plain(42);
    Rng stream0 = Rng::forStream(42, 0);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += plain.next64() == stream0.next64();
    EXPECT_LT(same, 3);
}

TEST(Rng, ForStreamSequencesIndependentOfInterleaving)
{
    // A stream's sequence is a pure function of (seed, stream):
    // drawing several streams round-robin must reproduce exactly what
    // each stream yields when drawn alone. This is what lets campaign
    // workers consume streams in any order.
    constexpr int kStreams = 8;
    constexpr int kDraws = 256;
    std::vector<std::vector<std::uint64_t>> alone(kStreams);
    for (int s = 0; s < kStreams; ++s) {
        Rng r = Rng::forStream(0x5EED, s);
        for (int i = 0; i < kDraws; ++i)
            alone[s].push_back(r.next64());
    }
    std::vector<Rng> live;
    for (int s = 0; s < kStreams; ++s)
        live.push_back(Rng::forStream(0x5EED, s));
    for (int i = 0; i < kDraws; ++i) {
        for (int s = 0; s < kStreams; ++s)
            ASSERT_EQ(live[s].next64(), alone[s][i]);
    }
}

TEST(Rng, BlockKeyedDrawsInvariantToPartition)
{
    // The shard engine keys draws to fixed 1024-sample stream blocks,
    // so sample i sees forStream(seed, i / kBlock) regardless of how
    // the sample range is cut into shards. Model that here: partition
    // [0, total) into chunks of several (block-multiple) sizes and
    // require the flat draw sequence to be identical.
    static constexpr std::uint64_t kBlock = 1024;
    static constexpr std::uint64_t kTotal = 8 * kBlock + 512;
    auto draw_all = [](std::uint64_t chunk) {
        std::vector<std::uint64_t> out;
        for (std::uint64_t begin = 0; begin < kTotal; begin += chunk) {
            const std::uint64_t end = std::min(kTotal, begin + chunk);
            for (std::uint64_t b = begin; b < end; b += kBlock) {
                Rng rng = Rng::forStream(0x5EED, b / kBlock);
                const std::uint64_t stop = std::min(end, b + kBlock);
                for (std::uint64_t i = b; i < stop; ++i)
                    out.push_back(rng.next64());
            }
        }
        return out;
    };
    const auto reference = draw_all(kTotal);
    for (std::uint64_t chunk : {kBlock, 2 * kBlock, 4 * kBlock})
        ASSERT_EQ(draw_all(chunk), reference);
}

TEST(Rng, ForStreamStatisticallyUniform)
{
    // Pool the first draw of many consecutive streams — the exact
    // pattern the campaign engine relies on for unbiased shards.
    OnlineStats stats;
    for (std::uint64_t stream = 0; stream < 20000; ++stream) {
        Rng r = Rng::forStream(0x5EED, stream);
        stats.add(r.nextDouble());
    }
    EXPECT_NEAR(stats.mean(), 0.5, 0.01);
    EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.005);
}

TEST(Rng, FairCoinIsTopBitClear)
{
    // The error-mask sampler builds its region words from
    // ~next64() >> 63 and relies on this being nextBool(0.5) draw for
    // draw; a change to nextDouble or nextBool must not break that.
    for (std::uint64_t seed : {1ull, 0x5EEDull, 0xC0FFEEull}) {
        Rng a(seed), b(seed);
        for (int i = 0; i < 1000000; ++i)
            ASSERT_EQ(a.nextBool(0.5), !(b.next64() >> 63)) << i;
    }
}

} // namespace
} // namespace gpuecc
