/** @file Tests for the Table 1 error-pattern model. */

#include <array>
#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "faultsim/patterns.hpp"
#include "interleave/swizzle.hpp"

namespace gpuecc {
namespace {

/*
 * Reference model of the sampler and classifier: the original
 * per-bit nextBool(0.5) sampler and per-set-bit classifier, kept
 * verbatim so the word-at-a-time versions in faultsim/patterns.cpp
 * are checked against them mask for mask.
 */

ErrorPattern
referenceClassify(const Bits288& mask)
{
    const int bits = mask.popcount();
    if (bits == 1)
        return ErrorPattern::oneBit;

    bool same_pin = true;
    bool same_byte = true;
    bool same_beat = true;
    int first = -1;
    mask.forEachSetBit([&](int phys) {
        if (first < 0) {
            first = phys;
            return;
        }
        if (layout::pinOf(phys) != layout::pinOf(first))
            same_pin = false;
        if (layout::byteOf(phys) != layout::byteOf(first))
            same_byte = false;
        if (layout::beatOf(phys) != layout::beatOf(first))
            same_beat = false;
    });

    // Priority order per Table 1: easier shapes win.
    if (same_pin)
        return ErrorPattern::onePin;
    if (same_byte)
        return ErrorPattern::oneByte;
    if (bits == 2)
        return ErrorPattern::twoBits;
    if (bits == 3)
        return ErrorPattern::threeBits;
    if (same_beat)
        return ErrorPattern::oneBeat;
    return ErrorPattern::wholeEntry;
}

Bits288
referenceSampleRegion(ErrorPattern target, int region_lo,
                      int region_bits, Rng& rng)
{
    for (;;) {
        Bits288 mask;
        for (int i = 0; i < region_bits; ++i) {
            if (rng.nextBool(0.5))
                mask.set(region_lo + i, 1);
        }
        if (!mask.none() && referenceClassify(mask) == target)
            return mask;
    }
}

Bits288
referenceSamplePin(Rng& rng)
{
    const int pin = static_cast<int>(rng.nextBounded(layout::num_pins));
    for (;;) {
        Bits288 mask;
        for (int beat = 0; beat < layout::num_beats; ++beat) {
            if (rng.nextBool(0.5))
                mask.set(layout::physicalIndex(beat, pin), 1);
        }
        if (mask.popcount() >= 2)
            return mask;
    }
}

Bits288
referenceSample(ErrorPattern p, Rng& rng)
{
    switch (p) {
      case ErrorPattern::oneBit: {
        Bits288 mask;
        mask.set(static_cast<int>(rng.nextBounded(layout::entry_bits)), 1);
        return mask;
      }
      case ErrorPattern::onePin:
        return referenceSamplePin(rng);
      case ErrorPattern::oneByte: {
        const int byte =
            static_cast<int>(rng.nextBounded(layout::num_bytes));
        return referenceSampleRegion(ErrorPattern::oneByte, 8 * byte, 8,
                                     rng);
      }
      case ErrorPattern::twoBits:
      case ErrorPattern::threeBits: {
        const int want = p == ErrorPattern::twoBits ? 2 : 3;
        for (;;) {
            Bits288 mask;
            while (mask.popcount() < want) {
                mask.set(static_cast<int>(
                             rng.nextBounded(layout::entry_bits)),
                         1);
            }
            if (referenceClassify(mask) == p)
                return mask;
        }
      }
      case ErrorPattern::oneBeat: {
        const int beat =
            static_cast<int>(rng.nextBounded(layout::num_beats));
        return referenceSampleRegion(ErrorPattern::oneBeat,
                                     layout::beat_bits * beat,
                                     layout::beat_bits, rng);
      }
      case ErrorPattern::wholeEntry:
        return referenceSampleRegion(ErrorPattern::wholeEntry, 0,
                                     layout::entry_bits, rng);
    }
    return Bits288{};
}

/** FNV-1a over the bytes of `count` masks drawn from `rng`, in order. */
std::uint64_t
hashMasks(ErrorPattern p, Rng rng, int count)
{
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (int i = 0; i < count; ++i) {
        const Bits288 mask = sampleErrorMask(p, rng);
        for (int w = 0; w < Bits288::numWords; ++w) {
            std::uint64_t x = mask.word(w);
            for (int b = 0; b < 8; ++b, x >>= 8) {
                h ^= x & 0xFF;
                h *= 0x100000001B3ull;
            }
        }
    }
    return h;
}


TEST(PatternTable, ProbabilitiesMatchTable1)
{
    const auto& table = patternTable();
    double total = 0.0;
    for (const PatternInfo& info : table)
        total += info.probability;
    EXPECT_NEAR(total, 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(patternInfo(ErrorPattern::oneBit).probability,
                     0.7398);
    EXPECT_DOUBLE_EQ(patternInfo(ErrorPattern::oneByte).probability,
                     0.2256);
    EXPECT_DOUBLE_EQ(patternInfo(ErrorPattern::wholeEntry).probability,
                     0.0223);
    EXPECT_EQ(patternInfo(ErrorPattern::onePin).bits_range, "2-4");
}

TEST(Classifier, SingleBit)
{
    Bits288 m;
    m.set(17, 1);
    EXPECT_EQ(classifyErrorMask(m), ErrorPattern::oneBit);
}

TEST(Classifier, PinBeatsByteInPriority)
{
    // Two bits on one pin across beats: same pin, different bytes.
    Bits288 m;
    m.set(layout::physicalIndex(0, 5), 1);
    m.set(layout::physicalIndex(2, 5), 1);
    EXPECT_EQ(classifyErrorMask(m), ErrorPattern::onePin);
}

TEST(Classifier, ByteBeatsTwoBits)
{
    Bits288 m;
    m.set(16, 1);
    m.set(23, 1); // both in byte 2
    EXPECT_EQ(classifyErrorMask(m), ErrorPattern::oneByte);
}

TEST(Classifier, TwoAndThreeBits)
{
    Bits288 two;
    two.set(0, 1);
    two.set(100, 1);
    EXPECT_EQ(classifyErrorMask(two), ErrorPattern::twoBits);

    Bits288 three = two;
    three.set(200, 1);
    EXPECT_EQ(classifyErrorMask(three), ErrorPattern::threeBits);
}

TEST(Classifier, BeatAndEntry)
{
    Bits288 beat;
    beat.set(72 + 1, 1);
    beat.set(72 + 20, 1);
    beat.set(72 + 40, 1);
    beat.set(72 + 60, 1);
    EXPECT_EQ(classifyErrorMask(beat), ErrorPattern::oneBeat);

    Bits288 entry = beat;
    entry.set(200, 1); // beat 2
    EXPECT_EQ(classifyErrorMask(entry), ErrorPattern::wholeEntry);
}

TEST(Enumeration, CountsMatchCombinatorics)
{
    auto count = [](ErrorPattern p) {
        return forEachErrorMask(p, [](const Bits288&) {});
    };
    EXPECT_EQ(count(ErrorPattern::oneBit), 288u);
    // 72 pins x (2^4 - 1 - 4) multi-bit masks.
    EXPECT_EQ(count(ErrorPattern::onePin), 72u * 11u);
    // 36 bytes x (2^8 - 1 - 8) multi-bit masks.
    EXPECT_EQ(count(ErrorPattern::oneByte), 36u * 247u);
    // C(288,2) minus same-byte pairs (36*C(8,2)) minus same-pin
    // pairs (72*C(4,2)).
    EXPECT_EQ(count(ErrorPattern::twoBits),
              288u * 287u / 2 - 36u * 28u - 72u * 6u);
}

TEST(Enumeration, EnumeratedMasksClassifyCorrectly)
{
    for (ErrorPattern p :
         {ErrorPattern::oneBit, ErrorPattern::onePin,
          ErrorPattern::oneByte, ErrorPattern::twoBits}) {
        forEachErrorMask(p, [p](const Bits288& mask) {
            ASSERT_EQ(classifyErrorMask(mask), p);
        });
    }
}

TEST(Enumeration, EnumerableQuery)
{
    EXPECT_TRUE(patternIsEnumerable(ErrorPattern::oneBit));
    EXPECT_TRUE(patternIsEnumerable(ErrorPattern::threeBits));
    EXPECT_FALSE(patternIsEnumerable(ErrorPattern::oneBeat));
    EXPECT_FALSE(patternIsEnumerable(ErrorPattern::wholeEntry));
}

class SamplerProperty : public ::testing::TestWithParam<ErrorPattern>
{
};

TEST_P(SamplerProperty, SamplesClassifyAsRequested)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) + 99);
    for (int trial = 0; trial < 500; ++trial) {
        const Bits288 mask = sampleErrorMask(GetParam(), rng);
        ASSERT_FALSE(mask.none());
        ASSERT_EQ(classifyErrorMask(mask), GetParam());
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPatterns, SamplerProperty,
    ::testing::Values(ErrorPattern::oneBit, ErrorPattern::onePin,
                      ErrorPattern::oneByte, ErrorPattern::twoBits,
                      ErrorPattern::threeBits, ErrorPattern::oneBeat,
                      ErrorPattern::wholeEntry));

TEST(Sampler, ByteSeveritiesSpanRange)
{
    // Conditioned random byte corruption produces 2..8 bits.
    Rng rng(1);
    std::set<int> seen;
    for (int trial = 0; trial < 2000; ++trial)
        seen.insert(sampleErrorMask(ErrorPattern::oneByte, rng)
                        .popcount());
    EXPECT_EQ(*seen.begin(), 2);
    EXPECT_EQ(*seen.rbegin(), 8);
}

TEST_P(SamplerProperty, MatchesReferenceSamplerMaskForMask)
{
    // Same generator calls, same masks: the word-at-a-time sampler
    // must reproduce the per-bit nextBool(0.5) sampler exactly.
    const ErrorPattern p = GetParam();
    for (std::uint64_t stream : {0ull, 1ull, 0x5EEDull, 1ull << 40}) {
        Rng fast = Rng::forStream(0xC0FFEE, stream);
        Rng ref = Rng::forStream(0xC0FFEE, stream);
        for (int i = 0; i < 5000; ++i) {
            ASSERT_EQ(sampleErrorMask(p, fast), referenceSample(p, ref))
                << "stream " << stream << " draw " << i;
        }
        // Both consumed exactly the same generator calls.
        ASSERT_EQ(fast.next64(), ref.next64());
    }
}

TEST(Sampler, PinnedStreamHash)
{
    // The first 4096 masks of block 0 of the 1 Beat and 1 Entry cells
    // (stream id pattern << 32) at seed 0x5EED. A change here changes
    // every sampled tally.
    auto hash = [](ErrorPattern p) {
        return hashMasks(
            p, Rng::forStream(0x5EED, static_cast<std::uint64_t>(p) << 32),
            4096);
    };
    EXPECT_EQ(hash(ErrorPattern::oneBeat), 0x61D6A41FC5BFC3C8ull);
    EXPECT_EQ(hash(ErrorPattern::wholeEntry), 0x8B3079FB265DCD0Dull);
}

TEST(Classifier, MatchesReferenceOnAllTwoAndThreeBitMasks)
{
    // Every 2- and 3-bit mask, not only the ones the enumerator
    // keeps, so pin/byte/beat rejections are compared too.
    std::uint64_t two_bit = 0;
    std::uint64_t three_bit = 0;
    for (int a = 0; a < layout::entry_bits; ++a) {
        for (int b = a + 1; b < layout::entry_bits; ++b) {
            Bits288 pair;
            pair.set(a, 1);
            pair.set(b, 1);
            const ErrorPattern want = referenceClassify(pair);
            ASSERT_EQ(classifyErrorMask(pair), want) << a << "," << b;
            two_bit += want == ErrorPattern::twoBits;
            for (int c = b + 1; c < layout::entry_bits; ++c) {
                Bits288 triple = pair;
                triple.set(c, 1);
                const ErrorPattern want3 = referenceClassify(triple);
                ASSERT_EQ(classifyErrorMask(triple), want3)
                    << a << "," << b << "," << c;
                three_bit += want3 == ErrorPattern::threeBits;
            }
        }
    }
    // The enumerator filters with the classifier under test; it must
    // keep exactly the masks the reference calls 2 or 3 bits.
    auto enumerated = [](ErrorPattern p) {
        return forEachErrorMask(p, [p](const Bits288& mask) {
            ASSERT_EQ(referenceClassify(mask), p);
        });
    };
    EXPECT_EQ(enumerated(ErrorPattern::twoBits), two_bit);
    EXPECT_EQ(enumerated(ErrorPattern::threeBits), three_bit);
}

TEST(Classifier, MatchesReferenceAcrossWordAndBeatBoundaries)
{
    // Every nonempty subset of an 8-bit window centred on each 64-bit
    // word boundary and each beat boundary, alone and with one far bit.
    for (int boundary : {64, 128, 192, 256, 72, 144, 216}) {
        for (unsigned m = 1; m < 256; ++m) {
            Bits288 mask;
            for (int t = 0; t < 8; ++t) {
                if ((m >> t) & 1)
                    mask.set(boundary - 4 + t, 1);
            }
            ASSERT_EQ(classifyErrorMask(mask), referenceClassify(mask))
                << boundary << ":" << m;
            for (int far : {0, boundary + layout::beat_bits - 4,
                            layout::entry_bits - 1}) {
                if (far >= layout::entry_bits)
                    continue;
                Bits288 wide = mask;
                wide.set(far, 1);
                ASSERT_EQ(classifyErrorMask(wide),
                          referenceClassify(wide))
                    << boundary << ":" << m << "+" << far;
            }
        }
    }
}

TEST(Classifier, MatchesReferenceOnRandomMasks)
{
    // Random subsets of random regions (whole entry, one beat, one
    // byte, one pin, or a window across a word or beat boundary) at a
    // random density per mask.
    static constexpr std::array<int, 7> boundaries = {64,  128, 192, 256,
                                                      72,  144, 216};
    Rng rng(0xC1A55);
    std::array<int, numErrorPatterns> seen{};
    for (int i = 0; i < 200000; ++i) {
        const double density = rng.nextDouble();
        std::vector<int> region;
        switch (rng.nextBounded(5)) {
          case 0:
            for (int b = 0; b < layout::entry_bits; ++b)
                region.push_back(b);
            break;
          case 1: {
            const int beat =
                static_cast<int>(rng.nextBounded(layout::num_beats));
            for (int b = 0; b < layout::beat_bits; ++b)
                region.push_back(layout::physicalIndex(beat, b));
            break;
          }
          case 2: {
            const int byte =
                static_cast<int>(rng.nextBounded(layout::num_bytes));
            for (int b = 0; b < 8; ++b)
                region.push_back(8 * byte + b);
            break;
          }
          case 3: {
            const int pin =
                static_cast<int>(rng.nextBounded(layout::num_pins));
            for (int beat = 0; beat < layout::num_beats; ++beat)
                region.push_back(layout::physicalIndex(beat, pin));
            break;
          }
          default: {
            const int boundary = boundaries[rng.nextBounded(7)];
            for (int b = boundary - 16; b < boundary + 16; ++b)
                region.push_back(b);
            break;
          }
        }
        Bits288 mask;
        for (int b : region) {
            if (rng.nextDouble() < density)
                mask.set(b, 1);
        }
        if (mask.none())
            continue;
        const ErrorPattern want = referenceClassify(mask);
        ASSERT_EQ(classifyErrorMask(mask), want) << mask.toString();
        ++seen[static_cast<int>(want)];
    }
    for (int count : seen)
        EXPECT_GT(count, 100); // every shape was exercised
}

/*
 * The lock-step sampler (sampleErrorMasks): lane i's masks must be
 * exactly the masks of sampleErrorMask on lane i's own generator, in
 * order, whatever the lane count, the per-lane counts and the vector
 * kernel, and each lane must end in the same state.
 */

using LaneKernel = detail::LaneKernel;

/** Per-lane sample counts: unequal, with empty and ragged lanes. */
const std::vector<std::vector<std::uint64_t>>&
laneCountSets()
{
    static const std::vector<std::vector<std::uint64_t>> sets = {
        {300},           {0},
        {300, 17},       {0, 250},       {40, 40},
        {17, 300, 0},    {130, 130, 130},
        {300, 17, 0, 257}, {0, 0, 0, 0}, {64, 64, 64, 64},
        {17, 0, 17, 900},
    };
    return sets;
}

/** Block generators of a shard: stream (pattern << 32) | lane. */
std::vector<Rng>
laneGenerators(ErrorPattern p, std::size_t lanes)
{
    std::vector<Rng> rngs;
    for (std::size_t i = 0; i < lanes; ++i) {
        rngs.push_back(Rng::forStream(
            0x5EED, (static_cast<std::uint64_t>(p) << 32) | i));
    }
    return rngs;
}

/** Run the lane sampler and collect each lane's masks in order. */
std::vector<std::vector<Bits288>>
sampleByLane(LaneKernel k, ErrorPattern p, std::vector<Rng>& lanes,
             const std::vector<std::uint64_t>& counts,
             detail::MaskAccept accept = nullptr)
{
    std::vector<std::vector<Bits288>> out(lanes.size());
    detail::sampleErrorMasksWith(
        k, p, lanes, counts,
        [&](std::size_t lane, const Bits288& mask) {
            out.at(lane).push_back(mask);
        },
        accept);
    return out;
}

class LaneSampler
    : public ::testing::TestWithParam<std::tuple<ErrorPattern, LaneKernel>>
{
  protected:
    void
    SetUp() override
    {
        if (!detail::laneKernelSupported(std::get<1>(GetParam())))
            GTEST_SKIP() << "kernel not supported on this host";
    }
};

TEST_P(LaneSampler, EachLaneMatchesItsScalarStream)
{
    const auto [p, kernel] = GetParam();
    for (const std::vector<std::uint64_t>& counts : laneCountSets()) {
        std::vector<Rng> lanes = laneGenerators(p, counts.size());
        const auto masks = sampleByLane(kernel, p, lanes, counts);
        std::vector<Rng> oracles = laneGenerators(p, counts.size());
        for (std::size_t i = 0; i < counts.size(); ++i) {
            ASSERT_EQ(masks[i].size(), counts[i]) << "lane " << i;
            for (std::uint64_t n = 0; n < counts[i]; ++n) {
                ASSERT_EQ(masks[i][n], sampleErrorMask(p, oracles[i]))
                    << "lane " << i << " of " << counts.size()
                    << ", mask " << n;
            }
            // The lane's generator is left where the scalar one is.
            ASSERT_EQ(lanes[i].next64(), oracles[i].next64())
                << "lane " << i << " of " << counts.size();
        }
    }
}

/**
 * The scalar region sampler with `accept` in place of the shape
 * check, drawing per bit with nextBool(0.5): the oracle for redraws.
 */
Bits288
referenceSampleAccepting(ErrorPattern p, Rng& rng,
                         detail::MaskAccept accept)
{
    int lo = 0;
    int bits = layout::entry_bits;
    if (p == ErrorPattern::oneBeat) {
        lo = layout::beat_bits *
             static_cast<int>(rng.nextBounded(layout::num_beats));
        bits = layout::beat_bits;
    }
    for (;;) {
        Bits288 mask;
        for (int i = 0; i < bits; ++i) {
            if (rng.nextBool(0.5))
                mask.set(lo + i, 1);
        }
        if (accept(mask))
            return mask;
    }
}

TEST_P(LaneSampler, RedrawsKeepEachLanesStream)
{
    // Real shapes almost never redraw, so an accept test that rejects
    // about half of all attempts (odd popcounts) drives the redraw
    // path: a redraw keeps the sample's beat index, emits nothing, and
    // lanes fall out of step with one another.
    const detail::MaskAccept even = [](const Bits288& mask) {
        return mask.popcount() % 2 == 0;
    };
    const auto [p, kernel] = GetParam();
    for (const std::vector<std::uint64_t>& counts : laneCountSets()) {
        std::vector<Rng> lanes = laneGenerators(p, counts.size());
        const auto masks = sampleByLane(kernel, p, lanes, counts, even);
        std::vector<Rng> oracles = laneGenerators(p, counts.size());
        for (std::size_t i = 0; i < counts.size(); ++i) {
            ASSERT_EQ(masks[i].size(), counts[i]) << "lane " << i;
            for (std::uint64_t n = 0; n < counts[i]; ++n) {
                ASSERT_EQ(masks[i][n],
                          referenceSampleAccepting(p, oracles[i], even))
                    << "lane " << i << " of " << counts.size()
                    << ", mask " << n;
            }
            ASSERT_EQ(lanes[i].next64(), oracles[i].next64())
                << "lane " << i << " of " << counts.size();
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, LaneSampler,
    ::testing::Combine(::testing::Values(ErrorPattern::oneBeat,
                                         ErrorPattern::wholeEntry),
                       ::testing::Values(LaneKernel::portable,
                                         LaneKernel::avx2)),
    [](const auto& info) -> std::string {
        const bool beat = std::get<0>(info.param) == ErrorPattern::oneBeat;
        if (std::get<1>(info.param) == LaneKernel::avx2)
            return beat ? "Beat_avx2" : "Entry_avx2";
        return beat ? "Beat_portable" : "Entry_portable";
    });

TEST(LaneSamplerDispatch, EveryPatternMatchesTheScalarSampler)
{
    // The host's own kernel choice, on every pattern: only 1 Beat and
    // 1 Entry have a lock-step kernel, the rest draw lane by lane
    // through sampleErrorMask.
    const std::vector<std::uint64_t> counts = {50, 0, 17};
    for (ErrorPattern p : allErrorPatterns()) {
        std::vector<Rng> lanes = laneGenerators(p, counts.size());
        std::vector<std::vector<Bits288>> masks(counts.size());
        sampleErrorMasks(p, lanes, counts,
                         [&](std::size_t lane, const Bits288& mask) {
                             masks.at(lane).push_back(mask);
                         });
        std::vector<Rng> oracles = laneGenerators(p, counts.size());
        for (std::size_t i = 0; i < counts.size(); ++i) {
            ASSERT_EQ(masks[i].size(), counts[i]);
            for (const Bits288& mask : masks[i])
                ASSERT_EQ(mask, sampleErrorMask(p, oracles[i]))
                    << patternInfo(p).label << " lane " << i;
            ASSERT_EQ(lanes[i].next64(), oracles[i].next64());
        }
    }
}

} // namespace
} // namespace gpuecc
