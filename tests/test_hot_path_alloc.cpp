/**
 * @file
 * The per-trial hot path makes no heap allocation.
 *
 * This executable replaces the global operator new (every form) with
 * one that counts calls on the calling thread, and asserts a count of
 * zero across the calls a trial makes: GF(2^8) arithmetic, the RS
 * fix functions, mask classification and sampling, each registry
 * scheme's classifyErrorBatch and compiled decode, and a warmed-up
 * batched shard kernel on a sampled cell, on 4-block 1 Beat and 1
 * Entry shards (the lock-step sampler) and on every enumerable cell.
 * A stray allocation there — a std::string built for a passing check,
 * a std::function holding a capturing lambda — costs more than the
 * trial's arithmetic.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "common/codec_mode.hpp"
#include "common/rng.hpp"
#include "ecc/registry.hpp"
#include "faultsim/patterns.hpp"
#include "faultsim/shard.hpp"
#include "gf256/gf256.hpp"
#include "rs/batch.hpp"

namespace {

thread_local std::size_t t_allocations = 0;

void*
countedAlloc(std::size_t size)
{
    ++t_allocations;
    return std::malloc(size ? size : 1);
}

void*
countedAlignedAlloc(std::size_t size, std::align_val_t align)
{
    ++t_allocations;
    const std::size_t a = static_cast<std::size_t>(align);
    return std::aligned_alloc(a, ((size ? size : 1) + a - 1) / a * a);
}

} // namespace

void*
operator new(std::size_t size)
{
    if (void* p = countedAlloc(size))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void*
operator new(std::size_t size, const std::nothrow_t&) noexcept
{
    return countedAlloc(size);
}

void*
operator new[](std::size_t size, const std::nothrow_t&) noexcept
{
    return countedAlloc(size);
}

void*
operator new(std::size_t size, std::align_val_t align)
{
    if (void* p = countedAlignedAlloc(size, align))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t size, std::align_val_t align)
{
    return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace gpuecc {
namespace {

/** Heap allocations `fn` makes on this thread. */
template <typename Fn>
std::size_t
allocationsDuring(Fn&& fn)
{
    const std::size_t before = t_allocations;
    fn();
    return t_allocations - before;
}

/** Runs every test on the compiled backend (the reference decoders
 *  build vectors by design) and restores the process setting. */
class HotPathAllocations : public ::testing::Test
{
  protected:
    void SetUp() override { setCodecBackend(CodecBackend::compiled); }
    void TearDown() override { setCodecBackend(saved_); }

  private:
    CodecBackend saved_ = codecBackend();
};

TEST_F(HotPathAllocations, CounterSeesAnAllocation)
{
    // The replacement is live: a heap-sized vector counts.
    EXPECT_GT(allocationsDuring([] {
                  std::vector<int> v(1000, 1);
                  EXPECT_EQ(v.size(), 1000u);
              }),
              0u);
}

TEST_F(HotPathAllocations, Gf256Arithmetic)
{
    int sink = 0;
    EXPECT_EQ(allocationsDuring([&] {
                  for (int a = 1; a < 256; ++a) {
                      sink += gf256::dlog(static_cast<std::uint8_t>(a));
                      for (int b = 1; b < 256; b += 7) {
                          sink += gf256::div(static_cast<std::uint8_t>(a),
                                             static_cast<std::uint8_t>(b));
                      }
                  }
              }),
              0u);
    EXPECT_NE(sink, 0);
}

TEST_F(HotPathAllocations, RsFixFunctions)
{
    Rng rng(0xA110C);
    std::vector<std::uint8_t> syndromes(4 * 20000);
    for (std::uint8_t& s : syndromes) {
        // Mostly nonzero, so the dlog-heavy paths run.
        s = rng.nextBool(0.1) ? 0
                              : static_cast<std::uint8_t>(
                                    rng.nextBounded(256));
    }
    int corrected = 0;
    EXPECT_EQ(allocationsDuring([&] {
                  for (std::size_t i = 0; i < syndromes.size(); i += 4) {
                      const std::uint8_t* s = syndromes.data() + i;
                      for (const RsFix& f :
                           {fixSscOneShot(18, s), fixSscDsdPlus(36, s),
                            fixDsc(36, s)}) {
                          corrected +=
                              f.status == RsDecode::Status::corrected;
                      }
                  }
              }),
              0u);
    EXPECT_GT(corrected, 0);
}

TEST_F(HotPathAllocations, MaskSamplingAndClassification)
{
    Rng rng(0x5A3F1E);
    int agree = 0;
    EXPECT_EQ(allocationsDuring([&] {
                  for (ErrorPattern p : allErrorPatterns()) {
                      for (int i = 0; i < 2000; ++i) {
                          const Bits288 m = sampleErrorMask(p, rng);
                          agree += classifyErrorMask(m) == p;
                      }
                  }
                  for (int i = 0; i < 10000; ++i)
                      agree += rng.nextBounded(288) < 288;
              }),
              0u);
    EXPECT_EQ(agree, 7 * 2000 + 10000);
}

TEST_F(HotPathAllocations, EverySchemeClassifyErrorBatch)
{
    Rng rng(0xC1A55);
    std::vector<Bits288> masks;
    for (ErrorPattern p : allErrorPatterns()) {
        for (int i = 0; i < 300; ++i)
            masks.push_back(sampleErrorMask(p, rng));
    }
    std::vector<ErrorOutcome> out(masks.size());
    for (const std::string& id : schemeIds()) {
        const auto scheme = makeScheme(id);
        const GoldenEntry golden = makeGolden(*scheme, 0x5EED);
        EXPECT_EQ(allocationsDuring([&] {
                      scheme->classifyErrorBatch(golden.entry, golden.data,
                                                 masks.data(), out.data(),
                                                 masks.size());
                  }),
                  0u)
            << id;
    }
}

TEST_F(HotPathAllocations, EverySchemeDecode)
{
    // A clean word, a corrected 1-bit error and a DUE through each
    // scheme's compiled decode(); the DUE mask is found beforehand.
    Rng rng(0xDEC0DE);
    for (const std::string& id : schemeIds()) {
        const auto scheme = makeScheme(id);
        const GoldenEntry golden = makeGolden(*scheme, 0x5EED);
        Bits288 flipped = golden.entry;
        flipped.flip(100);
        Bits288 due_word;
        bool found = false;
        for (int i = 0; i < 10000 && !found; ++i) {
            due_word =
                golden.entry ^ sampleErrorMask(ErrorPattern::wholeEntry, rng);
            found = scheme->decode(due_word).status
                    == EntryDecode::Status::due;
        }
        ASSERT_TRUE(found) << id;

        EntryDecode clean, corrected, due;
        EXPECT_EQ(allocationsDuring([&] {
                      clean = scheme->decode(golden.entry);
                      corrected = scheme->decode(flipped);
                      due = scheme->decode(due_word);
                  }),
                  0u)
            << id;
        EXPECT_EQ(clean.status, EntryDecode::Status::clean) << id;
        EXPECT_EQ(clean.data, golden.data) << id;
        EXPECT_EQ(corrected.status, EntryDecode::Status::corrected) << id;
        EXPECT_EQ(corrected.data, golden.data) << id;
        EXPECT_EQ(due.status, EntryDecode::Status::due) << id;
    }
}

TEST_F(HotPathAllocations, WarmedBatchedShardKernel)
{
    const auto arena = std::make_unique<ShardBatchArena>();
    const Shard sampled =
        planShards(ErrorPattern::wholeEntry, 2 * kStreamBlockSamples)[0];
    const Shard enumerated = planShards(ErrorPattern::threeBits, 0)[0];
    for (const std::string& id : schemeIds()) {
        const auto scheme = makeScheme(id);
        const GoldenEntry golden = makeGolden(*scheme, 0x5EED);
        for (const Shard& shard : {sampled, enumerated}) {
            const OutcomeCounts first =
                evaluateShardBatched(*scheme, golden, 7, shard, *arena);
            OutcomeCounts second;
            EXPECT_EQ(allocationsDuring([&] {
                          second = evaluateShardBatched(*scheme, golden, 7,
                                                        shard, *arena);
                      }),
                      0u)
                << id << " pattern " << patternInfo(shard.pattern).label;
            EXPECT_EQ(second.trials, first.trials);
            EXPECT_EQ(second.sdc, first.sdc);
        }
    }
}

TEST_F(HotPathAllocations, WarmedBatchedShardKernelFourBlockSampledShards)
{
    // A 4-block shard fills every lane of the lock-step sampler.
    const auto arena = std::make_unique<ShardBatchArena>();
    for (ErrorPattern p :
         {ErrorPattern::oneBeat, ErrorPattern::wholeEntry}) {
        const Shard shard = planShards(p, 4 * kStreamBlockSamples,
                                       4 * kStreamBlockSamples)[0];
        for (const char* id : {"duet", "trio", "ssc-dsd+"}) {
            const auto scheme = makeScheme(id);
            const GoldenEntry golden = makeGolden(*scheme, 0x5EED);
            const OutcomeCounts first =
                evaluateShardBatched(*scheme, golden, 7, shard, *arena);
            OutcomeCounts second;
            EXPECT_EQ(allocationsDuring([&] {
                          second = evaluateShardBatched(*scheme, golden, 7,
                                                        shard, *arena);
                      }),
                      0u)
                << id << " pattern " << patternInfo(p).label;
            EXPECT_EQ(second.trials, 4 * kStreamBlockSamples);
            EXPECT_EQ(second.sdc, first.sdc);
        }
    }
}

TEST_F(HotPathAllocations, WarmedBatchedShardKernelEveryEnumerablePattern)
{
    // Every enumerable cell's first shard, counted in syndrome space.
    const auto arena = std::make_unique<ShardBatchArena>();
    for (const std::string& id : schemeIds()) {
        const auto scheme = makeScheme(id);
        const GoldenEntry golden = makeGolden(*scheme, 0x5EED);
        for (ErrorPattern p : allErrorPatterns()) {
            if (!patternIsEnumerable(p))
                continue;
            const Shard shard = planShards(p, 0)[0];
            const OutcomeCounts first =
                evaluateShardBatched(*scheme, golden, 7, shard, *arena);
            OutcomeCounts second;
            EXPECT_EQ(allocationsDuring([&] {
                          second = evaluateShardBatched(*scheme, golden, 7,
                                                        shard, *arena);
                      }),
                      0u)
                << id << " pattern " << patternInfo(p).label;
            EXPECT_GT(second.trials, 0u);
            EXPECT_EQ(second.trials, first.trials);
            EXPECT_EQ(second.sdc, first.sdc);
        }
    }
}

} // namespace
} // namespace gpuecc
