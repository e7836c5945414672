/**
 * @file
 * Deterministic sharding of fault-injection work.
 *
 * A (scheme, pattern) evaluation is decomposed into fixed shards whose
 * outcome tallies are independent of execution order: enumerable
 * patterns shard their mask space by outer enumeration slot, sampled
 * patterns shard their sample range into chunks. Random draws are
 * keyed to *stream blocks* of kStreamBlockSamples samples, not to
 * shards: sample i always draws from Rng::forStream(seed,
 * stream(pattern, i / kStreamBlockSamples)), and shard boundaries are
 * required to fall on block boundaries. Merging the shard tallies
 * therefore yields bit-identical results for any thread count AND any
 * (block-aligned) chunk size — the property the campaign engine's
 * determinism guarantee rests on. The same kernel serves the
 * sequential Evaluator and the parallel CampaignRunner.
 */

#ifndef GPUECC_FAULTSIM_SHARD_HPP
#define GPUECC_FAULTSIM_SHARD_HPP

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "ecc/scheme.hpp"
#include "faultsim/evaluator.hpp"
#include "faultsim/patterns.hpp"

namespace gpuecc {

/** Samples per shard of a non-enumerable pattern. */
constexpr std::uint64_t kShardSamples = 1 << 16;

/**
 * Samples per RNG stream block. Sampled draws are keyed by block, not
 * by shard, so tallies are invariant to the shard chunk size; chunks
 * are rounded up to a multiple of this.
 */
constexpr std::uint64_t kStreamBlockSamples = 1024;

/** Outer enumeration slots per shard of an enumerable pattern. */
constexpr std::uint64_t kShardOuterSlots = 8;

/** One order-independent unit of fault-injection work. */
struct Shard
{
    ErrorPattern pattern;
    /** Outer slot range (enumerable) or sample range (sampled). */
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    /** RNG stream id of the shard's first block (sampled only). */
    std::uint64_t stream = 0;
};

/**
 * Plan the shards of one pattern evaluation.
 *
 * Enumerable patterns ignore `samples` and cover their whole mask
 * space; sampled patterns cover [0, samples). The plan depends only
 * on (pattern, samples, chunk), never on the thread count, and the
 * resulting tallies are additionally independent of `chunk` because
 * draws are keyed per stream block.
 *
 * @param chunk samples per shard for non-enumerable patterns,
 *              rounded up to a multiple of kStreamBlockSamples
 */
std::vector<Shard> planShards(ErrorPattern p, std::uint64_t samples,
                              std::uint64_t chunk = kShardSamples);

/**
 * Shrink a requested chunk so a `workers`-thread run gets at least
 * `workers` shards per sampled pattern whenever the sample budget
 * allows it (samples >= workers * kStreamBlockSamples) — short
 * campaigns would otherwise leave cores idle behind one oversized
 * shard. The result is block-aligned and never larger than the
 * requested chunk (rounded to a block multiple). Tallies are
 * unaffected: draws are keyed per stream block, so any block-aligned
 * chunk yields bit-identical merged counts. Callers that persist a
 * plan identity (checkpoints) must fingerprint the *effective* chunk.
 */
std::uint64_t effectiveShardChunk(std::uint64_t samples,
                                  std::uint64_t chunk, int workers);

/** The golden (error-free) entry all shards of a scheme inject into. */
struct GoldenEntry
{
    EntryData data;
    Bits288 entry;
};

/**
 * Derive the golden entry for a scheme from a campaign seed (the
 * same derivation the pre-refactor Evaluator used, so a given seed
 * keeps meaning the same golden data).
 */
GoldenEntry makeGolden(const EntryScheme& scheme, std::uint64_t seed);

/**
 * Evaluate one shard: inject every mask of the shard's slice into the
 * golden entry, decode, and tally outcomes. Pure — safe to call from
 * any thread as long as the scheme's decode is const-thread-safe
 * (all library schemes are).
 */
OutcomeCounts evaluateShard(const EntryScheme& scheme,
                            const GoldenEntry& golden,
                            std::uint64_t seed, const Shard& shard);

/** Entries per structure-of-arrays batch of the batched kernel. */
constexpr std::size_t kShardBatchEntries = 256;

/**
 * Reusable structure-of-arrays scratch for the batched shard kernel.
 *
 * One arena per worker, allocated once and reused across every shard
 * that worker evaluates: the staging arrays (~30 KiB total) stay
 * resident in its private cache, and the cache-line alignment keeps
 * neighbouring workers' arenas off each other's lines when they live
 * in a WorkerArena slot. The arena carries no results — tallies come
 * back through evaluateShardBatched's return value — so reuse needs
 * no reset.
 */
struct ShardBatchArena
{
    /** Stage 1: materialized error masks. */
    alignas(kCacheLineBytes)
        std::array<Bits288, kShardBatchEntries> masks;
    /** Stage 2: each mask's outcome from classifyErrorBatch. */
    alignas(kCacheLineBytes)
        std::array<ErrorOutcome, kShardBatchEntries> outcomes;
    /**
     * Staging for a stage-by-stage replay that injects the masks and
     * decodes them with decodeBatch (perfbench times those stages);
     * evaluateShardBatched itself does not touch these two.
     */
    alignas(kCacheLineBytes)
        std::array<Bits288, kShardBatchEntries> received;
    alignas(kCacheLineBytes)
        std::array<EntryDecode, kShardBatchEntries> decodes;
    /** Bulk-derived generators, one per stream block of the shard. */
    std::vector<Rng> block_rngs;
};

/**
 * Batched evaluation of one shard: identical tallies to
 * evaluateShard (which remains the differential oracle — see
 * tests/test_shard_batch.cpp), restructured as a
 * structure-of-arrays pipeline. Masks are materialized in draw order
 * (so the RNG consumption matches the scalar path bit-for-bit), with
 * block generators derived in bulk via Rng::forStreams, and each
 * batch is classified by one EntryScheme::classifyErrorBatch call —
 * one virtual dispatch per kShardBatchEntries entries instead of one
 * per sample. The library schemes decide there from each mask's
 * syndrome, without building a received word (ecc/error_domain.hpp).
 * Warmed up (block_rngs sized), a call makes no heap allocation.
 */
OutcomeCounts evaluateShardBatched(const EntryScheme& scheme,
                                   const GoldenEntry& golden,
                                   std::uint64_t seed,
                                   const Shard& shard,
                                   ShardBatchArena& arena);

} // namespace gpuecc

#endif // GPUECC_FAULTSIM_SHARD_HPP
