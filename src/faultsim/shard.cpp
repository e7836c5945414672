#include "faultsim/shard.hpp"

#include <functional>

#include "common/log.hpp"
#include "common/rng.hpp"

namespace gpuecc {

namespace {

/**
 * Stream id of a sampled stream block: pattern in the high half,
 * block index in the low half. Bit 63 is left clear — other
 * deterministic consumers (the degradation evaluator) tag their
 * streams there so the families never collide under one campaign
 * seed. Keying streams to fixed-size blocks rather than to shards is
 * what makes tallies independent of the shard chunk size.
 */
std::uint64_t
blockStream(ErrorPattern p, std::uint64_t block_index)
{
    require(block_index < (1ull << 32),
            "planShards: block index overflows the stream id space");
    return (static_cast<std::uint64_t>(p) << 32) | block_index;
}

} // namespace

std::vector<Shard>
planShards(ErrorPattern p, std::uint64_t samples, std::uint64_t chunk)
{
    require(chunk > 0, "planShards: chunk must be positive");
    std::vector<Shard> shards;
    if (patternIsEnumerable(p)) {
        const std::uint64_t outer = enumerationOuterSize(p);
        for (std::uint64_t b = 0; b < outer; b += kShardOuterSlots) {
            shards.push_back(
                {p, b, std::min(outer, b + kShardOuterSlots), 0});
        }
        return shards;
    }
    // Round the chunk up to a stream-block multiple so every shard
    // boundary is block-aligned (the last shard may end mid-block).
    chunk = ((chunk + kStreamBlockSamples - 1) / kStreamBlockSamples)
            * kStreamBlockSamples;
    for (std::uint64_t b = 0; b < samples; b += chunk) {
        shards.push_back({p, b, std::min(samples, b + chunk),
                          blockStream(p, b / kStreamBlockSamples)});
    }
    return shards;
}

std::uint64_t
effectiveShardChunk(std::uint64_t samples, std::uint64_t chunk,
                    int workers)
{
    require(chunk > 0, "effectiveShardChunk: chunk must be positive");
    require(workers > 0,
            "effectiveShardChunk: workers must be positive");
    chunk = ((chunk + kStreamBlockSamples - 1) / kStreamBlockSamples)
            * kStreamBlockSamples;
    if (workers <= 1)
        return chunk;
    // Largest block-aligned chunk that still yields >= workers
    // shards; zero means the budget is under one block per worker,
    // where the requested chunk stands (nothing useful to split).
    const std::uint64_t per_worker_blocks =
        samples /
        (static_cast<std::uint64_t>(workers) * kStreamBlockSamples);
    if (per_worker_blocks == 0)
        return chunk;
    return std::min(chunk, per_worker_blocks * kStreamBlockSamples);
}

GoldenEntry
makeGolden(const EntryScheme& scheme, std::uint64_t seed)
{
    // Linearity of every considered code makes outcome classification
    // independent of the protected data (verified by property tests),
    // so one random golden entry per scheme suffices.
    Rng rng(seed);
    GoldenEntry g;
    g.data = {rng.next64(), rng.next64(), rng.next64(), rng.next64()};
    g.entry = scheme.encode(g.data);
    return g;
}

OutcomeCounts
evaluateShard(const EntryScheme& scheme, const GoldenEntry& golden,
              std::uint64_t seed, const Shard& shard)
{
    OutcomeCounts counts;
    auto inject = [&](const Bits288& mask) {
        const Bits288 received = golden.entry ^ mask;
        const EntryDecode result = scheme.decode(received);
        ++counts.trials;
        if (result.status == EntryDecode::Status::due) {
            ++counts.due;
        } else if (result.data == golden.data) {
            ++counts.dce;
        } else {
            ++counts.sdc;
        }
    };

    if (patternIsEnumerable(shard.pattern)) {
        counts.exhaustive = true;
        forEachErrorMaskInRange(shard.pattern, shard.begin, shard.end,
                                inject);
    } else {
        require(shard.begin % kStreamBlockSamples == 0,
                "evaluateShard: shard must start on a stream block");
        for (std::uint64_t b = shard.begin; b < shard.end;
             b += kStreamBlockSamples) {
            Rng rng = Rng::forStream(
                seed,
                blockStream(shard.pattern, b / kStreamBlockSamples));
            const std::uint64_t stop =
                std::min(shard.end, b + kStreamBlockSamples);
            for (std::uint64_t i = b; i < stop; ++i)
                inject(sampleErrorMask(shard.pattern, rng));
        }
    }
    return counts;
}

OutcomeCounts
evaluateShardBatched(const EntryScheme& scheme,
                     const GoldenEntry& golden, std::uint64_t seed,
                     const Shard& shard, ShardBatchArena& arena)
{
    OutcomeCounts counts;
    std::size_t filled = 0;

    // Drain the staged masks: one classifyErrorBatch call decides
    // every mask's outcome against the golden entry, then the tally
    // sweep.
    auto flush = [&] {
        if (filled == 0)
            return;
        scheme.classifyErrorBatch(golden.entry, golden.data,
                                  arena.masks.data(),
                                  arena.outcomes.data(), filled);
        std::uint64_t by_outcome[3] = {};
        for (std::size_t i = 0; i < filled; ++i)
            ++by_outcome[static_cast<int>(arena.outcomes[i])];
        counts.trials += filled;
        counts.dce += by_outcome[static_cast<int>(ErrorOutcome::dce)];
        counts.due += by_outcome[static_cast<int>(ErrorOutcome::due)];
        counts.sdc += by_outcome[static_cast<int>(ErrorOutcome::sdc)];
        filled = 0;
    };
    auto stage = [&](const Bits288& mask) {
        arena.masks[filled++] = mask;
        if (filled == kShardBatchEntries)
            flush();
    };

    if (patternIsEnumerable(shard.pattern)) {
        counts.exhaustive = true;
        // By reference: a std::function holding the capturing lambda
        // itself would heap-allocate once per shard.
        forEachErrorMaskInRange(shard.pattern, shard.begin, shard.end,
                                std::ref(stage));
    } else {
        require(shard.begin % kStreamBlockSamples == 0,
                "evaluateShardBatched: shard must start on a stream "
                "block");
        // A shard's blocks have consecutive stream ids (pattern tag
        // in the high half, block index in the low), so the whole
        // shard's generators derive in one bulk call that shares the
        // seed expansion. Each generator is then consumed in sample
        // order, exactly as the scalar path consumes its per-block
        // forStream generator.
        const std::uint64_t num_blocks =
            (shard.end - shard.begin + kStreamBlockSamples - 1) /
            kStreamBlockSamples;
        if (arena.block_rngs.size() < num_blocks)
            arena.block_rngs.resize(num_blocks);
        Rng::forStreams(seed, shard.stream, num_blocks,
                        arena.block_rngs.data());
        for (std::uint64_t blk = 0; blk < num_blocks; ++blk) {
            Rng& rng = arena.block_rngs[blk];
            const std::uint64_t b =
                shard.begin + blk * kStreamBlockSamples;
            const std::uint64_t stop =
                std::min(shard.end, b + kStreamBlockSamples);
            for (std::uint64_t i = b; i < stop; ++i)
                stage(sampleErrorMask(shard.pattern, rng));
        }
    }
    flush();
    return counts;
}

} // namespace gpuecc
