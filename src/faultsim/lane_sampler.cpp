/**
 * @file
 * Lock-step multi-lane 1 Beat / 1 Entry sampler (sampleErrorMasks).
 *
 * Every region bit of a sampled mask costs one serial xoshiro256**
 * step, and each step depends on the last, so one generator cannot go
 * faster than that dependency chain. The blocks of a shard have
 * independent generators, though: here up to four of them share one
 * 4 x 64-bit vector per state word and step together. Each lane still
 * makes exactly the draws sampleErrorMask would make on it, so every
 * mask, and every tally built from them, is unchanged.
 *
 * The vector body is written with GCC/clang vector extensions (shifts
 * and adds only: AVX2 has no 64-bit multiply) and compiled twice: at
 * the baseline ISA and, on x86-64, under a per-function AVX2 target
 * attribute that runs only after __builtin_cpu_supports said so.
 */

#include <cstring>

#include "common/log.hpp"
#include "faultsim/patterns.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define GPUECC_LANES_X86 1
#else
#define GPUECC_LANES_X86 0
#endif

namespace gpuecc {

namespace {

/** Generators stepped together by the vector kernel. */
constexpr int kLanes = 4;

/** xoshiro256** state of kLanes generators, word-major: s[word][lane]. */
using LaneStates = std::uint64_t[4][kLanes];

} // namespace

namespace detail {

/** Moves one generator's state in and out of a lane of LaneStates. */
struct RngLaneAccess
{
    static void
    load(const Rng& rng, LaneStates& st, int lane)
    {
        for (int w = 0; w < 4; ++w)
            st[w][lane] = rng.s_[w];
    }

    static void
    store(Rng& rng, const LaneStates& st, int lane)
    {
        for (int w = 0; w < 4; ++w)
            rng.s_[w] = st[w][lane];
    }
};

} // namespace detail

namespace {

using detail::RngLaneAccess;

typedef std::uint64_t U64x4 __attribute__((vector_size(32)));

/**
 * Step every lane `Words * 64 - (64 - LastBits)` times, returning
 * each lane's coin bits LSB-first in out[k][lane]: bit i of word k is
 * `~next64() >> 63` of the lane's (64k + i)-th step, as coinFlips
 * packs them, and word Words-1 holds LastBits of them.
 *
 * xoshiro256** per lane, with `*5` and `*9` as shift-adds and the
 * rotations as shift pairs. Each step shifts the new coin in at bit
 * 63, so after n steps the first coin sits at bit 64 - n.
 */
template <int Words, int LastBits>
__attribute__((always_inline)) inline void
drawCoins(LaneStates& st, std::uint64_t (&out)[Words][kLanes])
{
    U64x4 s0, s1, s2, s3;
    std::memcpy(&s0, st[0], sizeof s0);
    std::memcpy(&s1, st[1], sizeof s1);
    std::memcpy(&s2, st[2], sizeof s2);
    std::memcpy(&s3, st[3], sizeof s3);
    const U64x4 top = U64x4{} + (std::uint64_t{1} << 63);
    for (int k = 0; k < Words; ++k) {
        const int n = k + 1 < Words ? 64 : LastBits;
        U64x4 w = {};
        for (int i = 0; i < n; ++i) {
            const U64x4 x = s1 + (s1 << 2);           // s1 * 5
            const U64x4 r = (x << 7) | (x >> 57);     // rotl 7
            const U64x4 result = r + (r << 3);        // * 9
            const U64x4 t = s1 << 17;
            s2 ^= s0;
            s3 ^= s1;
            s1 ^= s2;
            s0 ^= s3;
            s2 ^= t;
            s3 = (s3 << 45) | (s3 >> 19);
            w = (w >> 1) | (~result & top);
        }
        w >>= 64 - n;
        std::memcpy(out[k], &w, sizeof w);
    }
    std::memcpy(st[0], &s0, sizeof s0);
    std::memcpy(st[1], &s1, sizeof s1);
    std::memcpy(st[2], &s2, sizeof s2);
    std::memcpy(st[3], &s3, sizeof s3);
}

/** The scalar sampler, one lane after another. */
void
sampleScalar(ErrorPattern p, std::span<Rng> lanes,
             std::span<const std::uint64_t> counts,
             const LaneMaskVisitor& visit)
{
    for (std::size_t i = 0; i < lanes.size(); ++i) {
        for (std::uint64_t n = 0; n < counts[i]; ++n)
            visit(i, sampleErrorMask(p, lanes[i]));
    }
}

/**
 * The lock-step sampler for P = oneBeat or wholeEntry. Slots hold the
 * lanes in flight; each round draws a beat index on every slot that
 * starts a new sample (nextBounded on that lane alone), then one full
 * region of coins on all slots at once, then accepts or rejects each
 * slot's mask as sampleRegion does. A slot whose lane is done stores
 * the lane's state and takes the next lane that still owes masks; an
 * empty slot keeps stepping, its draws unused. When one lane is left
 * it finishes on the scalar sampler, unless a test's `accept` replaces
 * the shape check.
 */
template <ErrorPattern P>
__attribute__((always_inline)) inline void
sampleLanes(std::span<Rng> lanes, std::span<const std::uint64_t> counts,
            const LaneMaskVisitor& visit, detail::MaskAccept accept)
{
    constexpr bool beat = P == ErrorPattern::oneBeat;
    constexpr int region_bits =
        beat ? layout::beat_bits : layout::entry_bits;
    constexpr int words = (region_bits + 63) / 64;
    constexpr int last_bits = region_bits - 64 * (words - 1);

    // Lanes that owe masks, not yet in a slot.
    std::size_t next = 0;
    std::size_t waiting = 0;
    for (std::uint64_t c : counts)
        waiting += c > 0;
    if (waiting < 2 && accept == nullptr) {
        sampleScalar(P, lanes, counts, visit);
        return;
    }

    alignas(32) LaneStates st = {};
    std::size_t lane_of[kLanes] = {};
    std::uint64_t left[kLanes] = {}; // masks the slot's lane still owes
    int region_lo[kLanes] = {};      // start bit of the slot's beat
    bool fresh[kLanes] = {};         // the next attempt starts a sample
    int active = 0;

    const auto fill = [&](int slot) {
        while (next < lanes.size() && counts[next] == 0)
            ++next;
        if (next == lanes.size())
            return;
        lane_of[slot] = next;
        left[slot] = counts[next];
        fresh[slot] = true;
        RngLaneAccess::load(lanes[next], st, slot);
        ++next;
        --waiting;
        ++active;
    };
    for (int slot = 0; slot < kLanes; ++slot)
        fill(slot);

    // Step while two lanes are in flight, and until the last one
    // reaches a sample boundary (a rejected Beat attempt keeps the
    // sample's beat index, which the scalar sampler would redraw).
    const auto stepping = [&] {
        if (active > 1 || waiting > 0)
            return true;
        if (accept != nullptr)
            return active > 0;
        for (int slot = 0; slot < kLanes; ++slot) {
            if (left[slot] > 0 && !fresh[slot])
                return true;
        }
        return false;
    };

    Rng draw; // one slot's generator for its beat index
    while (stepping()) {
        if constexpr (beat) {
            for (int slot = 0; slot < kLanes; ++slot) {
                if (left[slot] == 0 || !fresh[slot])
                    continue;
                RngLaneAccess::store(draw, st, slot);
                region_lo[slot] =
                    layout::beat_bits *
                    static_cast<int>(draw.nextBounded(layout::num_beats));
                RngLaneAccess::load(draw, st, slot);
            }
        }
        std::uint64_t coins[words][kLanes];
        drawCoins<words, last_bits>(st, coins);
        for (int slot = 0; slot < kLanes; ++slot) {
            if (left[slot] == 0)
                continue;
            Bits288 mask;
            if constexpr (beat) {
                // The 72 coins land at the beat's first bit: one
                // 128-bit shift spanning at most two mask words.
                const int lo = region_lo[slot];
                const unsigned __int128 region =
                    (static_cast<unsigned __int128>(coins[1][slot])
                     << 64) |
                    coins[0][slot];
                const unsigned __int128 placed = region << (lo % 64);
                mask.setWord(lo / 64, static_cast<std::uint64_t>(placed));
                mask.setWord(lo / 64 + 1,
                             static_cast<std::uint64_t>(placed >> 64));
            } else {
                for (int k = 0; k < words; ++k)
                    mask.setWord(k, coins[k][slot]);
            }
            fresh[slot] = accept != nullptr
                              ? accept(mask)
                              : !mask.none() && classifyErrorMask(mask) == P;
            if (!fresh[slot])
                continue;
            visit(lane_of[slot], mask);
            if (--left[slot] == 0) {
                RngLaneAccess::store(lanes[lane_of[slot]], st, slot);
                --active;
                fill(slot);
            }
        }
    }
    // The last lane, if any, finishes on the scalar sampler.
    for (int slot = 0; slot < kLanes; ++slot) {
        if (left[slot] == 0)
            continue;
        Rng& rng = lanes[lane_of[slot]];
        RngLaneAccess::store(rng, st, slot);
        for (; left[slot] > 0; --left[slot])
            visit(lane_of[slot], sampleErrorMask(P, rng));
    }
}

/** sampleLanes for a runtime pattern, inlined into each build. */
__attribute__((always_inline)) inline void
sampleLanesFor(ErrorPattern p, std::span<Rng> lanes,
               std::span<const std::uint64_t> counts,
               const LaneMaskVisitor& visit, detail::MaskAccept accept)
{
    if (p == ErrorPattern::oneBeat)
        sampleLanes<ErrorPattern::oneBeat>(lanes, counts, visit, accept);
    else
        sampleLanes<ErrorPattern::wholeEntry>(lanes, counts, visit, accept);
}

void
sampleLanesPortable(ErrorPattern p, std::span<Rng> lanes,
                    std::span<const std::uint64_t> counts,
                    const LaneMaskVisitor& visit, detail::MaskAccept accept)
{
    sampleLanesFor(p, lanes, counts, visit, accept);
}

#if GPUECC_LANES_X86
__attribute__((target("avx2"))) void
sampleLanesAvx2(ErrorPattern p, std::span<Rng> lanes,
                std::span<const std::uint64_t> counts,
                const LaneMaskVisitor& visit, detail::MaskAccept accept)
{
    sampleLanesFor(p, lanes, counts, visit, accept);
}
#endif

} // namespace

namespace detail {

bool
laneKernelSupported(LaneKernel k)
{
    switch (k) {
      case LaneKernel::portable:
        return true;
      case LaneKernel::avx2:
#if GPUECC_LANES_X86
        return __builtin_cpu_supports("avx2") != 0;
#else
        return false;
#endif
    }
    return false;
}

void
sampleErrorMasksWith(LaneKernel k, ErrorPattern p, std::span<Rng> lanes,
                     std::span<const std::uint64_t> counts,
                     const LaneMaskVisitor& visit, MaskAccept accept)
{
    require(counts.size() == lanes.size(),
            "sampleErrorMasks: one count per lane");
    require(laneKernelSupported(k),
            "sampleErrorMasks: kernel unsupported on this host");
    if (p != ErrorPattern::oneBeat && p != ErrorPattern::wholeEntry) {
        require(accept == nullptr,
                "sampleErrorMasks: accept needs 1 Beat or 1 Entry");
        sampleScalar(p, lanes, counts, visit);
        return;
    }
#if GPUECC_LANES_X86
    if (k == LaneKernel::avx2) {
        sampleLanesAvx2(p, lanes, counts, visit, accept);
        return;
    }
#endif
    sampleLanesPortable(p, lanes, counts, visit, accept);
}

} // namespace detail

void
sampleErrorMasks(ErrorPattern p, std::span<Rng> lanes,
                 std::span<const std::uint64_t> counts,
                 const LaneMaskVisitor& visit)
{
    static const detail::LaneKernel kernel =
        detail::laneKernelSupported(detail::LaneKernel::avx2)
            ? detail::LaneKernel::avx2
            : detail::LaneKernel::portable;
    detail::sampleErrorMasksWith(kernel, p, lanes, counts, visit);
}

} // namespace gpuecc
