/**
 * @file
 * The paper's 7-class soft error pattern model (Table 1).
 *
 * Each beam-observed error is classified into one of seven physical
 * shapes, sorted by increasing ECC correction difficulty; when a mask
 * fits several shapes the easiest wins (e.g. a 2-bit error is two
 * erroneous bits NOT confined to one byte or one pin). The same
 * classifier serves the Monte Carlo evaluator and the beam-campaign
 * post-processing.
 */

#ifndef GPUECC_FAULTSIM_PATTERNS_HPP
#define GPUECC_FAULTSIM_PATTERNS_HPP

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>

#include "common/bits.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "interleave/swizzle.hpp"

namespace gpuecc {

/** The seven error shapes of Table 1, in increasing difficulty. */
enum class ErrorPattern
{
    oneBit,
    onePin,
    oneByte,
    twoBits,
    threeBits,
    oneBeat,
    wholeEntry
};

/** Number of patterns. */
constexpr int numErrorPatterns = 7;

/** All patterns in Table 1 order. */
const std::array<ErrorPattern, numErrorPatterns>& allErrorPatterns();

/** Static description of one Table 1 row. */
struct PatternInfo
{
    ErrorPattern pattern;
    std::string label;      //!< e.g. "1 Byte"
    std::string bits_range; //!< e.g. "2-8"
    double probability;     //!< Table 1 weight
};

/** Table 1 of the paper (probabilities sum to 1). */
const std::array<PatternInfo, numErrorPatterns>& patternTable();

/** Lookup of one row. */
const PatternInfo& patternInfo(ErrorPattern p);

/**
 * Classify a nonzero physical error mask into its Table 1 shape,
 * applying the priority rule (easier shapes win).
 */
ErrorPattern classifyErrorMask(const Bits288& mask);

/**
 * Draw one random instance of a pattern.
 *
 * Bit, 2-bit and 3-bit patterns choose uniform positions subject to
 * the classification constraints; pin/byte/beat/entry patterns flip
 * each bit of their region i.i.d. with p = 1/2 and redraw until the
 * mask classifies as the requested shape (the uniform random
 * corruption model the paper adopts for evaluation).
 */
Bits288 sampleErrorMask(ErrorPattern p, Rng& rng);

/** Receives one accepted mask and the index of the lane it came from. */
using LaneMaskVisitor =
    std::function<void(std::size_t lane, const Bits288& mask)>;

/**
 * Draw `counts[i]` masks of pattern `p` from generator `lanes[i]`, for
 * every lane i. Each lane's masks reach `visit` in the order that
 * `counts[i]` successive sampleErrorMask(p, lanes[i]) calls return
 * them, and each lane ends in the state those calls leave; only the
 * interleaving of different lanes is unspecified.
 *
 * For 1 Beat and 1 Entry, up to four lanes advance in lock-step: their
 * xoshiro256** states form one vector, each attempt draws the whole
 * region's coins on every lane at once, and a lane whose attempt
 * classifies as another shape redraws while the others move on. A
 * finished lane's slot takes the next lane with masks still owed. A
 * lone lane with masks owed (the 1-block case, or the last lane left)
 * runs the scalar sampleErrorMask, as do all other patterns. The
 * vector kernel is the widest the host supports (AVX2 or the portable
 * build of the same body), picked once by CPU; GPUECC_NO_SIMD does
 * not pin it (tests run each build through sampleErrorMasksWith).
 *
 * @param counts one entry per lane
 */
void sampleErrorMasks(ErrorPattern p, std::span<Rng> lanes,
                      std::span<const std::uint64_t> counts,
                      const LaneMaskVisitor& visit);

namespace detail {

/** The builds of the lock-step sampler's vector kernel. */
enum class LaneKernel
{
    portable, //!< baseline ISA (SSE2 on x86-64)
    avx2,     //!< x86-64 with AVX2 (per-function target attribute)
};

/** Whether this host can run kernel `k`. */
bool laneKernelSupported(LaneKernel k);

/** Decides whether a lock-step attempt's mask is kept. */
using MaskAccept = bool (*)(const Bits288& mask);

/**
 * sampleErrorMasks with an explicit vector kernel, so tests can check
 * every build a host supports. Fatal if `k` is unsupported.
 *
 * A non-null `accept` (1 Beat and 1 Entry only) replaces the shape
 * check and keeps even a lone lane on the vector kernel. Real streams
 * almost never redraw (a 1 Beat attempt fails its shape about once in
 * 10^17), so this is how tests drive the redraw path.
 */
void sampleErrorMasksWith(LaneKernel k, ErrorPattern p,
                          std::span<Rng> lanes,
                          std::span<const std::uint64_t> counts,
                          const LaneMaskVisitor& visit,
                          MaskAccept accept = nullptr);

} // namespace detail

/**
 * Visit every instance of an exhaustively enumerable pattern
 * (oneBit, onePin, oneByte, twoBits, threeBits). Fatal for
 * oneBeat / wholeEntry.
 *
 * @return the number of masks visited
 */
std::uint64_t forEachErrorMask(ErrorPattern p,
                               const std::function<void(const Bits288&)>& fn);

/**
 * Number of outer enumeration slots of an enumerable pattern: the
 * unit the campaign engine shards exhaustive evaluations by. Each
 * slot expands to a fixed, order-independent set of masks (one bit
 * position, one pin, one byte, or all pairs/triples anchored at one
 * first-bit position). Fatal for non-enumerable patterns.
 */
std::uint64_t enumerationOuterSize(ErrorPattern p);

/**
 * The one definition of which masks an enumerable pattern holds:
 * visit the masks of outer slots [begin, end) as ascending lists of
 * physical bit positions, in a fixed order.
 *
 * A value is folded over each mask's positions on the way:
 * `fold(acc, pos)` adds one position to a running value that starts
 * at `zero`, and `visit(acc, positions)` sees the value of the whole
 * mask. Masks that share a prefix share its fold, so for two- and
 * three-bit masks the value of the pair (a, b) is folded once and
 * reused for every third bit. The shard kernel folds packed
 * syndromes this way, and forEachErrorMaskInRange folds masks.
 *
 * Which masks a slot holds follows classifyErrorMask's priority rule,
 * decided from the positions' pins and bytes: a pin slot holds every
 * subset of >= 2 of its 4 bits, a byte slot every subset of >= 2 of
 * its 8 bits, and the 2-bit (3-bit) slot of bit a every mask {a, b}
 * ({a, b, c}), a < b (< c), whose bits do not all share one pin nor
 * all share one byte.
 *
 * @return the number of masks visited
 */
template <typename T, typename Fold, typename Visit>
std::uint64_t
forEachErrorPositionsInRange(ErrorPattern p, std::uint64_t begin,
                             std::uint64_t end, const T& zero,
                             Fold&& fold, Visit&& visit)
{
    require(begin <= end && end <= enumerationOuterSize(p),
            "forEachErrorPositionsInRange: bad outer slot range");
    const int lo = static_cast<int>(begin);
    const int hi = static_cast<int>(end);
    constexpr int bits = layout::entry_bits;
    std::uint64_t count = 0;
    int pos[8];
    switch (p) {
      case ErrorPattern::oneBit:
        for (int a = lo; a < hi; ++a) {
            pos[0] = a;
            visit(fold(zero, a), std::span<const int>(pos, 1));
            ++count;
        }
        return count;
      case ErrorPattern::onePin:
      case ErrorPattern::oneByte: {
        const bool pin = p == ErrorPattern::onePin;
        const int width = pin ? layout::num_beats : 8;
        for (int region = lo; region < hi; ++region) {
            for (unsigned m = 1; m < (1u << width); ++m) {
                if (std::popcount(m) < 2)
                    continue;
                T acc = zero;
                int n = 0;
                for (int t = 0; t < width; ++t) {
                    if ((m >> t) & 1) {
                        pos[n] = pin ? layout::physicalIndex(t, region)
                                     : 8 * region + t;
                        acc = fold(acc, pos[n++]);
                    }
                }
                visit(acc, std::span<const int>(pos, n));
                ++count;
            }
        }
        return count;
      }
      case ErrorPattern::twoBits:
        for (int a = lo; a < hi; ++a) {
            const T acc_a = fold(zero, a);
            pos[0] = a;
            for (int b = a + 1; b < bits; ++b) {
                if (layout::pinOf(b) == layout::pinOf(a)
                    || layout::byteOf(b) == layout::byteOf(a))
                    continue;
                pos[1] = b;
                visit(fold(acc_a, b), std::span<const int>(pos, 2));
                ++count;
            }
        }
        return count;
      case ErrorPattern::threeBits:
        for (int a = lo; a < hi; ++a) {
            const T acc_a = fold(zero, a);
            pos[0] = a;
            for (int b = a + 1; b < bits; ++b) {
                const T acc_ab = fold(acc_a, b);
                const bool same_pin = layout::pinOf(b) == layout::pinOf(a);
                const bool same_byte =
                    layout::byteOf(b) == layout::byteOf(a);
                pos[1] = b;
                for (int c = b + 1; c < bits; ++c) {
                    if ((same_pin && layout::pinOf(c) == layout::pinOf(a))
                        || (same_byte
                            && layout::byteOf(c) == layout::byteOf(a)))
                        continue;
                    pos[2] = c;
                    visit(fold(acc_ab, c), std::span<const int>(pos, 3));
                    ++count;
                }
            }
        }
        return count;
      default:
        fatal("forEachErrorPositionsInRange: pattern is not enumerable");
    }
}

/**
 * Visit the masks of outer slots [begin, end), built from
 * forEachErrorPositionsInRange; the full enumeration is recovered
 * with begin = 0, end = enumerationOuterSize(p).
 *
 * @return the number of masks visited
 */
std::uint64_t
forEachErrorMaskInRange(ErrorPattern p, std::uint64_t begin,
                        std::uint64_t end,
                        const std::function<void(const Bits288&)>& fn);

/** Whether forEachErrorMask supports the pattern. */
bool patternIsEnumerable(ErrorPattern p);

} // namespace gpuecc

#endif // GPUECC_FAULTSIM_PATTERNS_HPP
