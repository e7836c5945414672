#include "faultsim/patterns.hpp"

#include <algorithm>

#include "common/bitops.hpp"
#include "common/log.hpp"
#include "interleave/swizzle.hpp"

namespace gpuecc {

const std::array<ErrorPattern, numErrorPatterns>&
allErrorPatterns()
{
    static const std::array<ErrorPattern, numErrorPatterns> all = {
        ErrorPattern::oneBit,    ErrorPattern::onePin,
        ErrorPattern::oneByte,   ErrorPattern::twoBits,
        ErrorPattern::threeBits, ErrorPattern::oneBeat,
        ErrorPattern::wholeEntry,
    };
    return all;
}

const std::array<PatternInfo, numErrorPatterns>&
patternTable()
{
    // Table 1: Soft Error Pattern Probabilities.
    static const std::array<PatternInfo, numErrorPatterns> table = {{
        {ErrorPattern::oneBit, "1 Bit", "1", 0.7398},
        {ErrorPattern::onePin, "1 Pin", "2-4", 0.0019},
        {ErrorPattern::oneByte, "1 Byte", "2-8", 0.2256},
        {ErrorPattern::twoBits, "2 Bits", "2", 0.0011},
        {ErrorPattern::threeBits, "3 Bits", "3", 0.0003},
        {ErrorPattern::oneBeat, "1 Beat", "4-64", 0.0090},
        {ErrorPattern::wholeEntry, "1 Entry", "4-256", 0.0223},
    }};
    return table;
}

const PatternInfo&
patternInfo(ErrorPattern p)
{
    for (const PatternInfo& info : patternTable()) {
        if (info.pattern == p)
            return info;
    }
    panic("patternInfo: unknown pattern");
}

namespace {

/** The pin, byte and beat regions of an entry as bit masks. */
struct RegionMasks
{
    std::array<Bits288, layout::num_pins> pin;
    std::array<Bits288, layout::num_bytes> byte;
    std::array<Bits288, layout::num_beats> beat;
};

constexpr RegionMasks
makeRegionMasks()
{
    RegionMasks r;
    for (int phys = 0; phys < layout::entry_bits; ++phys) {
        r.pin[layout::pinOf(phys)].set(phys, 1);
        r.byte[layout::byteOf(phys)].set(phys, 1);
        r.beat[layout::beatOf(phys)].set(phys, 1);
    }
    return r;
}

constexpr RegionMasks regions = makeRegionMasks();

/** Whether every set bit of `mask` lies inside `region`. */
bool
within(const Bits288& mask, const Bits288& region)
{
    return (mask & region) == mask;
}

} // namespace

ErrorPattern
classifyErrorMask(const Bits288& mask)
{
    const int bits = mask.popcount();
    require(bits > 0, "classifyErrorMask: empty mask");
    if (bits == 1)
        return ErrorPattern::oneBit;

    // All set bits share a pin (byte, beat) exactly when the mask lies
    // inside the pin (byte, beat) region of its lowest set bit.
    const int first = mask.lowestSetBit();

    // Priority order per Table 1: easier shapes win.
    if (within(mask, regions.pin[layout::pinOf(first)]))
        return ErrorPattern::onePin;
    if (within(mask, regions.byte[layout::byteOf(first)]))
        return ErrorPattern::oneByte;
    if (bits == 2)
        return ErrorPattern::twoBits;
    if (bits == 3)
        return ErrorPattern::threeBits;
    if (within(mask, regions.beat[layout::beatOf(first)]))
        return ErrorPattern::oneBeat;
    return ErrorPattern::wholeEntry;
}

namespace {

/**
 * `n` (at most 64) fair coin flips packed LSB-first, one next64() per
 * flip. Rng::nextBool(0.5) is `(next64() >> 11) * 2^-53 < 0.5`, which
 * holds exactly when bit 63 of next64() is clear; so bit i here is the
 * outcome of the i-th of n nextBool(0.5) calls, draw for draw.
 */
std::uint64_t
coinFlips(Rng& rng, int n)
{
    std::uint64_t word = 0;
    for (int i = 0; i < n; ++i)
        word |= (~rng.next64() >> 63) << i;
    return word;
}

/** Random corruption of a contiguous region, conditioned on shape. */
Bits288
sampleRegion(ErrorPattern target, int region_lo, int region_bits,
             Rng& rng)
{
    const int region_end = region_lo + region_bits;
    for (;;) {
        Bits288 mask;
        // Region bits are drawn in ascending order, split where the
        // region crosses a 64-bit word boundary.
        for (int pos = region_lo; pos < region_end;) {
            const int w = pos / 64;
            const int n = std::min(64 - pos % 64, region_end - pos);
            mask.setWord(w, mask.word(w) | (coinFlips(rng, n) << pos % 64));
            pos += n;
        }
        if (!mask.none() && classifyErrorMask(mask) == target)
            return mask;
    }
}

/** Random corruption of one pin (its 4 per-beat bits). */
Bits288
samplePin(Rng& rng)
{
    const int pin = static_cast<int>(rng.nextBounded(layout::num_pins));
    std::uint64_t beats = 0;
    do {
        beats = coinFlips(rng, layout::num_beats);
    } while (popcount64(beats) < 2);
    Bits288 mask;
    for (int beat = 0; beat < layout::num_beats; ++beat) {
        if ((beats >> beat) & 1)
            mask.set(layout::physicalIndex(beat, pin), 1);
    }
    return mask;
}

} // namespace

Bits288
sampleErrorMask(ErrorPattern p, Rng& rng)
{
    switch (p) {
      case ErrorPattern::oneBit: {
        Bits288 mask;
        mask.set(static_cast<int>(rng.nextBounded(layout::entry_bits)), 1);
        return mask;
      }
      case ErrorPattern::onePin:
        return samplePin(rng);
      case ErrorPattern::oneByte: {
        const int byte =
            static_cast<int>(rng.nextBounded(layout::num_bytes));
        return sampleRegion(ErrorPattern::oneByte, 8 * byte, 8, rng);
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
            if (classifyErrorMask(mask) == p)
                return mask;
        }
      }
      case ErrorPattern::oneBeat: {
        const int beat =
            static_cast<int>(rng.nextBounded(layout::num_beats));
        return sampleRegion(ErrorPattern::oneBeat,
                            layout::beat_bits * beat, layout::beat_bits,
                            rng);
      }
      case ErrorPattern::wholeEntry:
        return sampleRegion(ErrorPattern::wholeEntry, 0,
                            layout::entry_bits, rng);
    }
    panic("sampleErrorMask: unknown pattern");
}

bool
patternIsEnumerable(ErrorPattern p)
{
    return p != ErrorPattern::oneBeat && p != ErrorPattern::wholeEntry;
}

std::uint64_t
enumerationOuterSize(ErrorPattern p)
{
    switch (p) {
      case ErrorPattern::oneBit:
        return layout::entry_bits;
      case ErrorPattern::onePin:
        return layout::num_pins;
      case ErrorPattern::oneByte:
        return layout::num_bytes;
      case ErrorPattern::twoBits:
      case ErrorPattern::threeBits:
        // Sharded by the first (lowest) erroneous bit position.
        return layout::entry_bits;
      default:
        fatal("enumerationOuterSize: pattern is not enumerable");
    }
}

std::uint64_t
forEachErrorMaskInRange(ErrorPattern p, std::uint64_t begin,
                        std::uint64_t end,
                        const std::function<void(const Bits288&)>& fn)
{
    return forEachErrorPositionsInRange(
        p, begin, end, Bits288{},
        [](Bits288 mask, int pos) {
            mask.set(pos, 1);
            return mask;
        },
        [&](const Bits288& mask, std::span<const int>) { fn(mask); });
}

std::uint64_t
forEachErrorMask(ErrorPattern p,
                 const std::function<void(const Bits288&)>& fn)
{
    return forEachErrorMaskInRange(p, 0, enumerationOuterSize(p), fn);
}

} // namespace gpuecc
