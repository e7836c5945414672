/**
 * @file
 * Error-domain trial classification, shared by the compiled codecs.
 *
 * Every code in the library is linear over GF(2): the syndrome of
 * `codeword ^ e` is syndrome(codeword) ^ syndrome(e), and a decoder's
 * correction is a function of the syndrome alone. So whether decoding
 * an injected error ends in a DUE, a DCE or an SDC is decided by the
 * error mask, and a trial needs neither a received word nor the
 * stored data unless the decoder accepts it:
 *
 *  1. the packed syndrome is XORed from the mask's nonzero bytes
 *     through one 36 x 256 table (at most 3 lookups for a 3-bit mask);
 *  2. the family's one decision helper, the same one its decode()
 *     calls, maps that syndrome to a DUE or to the physical bits the
 *     decoder flips;
 *  3. a non-DUE trial is a DCE exactly when the mask and the flips
 *     cancel on every data bit, and an SDC otherwise.
 *
 * tests/test_error_domain.cpp checks the result against inject +
 * decode + compare, mask for mask, for every registered scheme.
 */

#ifndef GPUECC_ECC_ERROR_DOMAIN_HPP
#define GPUECC_ECC_ERROR_DOMAIN_HPP

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "ecc/scheme.hpp"
#include "interleave/swizzle.hpp"

namespace gpuecc {

/**
 * A linear map from the 288-bit physical entry to a packed 32-bit
 * syndrome, lowered to one 256-entry table per physical byte
 * (36 KiB). Each row is the XOR-fold of the byte's eight per-bit
 * contributions (`row[v] = row[v & (v-1)] ^ col[ctz(v)]`), the same
 * strip-lowest-bit construction as every other codec table.
 */
class PackedSyndromeTable
{
  public:
    /**
     * @param bit_syndrome callable mapping a physical bit index in
     *        [0, 288) to the packed syndrome of a single-bit error there
     */
    template <typename BitSyndrome>
    explicit PackedSyndromeTable(BitSyndrome&& bit_syndrome)
    {
        for (int b = 0; b < layout::num_bytes; ++b) {
            std::array<std::uint32_t, 8> col{};
            for (int t = 0; t < 8; ++t)
                col[t] = bit_syndrome(8 * b + t);
            auto& row = table_[b];
            row[0] = 0;
            for (int v = 1; v < 256; ++v) {
                row[v] = row[v & (v - 1)]
                         ^ col[std::countr_zero(static_cast<unsigned>(v))];
            }
        }
    }

    /** Contribution of physical byte `byte` holding `value`. */
    std::uint32_t
    at(int byte, unsigned value) const
    {
        return table_[byte][value];
    }

    /** Packed syndrome of `word`: one lookup per nonzero byte. */
    std::uint32_t
    operator()(const Bits288& word) const
    {
        std::uint32_t syn = 0;
        word.forEachNonzeroByte(
            [&](int byte, unsigned value) { syn ^= table_[byte][value]; });
        return syn;
    }

  private:
    std::array<std::array<std::uint32_t, 256>, layout::num_bytes> table_;
};

/**
 * Classify `n` error masks against a stored entry from their packed
 * syndromes (see the file comment): out[i] is the outcome of decoding
 * `codeword ^ errors[i]` and comparing the result with the data whose
 * physical placement is `placed_data`.
 *
 * The codeword need not encode that data: its own syndrome and its
 * data-bit difference from `placed_data` are folded in once per call,
 * which linearity makes exact.
 *
 * @param data_bits physical positions of the data bits; the code must
 *        be systematic, so decoded data equals the stored data exactly
 *        when the corrected word agrees with `placed_data` there
 * @param decide the family's decision helper, called for nonzero
 *        syndromes only: `decide(syn, flips)` returns false for a DUE,
 *        and otherwise sets `flips` to the physical bits it corrects
 */
template <typename Decide>
void
classifyBySyndrome(const PackedSyndromeTable& syndrome,
                   const Bits288& data_bits, const Bits288& codeword,
                   const Bits288& placed_data, const Bits288* errors,
                   ErrorOutcome* out, std::size_t n, Decide&& decide)
{
    const std::uint32_t base_syn = syndrome(codeword);
    const Bits288 offset = (codeword ^ placed_data) & data_bits;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t syn = base_syn ^ syndrome(errors[i]);
        Bits288 flips;
        if (syn != 0 && !decide(syn, flips)) {
            out[i] = ErrorOutcome::due;
            continue;
        }
        const Bits288 residual = (offset ^ errors[i] ^ flips) & data_bits;
        out[i] = residual.none() ? ErrorOutcome::dce : ErrorOutcome::sdc;
    }
}

} // namespace gpuecc

#endif // GPUECC_ECC_ERROR_DOMAIN_HPP
