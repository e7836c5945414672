/**
 * @file
 * Compiled entry-level codec for the binary (72, 64)x4 organizations.
 *
 * At scheme construction the codec lowers the whole decode pipeline
 * of a binary entry scheme — layout disassembly, four codeword
 * syndromes, data extraction — into two 36 x 256-entry tables over
 * the physical bytes of the 288-bit entry (packed syndromes, and
 * extracted data words), and the per-codeword syndrome->correction
 * logic into 4 x 256-entry fix tables, so decode becomes 36 table
 * lookups, a packed-syndrome test, and (on the rare correcting path)
 * a handful of precomputed fixes. Encode is likewise lowered into a
 * 32 x 256-entry scatter table from data bytes to physical entries.
 * The shard kernel's classifyErrorBatch() needs only the syndrome
 * table and the fixes: it XORs a mask's nonzero bytes and decides
 * from the syndrome (ecc/error_domain.hpp).
 *
 * Outcomes are provably identical to the reference path: every table
 * entry is the XOR-fold of exact per-bit contributions of the same
 * linear maps the reference evaluates bit-by-bit, the fix tables are
 * images of Code72's syndrome->outcome table under the layout
 * permutation, and the correction sanity check is evaluated with the
 * very same correctionSanityCheckPasses() predicate on the same
 * corrected-bit set. tests/test_differential_codec.cpp enforces this
 * bit-for-bit against the reference decoder.
 */

#ifndef GPUECC_ECC_COMPILED_CODEC_HPP
#define GPUECC_ECC_COMPILED_CODEC_HPP

#include <array>
#include <cstdint>
#include <memory>

#include "codes/linear_code.hpp"
#include "ecc/error_domain.hpp"
#include "ecc/scheme.hpp"
#include "interleave/swizzle.hpp"

namespace gpuecc {

/** Table-compiled encode/decode for one binary entry organization. */
class CompiledBinaryCodec
{
  public:
    /**
     * Compile the tables for one (code, layout, mode, csc) pipeline.
     *
     * @param code   the inner (72, 64) code (kept alive by the owner)
     * @param layout the physical bit arrangement
     * @param mode   decode mode baked into the fix tables
     * @param csc    apply the correction sanity check when >= 2
     *               codewords correct
     */
    CompiledBinaryCodec(std::shared_ptr<const Code72> code,
                        const EntryLayout& layout, Code72::Mode mode,
                        bool csc);

    /** Encode 32B of data: 32 scatter-table lookups. */
    Bits288 encode(const EntryData& data) const;

    /** Decode a physical entry: 36 gather-table lookups + fixes. */
    EntryDecode decode(const Bits288& received) const;

    /**
     * Decode `n` entries with the same tables; out[i] is identical to
     * decode(received[i]), with the table base pointers live in
     * registers across the whole batch.
     */
    void decodeBatch(const Bits288* received, EntryDecode* out,
                     std::size_t n) const;

    /**
     * EntryScheme::classifyErrorBatch from the masks' syndromes:
     * out[i] is the outcome decode(codeword ^ errors[i]) would have
     * against `data`, decided by the same correct() decode uses.
     */
    void classifyErrorBatch(const Bits288& codeword,
                            const EntryData& data,
                            const Bits288* errors, ErrorOutcome* out,
                            std::size_t n) const;

    /** Total compiled-table footprint in bytes (for memory audits). */
    static constexpr std::size_t
    memoryBytes()
    {
        return sizeof(syn_) + sizeof(data_) + sizeof(fix_)
               + sizeof(enc_);
    }

  private:
    /** Per-(codeword, syndrome) correction. */
    struct Fix
    {
        /** Detected-yet-uncorrectable syndrome. */
        bool due;
        /** XOR fix on the codeword's data word (bits < 64 only). */
        std::uint64_t data_fix;
        /** Corrected physical positions (CSC input); -1 = unused. */
        std::array<std::int16_t, 2> phys;
    };

    /** The decision for one nonzero packed syndrome. */
    struct Correction
    {
        EntryDecode::Status status; //!< corrected or due
        /** XOR fix on the four extracted data words. */
        std::array<std::uint64_t, 4> data_fix;
        /** Every corrected physical bit (the CSC input). */
        Bits288 flips;
    };

    /**
     * Per-codeword fix lookups, then the CSC when >= 2 codewords
     * correct: the one copy of the decision decode() and
     * classifyErrorBatch() share.
     */
    Correction correct(std::uint32_t syn) const;

    std::shared_ptr<const Code72> code_; //!< keeps the tables' source alive
    bool csc_;
    /** Physical byte -> packed syndromes (byte c: codeword c's). */
    PackedSyndromeTable syn_;
    /** Physical byte -> contribution to the four data words. */
    std::array<std::array<std::array<std::uint64_t, 4>, 256>,
               layout::num_bytes>
        data_;
    /** Physical positions of the 256 data bits. */
    Bits288 data_bits_;
    std::array<std::array<Fix, 256>, layout::num_codewords> fix_;
    /** Data byte -> physical-entry contribution (data + check bits). */
    std::array<std::array<Bits288, 256>, 32> enc_;
};

} // namespace gpuecc

#endif // GPUECC_ECC_COMPILED_CODEC_HPP
