/**
 * @file
 * Symbol-based (Reed-Solomon) entry-level ECC organizations.
 *
 * InterleavedSscScheme: two (18, 16) SSC codewords per entry with the
 * paper's 4-pin x 2-beat symbol shape and a byte-granularity
 * checkerboard interleave, so a byte error lands as one symbol error
 * in each codeword and a pin error as one symbol error in each
 * codeword - preserving both byte and pin correction. Optionally
 * applies the correction sanity check.
 *
 * Rs3632Scheme: one (36, 32) codeword whose symbols are the physical
 * bytes of the entry (check symbols spread one per beat), decoded as
 * SSC-DSD+ (one-shot three-pair agreement), as DSC
 * (double-symbol-correct PGZ reference), or as SSC-TSD. SSC-TSD is
 * behaviourally identical to SSC-DSD+ at this code length - both are
 * bounded-distance t=1 decoders of a d=5 code - and the paper's
 * distinction between them is the hardware (iterative algebraic vs
 * one-shot), which the hwmodel library captures.
 */

#ifndef GPUECC_ECC_RS_SCHEME_HPP
#define GPUECC_ECC_RS_SCHEME_HPP

#include <array>
#include <string>

#include "ecc/error_domain.hpp"
#include "ecc/scheme.hpp"
#include "gf256/gf256_vec.hpp"
#include "rs/batch.hpp"
#include "rs/decoders.hpp"
#include "rs/rs_code.hpp"

namespace gpuecc {

/** The paper's interleaved (18, 16) x 2 SSC organization. */
class InterleavedSscScheme : public EntryScheme
{
  public:
    /** @param csc apply the correction sanity check when both
     *             codewords correct */
    explicit InterleavedSscScheme(bool csc);

    std::string id() const override { return csc_ ? "i-ssc-csc" : "i-ssc"; }
    std::string name() const override
    {
        return csc_ ? "I:SSC+CSC" : "I:SSC";
    }
    Bits288 encode(const EntryData& data) const override;
    EntryDecode decode(const Bits288& received) const override;
    bool correctsPinErrors() const override { return true; }

    /**
     * Physical bit of bit `t` (0..7) of code position `pos` of
     * codeword `cw`. Symbols are 4 pins x 2 beats; the codeword
     * assignment of a (column, beat-pair) slot is (column +
     * beat-pair) mod 2, forming the byte-granularity checkerboard.
     */
    static int physicalBit(int cw, int pos, int t);

    /**
     * Erasure-mode decode for a diagnosed pin: the pin crosses one
     * symbol of each codeword, which is re-filled from the
     * syndromes; one residual syndrome per codeword still detects an
     * additional error (d = 3 with one erasure leaves single-error
     * detection, not correction).
     */
    EntryDecode decodeWithPinErasure(const Bits288& received,
                                     int pin) const override;

    /**
     * Batched decode on the SoA/SIMD path: symbols of all entries
     * are gathered column-major, both codewords' syndromes are
     * accumulated with the gf256 bulk kernels, clean entries retire
     * on the bulk all-zero-syndrome test, and only suspects run the
     * scalar one-shot fix. Element-wise identical to decode(); falls
     * back to the per-entry loop under GPUECC_REFERENCE_CODEC.
     */
    void decodeBatch(const Bits288* received, EntryDecode* out,
                     std::size_t n) const override;

    /**
     * Error-domain classification: both codewords' syndromes from
     * one packed table over the mask's nonzero bytes, then correct().
     * The inject/decode/compare default under GPUECC_REFERENCE_CODEC.
     */
    void classifyErrorBatch(const Bits288& codeword,
                            const EntryData& data,
                            const Bits288* errors, ErrorOutcome* out,
                            std::size_t n) const override;

  private:
    /** An entry's decision: both codewords' fixes, after the CSC. */
    struct Correction
    {
        EntryDecode::Status status;
        std::array<RsFix, 2> fixes;
    };

    /**
     * fixSscOneShot per codeword, then the CSC when both correct: the
     * one copy of the decision every decode path and the classifier
     * share. `s` holds S0, S1 of codeword 0, then of codeword 1.
     */
    Correction correct(const std::uint8_t* s) const;

    /** Physical bits the fixes flip. */
    static Bits288 flipsOf(const std::array<RsFix, 2>& fixes);

    std::array<std::vector<std::uint8_t>, 2>
    gatherCodewords(const Bits288& physical) const;

    EntryDecode decodeFast(const Bits288& received) const;
    EntryDecode decodeReference(const Bits288& received) const;
    void decodeBatchFast(const Bits288* received, EntryDecode* out,
                         std::size_t n) const;

    RsCode code_;
    bool csc_;
    RsSyndromePlan plan_;       //!< per-(syndrome, position) tables
    gf256::VecIsa isa_;         //!< vector ISA fixed at construction
    /** Physical byte -> S0, S1 of codeword 0, then of codeword 1. */
    PackedSyndromeTable syn_;
    Bits288 data_bits_;         //!< physical positions of data bits
};

/** The (36, 32) single-codeword organizations. */
class Rs3632Scheme : public EntryScheme
{
  public:
    /** Which decoder drives the organization. */
    enum class Decoder
    {
        sscDsdPlus, //!< the paper's proposed one-shot SSC-DSD+
        sscTsd,     //!< reference; same error-domain behaviour
        dsc         //!< double-symbol-correct PGZ reference
    };

    explicit Rs3632Scheme(Decoder decoder);

    std::string id() const override;
    std::string name() const override;
    Bits288 encode(const EntryData& data) const override;
    EntryDecode decode(const Bits288& received) const override;
    bool correctsPinErrors() const override { return false; }

    /** Physical byte holding code position `pos` (checks are spread
     *  one per beat: positions 0..3 map to bytes 0, 9, 18, 27). */
    static int physicalByteOf(int pos);

    /**
     * Erasure-mode decode for a diagnosed pin: the pin crosses four
     * symbols (one per beat), consuming all four check symbols as
     * erasure fills. This *restores* pin tolerance for SSC-DSD+ -
     * the capability the normal decoder lacks - but leaves no
     * residual detection, so an additional error during the fill is
     * a silent-corruption risk (quantified in the tests).
     */
    EntryDecode decodeWithPinErasure(const Bits288& received,
                                     int pin) const override;

    /**
     * Batched decode on the SoA/SIMD path: the 36 physical symbol
     * columns of all entries are gathered column-major, the four
     * syndromes are accumulated with the gf256 bulk kernels, clean
     * entries retire on the bulk all-zero-syndrome test, and only
     * suspects run the scalar locator/magnitude fix. Element-wise
     * identical to decode(); falls back to the per-entry loop under
     * GPUECC_REFERENCE_CODEC.
     */
    void decodeBatch(const Bits288* received, EntryDecode* out,
                     std::size_t n) const override;

    /**
     * Error-domain classification: S0..S3 from one packed table over
     * the mask's nonzero bytes, then fixFromSyndromes(). The
     * inject/decode/compare default under GPUECC_REFERENCE_CODEC.
     */
    void classifyErrorBatch(const Bits288& codeword,
                            const EntryData& data,
                            const Bits288* errors, ErrorOutcome* out,
                            std::size_t n) const override;

  private:
    EntryDecode decodeFast(const Bits288& received) const;
    EntryDecode decodeReference(const Bits288& received) const;
    void decodeBatchFast(const Bits288* received, EntryDecode* out,
                         std::size_t n) const;
    /** The decoder's decision from S0..S3: the one copy every decode
     *  path and the classifier share. */
    RsFix fixFromSyndromes(const std::uint8_t* s) const;

    RsCode code_;
    Decoder decoder_;
    RsSyndromePlan plan_;       //!< per-(syndrome, position) tables
    gf256::VecIsa isa_;         //!< vector ISA fixed at construction
    /** Physical byte -> S0 | S1 << 8 | S2 << 16 | S3 << 24. */
    PackedSyndromeTable syn_;
    Bits288 data_bits_;         //!< physical positions of data bits
};

} // namespace gpuecc

#endif // GPUECC_ECC_RS_SCHEME_HPP
