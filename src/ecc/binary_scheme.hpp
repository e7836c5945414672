/**
 * @file
 * Binary entry-level ECC organizations.
 *
 * All six binary rows of the paper's Table 2 are instances of one
 * composition: four (72, 64) codewords per entry, an optional Eq. 1/2
 * interleave, a decode mode (SEC-DED or SEC-2bEC), and an optional
 * correction sanity check. DuetECC is interleaved SEC-DED with CSC;
 * TrioECC is interleaved SEC-2bEC with CSC.
 */

#ifndef GPUECC_ECC_BINARY_SCHEME_HPP
#define GPUECC_ECC_BINARY_SCHEME_HPP

#include <memory>
#include <string>

#include "codes/linear_code.hpp"
#include "ecc/compiled_codec.hpp"
#include "ecc/scheme.hpp"
#include "interleave/swizzle.hpp"

namespace gpuecc {

/** Configuration of a binary entry scheme. */
struct BinarySchemeConfig
{
    std::string id;
    std::string name;
    bool interleaved;
    Code72::Mode mode;
    bool csc;
};

/** A binary (72, 64)-codeword-based entry organization. */
class BinaryEntryScheme : public EntryScheme
{
  public:
    /**
     * @param code   the inner codeword code (shared between entries);
     *               its aligned-pair set must match the layout
     *               (adjacent pairs non-interleaved, stride-4 pairs
     *               interleaved) when mode is sec2bEc
     * @param config scheme identity and decode policy
     */
    BinaryEntryScheme(std::shared_ptr<const Code72> code,
                      BinarySchemeConfig config);

    std::string id() const override { return config_.id; }
    std::string name() const override { return config_.name; }

    /** Encode (backend dispatch: compiled scatter tables vs the
     *  per-codeword reference path). */
    Bits288
    encode(const EntryData& data) const override
    {
        return useReferenceCodec() ? encodeReference(data)
                                   : codec_.encode(data);
    }

    /** Decode (backend dispatch: compiled gather/fix tables vs the
     *  disassemble-and-matrix reference path). */
    EntryDecode
    decode(const Bits288& received) const override
    {
        return useReferenceCodec() ? decodeReference(received)
                                   : codec_.decode(received);
    }

    /**
     * Batch decode: one backend dispatch for the whole batch, then
     * the compiled codec's devirtualized loop (or the reference path
     * element-wise under GPUECC_REFERENCE_CODEC).
     */
    void
    decodeBatch(const Bits288* received, EntryDecode* out,
                std::size_t n) const override
    {
        if (useReferenceCodec()) {
            for (std::size_t i = 0; i < n; ++i)
                out[i] = decodeReference(received[i]);
            return;
        }
        codec_.decodeBatch(received, out, n);
    }

    /** Error-domain classification on the compiled tables; the
     *  inject/decode/compare default under GPUECC_REFERENCE_CODEC. */
    void
    classifyErrorBatch(const Bits288& codeword, const EntryData& data,
                       const Bits288* errors, ErrorOutcome* out,
                       std::size_t n) const override
    {
        if (useReferenceCodec()) {
            EntryScheme::classifyErrorBatch(codeword, data, errors, out,
                                            n);
            return;
        }
        codec_.classifyErrorBatch(codeword, data, errors, out, n);
    }

    /** The original per-codeword encode (the differential oracle). */
    Bits288 encodeReference(const EntryData& data) const;

    /** The original matrix-path decode (the differential oracle). */
    EntryDecode decodeReference(const Bits288& received) const;

    bool correctsPinErrors() const override { return true; }

    /**
     * Erasure-mode decode for a diagnosed pin: each codeword sees
     * exactly one erased bit, and the d = 4 inner code corrects the
     * erasure plus one additional error per codeword - so a degraded
     * GPU regains full single-bit soft error correction.
     */
    EntryDecode decodeWithPinErasure(const Bits288& received,
                                     int pin) const override;

    /** The inner codeword code. */
    const Code72& code() const { return *code_; }

    /** The bit layout in use. */
    const EntryLayout& entryLayout() const { return layout_; }

    /** The compiled fast-path codec (tables built at construction). */
    const CompiledBinaryCodec& compiledCodec() const { return codec_; }

  private:
    std::shared_ptr<const Code72> code_;
    BinarySchemeConfig config_;
    EntryLayout layout_;
    CompiledBinaryCodec codec_;
};

} // namespace gpuecc

#endif // GPUECC_ECC_BINARY_SCHEME_HPP
