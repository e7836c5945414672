/**
 * @file
 * The entry-level ECC scheme interface.
 *
 * Every organization evaluated in the paper protects one 32B HBM2
 * memory entry with 4B of check bits, transmitted as a 288-bit
 * physical entry (4 beats x 72 pins). EntryScheme abstracts over the
 * binary and symbol-based organizations so the fault-injection
 * evaluator, benches, and examples treat them uniformly.
 *
 * The library's schemes are linear codes whose decoder is a function
 * of the syndrome alone, and each exposes that as its *syndrome core*
 * (syndromeCore, decide, dataBits): enough to decide a trial
 * from its error mask without building a received word. A scheme
 * without one - a test double, a wrapper, or any scheme under
 * GPUECC_REFERENCE_CODEC - is still evaluated exactly, through
 * decode().
 */

#ifndef GPUECC_ECC_SCHEME_HPP
#define GPUECC_ECC_SCHEME_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/bits.hpp"

namespace gpuecc {

class PackedSyndromeTable;

/** 32B of user data: four 64-bit words. */
using EntryData = std::array<std::uint64_t, 4>;

/** Outcome of decoding one physical memory entry. */
struct EntryDecode
{
    enum class Status
    {
        clean,      //!< no error observed
        corrected,  //!< one or more corrections applied (DCE)
        due         //!< detected-yet-uncorrectable; data is discarded
    };

    Status status;
    /** Decoded data; meaningful unless status is due. */
    EntryData data;
};

/** How one error-injection trial ends. */
enum class ErrorOutcome : std::uint8_t
{
    dce, //!< decoded data equals the stored data (clean or corrected)
    due, //!< detected-yet-uncorrectable
    sdc  //!< decoded data differs from the stored data, unflagged
};

/** A full-entry ECC organization (encode 32B -> 36B and back). */
class EntryScheme
{
  public:
    virtual ~EntryScheme() = default;

    /** Short machine-friendly identifier, e.g. "duet". */
    virtual std::string id() const = 0;

    /** Human-readable name as used in the paper, e.g.
     *  "DuetECC (I:SEC-DED+CSC)". */
    virtual std::string name() const = 0;

    /** Encode 32B of data into the 288-bit physical entry. */
    virtual Bits288 encode(const EntryData& data) const = 0;

    /** Decode a (possibly corrupted) physical entry. */
    virtual EntryDecode decode(const Bits288& received) const = 0;

    /**
     * Decode `n` physical entries in one call.
     *
     * Results must be element-wise identical to n calls of decode(),
     * which this loop guarantees. bench_throughput's batched decode
     * rate, perfbench's staged replay and the default
     * classifyErrorBatch() run on it; the library's schemes do not
     * override it, because the shard kernel classifies error masks
     * instead of decoding received words.
     */
    virtual void
    decodeBatch(const Bits288* received, EntryDecode* out,
                std::size_t n) const
    {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = decode(received[i]);
    }

    /**
     * Classify `n` error masks against one stored entry: out[i] is
     * how decoding `codeword ^ errors[i]` ends when its result is
     * compared with `data`. This is the batched shard kernel's
     * per-batch call.
     *
     * The default injects each mask, runs decodeBatch() and compares
     * the data, so a scheme that overrides only decode() or
     * decodeBatch() keeps exactly that behaviour. The library's codes
     * are linear, so their schemes override it to decide from each
     * mask's syndrome and look at data bits only for trials the
     * decoder accepts (ecc/error_domain.hpp); under the reference
     * backend they fall back to this default.
     */
    virtual void classifyErrorBatch(const Bits288& codeword,
                                    const EntryData& data,
                                    const Bits288* errors,
                                    ErrorOutcome* out,
                                    std::size_t n) const;

    /**
     * The packed syndrome table of the scheme's syndrome core
     * (ecc/error_domain.hpp): `bit(phys)` is the syndrome of a
     * single-bit error, `(*core)(mask)` that of a whole mask. nullptr
     * when the core is not live: for schemes without one (test
     * doubles, wrappers) and for every scheme under
     * GPUECC_REFERENCE_CODEC, whose matrix decoders stay the
     * independent oracle.
     */
    const PackedSyndromeTable* syndromeCore() const;

    /**
     * The decoder's decision for a nonzero packed syndrome: false for
     * a DUE, otherwise true with `flips` set to the physical bits the
     * decoder corrects. It is the one decision the scheme's compiled
     * decode() and classifyErrorBatch() also run, so an error `e` on
     * a stored codeword decodes to the stored data exactly when
     * `(e ^ flips) & dataBits()` is empty. Requires a syndrome core.
     */
    virtual bool decide(std::uint32_t syn, Bits288& flips) const;

    /** Physical positions of the 256 data bits; requires a syndrome
     *  core. */
    virtual const Bits288& dataBits() const;

    /** Whether the organization corrects single-pin (permanent)
     *  errors; SSC-DSD+ is the one scheme in the paper that does not. */
    virtual bool correctsPinErrors() const = 0;

    /**
     * Decode treating one pin as a *known* erasure - the degraded
     * operating mode after a permanent pin failure has been
     * diagnosed (Section 2.5's graceful-degradation story taken one
     * step further: the controller stops trusting the pin and the
     * code's redundancy is re-aimed at the remaining bits).
     *
     * The default ignores the diagnosis and decodes normally;
     * organizations with erasure support override it.
     */
    virtual EntryDecode
    decodeWithPinErasure(const Bits288& received, int pin) const
    {
        (void)pin;
        return decode(received);
    }

  protected:
    /** The compiled table behind the syndrome core, or nullptr for a
     *  scheme without one (the default). */
    virtual const PackedSyndromeTable*
    syndromeTable() const
    {
        return nullptr;
    }
};

} // namespace gpuecc

#endif // GPUECC_ECC_SCHEME_HPP
