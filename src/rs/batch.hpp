/**
 * @file
 * Reed-Solomon decisions from syndromes alone: allocation-free "fix"
 * variants of the scalar decoders that take already-computed
 * syndromes and return the positions and magnitudes to patch.
 *
 * The RS entry schemes compute their syndromes from one packed table
 * per scheme (ecc/error_domain.hpp) and decide through these
 * functions, in both decode() and the shard kernel's
 * classifyErrorBatch(). They are transliterations of
 * decodeSscOneShot / decodeSscDsdPlus / decodeDsc with the syndrome
 * computation factored out — the differential tests diff them
 * against those oracles decision-for-decision.
 */

#ifndef GPUECC_RS_BATCH_HPP
#define GPUECC_RS_BATCH_HPP

#include <array>
#include <cstdint>

#include "rs/decoders.hpp"

namespace gpuecc {

/** A correction decision derived from syndromes alone. */
struct RsFix
{
    RsDecode::Status status;
    int num_errors;                    //!< positions modified (0..2)
    std::array<int, 2> pos;            //!< code positions to patch
    std::array<std::uint8_t, 2> mag;   //!< XOR magnitudes
};

/** decodeSscOneShot's decision from the r=2 syndromes of an n-symbol
 *  word (returns clean when both are zero). */
RsFix fixSscOneShot(int n, const std::uint8_t* s);

/** decodeSscDsdPlus's decision from the r=4 syndromes. */
RsFix fixSscDsdPlus(int n, const std::uint8_t* s);

/** decodeDsc's decision from the r=4 syndromes. The oracle's final
 *  isCodeword() guard is applied algebraically: the two-error fix is
 *  accepted only if it reproduces S_2 and S_3 (S_0 and S_1 hold by
 *  construction of the magnitudes). */
RsFix fixDsc(int n, const std::uint8_t* s);

} // namespace gpuecc

#endif // GPUECC_RS_BATCH_HPP
