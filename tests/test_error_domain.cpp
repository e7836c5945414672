/**
 * @file
 * Differential tests for error-domain trial classification.
 *
 * EntryScheme::classifyErrorBatch decides a trial from the error
 * mask's syndrome; the oracle injects the mask into the stored word,
 * runs decode() and compares the data. For every registered scheme,
 * under both codec backends and against three stored entries (one of
 * them all-zero data), the two must agree mask for mask over:
 *
 *  - every 1-bit and every 2-bit mask, and every 1 Pin / 1 Byte mask;
 *  - 20k sampled 1 Beat and 20k sampled 1 Entry masks;
 *  - 20k masks of random density;
 *  - nonzero codewords (encode of random data), which have a zero
 *    syndrome but corrupt the data;
 *  - masks confined to the check bits.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "common/codec_mode.hpp"
#include "common/rng.hpp"
#include "ecc/binary_scheme.hpp"
#include "ecc/registry.hpp"
#include "ecc/rs_scheme.hpp"
#include "faultsim/patterns.hpp"
#include "faultsim/shard.hpp"

namespace gpuecc {
namespace {

constexpr int kSampled = 20000;

/** Restores the process-wide codec backend on scope exit. */
class BackendGuard
{
  public:
    explicit BackendGuard(CodecBackend backend) : saved_(codecBackend())
    {
        setCodecBackend(backend);
    }
    ~BackendGuard() { setCodecBackend(saved_); }

  private:
    CodecBackend saved_;
};

/** Physical positions of the scheme's check bits. */
std::vector<int>
checkBitPositions(const EntryScheme& scheme)
{
    std::vector<int> bits;
    if (const auto* bin = dynamic_cast<const BinaryEntryScheme*>(&scheme)) {
        for (int phys = 0; phys < layout::entry_bits; ++phys) {
            if (bin->entryLayout().logicalFor(phys).second >= Code72::k)
                bits.push_back(phys);
        }
    } else if (dynamic_cast<const InterleavedSscScheme*>(&scheme)) {
        for (int cw = 0; cw < 2; ++cw) {
            for (int pos = 0; pos < 2; ++pos) {
                for (int t = 0; t < 8; ++t) {
                    bits.push_back(
                        InterleavedSscScheme::physicalBit(cw, pos, t));
                }
            }
        }
    } else if (dynamic_cast<const Rs3632Scheme*>(&scheme)) {
        for (int pos = 0; pos < 4; ++pos) {
            for (int t = 0; t < 8; ++t)
                bits.push_back(8 * Rs3632Scheme::physicalByteOf(pos) + t);
        }
    }
    return bits;
}

/** Every mask set of the file comment, for one scheme. */
std::vector<Bits288>
maskSets(const EntryScheme& scheme)
{
    std::vector<Bits288> masks;
    for (int a = 0; a < layout::entry_bits; ++a) {
        Bits288 one;
        one.set(a, 1);
        masks.push_back(one);
        for (int b = a + 1; b < layout::entry_bits; ++b) {
            Bits288 two = one;
            two.set(b, 1);
            masks.push_back(two);
        }
    }
    for (ErrorPattern p : {ErrorPattern::onePin, ErrorPattern::oneByte})
        forEachErrorMask(p, [&](const Bits288& m) { masks.push_back(m); });

    Rng rng(0xE220D0);
    for (ErrorPattern p : {ErrorPattern::oneBeat, ErrorPattern::wholeEntry}) {
        for (int i = 0; i < kSampled; ++i)
            masks.push_back(sampleErrorMask(p, rng));
    }
    for (int i = 0; i < kSampled; ++i) {
        const double density = rng.nextDouble();
        Bits288 m;
        for (int bit = 0; bit < layout::entry_bits; ++bit) {
            if (rng.nextBool(density))
                m.set(bit, 1);
        }
        masks.push_back(m);
    }
    for (int i = 0; i < 2000; ++i) {
        masks.push_back(scheme.encode(
            {rng.next64(), rng.next64(), rng.next64(), rng.next64()}));
    }

    const std::vector<int> check = checkBitPositions(scheme);
    EXPECT_EQ(check.size(), 32u) << "check bits of " << scheme.id();
    Bits288 all_check;
    for (std::size_t i = 0; i < check.size(); ++i) {
        all_check.set(check[i], 1);
        for (std::size_t j = i; j < check.size(); ++j) {
            Bits288 m;
            m.set(check[i], 1);
            m.set(check[j], 1);
            masks.push_back(m);
        }
    }
    masks.push_back(all_check);
    for (int i = 0; i < 2000; ++i) {
        Bits288 m;
        for (int bit : check) {
            if (rng.nextBool(0.5))
                m.set(bit, 1);
        }
        masks.push_back(m);
    }
    return masks;
}

/** The inject / decode / compare oracle. */
ErrorOutcome
oracle(const EntryScheme& scheme, const Bits288& codeword,
       const EntryData& data, const Bits288& mask)
{
    const EntryDecode d = scheme.decode(codeword ^ mask);
    if (d.status == EntryDecode::Status::due)
        return ErrorOutcome::due;
    return d.data == data ? ErrorOutcome::dce : ErrorOutcome::sdc;
}

/** Count of masks whose classification differs from the oracle. */
std::size_t
mismatches(const EntryScheme& scheme, const Bits288& codeword,
           const EntryData& data, const std::vector<Bits288>& masks,
           std::size_t* outcome_counts)
{
    std::vector<ErrorOutcome> got(masks.size());
    scheme.classifyErrorBatch(codeword, data, masks.data(), got.data(),
                              masks.size());
    std::size_t bad = 0;
    for (std::size_t i = 0; i < masks.size(); ++i) {
        ++outcome_counts[static_cast<int>(got[i])];
        if (got[i] != oracle(scheme, codeword, data, masks[i])) {
            if (bad++ < 3) {
                ADD_FAILURE() << scheme.id() << ": mask "
                              << masks[i].toString() << " classified "
                              << static_cast<int>(got[i]);
            }
        }
    }
    return bad;
}

using Param = std::tuple<std::string, CodecBackend>;

class ErrorDomain : public ::testing::TestWithParam<Param>
{
};

TEST_P(ErrorDomain, MatchesInjectDecodeCompare)
{
    const auto& [id, backend] = GetParam();
    const BackendGuard guard(backend);
    const auto scheme = makeScheme(id);
    const std::vector<Bits288> masks = maskSets(*scheme);

    const EntryData zero{};
    const GoldenEntry goldens[] = {makeGolden(*scheme, 0x5EED),
                                   makeGolden(*scheme, 0xC0FFEE),
                                   {zero, scheme->encode(zero)}};
    std::size_t outcome_counts[3] = {};
    for (const GoldenEntry& g : goldens) {
        EXPECT_EQ(mismatches(*scheme, g.entry, g.data, masks,
                             outcome_counts),
                  0u);
    }
    // The mask sets reach every outcome, so no branch goes unchecked.
    for (int o = 0; o < 3; ++o)
        EXPECT_GT(outcome_counts[o], 0u) << "outcome " << o;
}

TEST_P(ErrorDomain, StoredWordNeedNotEncodeTheData)
{
    // The classifier folds the stored word's own syndrome and data
    // difference in by linearity, so a stored word that is not the
    // encoding of `data` is classified like any other.
    const auto& [id, backend] = GetParam();
    const BackendGuard guard(backend);
    const auto scheme = makeScheme(id);
    Rng rng(0x57023D);
    std::vector<Bits288> masks;
    for (ErrorPattern p : {ErrorPattern::oneBit, ErrorPattern::twoBits,
                           ErrorPattern::oneBeat}) {
        for (int i = 0; i < 500; ++i)
            masks.push_back(sampleErrorMask(p, rng));
    }
    masks.push_back(Bits288{});

    const GoldenEntry g = makeGolden(*scheme, 0x5EED);
    std::size_t outcome_counts[3] = {};
    for (int k = 0; k < 20; ++k) {
        const Bits288 stored =
            g.entry ^ sampleErrorMask(ErrorPattern::oneBit, rng);
        EntryData other = g.data;
        other[k % 4] ^= rng.next64() | 1;
        EXPECT_EQ(mismatches(*scheme, stored, g.data, masks,
                             outcome_counts),
                  0u);
        EXPECT_EQ(mismatches(*scheme, g.entry, other, masks,
                             outcome_counts),
                  0u);
    }
}

std::string
paramName(const ::testing::TestParamInfo<Param>& info)
{
    std::string name = std::get<0>(info.param);
    for (char& c : name) {
        if (c == '-' || c == '+')
            c = '_';
    }
    return name + (std::get<1>(info.param) == CodecBackend::compiled
                       ? "_compiled"
                       : "_reference");
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, ErrorDomain,
    ::testing::Combine(::testing::ValuesIn(schemeIds()),
                       ::testing::Values(CodecBackend::compiled,
                                         CodecBackend::reference)),
    paramName);

} // namespace
} // namespace gpuecc
