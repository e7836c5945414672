#include "ecc/rs_scheme.hpp"

#include <algorithm>
#include <cstring>

#include "common/codec_mode.hpp"
#include "common/log.hpp"
#include "ecc/csc.hpp"
#include "gf256/gf256.hpp"
#include "gf256/gf256_vec.hpp"
#include "interleave/swizzle.hpp"

namespace gpuecc {

namespace {

/**
 * Word-extracted aligned physical byte B (bits [8B, 8B+8)); byte
 * fields never straddle the 64-bit words of a Bits288.
 */
std::uint8_t
physByte(const Bits288& entry, int b)
{
    return static_cast<std::uint8_t>(entry.word(b >> 3)
                                     >> ((b & 7) * 8));
}

/**
 * Word-extracted 4-bit field at bit offset `off` (off % 4 == 0, so
 * the field never straddles a word boundary).
 */
std::uint8_t
physNibble(const Bits288& entry, int off)
{
    return static_cast<std::uint8_t>(
        (entry.word(off >> 6) >> (off & 63)) & 0xf);
}

/** Accumulator for word-level scatter into a physical entry. */
struct EntryWords
{
    std::array<std::uint64_t, Bits288::numWords> w{};

    void
    orField(int off, std::uint64_t value)
    {
        w[off >> 6] |= value << (off & 63);
    }

    Bits288
    toBits() const
    {
        Bits288 out;
        for (int i = 0; i < Bits288::numWords; ++i)
            out.setWord(i, w[i]);
        return out;
    }
};

/** Entry data words -> 32 bytes (little-endian within each word). */
std::array<std::uint8_t, 32>
dataToBytes(const EntryData& data)
{
    std::array<std::uint8_t, 32> bytes{};
    for (int w = 0; w < 4; ++w) {
        for (int j = 0; j < 8; ++j) {
            bytes[8 * w + j] =
                static_cast<std::uint8_t>(data[w] >> (8 * j));
        }
    }
    return bytes;
}

/** 32 bytes -> entry data words. */
EntryData
bytesToData(const std::array<std::uint8_t, 32>& bytes)
{
    EntryData data{};
    for (int w = 0; w < 4; ++w) {
        for (int j = 0; j < 8; ++j) {
            data[w] |= static_cast<std::uint64_t>(bytes[8 * w + j])
                       << (8 * j);
        }
    }
    return data;
}

/** Per-decodeBatch tile: matches the shard kernel's batch size so
 *  one shard batch is one SoA transpose + one bulk syndrome pass. */
constexpr std::size_t kRsTile = 256;

/**
 * Packed contribution of bit `t` of the symbol at code position `pos`
 * to the syndromes S_j = sum_i word[i] * alpha^(j*i), j < r, with S_j
 * in byte `first + j` of the result.
 */
std::uint32_t
symbolBitSyndrome(int pos, int t, int r, int first)
{
    std::uint32_t packed = 0;
    for (int j = 0; j < r; ++j) {
        const std::uint8_t term = gf256::mul(
            gf256::alphaPow(j * pos), static_cast<std::uint8_t>(1u << t));
        packed |= static_cast<std::uint32_t>(term) << (8 * (first + j));
    }
    return packed;
}

/** Per physical bit: its packed (S0, S1) x 2 codewords contribution. */
std::array<std::uint32_t, layout::entry_bits>
sscBitSyndromes()
{
    std::array<std::uint32_t, layout::entry_bits> bits{};
    for (int cw = 0; cw < 2; ++cw) {
        for (int pos = 0; pos < 18; ++pos) {
            for (int t = 0; t < 8; ++t) {
                bits[InterleavedSscScheme::physicalBit(cw, pos, t)] =
                    symbolBitSyndrome(pos, t, 2, 2 * cw);
            }
        }
    }
    return bits;
}

/** Per physical bit: its packed S0..S3 contribution. */
std::array<std::uint32_t, layout::entry_bits>
rs3632BitSyndromes()
{
    std::array<std::uint32_t, layout::entry_bits> bits{};
    for (int pos = 0; pos < 36; ++pos) {
        for (int t = 0; t < 8; ++t) {
            bits[8 * Rs3632Scheme::physicalByteOf(pos) + t] =
                symbolBitSyndrome(pos, t, 4, 0);
        }
    }
    return bits;
}

/** The four bytes of a packed syndrome, lowest first. */
std::array<std::uint8_t, 4>
unpackSyndromes(std::uint32_t syn)
{
    return {static_cast<std::uint8_t>(syn),
            static_cast<std::uint8_t>(syn >> 8),
            static_cast<std::uint8_t>(syn >> 16),
            static_cast<std::uint8_t>(syn >> 24)};
}

} // namespace

// ---------------------------------------------------------------------
// InterleavedSscScheme
// ---------------------------------------------------------------------

InterleavedSscScheme::InterleavedSscScheme(bool csc)
    : code_(18, 16), csc_(csc), plan_(code_), isa_(gf256::bestIsa()),
      syn_([bits = sscBitSyndromes()](int phys) { return bits[phys]; })
{
    for (int cw = 0; cw < 2; ++cw) {
        for (int pos = 2; pos < 18; ++pos) {
            for (int t = 0; t < 8; ++t)
                data_bits_.set(physicalBit(cw, pos, t), 1);
        }
    }
}

int
InterleavedSscScheme::physicalBit(int cw, int pos, int t)
{
    // Code position -> (beat-pair h, column c); see the header.
    const int h = pos / 9;
    const int j = pos % 9;
    const int c = 2 * j + ((cw + h) % 2);
    const int beat = 2 * h + t / 4;
    const int pin = 4 * c + t % 4;
    return layout::physicalIndex(beat, pin);
}

std::array<std::vector<std::uint8_t>, 2>
InterleavedSscScheme::gatherCodewords(const Bits288& physical) const
{
    std::array<std::vector<std::uint8_t>, 2> cws;
    const bool reference = useReferenceCodec();
    for (int cw = 0; cw < 2; ++cw) {
        cws[cw].assign(18, 0);
        for (int pos = 0; pos < 18; ++pos) {
            std::uint8_t sym = 0;
            if (reference) {
                for (int t = 0; t < 8; ++t) {
                    sym |= static_cast<std::uint8_t>(
                               physical.get(physicalBit(cw, pos, t)))
                           << t;
                }
            } else {
                // A symbol is one 4-bit column slice of each beat of
                // its beat-pair; both nibbles are word-extractable.
                const int lo = physicalBit(cw, pos, 0);
                const int hi = physicalBit(cw, pos, 4);
                sym = static_cast<std::uint8_t>(
                    physNibble(physical, lo)
                    | (physNibble(physical, hi) << 4));
            }
            cws[cw][pos] = sym;
        }
    }
    return cws;
}

Bits288
InterleavedSscScheme::encode(const EntryData& data) const
{
    const auto bytes = dataToBytes(data);
    const bool reference = useReferenceCodec();
    Bits288 physical;
    EntryWords fast;
    for (int cw = 0; cw < 2; ++cw) {
        std::vector<std::uint8_t> payload(bytes.begin() + 16 * cw,
                                          bytes.begin() + 16 * (cw + 1));
        const std::vector<std::uint8_t> encoded = code_.encode(payload);
        for (int pos = 0; pos < 18; ++pos) {
            if (reference) {
                for (int t = 0; t < 8; ++t) {
                    if ((encoded[pos] >> t) & 1)
                        physical.set(physicalBit(cw, pos, t), 1);
                }
            } else {
                fast.orField(physicalBit(cw, pos, 0),
                             encoded[pos] & 0xfull);
                fast.orField(physicalBit(cw, pos, 4),
                             (encoded[pos] >> 4) & 0xfull);
            }
        }
    }
    return reference ? physical : fast.toBits();
}

EntryDecode
InterleavedSscScheme::decode(const Bits288& received) const
{
    return useReferenceCodec() ? decodeReference(received)
                               : decodeFast(received);
}

Bits288
InterleavedSscScheme::flipsOf(const std::array<RsFix, 2>& fixes)
{
    EntryWords flips;
    for (int cw = 0; cw < 2; ++cw) {
        for (int e = 0; e < fixes[cw].num_errors; ++e) {
            const int pos = fixes[cw].pos[e];
            const std::uint64_t mag = fixes[cw].mag[e];
            flips.orField(physicalBit(cw, pos, 0), mag & 0xf);
            flips.orField(physicalBit(cw, pos, 4), (mag >> 4) & 0xf);
        }
    }
    return flips.toBits();
}

InterleavedSscScheme::Correction
InterleavedSscScheme::correct(const std::uint8_t* s) const
{
    Correction c{EntryDecode::Status::clean, {}};
    int num_correcting = 0;
    for (int cw = 0; cw < 2; ++cw) {
        c.fixes[cw] = fixSscOneShot(18, s + 2 * cw);
        if (c.fixes[cw].status == RsDecode::Status::due)
            return {EntryDecode::Status::due, {}};
        if (c.fixes[cw].status == RsDecode::Status::corrected)
            ++num_correcting;
    }
    if (csc_ && num_correcting >= 2 &&
        !correctionSanityCheckPasses(flipsOf(c.fixes)))
        return {EntryDecode::Status::due, {}};
    if (num_correcting)
        c.status = EntryDecode::Status::corrected;
    return c;
}

/**
 * Allocation-free fast decode: nibble-gathered symbols on the stack,
 * syndromes via the plan's precomputed tables, correction decisions
 * from correct(). Decision-for-decision identical to the reference
 * path below (the differential tests enforce it).
 */
EntryDecode
InterleavedSscScheme::decodeFast(const Bits288& received) const
{
    std::uint8_t cws[2][18];
    for (int cw = 0; cw < 2; ++cw) {
        for (int pos = 0; pos < 18; ++pos) {
            const int lo = physicalBit(cw, pos, 0);
            const int hi = physicalBit(cw, pos, 4);
            cws[cw][pos] = static_cast<std::uint8_t>(
                physNibble(received, lo)
                | (physNibble(received, hi) << 4));
        }
    }

    std::uint8_t s[4];
    for (int cw = 0; cw < 2; ++cw)
        plan_.syndromesScalar(cws[cw], s + 2 * cw);
    const Correction c = correct(s);
    if (c.status == EntryDecode::Status::due)
        return {EntryDecode::Status::due, EntryData{}};

    std::array<std::uint8_t, 32> bytes{};
    for (int cw = 0; cw < 2; ++cw) {
        for (int e = 0; e < c.fixes[cw].num_errors; ++e)
            cws[cw][c.fixes[cw].pos[e]] ^= c.fixes[cw].mag[e];
        for (int pos = 2; pos < 18; ++pos)
            bytes[16 * cw + (pos - 2)] = cws[cw][pos];
    }
    return {c.status, bytesToData(bytes)};
}

EntryDecode
InterleavedSscScheme::decodeReference(const Bits288& received) const
{
    const auto cws = gatherCodewords(received);
    std::array<RsDecode, 2> results;
    int num_correcting = 0;
    for (int cw = 0; cw < 2; ++cw) {
        results[cw] = decodeSscOneShot(code_, cws[cw]);
        if (results[cw].status == RsDecode::Status::due)
            return {EntryDecode::Status::due, EntryData{}};
        if (results[cw].status == RsDecode::Status::corrected)
            ++num_correcting;
    }

    if (csc_ && num_correcting >= 2) {
        Bits288 corrected_physical;
        for (int cw = 0; cw < 2; ++cw) {
            for (int pos : results[cw].error_positions) {
                const std::uint8_t magnitude = static_cast<std::uint8_t>(
                    results[cw].word[pos] ^ cws[cw][pos]);
                for (int t = 0; t < 8; ++t) {
                    if ((magnitude >> t) & 1)
                        corrected_physical.set(physicalBit(cw, pos, t), 1);
                }
            }
        }
        if (!correctionSanityCheckPasses(corrected_physical))
            return {EntryDecode::Status::due, EntryData{}};
    }

    std::array<std::uint8_t, 32> bytes{};
    for (int cw = 0; cw < 2; ++cw) {
        for (int pos = 2; pos < 18; ++pos)
            bytes[16 * cw + (pos - 2)] = results[cw].word[pos];
    }
    return {num_correcting ? EntryDecode::Status::corrected
                           : EntryDecode::Status::clean,
            bytesToData(bytes)};
}

void
InterleavedSscScheme::decodeBatch(const Bits288* received,
                                  EntryDecode* out, std::size_t n) const
{
    if (useReferenceCodec()) {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = decodeReference(received[i]);
        return;
    }
    decodeBatchFast(received, out, n);
}

void
InterleavedSscScheme::decodeBatchFast(const Bits288* received,
                                      EntryDecode* out,
                                      std::size_t n) const
{
    // Column-major symbol staging: cols[cw][pos * kRsTile + e] is
    // symbol `pos` of codeword `cw` of entry `e` in the tile.
    std::uint8_t cols[2][18 * kRsTile];
    std::uint8_t synd[2][2 * kRsTile];
    std::uint8_t suspect[kRsTile];

    for (std::size_t base = 0; base < n; base += kRsTile) {
        const std::size_t count = std::min(kRsTile, n - base);

        for (int cw = 0; cw < 2; ++cw) {
            for (int pos = 0; pos < 18; ++pos) {
                const int lo = physicalBit(cw, pos, 0);
                const int hi = physicalBit(cw, pos, 4);
                std::uint8_t* col = cols[cw] + pos * kRsTile;
                for (std::size_t e = 0; e < count; ++e) {
                    const Bits288& entry = received[base + e];
                    col[e] = static_cast<std::uint8_t>(
                        physNibble(entry, lo)
                        | (physNibble(entry, hi) << 4));
                }
            }
        }

        for (int cw = 0; cw < 2; ++cw)
            plan_.syndromesBulk(isa_, cols[cw], kRsTile, count,
                                synd[cw]);

        // Bulk all-zero-syndrome early-out across both codewords.
        std::memset(suspect, 0, count);
        for (int cw = 0; cw < 2; ++cw) {
            for (int j = 0; j < 2; ++j)
                gf256::orAccBuf(synd[cw] + j * kRsTile, suspect,
                                count);
        }

        for (std::size_t e = 0; e < count; ++e) {
            std::array<std::uint8_t, 32> bytes{};
            if (suspect[e] == 0) {
                for (int cw = 0; cw < 2; ++cw) {
                    for (int pos = 2; pos < 18; ++pos) {
                        bytes[16 * cw + (pos - 2)] =
                            cols[cw][pos * kRsTile + e];
                    }
                }
                out[base + e] = {EntryDecode::Status::clean,
                                 bytesToData(bytes)};
                continue;
            }

            // Suspect: correct() from the already-computed
            // syndromes — the same decisions decodeFast() makes.
            const std::uint8_t s[4] = {
                synd[0][0 * kRsTile + e], synd[0][1 * kRsTile + e],
                synd[1][0 * kRsTile + e], synd[1][1 * kRsTile + e]};
            const Correction c = correct(s);
            if (c.status == EntryDecode::Status::due) {
                out[base + e] = {EntryDecode::Status::due, EntryData{}};
                continue;
            }

            for (int cw = 0; cw < 2; ++cw) {
                std::uint8_t word[18];
                for (int pos = 0; pos < 18; ++pos)
                    word[pos] = cols[cw][pos * kRsTile + e];
                for (int k = 0; k < c.fixes[cw].num_errors; ++k)
                    word[c.fixes[cw].pos[k]] ^= c.fixes[cw].mag[k];
                for (int pos = 2; pos < 18; ++pos)
                    bytes[16 * cw + (pos - 2)] = word[pos];
            }
            out[base + e] = {c.status, bytesToData(bytes)};
        }
    }
}

void
InterleavedSscScheme::classifyErrorBatch(const Bits288& codeword,
                                         const EntryData& data,
                                         const Bits288* errors,
                                         ErrorOutcome* out,
                                         std::size_t n) const
{
    if (useReferenceCodec()) {
        EntryScheme::classifyErrorBatch(codeword, data, errors, out, n);
        return;
    }
    const auto bytes = dataToBytes(data);
    EntryWords placed;
    for (int cw = 0; cw < 2; ++cw) {
        for (int pos = 2; pos < 18; ++pos) {
            const std::uint64_t b = bytes[16 * cw + (pos - 2)];
            placed.orField(physicalBit(cw, pos, 0), b & 0xf);
            placed.orField(physicalBit(cw, pos, 4), b >> 4);
        }
    }
    classifyBySyndrome(syn_, data_bits_, codeword, placed.toBits(),
                       errors, out, n,
                       [&](std::uint32_t syn, Bits288& flips) {
                           const auto s = unpackSyndromes(syn);
                           const Correction c = correct(s.data());
                           if (c.status == EntryDecode::Status::due)
                               return false;
                           flips = flipsOf(c.fixes);
                           return true;
                       });
}

EntryDecode
InterleavedSscScheme::decodeWithPinErasure(const Bits288& received,
                                           int pin) const
{
    require(pin >= 0 && pin < layout::num_pins,
            "decodeWithPinErasure: bad pin");
    const auto cws = gatherCodewords(received);
    const int column = pin / 4;

    std::array<RsDecode, 2> results;
    for (int h = 0; h < 2; ++h) {
        const int cw = (column + h) % 2;
        const int pos = 9 * h + column / 2;
        results[cw] = decodeWithErasures(code_, cws[cw], {pos});
        if (results[cw].status == RsDecode::Status::due)
            return {EntryDecode::Status::due, EntryData{}};
    }

    std::array<std::uint8_t, 32> bytes{};
    bool any = false;
    for (int cw = 0; cw < 2; ++cw) {
        any = any || results[cw].status == RsDecode::Status::corrected;
        for (int pos = 2; pos < 18; ++pos)
            bytes[16 * cw + (pos - 2)] = results[cw].word[pos];
    }
    return {any ? EntryDecode::Status::corrected
                : EntryDecode::Status::clean,
            bytesToData(bytes)};
}

// ---------------------------------------------------------------------
// Rs3632Scheme
// ---------------------------------------------------------------------

Rs3632Scheme::Rs3632Scheme(Decoder decoder)
    : code_(36, 32), decoder_(decoder), plan_(code_),
      isa_(gf256::bestIsa()),
      syn_([bits = rs3632BitSyndromes()](int phys) { return bits[phys]; })
{
    for (int pos = 4; pos < 36; ++pos) {
        for (int t = 0; t < 8; ++t)
            data_bits_.set(8 * physicalByteOf(pos) + t, 1);
    }
}

std::string
Rs3632Scheme::id() const
{
    switch (decoder_) {
      case Decoder::sscDsdPlus: return "ssc-dsd+";
      case Decoder::sscTsd: return "ssc-tsd";
      case Decoder::dsc: return "dsc";
    }
    panic("unreachable Rs3632Scheme::id");
}

std::string
Rs3632Scheme::name() const
{
    switch (decoder_) {
      case Decoder::sscDsdPlus: return "SSC-DSD+";
      case Decoder::sscTsd: return "SSC-TSD (36,32)";
      case Decoder::dsc: return "DSC (36,32)";
    }
    panic("unreachable Rs3632Scheme::name");
}

int
Rs3632Scheme::physicalByteOf(int pos)
{
    // Check symbols (positions 0..3) take the first byte of each
    // beat; data symbols fill the remaining bytes in order.
    if (pos < 4)
        return 9 * pos;
    const int d = pos - 4;     // data symbol index 0..31
    const int beat = d / 8;
    return 9 * beat + 1 + d % 8;
}

Bits288
Rs3632Scheme::encode(const EntryData& data) const
{
    const auto bytes = dataToBytes(data);
    const std::vector<std::uint8_t> payload(bytes.begin(), bytes.end());
    const std::vector<std::uint8_t> encoded = code_.encode(payload);
    if (!useReferenceCodec()) {
        EntryWords fast;
        for (int pos = 0; pos < 36; ++pos)
            fast.orField(8 * physicalByteOf(pos), encoded[pos]);
        return fast.toBits();
    }
    Bits288 physical;
    for (int pos = 0; pos < 36; ++pos) {
        const int base = 8 * physicalByteOf(pos);
        for (int t = 0; t < 8; ++t) {
            if ((encoded[pos] >> t) & 1)
                physical.set(base + t, 1);
        }
    }
    return physical;
}

EntryDecode
Rs3632Scheme::decode(const Bits288& received) const
{
    return useReferenceCodec() ? decodeReference(received)
                               : decodeFast(received);
}

RsFix
Rs3632Scheme::fixFromSyndromes(const std::uint8_t* s) const
{
    return decoder_ == Decoder::dsc ? fixDsc(36, s)
                                    : fixSscDsdPlus(36, s);
}

/**
 * Allocation-free fast decode: word-extracted symbols on the stack,
 * syndromes via the plan's precomputed tables, correction decisions
 * from the fix functions. Decision-for-decision identical to the
 * reference path below (the differential tests enforce it).
 */
EntryDecode
Rs3632Scheme::decodeFast(const Bits288& received) const
{
    std::uint8_t word[36];
    for (int pos = 0; pos < 36; ++pos)
        word[pos] = physByte(received, physicalByteOf(pos));

    std::uint8_t s[4];
    plan_.syndromesScalar(word, s);
    const RsFix fix = fixFromSyndromes(s);
    if (fix.status == RsDecode::Status::due)
        return {EntryDecode::Status::due, EntryData{}};
    for (int k = 0; k < fix.num_errors; ++k)
        word[fix.pos[k]] ^= fix.mag[k];

    std::array<std::uint8_t, 32> bytes{};
    for (int pos = 4; pos < 36; ++pos)
        bytes[pos - 4] = word[pos];
    return {fix.status == RsDecode::Status::corrected
                ? EntryDecode::Status::corrected
                : EntryDecode::Status::clean,
            bytesToData(bytes)};
}

EntryDecode
Rs3632Scheme::decodeReference(const Bits288& received) const
{
    std::vector<std::uint8_t> word(36, 0);
    for (int pos = 0; pos < 36; ++pos) {
        const int base = 8 * physicalByteOf(pos);
        std::uint8_t sym = 0;
        for (int t = 0; t < 8; ++t) {
            sym |= static_cast<std::uint8_t>(received.get(base + t))
                   << t;
        }
        word[pos] = sym;
    }

    RsDecode result = decoder_ == Decoder::dsc
        ? decodeDsc(code_, word)
        : decodeSscDsdPlus(code_, word);
    if (result.status == RsDecode::Status::due)
        return {EntryDecode::Status::due, EntryData{}};

    std::array<std::uint8_t, 32> bytes{};
    for (int pos = 4; pos < 36; ++pos)
        bytes[pos - 4] = result.word[pos];
    return {result.status == RsDecode::Status::corrected
                ? EntryDecode::Status::corrected
                : EntryDecode::Status::clean,
            bytesToData(bytes)};
}

void
Rs3632Scheme::decodeBatch(const Bits288* received, EntryDecode* out,
                          std::size_t n) const
{
    if (useReferenceCodec()) {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = decodeReference(received[i]);
        return;
    }
    decodeBatchFast(received, out, n);
}

void
Rs3632Scheme::decodeBatchFast(const Bits288* received,
                              EntryDecode* out, std::size_t n) const
{
    // Column-major symbol staging: cols[pos * kRsTile + e] is code
    // position `pos` of entry `e` in the tile.
    std::uint8_t cols[36 * kRsTile];
    std::uint8_t synd[4 * kRsTile];
    std::uint8_t suspect[kRsTile];

    for (std::size_t base = 0; base < n; base += kRsTile) {
        const std::size_t count = std::min(kRsTile, n - base);

        for (int pos = 0; pos < 36; ++pos) {
            const int b = physicalByteOf(pos);
            std::uint8_t* col = cols + pos * kRsTile;
            for (std::size_t e = 0; e < count; ++e)
                col[e] = physByte(received[base + e], b);
        }

        plan_.syndromesBulk(isa_, cols, kRsTile, count, synd);

        // Bulk all-zero-syndrome early-out.
        std::memset(suspect, 0, count);
        for (int j = 0; j < 4; ++j)
            gf256::orAccBuf(synd + j * kRsTile, suspect, count);

        for (std::size_t e = 0; e < count; ++e) {
            std::array<std::uint8_t, 32> bytes{};
            if (suspect[e] == 0) {
                for (int pos = 4; pos < 36; ++pos)
                    bytes[pos - 4] = cols[pos * kRsTile + e];
                out[base + e] = {EntryDecode::Status::clean,
                                 bytesToData(bytes)};
                continue;
            }

            // Suspect: scalar fix from the already-computed
            // syndromes — the same decisions decodeFast() makes.
            const std::uint8_t s[4] = {
                synd[0 * kRsTile + e], synd[1 * kRsTile + e],
                synd[2 * kRsTile + e], synd[3 * kRsTile + e]};
            const RsFix fix = fixFromSyndromes(s);
            if (fix.status == RsDecode::Status::due) {
                out[base + e] = {EntryDecode::Status::due, EntryData{}};
                continue;
            }
            std::uint8_t word[36];
            for (int pos = 0; pos < 36; ++pos)
                word[pos] = cols[pos * kRsTile + e];
            for (int k = 0; k < fix.num_errors; ++k)
                word[fix.pos[k]] ^= fix.mag[k];
            for (int pos = 4; pos < 36; ++pos)
                bytes[pos - 4] = word[pos];
            out[base + e] = {fix.status == RsDecode::Status::corrected
                                 ? EntryDecode::Status::corrected
                                 : EntryDecode::Status::clean,
                             bytesToData(bytes)};
        }
    }
}

void
Rs3632Scheme::classifyErrorBatch(const Bits288& codeword,
                                 const EntryData& data,
                                 const Bits288* errors, ErrorOutcome* out,
                                 std::size_t n) const
{
    if (useReferenceCodec()) {
        EntryScheme::classifyErrorBatch(codeword, data, errors, out, n);
        return;
    }
    const auto bytes = dataToBytes(data);
    EntryWords placed;
    for (int pos = 4; pos < 36; ++pos)
        placed.orField(8 * physicalByteOf(pos), bytes[pos - 4]);
    classifyBySyndrome(syn_, data_bits_, codeword, placed.toBits(),
                       errors, out, n,
                       [&](std::uint32_t syn, Bits288& flips) {
                           const auto s = unpackSyndromes(syn);
                           const RsFix fix = fixFromSyndromes(s.data());
                           if (fix.status == RsDecode::Status::due)
                               return false;
                           EntryWords fixed;
                           for (int k = 0; k < fix.num_errors; ++k) {
                               fixed.orField(8 * physicalByteOf(fix.pos[k]),
                                             fix.mag[k]);
                           }
                           flips = fixed.toBits();
                           return true;
                       });
}

EntryDecode
Rs3632Scheme::decodeWithPinErasure(const Bits288& received,
                                   int pin) const
{
    require(pin >= 0 && pin < layout::num_pins,
            "decodeWithPinErasure: bad pin");

    std::vector<std::uint8_t> word(36, 0);
    std::array<int, 36> pos_of_byte{};
    const bool reference = useReferenceCodec();
    for (int pos = 0; pos < 36; ++pos) {
        pos_of_byte[physicalByteOf(pos)] = pos;
        if (reference) {
            const int base = 8 * physicalByteOf(pos);
            std::uint8_t sym = 0;
            for (int t = 0; t < 8; ++t) {
                sym |= static_cast<std::uint8_t>(received.get(base + t))
                       << t;
            }
            word[pos] = sym;
        } else {
            word[pos] = physByte(received, physicalByteOf(pos));
        }
    }

    // The pin crosses one physical byte per beat.
    std::vector<int> erasures;
    for (int beat = 0; beat < layout::num_beats; ++beat)
        erasures.push_back(pos_of_byte[9 * beat + pin / 8]);

    const RsDecode result = decodeWithErasures(code_, word, erasures);
    if (result.status == RsDecode::Status::due)
        return {EntryDecode::Status::due, EntryData{}};

    std::array<std::uint8_t, 32> bytes{};
    for (int pos = 4; pos < 36; ++pos)
        bytes[pos - 4] = result.word[pos];
    return {result.status == RsDecode::Status::corrected
                ? EntryDecode::Status::corrected
                : EntryDecode::Status::clean,
            bytesToData(bytes)};
}

} // namespace gpuecc
