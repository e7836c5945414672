#include "ecc/rs_scheme.hpp"

#include "common/codec_mode.hpp"
#include "common/log.hpp"
#include "ecc/csc.hpp"
#include "gf256/gf256.hpp"
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

/**
 * Word-extracted 64-bit field at bit offset `off` (off % 64 != 0, so
 * it takes the top of one word and the bottom of the next).
 */
std::uint64_t
physField64(const Bits288& entry, int off)
{
    const int w = off >> 6;
    const int s = off & 63;
    return (entry.word(w) >> s) | (entry.word(w + 1) << (64 - s));
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

/** The (18, 16) x 2 data: each data byte is a nibble pair, one 4-bit
 *  column slice of each beat of its symbol's beat-pair. */
EntryData
sscData(const Bits288& word)
{
    EntryData data{};
    for (int cw = 0; cw < 2; ++cw) {
        for (int pos = 2; pos < 18; ++pos) {
            const int lo = InterleavedSscScheme::physicalBit(cw, pos, 0);
            const int hi = InterleavedSscScheme::physicalBit(cw, pos, 4);
            const std::uint64_t sym =
                physNibble(word, lo) | (physNibble(word, hi) << 4);
            const int b = 16 * cw + (pos - 2);
            data[b / 8] |= sym << (8 * (b % 8));
        }
    }
    return data;
}

/** The (36, 32) data: data symbols fill physical bytes 1..8 of each
 *  beat (physicalByteOf), so data word w is the 64 bits from 72w + 8. */
EntryData
rs3632Data(const Bits288& word)
{
    EntryData data{};
    for (int w = 0; w < 4; ++w)
        data[w] = physField64(word, layout::beat_bits * w + 8);
    return data;
}

} // namespace

// ---------------------------------------------------------------------
// InterleavedSscScheme
// ---------------------------------------------------------------------

InterleavedSscScheme::InterleavedSscScheme(bool csc)
    : code_(18, 16), csc_(csc),
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
        std::array<std::uint8_t, 18> encoded;
        code_.encode(bytes.data() + 16 * cw, encoded.data());
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
    if (useReferenceCodec())
        return decodeReference(received);
    return decodeBySyndrome(
        syn_, received,
        [this](std::uint32_t syn, Bits288& flips) {
            return decide(syn, flips);
        },
        sscData);
}

bool
InterleavedSscScheme::decide(std::uint32_t syn, Bits288& flips) const
{
    const auto s = unpackSyndromes(syn);
    EntryWords fixed;
    int num_correcting = 0;
    for (int cw = 0; cw < 2; ++cw) {
        const RsFix fix = fixSscOneShot(18, s.data() + 2 * cw);
        if (fix.status == RsDecode::Status::due)
            return false;
        for (int e = 0; e < fix.num_errors; ++e) {
            fixed.orField(physicalBit(cw, fix.pos[e], 0), fix.mag[e] & 0xf);
            fixed.orField(physicalBit(cw, fix.pos[e], 4), fix.mag[e] >> 4);
        }
        num_correcting += fix.status == RsDecode::Status::corrected;
    }
    flips = fixed.toBits();
    return !csc_ || num_correcting < 2
           || correctionSanityCheckPasses(flips);
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
                       [this](std::uint32_t syn, Bits288& flips) {
                           return decide(syn, flips);
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
    : code_(36, 32), decoder_(decoder),
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
    std::array<std::uint8_t, 36> encoded;
    code_.encode(bytes.data(), encoded.data());
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
    if (useReferenceCodec())
        return decodeReference(received);
    return decodeBySyndrome(
        syn_, received,
        [this](std::uint32_t syn, Bits288& flips) {
            return decide(syn, flips);
        },
        rs3632Data);
}

bool
Rs3632Scheme::decide(std::uint32_t syn, Bits288& flips) const
{
    const auto s = unpackSyndromes(syn);
    const RsFix fix = decoder_ == Decoder::dsc ? fixDsc(36, s.data())
                                               : fixSscDsdPlus(36, s.data());
    if (fix.status == RsDecode::Status::due)
        return false;
    EntryWords fixed;
    for (int k = 0; k < fix.num_errors; ++k)
        fixed.orField(8 * physicalByteOf(fix.pos[k]), fix.mag[k]);
    flips = fixed.toBits();
    return true;
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
                       [this](std::uint32_t syn, Bits288& flips) {
                           return decide(syn, flips);
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
