#include "ecc/compiled_codec.hpp"

#include "common/log.hpp"
#include "ecc/csc.hpp"

namespace gpuecc {

namespace {

std::shared_ptr<const Code72>
nonNull(std::shared_ptr<const Code72> code)
{
    require(code != nullptr, "CompiledBinaryCodec needs a code");
    return code;
}

} // namespace

CompiledBinaryCodec::CompiledBinaryCodec(
    std::shared_ptr<const Code72> code, const EntryLayout& layout,
    Code72::Mode mode, bool csc)
    : code_(nonNull(std::move(code))), csc_(csc),
      syn_([&](int phys) {
          const auto [cw, bit] = layout.logicalFor(phys);
          return static_cast<std::uint32_t>(code_->columnSyndrome(bit))
                 << (8 * cw);
      }),
      data_{}, fix_{}, enc_{}
{
    // Syndrome table (above) and data table: per-physical-bit
    // contributions, XOR-folded over each byte's 256 values with the
    // strip-lowest-bit dynamic program.
    for (int b = 0; b < layout::num_bytes; ++b) {
        std::array<std::array<std::uint64_t, 4>, 8> col{};
        for (int t = 0; t < 8; ++t) {
            const auto [cw, bit] = layout.logicalFor(8 * b + t);
            if (bit < Code72::k) {
                col[t][cw] = bit64(bit);
                data_bits_.set(8 * b + t, 1);
            }
        }
        auto& row = data_[b];
        for (int v = 1; v < 256; ++v) {
            const int low =
                std::countr_zero(static_cast<unsigned>(v));
            for (int w = 0; w < 4; ++w)
                row[v][w] = row[v & (v - 1)][w] ^ col[low][w];
        }
    }

    // Fix tables: the image of Code72's syndrome->outcome table under
    // the layout permutation, one per codeword slot.
    for (int cw = 0; cw < layout::num_codewords; ++cw) {
        for (int s = 0; s < 256; ++s) {
            const CodewordDecode& d = code_->outcomeForSyndrome(
                static_cast<std::uint8_t>(s), mode);
            Fix f{};
            f.due = d.status == CodewordDecode::Status::due;
            f.data_fix = d.correction.word(0);
            f.phys = {-1, -1};
            int i = 0;
            d.correction.forEachSetBit([&](int bit) {
                f.phys[i++] = static_cast<std::int16_t>(
                    layout.physicalFor(cw, bit));
            });
            fix_[cw][s] = f;
        }
    }

    // Encode scatter tables: the physical image (data placement plus
    // check contributions) of each data bit, folded per data byte.
    // code_->encode is linear, so encode(bit) is exactly bit's column.
    for (int b = 0; b < 32; ++b) {
        const int cw = b / 8;
        std::array<Bits288, 8> col{};
        for (int t = 0; t < 8; ++t) {
            const Bits72 cw_col =
                code_->encodeCompiled(bit64(8 * (b % 8) + t));
            cw_col.forEachSetBit([&](int bit) {
                col[t].set(layout.physicalFor(cw, bit), 1);
            });
        }
        auto& row = enc_[b];
        for (int v = 1; v < 256; ++v) {
            const int low =
                std::countr_zero(static_cast<unsigned>(v));
            row[v] = row[v & (v - 1)] ^ col[low];
        }
    }
}

Bits288
CompiledBinaryCodec::encode(const EntryData& data) const
{
    Bits288 physical;
    for (int w = 0; w < 4; ++w) {
        for (int j = 0; j < 8; ++j)
            physical ^= enc_[8 * w + j][(data[w] >> (8 * j)) & 0xff];
    }
    return physical;
}

CompiledBinaryCodec::Correction
CompiledBinaryCodec::correct(std::uint32_t syn) const
{
    Correction c{EntryDecode::Status::corrected, {}, {}};
    int num_correcting = 0;
    for (int cw = 0; cw < 4; ++cw) {
        const std::uint8_t s =
            static_cast<std::uint8_t>(syn >> (8 * cw));
        if (s == 0)
            continue;
        const Fix& f = fix_[cw][s];
        if (f.due)
            return {EntryDecode::Status::due, {}, {}};
        c.data_fix[cw] = f.data_fix;
        for (int p : f.phys) {
            if (p >= 0)
                c.flips.set(p, 1);
        }
        ++num_correcting;
    }
    // Same predicate, same corrected-bit set as the reference.
    if (csc_ && num_correcting >= 2 &&
        !correctionSanityCheckPasses(c.flips))
        return {EntryDecode::Status::due, {}, {}};
    return c;
}

EntryDecode
CompiledBinaryCodec::decode(const Bits288& received) const
{
    std::uint32_t syn = 0;
    EntryData data{};
    for (int b = 0; b < layout::num_bytes; ++b) {
        const unsigned byte = static_cast<unsigned>(
            (received.word(b >> 3) >> ((b & 7) * 8)) & 0xff);
        syn ^= syn_.at(b, byte);
        const auto& d = data_[b][byte];
        data[0] ^= d[0];
        data[1] ^= d[1];
        data[2] ^= d[2];
        data[3] ^= d[3];
    }
    if (syn == 0)
        return {EntryDecode::Status::clean, data};

    const Correction c = correct(syn);
    if (c.status == EntryDecode::Status::due)
        return {EntryDecode::Status::due, EntryData{}};
    for (int cw = 0; cw < 4; ++cw)
        data[cw] ^= c.data_fix[cw];
    return {EntryDecode::Status::corrected, data};
}

void
CompiledBinaryCodec::decodeBatch(const Bits288* received,
                                 EntryDecode* out,
                                 std::size_t n) const
{
    // Per-element decode() with the table bases hoisted by the
    // compiler across the batch; correctness is element-wise
    // delegation, so the differential harness covers this path too.
    for (std::size_t i = 0; i < n; ++i)
        out[i] = decode(received[i]);
}

void
CompiledBinaryCodec::classifyErrorBatch(const Bits288& codeword,
                                        const EntryData& data,
                                        const Bits288* errors,
                                        ErrorOutcome* out,
                                        std::size_t n) const
{
    // encode() places the data bits (and check bits, which the data
    // mask drops) exactly where decode() extracts them from.
    classifyBySyndrome(syn_, data_bits_, codeword, encode(data), errors,
                       out, n, [&](std::uint32_t syn, Bits288& flips) {
                           const Correction c = correct(syn);
                           flips = c.flips;
                           return c.status != EntryDecode::Status::due;
                       });
}

} // namespace gpuecc
