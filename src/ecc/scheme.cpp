#include "ecc/scheme.hpp"

#include <algorithm>

namespace gpuecc {

void
EntryScheme::classifyErrorBatch(const Bits288& codeword,
                                const EntryData& data,
                                const Bits288* errors, ErrorOutcome* out,
                                std::size_t n) const
{
    // Inject, batch-decode, compare; staged in stack tiles so the
    // call allocates nothing.
    constexpr std::size_t kTile = 64;
    Bits288 received[kTile];
    EntryDecode decodes[kTile];
    for (std::size_t base = 0; base < n; base += kTile) {
        const std::size_t count = std::min(kTile, n - base);
        for (std::size_t i = 0; i < count; ++i)
            received[i] = codeword ^ errors[base + i];
        decodeBatch(received, decodes, count);
        for (std::size_t i = 0; i < count; ++i) {
            const EntryDecode& result = decodes[i];
            if (result.status == EntryDecode::Status::due)
                out[base + i] = ErrorOutcome::due;
            else if (result.data == data)
                out[base + i] = ErrorOutcome::dce;
            else
                out[base + i] = ErrorOutcome::sdc;
        }
    }
}

} // namespace gpuecc
