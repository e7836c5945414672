/**
 * @file
 * Fixed-width bit vector used for codewords and memory entries.
 *
 * Bits<N> packs N bits into uint64_t words, LSB-first (bit 0 is the
 * least significant bit of word 0). It supports the operations the ECC
 * machinery needs: per-bit access, XOR/AND, popcount, and the
 * parity-of-AND inner product used for syndrome generation.
 */

#ifndef GPUECC_COMMON_BITS_HPP
#define GPUECC_COMMON_BITS_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/bitops.hpp"
#include "common/log.hpp"

namespace gpuecc {

/**
 * A fixed-size vector of N bits with value semantics.
 *
 * @tparam N number of bits; any trailing bits in the last word are
 *           kept zero as a class invariant.
 */
template <int N>
class Bits
{
  public:
    static constexpr int numBits = N;
    static constexpr int numWords = (N + 63) / 64;

    /** Construct an all-zero vector. */
    constexpr Bits() : words_{} {}

    /** Construct from a low word (remaining bits zero). */
    explicit constexpr Bits(std::uint64_t low) : words_{}
    {
        words_[0] = low & maskFor(0);
    }

    /** Read bit i (0 = LSB of word 0). */
    constexpr int
    get(int i) const
    {
        return static_cast<int>((words_[i >> 6] >> (i & 63)) & 1u);
    }

    /** Set bit i to v (0 or 1). */
    constexpr void
    set(int i, int v)
    {
        const std::uint64_t m = std::uint64_t{1} << (i & 63);
        if (v)
            words_[i >> 6] |= m;
        else
            words_[i >> 6] &= ~m;
    }

    /** Toggle bit i. */
    constexpr void
    flip(int i)
    {
        words_[i >> 6] ^= std::uint64_t{1} << (i & 63);
    }

    /** Direct word access (word w holds bits [64w, 64w+63]). */
    constexpr std::uint64_t word(int w) const { return words_[w]; }

    /** Overwrite word w; trailing bits beyond N are masked off. */
    constexpr void
    setWord(int w, std::uint64_t v)
    {
        words_[w] = v & maskFor(w);
    }

    /** Number of set bits. */
    constexpr int
    popcount() const
    {
        int n = 0;
        for (int w = 0; w < numWords; ++w)
            n += popcount64(words_[w]);
        return n;
    }

    /** True if no bit is set. */
    constexpr bool
    none() const
    {
        for (int w = 0; w < numWords; ++w)
            if (words_[w])
                return false;
        return true;
    }

    /** Parity (mod-2 sum) of the AND with another vector. */
    constexpr int
    andParity(const Bits& other) const
    {
        std::uint64_t acc = 0;
        for (int w = 0; w < numWords; ++w)
            acc ^= words_[w] & other.words_[w];
        return parity64(acc);
    }

    constexpr Bits&
    operator^=(const Bits& o)
    {
        for (int w = 0; w < numWords; ++w)
            words_[w] ^= o.words_[w];
        return *this;
    }

    constexpr Bits&
    operator&=(const Bits& o)
    {
        for (int w = 0; w < numWords; ++w)
            words_[w] &= o.words_[w];
        return *this;
    }

    constexpr Bits&
    operator|=(const Bits& o)
    {
        for (int w = 0; w < numWords; ++w)
            words_[w] |= o.words_[w];
        return *this;
    }

    friend constexpr Bits
    operator^(Bits a, const Bits& b)
    {
        a ^= b;
        return a;
    }

    friend constexpr Bits
    operator&(Bits a, const Bits& b)
    {
        a &= b;
        return a;
    }

    friend constexpr Bits
    operator|(Bits a, const Bits& b)
    {
        a |= b;
        return a;
    }

    friend constexpr bool
    operator==(const Bits& a, const Bits& b)
    {
        for (int w = 0; w < numWords; ++w)
            if (a.words_[w] != b.words_[w])
                return false;
        return true;
    }

    friend constexpr bool operator!=(const Bits& a, const Bits& b)
    {
        return !(a == b);
    }

    /** Index of the lowest set bit, or -1 when empty. */
    constexpr int
    lowestSetBit() const
    {
        for (int w = 0; w < numWords; ++w) {
            if (words_[w])
                return 64 * w + std::countr_zero(words_[w]);
        }
        return -1;
    }

    /**
     * Visit each set-bit index in ascending order.
     *
     * @param fn callable taking the bit index as int.
     */
    template <typename Fn>
    constexpr void
    forEachSetBit(Fn&& fn) const
    {
        for (int w = 0; w < numWords; ++w) {
            std::uint64_t x = words_[w];
            while (x) {
                fn(64 * w + std::countr_zero(x));
                x &= x - 1;
            }
        }
    }

    /**
     * Visit each nonzero aligned byte in ascending order: one call
     * per nonzero byte, so a sparse mask costs a few calls however
     * wide it is.
     *
     * @param fn callable taking (byte index, byte value) as (int, unsigned).
     */
    template <typename Fn>
    constexpr void
    forEachNonzeroByte(Fn&& fn) const
    {
        for (int w = 0; w < numWords; ++w) {
            std::uint64_t x = words_[w];
            while (x) {
                const int shift = std::countr_zero(x) & ~7;
                fn(8 * w + shift / 8,
                   static_cast<unsigned>((x >> shift) & 0xff));
                x &= ~(std::uint64_t{0xff} << shift);
            }
        }
    }

    /** Extract a contiguous bit field [pos, pos+len) as a uint64 (len <= 64). */
    constexpr std::uint64_t
    extract(int pos, int len) const
    {
        std::uint64_t v = 0;
        for (int i = 0; i < len; ++i)
            v |= static_cast<std::uint64_t>(get(pos + i)) << i;
        return v;
    }

    /** Insert the low len bits of v at [pos, pos+len). */
    constexpr void
    insert(int pos, int len, std::uint64_t v)
    {
        for (int i = 0; i < len; ++i)
            set(pos + i, static_cast<int>((v >> i) & 1u));
    }

    /** Render as a binary string, bit N-1 first (for diagnostics). */
    std::string
    toString() const
    {
        std::string s;
        s.reserve(N);
        for (int i = N - 1; i >= 0; --i)
            s.push_back(get(i) ? '1' : '0');
        return s;
    }

  private:
    static constexpr std::uint64_t
    maskFor(int w)
    {
        const int bits_here = (w == numWords - 1 && (N & 63))
            ? (N & 63) : 64;
        return lowMask64(bits_here);
    }

    std::array<std::uint64_t, numWords> words_;
};

/** One 72-bit DRAM beat codeword (64 data + 8 check bits). */
using Bits72 = Bits<72>;
/** One 288-bit physical memory entry (32B data + 4B check). */
using Bits288 = Bits<288>;

} // namespace gpuecc

#endif // GPUECC_COMMON_BITS_HPP
