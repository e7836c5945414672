/**
 * @file
 * Systematic Reed-Solomon codes over GF(2^8).
 *
 * Code roots are alpha^0 .. alpha^(r-1) (narrow sense, b = 0), so a
 * single symbol error e at position p yields syndromes
 * S_j = e * alpha^(j*p), and one-shot error location reduces to a
 * discrete-log difference - the structure behind the paper's
 * DLog/EAC-subtractor decoder (Figure 7c).
 *
 * Symbol convention: the codeword is a vector of n symbols, data
 * occupies positions r .. n-1 (in order) and the r check symbols
 * occupy positions 0 .. r-1.
 */

#ifndef GPUECC_RS_RS_CODE_HPP
#define GPUECC_RS_RS_CODE_HPP

#include <cstdint>
#include <vector>

namespace gpuecc {

/** An (n, k) systematic Reed-Solomon code over GF(2^8). */
class RsCode
{
  public:
    /**
     * @param n total symbols (n <= 255)
     * @param k data symbols (k < n); r = n - k check symbols
     */
    RsCode(int n, int k);

    int n() const { return n_; }
    int k() const { return k_; }
    int r() const { return r_; }

    /**
     * Encode k data symbols into an n-symbol codeword.
     *
     * @param data k symbols
     * @return n symbols with checks at positions 0 .. r-1
     */
    std::vector<std::uint8_t>
    encode(const std::vector<std::uint8_t>& data) const;

    /** encode() into caller storage, without allocating: `data`
     *  holds k symbols and `codeword` receives n. */
    void encode(const std::uint8_t* data, std::uint8_t* codeword) const;

    /** The r syndromes S_j of a received word (all zero if valid). */
    std::vector<std::uint8_t>
    syndromes(const std::vector<std::uint8_t>& received) const;

    /** True if every syndrome of the word is zero. */
    bool isCodeword(const std::vector<std::uint8_t>& received) const;

  private:
    int n_;
    int k_;
    int r_;
    /** Inverse of the r x r Vandermonde block on check positions. */
    std::vector<std::uint8_t> check_solver_; // row-major r x r
};

} // namespace gpuecc

#endif // GPUECC_RS_RS_CODE_HPP
