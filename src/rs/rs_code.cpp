#include "rs/rs_code.hpp"

#include <array>

#include "common/log.hpp"
#include "gf256/gf256.hpp"

namespace gpuecc {

namespace {

/**
 * Invert a small row-major matrix over GF(2^8) by Gauss-Jordan.
 * Fatal if singular (a Vandermonde block on distinct powers never is).
 */
std::vector<std::uint8_t>
invertGf256(std::vector<std::uint8_t> m, int dim)
{
    std::vector<std::uint8_t> inv(dim * dim, 0);
    for (int i = 0; i < dim; ++i)
        inv[i * dim + i] = 1;
    for (int col = 0; col < dim; ++col) {
        int pivot = -1;
        for (int row = col; row < dim; ++row) {
            if (m[row * dim + col] != 0) {
                pivot = row;
                break;
            }
        }
        require(pivot >= 0, "invertGf256: singular matrix");
        for (int c = 0; c < dim; ++c) {
            std::swap(m[pivot * dim + c], m[col * dim + c]);
            std::swap(inv[pivot * dim + c], inv[col * dim + c]);
        }
        const std::uint8_t d = gf256::inv(m[col * dim + col]);
        for (int c = 0; c < dim; ++c) {
            m[col * dim + c] = gf256::mul(m[col * dim + c], d);
            inv[col * dim + c] = gf256::mul(inv[col * dim + c], d);
        }
        for (int row = 0; row < dim; ++row) {
            if (row == col || m[row * dim + col] == 0)
                continue;
            const std::uint8_t f = m[row * dim + col];
            for (int c = 0; c < dim; ++c) {
                m[row * dim + c] = gf256::add(
                    m[row * dim + c], gf256::mul(f, m[col * dim + c]));
                inv[row * dim + c] = gf256::add(
                    inv[row * dim + c], gf256::mul(f, inv[col * dim + c]));
            }
        }
    }
    return inv;
}

} // namespace

RsCode::RsCode(int n, int k)
    : n_(n), k_(k), r_(n - k)
{
    require(n > 0 && n <= 255, "RsCode: n must be in (0, 255]");
    require(k > 0 && k < n, "RsCode: k must be in (0, n)");

    // V[j][i] = alpha^(j * i) on the check positions i = 0 .. r-1; the
    // encoder solves V * checks = D for the check symbols.
    std::vector<std::uint8_t> v(r_ * r_);
    for (int j = 0; j < r_; ++j) {
        for (int i = 0; i < r_; ++i)
            v[j * r_ + i] = gf256::alphaPow(j * i);
    }
    check_solver_ = invertGf256(std::move(v), r_);
}

std::vector<std::uint8_t>
RsCode::encode(const std::vector<std::uint8_t>& data) const
{
    require(static_cast<int>(data.size()) == k_,
            "RsCode::encode: wrong data length");
    std::vector<std::uint8_t> cw(n_, 0);
    encode(data.data(), cw.data());
    return cw;
}

void
RsCode::encode(const std::uint8_t* data, std::uint8_t* codeword) const
{
    // D_j = sum over data positions of d_i * alpha^(j * i); check
    // symbols then satisfy sum over check positions = D_j as well,
    // making every syndrome zero.
    std::array<std::uint8_t, 255> d{};
    for (int j = 0; j < r_; ++j) {
        std::uint8_t acc = 0;
        for (int i = r_; i < n_; ++i) {
            acc = gf256::add(
                acc, gf256::mul(data[i - r_], gf256::alphaPow(j * i)));
        }
        d[j] = acc;
    }
    for (int i = 0; i < r_; ++i) {
        std::uint8_t acc = 0;
        for (int j = 0; j < r_; ++j)
            acc = gf256::add(acc,
                             gf256::mul(check_solver_[i * r_ + j], d[j]));
        codeword[i] = acc;
    }
    for (int i = r_; i < n_; ++i)
        codeword[i] = data[i - r_];
}

std::vector<std::uint8_t>
RsCode::syndromes(const std::vector<std::uint8_t>& received) const
{
    require(static_cast<int>(received.size()) == n_,
            "RsCode::syndromes: wrong word length");
    std::vector<std::uint8_t> s(r_, 0);
    for (int j = 0; j < r_; ++j) {
        std::uint8_t acc = 0;
        for (int i = 0; i < n_; ++i) {
            if (received[i])
                acc = gf256::add(
                    acc, gf256::mul(received[i], gf256::alphaPow(j * i)));
        }
        s[j] = acc;
    }
    return s;
}

bool
RsCode::isCodeword(const std::vector<std::uint8_t>& received) const
{
    for (std::uint8_t s : syndromes(received)) {
        if (s != 0)
            return false;
    }
    return true;
}

} // namespace gpuecc
