#include "rs/batch.hpp"

#include "gf256/gf256.hpp"

namespace gpuecc {

namespace {

/** Location estimate from one syndrome pair: dlog(sb/sa) mod 255
 *  (same helper as decoders.cpp; both operands must be nonzero). */
int
pairLocation(std::uint8_t sa, std::uint8_t sb)
{
    int p = gf256::dlog(sb) - gf256::dlog(sa);
    if (p < 0)
        p += 255;
    return p;
}

constexpr RsFix kDue{RsDecode::Status::due, 0, {0, 0}, {0, 0}};
constexpr RsFix kClean{RsDecode::Status::clean, 0, {0, 0}, {0, 0}};

} // namespace

RsFix
fixSscOneShot(int n, const std::uint8_t* s)
{
    if (s[0] == 0 && s[1] == 0)
        return kClean;
    if (s[0] == 0 || s[1] == 0)
        return kDue;
    const int p = pairLocation(s[0], s[1]);
    if (p >= n)
        return kDue;
    return {RsDecode::Status::corrected, 1, {p, 0}, {s[0], 0}};
}

RsFix
fixSscDsdPlus(int n, const std::uint8_t* s)
{
    if (s[0] == 0 && s[1] == 0 && s[2] == 0 && s[3] == 0)
        return kClean;
    if (s[0] == 0 || s[1] == 0 || s[2] == 0 || s[3] == 0)
        return kDue;
    const int p0 = pairLocation(s[0], s[1]);
    const int p1 = pairLocation(s[1], s[2]);
    const int p2 = pairLocation(s[2], s[3]);
    if (p0 != p1 || p1 != p2 || p0 >= n)
        return kDue;
    return {RsDecode::Status::corrected, 1, {p0, 0}, {s[0], 0}};
}

RsFix
fixDsc(int n, const std::uint8_t* s)
{
    if (s[0] == 0 && s[1] == 0 && s[2] == 0 && s[3] == 0)
        return kClean;

    // Single-error attempt first (PGZ with nu = 1).
    if (s[0] != 0 && s[1] != 0 && s[2] != 0 && s[3] != 0) {
        const int p0 = pairLocation(s[0], s[1]);
        const int p1 = pairLocation(s[1], s[2]);
        const int p2 = pairLocation(s[2], s[3]);
        if (p0 == p1 && p1 == p2 && p0 < n)
            return {RsDecode::Status::corrected, 1, {p0, 0},
                    {s[0], 0}};
    }

    // Two-error attempt (see decodeDsc for the derivation).
    const std::uint8_t det = gf256::add(gf256::mul(s[0], s[2]),
                                        gf256::mul(s[1], s[1]));
    if (det != 0) {
        const std::uint8_t sigma2 = gf256::div(
            gf256::add(gf256::mul(s[1], s[3]), gf256::mul(s[2], s[2])),
            det);
        const std::uint8_t sigma1 = gf256::div(
            gf256::add(gf256::mul(s[0], s[3]), gf256::mul(s[1], s[2])),
            det);
        int roots[3];
        int num_roots = 0;
        for (int p = 0; p < n && num_roots <= 2; ++p) {
            const std::uint8_t xinv = gf256::alphaPow(-p);
            const std::uint8_t val = gf256::add(
                gf256::add(1, gf256::mul(sigma1, xinv)),
                gf256::mul(sigma2, gf256::mul(xinv, xinv)));
            if (val == 0)
                roots[num_roots++] = p;
        }
        if (num_roots == 2) {
            const std::uint8_t x1 = gf256::alphaPow(roots[0]);
            const std::uint8_t x2 = gf256::alphaPow(roots[1]);
            const std::uint8_t e1 = gf256::div(
                gf256::add(s[1], gf256::mul(s[0], x2)),
                gf256::add(x1, x2));
            const std::uint8_t e2 = gf256::add(s[0], e1);
            if (e1 != 0 && e2 != 0) {
                // The oracle re-checks every syndrome of the patched
                // word. S_0 and S_1 are satisfied by construction of
                // (e1, e2); demanding the fix also reproduce S_2 and
                // S_3 is the same guard without touching the word.
                bool consistent = true;
                for (int j = 2; j < 4; ++j) {
                    const std::uint8_t expect = gf256::add(
                        gf256::mul(e1, gf256::alphaPow(j * roots[0])),
                        gf256::mul(e2, gf256::alphaPow(j * roots[1])));
                    if (expect != s[j]) {
                        consistent = false;
                        break;
                    }
                }
                if (consistent)
                    return {RsDecode::Status::corrected, 2,
                            {roots[0], roots[1]}, {e1, e2}};
            }
        }
    }
    return kDue;
}

} // namespace gpuecc
