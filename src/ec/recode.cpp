#include "ec/recode.hpp"

#include <cassert>

namespace zkphire::ec {

void
recodeSignedDigits(const ff::BigInt<ff::Fr::numLimbs> &s, unsigned c,
                   std::size_t num_windows, std::int32_t *out,
                   std::size_t stride)
{
    assert(c >= 1 && c <= 16);
    constexpr std::size_t kNumBits = ff::BigInt<ff::Fr::numLimbs>::numBits;
    const std::int32_t full = std::int32_t(1) << c;
    const std::uint64_t half = std::uint64_t(1) << (c - 1);
    std::uint64_t carry = 0;
    for (std::size_t w = 0; w < num_windows; ++w) {
        const std::size_t lo = w * c;
        assert(lo < kNumBits);
        const std::size_t width =
            lo + c <= kNumBits ? c : kNumBits - lo;
        const std::uint64_t raw = s.bits(lo, width) + carry;
        // A window above 2^(c-1) borrows 2^c and carries 1, as a flag
        // times 2^c rather than a branch taken on half the windows.
        carry = raw > half;
        out[w * stride] = std::int32_t(raw) - std::int32_t(carry) * full;
    }
    // signedDigitWindows covers scalar_bits + 1 bits, so the top window's
    // raw digit is at most 2^(c-1) - 1 even after absorbing a carry.
    assert(carry == 0 && "signed recoding overflowed the top window");
}

} // namespace zkphire::ec
