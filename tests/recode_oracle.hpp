/**
 * @file
 * The signed-digit recoder with its carry as a branch on the window value,
 * kept as the oracle ec::recodeSignedDigits is property-tested against:
 * the same digits, computed the straightforward way.
 */
#ifndef ZKPHIRE_TESTS_RECODE_ORACLE_HPP
#define ZKPHIRE_TESTS_RECODE_ORACLE_HPP

#include <cstddef>
#include <cstdint>

#include "ff/fr.hpp"

namespace zkphire::testutil {

inline void
recodeSignedDigitsOracle(const ff::BigInt<ff::Fr::numLimbs> &s, unsigned c,
                         std::size_t num_windows, std::int32_t *out,
                         std::size_t stride)
{
    constexpr std::size_t kNumBits = ff::BigInt<ff::Fr::numLimbs>::numBits;
    const std::int32_t full = std::int32_t(1) << c;
    const std::uint64_t half = std::uint64_t(1) << (c - 1);
    std::uint64_t carry = 0;
    for (std::size_t w = 0; w < num_windows; ++w) {
        const std::size_t lo = w * c;
        const std::size_t width = lo + c <= kNumBits ? c : kNumBits - lo;
        const std::uint64_t raw = s.bits(lo, width) + carry;
        if (raw > half) {
            out[w * stride] = std::int32_t(raw) - full;
            carry = 1;
        } else {
            out[w * stride] = std::int32_t(raw);
            carry = 0;
        }
    }
}

} // namespace zkphire::testutil

#endif // ZKPHIRE_TESTS_RECODE_ORACLE_HPP
