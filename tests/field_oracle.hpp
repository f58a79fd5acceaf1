/**
 * @file
 * Bit-by-bit square-and-multiply exponentiation: the oracle for
 * PrimeField::pow (fixed 4-bit windows) and so for inverse().
 *
 * One squaring per exponent bit and one multiply per set bit, most
 * significant bit first; it shares no table or window logic with the
 * library.
 */
#ifndef ZKPHIRE_TESTS_FIELD_ORACLE_HPP
#define ZKPHIRE_TESTS_FIELD_ORACLE_HPP

#include <cstddef>

namespace zkphire::oracle {

/** x^e for a canonical exponent e. */
template <class F>
F
powLadder(const F &x, const typename F::Big &e)
{
    F acc = F::one();
    for (std::size_t i = e.bitLength(); i-- > 0;) {
        acc = acc.square();
        if (e.bit(i))
            acc *= x;
    }
    return acc;
}

} // namespace zkphire::oracle

#endif // ZKPHIRE_TESTS_FIELD_ORACLE_HPP
