/**
 * @file
 * Bit-by-bit square-and-multiply exponentiation: the oracle for
 * PrimeField::pow (fixed 4-bit windows), and, as the Fermat power
 * x^(p-2), for inverse() (the safegcd of ff/safegcd.hpp).
 *
 * One squaring per exponent bit and one multiply per set bit, most
 * significant bit first; it shares no table or window logic with the
 * library and no step with the safegcd. BM_{Fr,Fq}Inverse_Fermat time it.
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
