/**
 * @file
 * BLS12-381 G1 points for membership tests: points on the curve but
 * outside the prime-order subgroup, and the [r]P == O oracle.
 */
#ifndef ZKPHIRE_TESTS_CURVE_POINTS_HPP
#define ZKPHIRE_TESTS_CURVE_POINTS_HPP

#include "ec/g1.hpp"

namespace zkphire::oracle {

/**
 * The first point on y^2 = x^3 + 4 with abscissa x, x + 1, ...
 * (try-and-increment), without cofactor clearing: it lies in G1 only with
 * probability 1 / cofactor, about 2^-126.
 */
inline ec::G1Affine
curvePointFrom(ff::Fq x)
{
    for (;; x += ff::Fq::one()) {
        ff::Fq y;
        if ((x.square() * x + ff::Fq::fromU64(4)).sqrt(y))
            return ec::G1Affine{x, y, false};
    }
}

/** G1 membership by the definition: [r]P == O, as [r - 1]P + P. */
inline bool
orderDividesR(const ec::G1Affine &p)
{
    const ff::Fr rMinusOne = ff::Fr::zero() - ff::Fr::one();
    const ec::G1Jacobian j = ec::G1Jacobian::fromAffine(p);
    return j.mulScalarPlain(rMinusOne).add(j).isIdentity();
}

} // namespace zkphire::oracle

#endif // ZKPHIRE_TESTS_CURVE_POINTS_HPP
