/**
 * @file
 * Per-point double-and-add MSM: the oracle for ec::msmPippenger,
 * ec::msmBatch and the streamed commitments.
 *
 * Every term is its own scalar multiplication, summed in index order, so
 * the result shares no window, bucket or recoding logic with the library.
 * O(n * 255) group operations.
 */
#ifndef ZKPHIRE_TESTS_MSM_ORACLE_HPP
#define ZKPHIRE_TESTS_MSM_ORACLE_HPP

#include <cassert>
#include <span>

#include "ec/g1.hpp"
#include "ff/fr.hpp"

namespace zkphire::oracle {

/** Sum of scalars[i] * points[i]. */
inline ec::G1Jacobian
msmNaive(std::span<const ff::Fr> scalars, std::span<const ec::G1Affine> points)
{
    assert(scalars.size() == points.size());
    ec::G1Jacobian acc = ec::G1Jacobian::identity();
    for (std::size_t i = 0; i < scalars.size(); ++i)
        acc = acc.add(
            ec::G1Jacobian::fromAffine(points[i]).mulScalar(scalars[i]));
    return acc;
}

} // namespace zkphire::oracle

#endif // ZKPHIRE_TESTS_MSM_ORACLE_HPP
