/**
 * @file
 * From-scratch SRS level builder: the oracle for pcs::Srs::basesFor.
 *
 * Every point of every suffix is its own fixed-base multiply of the eq
 * table entry it stands for, so no point depends on another. The library
 * derives most points from points already built instead, and must produce
 * these exact bytes in every build order.
 */
#ifndef ZKPHIRE_TESTS_SRS_ORACLE_HPP
#define ZKPHIRE_TESTS_SRS_ORACLE_HPP

#include <vector>

#include "ec/fixed_base.hpp"
#include "pcs/srs.hpp"
#include "poly/mle.hpp"

namespace zkphire::oracle {

/** Level mu of srs, one fixed-base multiply per point. */
inline pcs::LevelBases
srsLevelOracle(const pcs::Srs &srs, unsigned mu)
{
    const ec::FixedBaseMul mul(srs.generator());
    pcs::LevelBases level;
    level.suffix.resize(mu + 1);
    for (unsigned s = 0; s <= mu; ++s) {
        const std::vector<ff::Fr> tau(srs.tau().begin() + s,
                                      srs.tau().begin() + mu);
        const poly::Mle eq = poly::Mle::eqTable(tau);
        std::vector<ec::G1Jacobian> jac(eq.size());
        for (std::size_t i = 0; i < eq.size(); ++i)
            jac[i] = mul.mul(eq[i]);
        level.suffix[s] = ec::batchToAffine(jac);
    }
    return level;
}

} // namespace zkphire::oracle

#endif // ZKPHIRE_TESTS_SRS_ORACLE_HPP
