/**
 * @file
 * Per-claim OpenCheck: the oracle for sumcheck::proveOpen.
 *
 * Every claim gets its own slot pair, a copy of its table and its own
 * eq(x, z_i) table, and the naive SumCheck walk (sumcheck_oracle.hpp) runs
 * over Sum_i eta^i * P_i * eq_i on all 2k slots. The transcript labels are
 * the production prover's, so proveOpen, which regroups the same
 * polynomial by point or by table, must produce the same proof, the same
 * challenges and the same transcript state.
 */
#ifndef ZKPHIRE_TESTS_OPENCHECK_ORACLE_HPP
#define ZKPHIRE_TESTS_OPENCHECK_ORACLE_HPP

#include <string>
#include <vector>

#include "sumcheck/opencheck.hpp"
#include "sumcheck_oracle.hpp"

namespace zkphire::oracle {

/** OpenCheck over claims, each carrying its own table. */
inline sumcheck::OpencheckProverOutput
perClaimProveOpen(const std::vector<sumcheck::EvalClaim> &claims,
                  hash::Transcript &tr)
{
    using ff::Fr;
    const std::size_t k = claims.size();
    tr.appendU64("oc/num_claims", k);
    for (const sumcheck::EvalClaim &c : claims) {
        tr.appendFrVec("oc/point", c.point);
        tr.appendFr("oc/value", c.value);
    }
    const Fr eta = tr.challengeFr("oc/eta");

    poly::GateExpr expr("OpenCheck");
    std::vector<poly::SlotId> p_slots, eq_slots;
    // Appended names: GCC 12 reports a false -Wrestrict overlap on an
    // inlined "P" + std::to_string(i).
    for (std::size_t i = 0; i < k; ++i) {
        std::string name("P");
        p_slots.push_back(expr.addSlot(name += std::to_string(i)));
    }
    for (std::size_t i = 0; i < k; ++i) {
        std::string name("eq");
        eq_slots.push_back(expr.addSlot(name += std::to_string(i)));
    }
    Fr coeff = Fr::one();
    for (std::size_t i = 0; i < k; ++i) {
        expr.addTerm(coeff, {p_slots[i], eq_slots[i]});
        coeff *= eta;
    }
    std::vector<poly::Mle> tables;
    for (const sumcheck::EvalClaim &c : claims)
        tables.push_back(c.table);
    for (const sumcheck::EvalClaim &c : claims)
        tables.push_back(poly::Mle::eqTable(c.point));

    sumcheck::ProverOutput sc = naiveProve(expr, tables, tr);
    sumcheck::OpencheckProverOutput out;
    out.polyEvals.assign(sc.proof.finalSlotEvals.begin(),
                         sc.proof.finalSlotEvals.begin() + k);
    out.proof.sc = std::move(sc.proof);
    out.challenges = std::move(sc.challenges);
    return out;
}

} // namespace zkphire::oracle

#endif // ZKPHIRE_TESTS_OPENCHECK_ORACLE_HPP
