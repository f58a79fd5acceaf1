#include "sumcheck/opencheck.hpp"

#include <cassert>

#include "poly/virtual_poly.hpp"
#include "rt/parallel.hpp"

namespace zkphire::sumcheck {

using poly::GateExpr;
using poly::Mle;
using poly::SlotId;
using poly::VirtualPoly;

namespace {

/** Build the batched expression Sum_i eta^i * P_i * eq_i over 2k slots. */
GateExpr
batchedExpr(std::size_t k, const Fr &eta)
{
    GateExpr expr("OpenCheck");
    std::vector<SlotId> poly_slots(k), eq_slots(k);
    // Names are built by appending: GCC 12 reports a false -Wrestrict
    // overlap on an inlined "P" + std::to_string(i).
    for (std::size_t i = 0; i < k; ++i) {
        std::string name("P");
        poly_slots[i] = expr.addSlot(name += std::to_string(i));
    }
    for (std::size_t i = 0; i < k; ++i) {
        std::string name("eq");
        eq_slots[i] = expr.addSlot(name += std::to_string(i));
    }
    Fr coeff = Fr::one();
    for (std::size_t i = 0; i < k; ++i) {
        expr.addTerm(coeff, {poly_slots[i], eq_slots[i]});
        coeff *= eta;
    }
    return expr;
}

/** Transcript binding of the claim set (points and values). */
void
bindClaims(const std::vector<EvalClaim> &claims, hash::Transcript &tr)
{
    tr.appendU64("oc/num_claims", claims.size());
    for (const EvalClaim &c : claims) {
        tr.appendFrVec("oc/point", c.point);
        tr.appendFr("oc/value", c.value);
    }
}

} // namespace

OpencheckProverOutput
proveOpen(std::vector<EvalClaim> claims, hash::Transcript &tr,
          const rt::Config &cfg)
{
    assert(!claims.empty());
    [[maybe_unused]] const unsigned mu = unsigned(claims[0].point.size());
    const std::size_t k = claims.size();
    for ([[maybe_unused]] const EvalClaim &c : claims) {
        assert(c.point.size() == mu && "all claims must share dimensions");
        assert(c.table.numVars() == mu);
    }

    // Covers the eq-table builds below as well as the inner sumcheck.
    rt::ScopedConfig scope(cfg);

    bindClaims(claims, tr);
    Fr eta = tr.challengeFr("oc/eta");

    GateExpr expr = batchedExpr(k, eta);
    std::vector<Mle> tables;
    tables.reserve(2 * k);
    for (EvalClaim &c : claims)
        tables.push_back(std::move(c.table));
    for (const EvalClaim &c : claims)
        tables.push_back(Mle::eqTable(c.point));

    ProverOutput sc = prove(VirtualPoly(expr, std::move(tables)), tr);

    OpencheckProverOutput out;
    out.polyEvals.assign(sc.proof.finalSlotEvals.begin(),
                         sc.proof.finalSlotEvals.begin() + k);
    out.proof.sc = std::move(sc.proof);
    out.challenges = std::move(sc.challenges);
    return out;
}

OpencheckVerifyResult
verifyOpen(const std::vector<EvalClaim> &claims, const OpencheckProof &proof,
           unsigned num_vars, hash::Transcript &tr)
{
    OpencheckVerifyResult res;
    const std::size_t k = claims.size();
    if (k == 0) {
        res.error = "no claims";
        return res;
    }

    bindClaims(claims, tr);
    Fr eta = tr.challengeFr("oc/eta");

    // Expected batched sum: Sum_i eta^i * y_i.
    Fr expected = Fr::zero();
    Fr coeff = Fr::one();
    for (const EvalClaim &c : claims) {
        expected += coeff * c.value;
        coeff *= eta;
    }

    GateExpr expr = batchedExpr(k, eta);
    RoundCheckResult rounds =
        verifyRounds(proof.sc, num_vars, expr.degree(), tr, expected);
    if (!rounds.ok) {
        res.error = rounds.error;
        return res;
    }
    if (proof.sc.finalSlotEvals.size() != 2 * k) {
        res.error = "wrong number of final slot evaluations";
        return res;
    }

    // Recompute the eq slot evaluations; only the P_i evals stay claimed.
    std::vector<Fr> evals = proof.sc.finalSlotEvals;
    for (std::size_t i = 0; i < k; ++i)
        evals[k + i] = poly::eqEval(rounds.challenges, claims[i].point);
    if (expr.evaluate(evals) != rounds.finalClaim) {
        res.error = "final evaluation check failed";
        return res;
    }

    res.ok = true;
    res.challenges = std::move(rounds.challenges);
    res.polyEvals.assign(evals.begin(), evals.begin() + k);
    return res;
}

} // namespace zkphire::sumcheck
