#include "sumcheck/zerocheck.hpp"

#include <cassert>
#include <functional>

#include "poly/virtual_poly.hpp"
#include "rt/parallel.hpp"

namespace zkphire::sumcheck {

using poly::GateExpr;
using poly::Mle;
using poly::SlotId;
using poly::VirtualPoly;

ZerocheckProverOutput
proveZero(const GateExpr &expr, std::span<const Mle *const> tables,
          hash::Transcript &tr, const rt::Config &cfg,
          std::shared_ptr<const poly::GatePlan> maskedPlan,
          std::vector<Mle> owned)
{
    assert(!tables.empty());
    const unsigned mu = tables[0]->numVars();

    // Pin the whole round (eq-table build included), not just the inner
    // sumcheck; a default Config inherits the ambient setting.
    rt::ScopedConfig scope(cfg);

    ZerocheckProverOutput out;
    out.rVec = tr.challengeFrVec("zc/r", mu);

    SlotId fr_slot = 0;
    GateExpr masked = expr.multipliedBySlot("f_r", &fr_slot);
    // Appending f_r may move the owned tables: re-aim the slots that name
    // them.
    std::vector<const Mle *> slots(tables.begin(), tables.end());
    const Mle *first = owned.data();
    const Mle *last = owned.data() + owned.size();
    owned.push_back(Mle::eqTable(out.rVec));
    const std::less<const Mle *> before;
    for (const Mle *&p : slots)
        if (!before(p, first) && before(p, last))
            p = owned.data() + (p - first);
    slots.push_back(&owned.back());

    ProverOutput sc = prove(VirtualPoly(masked, slots, std::move(owned),
                                        std::move(maskedPlan)),
                            tr);
    assert(sc.proof.claimedSum.isZero() &&
           "ZeroCheck witness does not satisfy the constraint");
    out.proof.sc = std::move(sc.proof);
    out.challenges = std::move(sc.challenges);
    return out;
}

ZerocheckProverOutput
proveZero(const GateExpr &expr, std::vector<Mle> tables, hash::Transcript &tr,
          const rt::Config &cfg,
          std::shared_ptr<const poly::GatePlan> maskedPlan)
{
    std::vector<const Mle *> slots;
    for (const Mle &t : tables)
        slots.push_back(&t);
    return proveZero(expr, slots, tr, cfg, std::move(maskedPlan),
                     std::move(tables));
}

ZerocheckVerifyResult
verifyZero(const GateExpr &expr, const ZerocheckProof &proof,
           unsigned num_vars, hash::Transcript &tr)
{
    ZerocheckVerifyResult res;
    std::vector<Fr> r_vec = tr.challengeFrVec("zc/r", num_vars);

    GateExpr masked = expr.multipliedBySlot("f_r", nullptr);
    RoundCheckResult rounds = verifyRounds(
        proof.sc, num_vars, masked.degree(), tr, Fr::zero());
    if (!rounds.ok) {
        res.error = rounds.error;
        return res;
    }
    if (proof.sc.finalSlotEvals.size() != masked.numSlots()) {
        res.error = "wrong number of final slot evaluations";
        return res;
    }

    // Recompute f_r(challenges) = eq(challenges, r) ourselves and splice it
    // over the prover's claimed value before the final check.
    std::vector<Fr> evals = proof.sc.finalSlotEvals;
    evals.back() = poly::eqEval(rounds.challenges, r_vec);
    if (masked.evaluate(evals) != rounds.finalClaim) {
        res.error = "final evaluation check failed";
        return res;
    }

    res.ok = true;
    res.challenges = std::move(rounds.challenges);
    res.slotEvals.assign(evals.begin(), evals.end() - 1);
    return res;
}

} // namespace zkphire::sumcheck
