/**
 * @file
 * ZeroCheck: proving that a composite polynomial vanishes on the whole
 * hypercube.
 *
 * Per paper §III-F, checking Sum_x f(x) = 0 is insufficient (nonzero gate
 * errors could cancel); instead the prover shows Sum_x f(x) * f_r(x) = 0
 * where f_r(x) = eq(x, r) for a verifier-chosen random vector r. The
 * expression fed to SumCheck is the original gate expression with one extra
 * factor on every term (raising its degree by one), and f_r is built on the
 * fly from r — the Build MLE kernel that zkPHIRE fuses into round 1 of its
 * SumCheck datapath.
 */
#ifndef ZKPHIRE_SUMCHECK_ZEROCHECK_HPP
#define ZKPHIRE_SUMCHECK_ZEROCHECK_HPP

#include <memory>
#include <span>
#include <vector>

#include "sumcheck/prover.hpp"
#include "sumcheck/verifier.hpp"

namespace zkphire::sumcheck {

/** ZeroCheck proof: a SumCheck proof over the f * f_r composition. */
struct ZerocheckProof {
    SumcheckProof sc;
    std::size_t sizeBytes() const { return sc.sizeBytes(); }
};

/** Prover output: proof plus challenge bookkeeping for later openings. */
struct ZerocheckProverOutput {
    ZerocheckProof proof;
    std::vector<Fr> challenges; // SumCheck round challenges (opening point)
    std::vector<Fr> rVec;       // the f_r construction vector
};

/**
 * Prove Sum_x expr(x) = 0 for all x (ZeroCheck).
 *
 * @param expr   Gate expression WITHOUT the f_r factor.
 * @param tables One MLE per expression slot, by address. Round 0 reads
 *               them in place and the first fold writes half-size arena
 *               tables, so nothing is copied: the caller keeps them alive
 *               and they are left unchanged.
 * @param tr     Fiat-Shamir transcript.
 * @param cfg    Prover runtime config (default inherits the ambient
 *               setting; covers the eq-table build and the inner sumcheck).
 * @param maskedPlan Optional precompiled plan for the MASKED composition
 *                expr * f_r (e.g. gates::PlanCache::maskedPlan); when null
 *                the plan is lowered here. The transcript is identical
 *                either way.
 * @param owned  Tables the caller no longer needs, moved in: those that
 *               `tables` names are folded in place instead of into new
 *               tables, and go to the ambient arena at the end.
 */
ZerocheckProverOutput
proveZero(const poly::GateExpr &expr,
          std::span<const poly::Mle *const> tables, hash::Transcript &tr,
          const rt::Config &cfg = {},
          std::shared_ptr<const poly::GatePlan> maskedPlan = nullptr,
          std::vector<poly::Mle> owned = {});

/** By-value adapter (perfbench/'s step-by-step proof): every table is
 *  moved in. Same proof and transcript as the pointer form. */
ZerocheckProverOutput
proveZero(const poly::GateExpr &expr, std::vector<poly::Mle> tables,
          hash::Transcript &tr, const rt::Config &cfg = {},
          std::shared_ptr<const poly::GatePlan> maskedPlan = nullptr);

/** ZeroCheck verification result. */
struct ZerocheckVerifyResult {
    bool ok = false;
    std::string error;
    std::vector<Fr> challenges;   // opening point for the slot MLEs
    std::vector<Fr> slotEvals;    // prover-claimed evals (excluding f_r)
};

/**
 * Verify a ZeroCheck proof. The verifier recomputes f_r's evaluation at the
 * challenge point itself (eq(challenges, r)) rather than trusting the
 * prover, so only the original slots' claimed evaluations remain to be bound
 * by the PCS layer.
 */
ZerocheckVerifyResult verifyZero(const poly::GateExpr &expr,
                                 const ZerocheckProof &proof,
                                 unsigned num_vars, hash::Transcript &tr);

} // namespace zkphire::sumcheck

#endif // ZKPHIRE_SUMCHECK_ZEROCHECK_HPP
