/**
 * @file
 * SumCheck prover over composite multilinear polynomials.
 *
 * Implements the mu-round protocol of paper §II-C: in round i the prover
 * sends the univariate s_i(X) as its evaluations at X = 0..D (D = composite
 * degree), obtained by extending every constituent MLE's (lo, hi) pair to
 * X = 2..D with repeated additions ("Extension Engines"), multiplying
 * extensions term-wise ("Product Lanes"), and accumulating down the table.
 * The Fiat-Shamir challenge then drives the MLE Update that halves every
 * table. This functional prover is the reference the hardware model's cycle
 * counts are anchored to, and the baseline CPU implementation we time.
 */
#ifndef ZKPHIRE_SUMCHECK_PROVER_HPP
#define ZKPHIRE_SUMCHECK_PROVER_HPP

#include <vector>

#include "hash/transcript.hpp"
#include "poly/virtual_poly.hpp"
#include "rt/config.hpp"

namespace zkphire::sumcheck {

using ff::Fr;

/** Non-interactive SumCheck proof (Fiat-Shamir transformed). */
struct SumcheckProof {
    /** The claimed value of Sum_x f(x). */
    Fr claimedSum;
    /** Round i's s_i evaluated at 0..degree (degree+1 values per round). */
    std::vector<std::vector<Fr>> roundEvals;
    /** Prover-claimed evaluation of each slot MLE at the challenge point. */
    std::vector<Fr> finalSlotEvals;

    /** Serialized size in bytes (32 B per field element), for proof sizing. */
    std::size_t sizeBytes() const;
};

/** Proof plus the challenge vector the transcript produced. */
struct ProverOutput {
    SumcheckProof proof;
    std::vector<Fr> challenges; // r_1..r_mu in round order
};

/**
 * Run the full SumCheck prover.
 *
 * @param poly Composite polynomial (consumed: tables are folded in place).
 * @param tr   Fiat-Shamir transcript shared with the verifier.
 * @param cfg  Runtime config for the per-round extension/product loop and
 *             the MLE folds (the paper's CPU baselines are 4- and
 *             32-threaded). A default Config inherits the ambient setting
 *             (an enclosing ScopedConfig, else ZKPHIRE_THREADS / hardware
 *             concurrency); threads = 1 forces serial execution. The proof
 *             transcript is bit-identical under every Config.
 *
 * Round evaluations run the poly's compiled GatePlan (shared sub-products,
 * per-slot extension bounds, degree-class accumulation); the naive term
 * walk they must match byte for byte is the test oracle in
 * tests/sumcheck_oracle.hpp.
 */
ProverOutput prove(poly::VirtualPoly poly, hash::Transcript &tr,
                   const rt::Config &cfg = {});

/**
 * The round loop of prove(), under the ambient runtime config: absorbs
 * sc/num_vars, sc/degree, the claimed sum and every round message, and
 * folds poly down to one entry per slot. The returned proof has no
 * finalSlotEvals and sc/final_evals is not appended: prove() appends the
 * folded slot values, and OpenCheck, which runs a regrouped polynomial,
 * appends the evaluations of the ungrouped one.
 */
ProverOutput proveRounds(poly::VirtualPoly &poly, hash::Transcript &tr);

/**
 * Evaluate the univariate polynomial given by its values at 0..d at point r
 * (Lagrange interpolation on the integer nodes). Shared by prover tests and
 * the verifier's round check.
 */
Fr evalUnivariate(std::span<const Fr> evals_at_0_to_d, const Fr &r);

} // namespace zkphire::sumcheck

#endif // ZKPHIRE_SUMCHECK_PROVER_HPP
