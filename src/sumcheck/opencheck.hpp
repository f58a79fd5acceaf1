/**
 * @file
 * OpenCheck: batching many (polynomial, point, value) evaluation claims into
 * a single SumCheck (paper §IV-A, Table I row 24).
 *
 * Given claims P_i(z_i) = y_i, the verifier samples eta and both sides run
 * SumCheck over
 *     g(x) = Sum_i eta^i * P_i(x) * eq(x, z_i)
 * whose hypercube sum equals Sum_i eta^i * y_i. After the SumCheck, all
 * claims collapse to evaluations of the P_i at ONE common point (the round
 * challenges), which a single batched PCS opening then certifies — this is
 * what keeps HyperPlonk proofs at 4-5 KB.
 *
 * The prover runs g in the paper's shape, Sum_i y_i * f_{r_i} with one eq
 * table per distinct point, by regrouping it on whichever side has fewer
 * members:
 *     by point: Sum_z eq_z * (Sum_{i at z} eta^i P_i)
 *     by table: Sum_t P_t * (Sum_{i on t} eta^i eq_{z_i})
 * A HyperPlonk proof's OpenCheck A (claims at z_g and z_p) groups by point
 * and its OpenCheck B (five claims on v) by table. A point coordinate that
 * is exactly 0 or 1 is placed, not expanded: eq(., z) vanishes off the
 * subcube it fixes, so only the other coordinates' eq table is built. It
 * is the same polynomial, so the round messages are the same field
 * elements; the proof carries the ungrouped final evaluations
 * [P_i(r)..., eq_i(r)...] that verifyOpen checks (DESIGN.md, "OpenCheck:
 * grouped by point or by table").
 */
#ifndef ZKPHIRE_SUMCHECK_OPENCHECK_HPP
#define ZKPHIRE_SUMCHECK_OPENCHECK_HPP

#include <span>
#include <vector>

#include "sumcheck/prover.hpp"
#include "sumcheck/verifier.hpp"

namespace zkphire::sumcheck {

/** One evaluation claim to be batched. */
struct EvalClaim {
    /** The polynomial, held by the by-value proveOpen only: the pointer
     *  form takes tables by address and the verifier needs none. */
    poly::Mle table;
    std::vector<Fr> point;  // z_i
    Fr value;               // y_i
};

/** OpenCheck proof. */
struct OpencheckProof {
    SumcheckProof sc;
    std::size_t sizeBytes() const { return sc.sizeBytes(); }
};

struct OpencheckProverOutput {
    OpencheckProof proof;
    std::vector<Fr> challenges; // the single common opening point
    /** P_i evaluations at the common point (to be PCS-opened). */
    std::vector<Fr> polyEvals;
};

/**
 * Prove a batch of evaluation claims: claims[i] (its point and value; its
 * table field is unused) is on *tables[i]. All points must have equal
 * dims. Claims on one table object share it: its P(r) is computed once,
 * and grouped by table it is one group. Combined and eq tables come from
 * the ambient arena and go back to it. cfg covers the table builds as well
 * as the inner sumcheck.
 */
OpencheckProverOutput proveOpen(std::span<const EvalClaim> claims,
                                std::span<const poly::Mle *const> tables,
                                hash::Transcript &tr,
                                const rt::Config &cfg = {});

/**
 * By-value form over the pointer form: claims whose tables hold equal
 * entries are taken as claims on one table, so copies group as the tables
 * they were copied from. Every claim table goes back to the ambient arena.
 */
OpencheckProverOutput proveOpen(std::vector<EvalClaim> claims,
                                hash::Transcript &tr,
                                const rt::Config &cfg = {});

struct OpencheckVerifyResult {
    bool ok = false;
    std::string error;
    std::vector<Fr> challenges;
    std::vector<Fr> polyEvals; // claimed P_i(challenges), PCS-bound later
};

/**
 * Verify an OpenCheck proof against claims (tables not needed; only points
 * and values). eq(x, z_i) evaluations at the challenge point are recomputed
 * by the verifier.
 */
OpencheckVerifyResult verifyOpen(const std::vector<EvalClaim> &claims,
                                 const OpencheckProof &proof,
                                 unsigned num_vars, hash::Transcript &tr);

} // namespace zkphire::sumcheck

#endif // ZKPHIRE_SUMCHECK_OPENCHECK_HPP
